"""Scenario file format: parsing, validation errors, round trips."""

import re

import numpy as np
import pytest

from conftest import random_binary, worked_case
from zbias import (
    BinaryScenario,
    CovariateFamily,
    DiscreteScenario,
    InvariantViolation,
    PotentialOutcomeScenario,
    ScenarioFormatError,
    Stratum,
    ZbiasError,
    check_cor4,
    parse_scenario,
    serialize_scenario,
    to_discrete,
)
from zbias.cli import main

CASE1_TEXT = """\
# worked example, all ten probabilities
kind = binary
pZ = 0.5
pU = 0.5
p11 = 0.8
p10 = 0.6
p01 = 0.2
p00 = 0.1
r11 = 0.08
r10 = 0.06
r01 = 0.02
r00 = 0.01
"""

DISCRETE_TEXT = """\
kind = discrete
z_support = 0, 1
z_pmf = 0.5, 0.5
u_support = 0, 1
u_pmf = 0.4, 0.6
treat[0][0] = 0.1
treat[0][1] = 0.2
treat[1][0] = 0.6
treat[1][1] = 0.8
mean[0][0][0] = 0.01
mean[0][0][1] = 0.02
mean[0][1][0] = 0.01
mean[0][1][1] = 0.02
mean[1][0][0] = 0.06
mean[1][0][1] = 0.08
mean[1][1][0] = 0.06
mean[1][1][1] = 0.08
law[0][0] = 0:0.99, 1:0.01
law[0][1] = 0:0.98, 1:0.02
law[1][0] = 0:0.94, 1:0.06
law[1][1] = 0:0.92, 1:0.08
binary_outcome = true
"""

PO_TEXT = """\
kind = potential_outcomes
pi_support = 0.3, 0.7
pi_pmf = 0.5, 0.5
y_pairs = 0,0:0.4; 0,1:0.1; 1,0:0.1; 1,1:0.4
treat[0][0] = 0.2
treat[0][1] = 0.3
treat[0][2] = 0.3
treat[0][3] = 0.4
treat[1][0] = 0.6
treat[1][1] = 0.7
treat[1][2] = 0.7
treat[1][3] = 0.8
"""

FAMILY_TEXT = """\
kind = covariate_family
begin stratum young 0.3
  z_support = 0, 1
  z_pmf = 0.5, 0.5
  u_support = 0, 1
  u_pmf = 0.5, 0.5
  treat[0][0] = 0.1
  treat[0][1] = 0.2
  treat[1][0] = 0.6
  treat[1][1] = 0.8
  mean[0][0][0] = 0.01
  mean[0][0][1] = 0.02
  mean[0][1][0] = 0.01
  mean[0][1][1] = 0.02
  mean[1][0][0] = 0.06
  mean[1][0][1] = 0.08
  mean[1][1][0] = 0.06
  mean[1][1][1] = 0.08
end stratum
begin stratum old 0.7
  z_support = 0, 1
  z_pmf = 0.4, 0.6
  u_support = 0, 1
  u_pmf = 0.5, 0.5
  treat[0][0] = 0.1
  treat[0][1] = 0.3
  treat[1][0] = 0.2
  treat[1][1] = 0.3
  mean[0][0][0] = 0.01
  mean[0][0][1] = 0.03
  mean[0][1][0] = 0.01
  mean[0][1][1] = 0.03
  mean[1][0][0] = 0.02
  mean[1][0][1] = 0.03
  mean[1][1][0] = 0.02
  mean[1][1][1] = 0.03
end stratum
"""


def test_parse_binary_worked_case():
    s = parse_scenario(CASE1_TEXT)
    assert isinstance(s, BinaryScenario)
    assert s == worked_case("case1")
    assert s.binary_outcome


def test_parse_discrete():
    s = parse_scenario(DISCRETE_TEXT)
    assert isinstance(s, DiscreteScenario)
    assert s.treat[1][1] == 0.8
    assert s.outcome_law is not None
    assert s.binary_outcome


def test_parse_potential_outcomes():
    s = parse_scenario(PO_TEXT)
    assert isinstance(s, PotentialOutcomeScenario)
    assert s.y_pairs == ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    assert s.treat[1][3] == 0.8


def test_parse_family():
    s = parse_scenario(FAMILY_TEXT)
    assert isinstance(s, CovariateFamily)
    assert [st.label for st in s.strata] == ["young", "old"]
    assert s.strata[0].weight == 0.3


@pytest.mark.parametrize(
    "old, new",
    [("begin stratum", "begin\tstratum"), ("begin stratum", "begin  stratum"),
     ("end stratum", "end\tstratum"), ("end stratum", "end  stratum")],
    ids=["begin tab", "begin two spaces", "end tab", "end two spaces"],
)
def test_stratum_header_and_footer_split_on_any_whitespace(old, new):
    assert parse_scenario(FAMILY_TEXT.replace(old, new)) == parse_scenario(FAMILY_TEXT)


def test_unknown_kind():
    with pytest.raises(ScenarioFormatError, match="unknown kind"):
        parse_scenario("kind = banana\n")


def test_missing_kind():
    with pytest.raises(ScenarioFormatError, match="kind"):
        parse_scenario("pZ = 0.5\n")


def test_syntax_error_reports_line():
    bad = CASE1_TEXT.replace("p01 = 0.2", "p01 0.2")
    with pytest.raises(ScenarioFormatError, match="line 7"):
        parse_scenario(bad)


def test_duplicate_key_rejected():
    bad = CASE1_TEXT + "pZ = 0.6\n"
    with pytest.raises(ScenarioFormatError, match="duplicate key 'pZ'"):
        parse_scenario(bad)


def test_unknown_key_rejected():
    bad = CASE1_TEXT + "shoe_size = 44\n"
    with pytest.raises(ScenarioFormatError, match="unknown key 'shoe_size'"):
        parse_scenario(bad)


def test_out_of_range_probability_names_field():
    bad = CASE1_TEXT.replace("p11 = 0.8", "p11 = 1.2")
    with pytest.raises(InvariantViolation, match="p11"):
        parse_scenario(bad)


def test_po_consistency_violation_cites_constraint():
    bad = PO_TEXT.replace("treat[0][0] = 0.2", "treat[0][0] = 0.9")
    with pytest.raises(InvariantViolation, match="Pr\\(A=1\\|pi\\)=pi"):
        parse_scenario(bad)


def test_missing_treat_cell():
    bad = "\n".join(
        line for line in DISCRETE_TEXT.splitlines() if not line.startswith("treat[1][1]")
    )
    with pytest.raises(ScenarioFormatError, match="treat\\[1\\]\\[1\\]"):
        parse_scenario(bad)


def test_incomplete_law_rejected():
    bad = "\n".join(
        line for line in DISCRETE_TEXT.splitlines() if not line.startswith("law[0][1]")
    )
    with pytest.raises(ScenarioFormatError, match="law\\[0\\]\\[1\\]"):
        parse_scenario(bad)


def test_unterminated_stratum():
    bad = FAMILY_TEXT.rsplit("end stratum", 1)[0]
    with pytest.raises(ScenarioFormatError, match="unterminated"):
        parse_scenario(bad)


def test_stratum_weight_must_be_a_number():
    bad = FAMILY_TEXT.replace("begin stratum old 0.7", "begin stratum old 0.7x")
    with pytest.raises(ScenarioFormatError,
                       match=r"^line 20: stratum weight: not a number: '0\.7x'$"):
        parse_scenario(bad)


def test_comments_and_blank_lines_ignored():
    text = "\n\n# header\nkind = binary  # trailing\n" + CASE1_TEXT.split("\n", 2)[2]
    s = parse_scenario(text)
    assert isinstance(s, BinaryScenario)


@pytest.mark.parametrize(
    "text", [CASE1_TEXT, DISCRETE_TEXT, PO_TEXT, FAMILY_TEXT], ids=["binary", "discrete", "po", "family"]
)
def test_round_trip_exact(text):
    scenario = parse_scenario(text)
    again = parse_scenario(serialize_scenario(scenario))
    assert again == scenario


def test_round_trip_random_binary_fields_exact():
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = random_binary(rng)
        assert parse_scenario(serialize_scenario(s)) == s


def test_round_trip_discrete_with_law():
    s = to_discrete(worked_case("case2"))
    assert parse_scenario(serialize_scenario(s)) == s


def test_round_trip_three_valued_law():
    law = (
        (((0.0, 0.5), (1.5, 0.3), (2.0, 0.2)), ((0.0, 0.3), (1.5, 0.4), (2.0, 0.3))),
        (((0.0, 0.2), (1.5, 0.5), (2.0, 0.3)), ((0.0, 0.1), (1.5, 0.4), (2.0, 0.5))),
    )
    means = tuple(
        tuple(
            tuple(sum(v * p for v, p in law[a][j]) for j in (0, 1)) for _ in (0, 1)
        )
        for a in (0, 1)
    )
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.4, 0.6),
        treat=((0.2, 0.4), (0.5, 0.7)),
        outcome_mean=means,
        outcome_law=law,
    )
    assert parse_scenario(serialize_scenario(s)) == s


# Indexed keys (treat[i][j], mean[a][i][j], law[a][j]): messages and line
# numbers as the parser has always reported them.
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("treat[1][1] = 0.8", "treat[1] = 0.8", "line 9: treat[1]: expected 2 indices"),
        ("mean[1][1][1] = 0.08", "mean[1][1] = 0.08", "line 17: mean[1][1]: expected 3 indices"),
        ("law[1][1] = 0:0.92, 1:0.08", "law[1][1][0] = 0:0.92, 1:0.08",
         "line 21: law[1][1][0]: expected 2 indices"),
        ("treat[1][1] = 0.8", "treat[1][1] = 0.8\ntreat[2][0] = 0.5",
         "line 10: treat index out of range"),
        ("mean[1][1][1] = 0.08", "mean[1][1][1] = 0.08\nmean[2][0][0] = 0.5",
         "line 18: mean index out of range"),
        ("law[1][1] = 0:0.92, 1:0.08", "law[1][1] = 0:0.92, 1:0.08\nlaw[0][7] = 0:1",
         "line 22: law index out of range"),
        ("binary_outcome = true", "foo[0] = 1\nbinary_outcome = true",
         "line 22: unknown key 'foo[0]'"),
        ("treat[1][1] = 0.8", "treat[1][1] = 0.8\ntreat1[0][0] = 0.5",
         "line 10: unknown key 'treat1[0][0]'"),
        ("mean[0][0][0] = 0.01", "mean[0][0] = 0.01", "line 10: mean[0][0]: expected 3 indices"),
    ],
)
def test_indexed_key_errors(old, new, message):
    assert old in DISCRETE_TEXT
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(DISCRETE_TEXT.replace(old, new))
    assert str(info.value) == message


# Lowest propensity 1e-12: setting it to 0 keeps Pr(A=1|pi) = pi within
# tolerance and every treatment cell positive.
TINY_PI_TEXT = """\
kind = potential_outcomes
pi_support = 1e-12, 0.5
pi_pmf = 0.5, 0.5
y_pairs = 0,0:0.25; 0,1:0.25; 1,0:0.25; 1,1:0.25
treat[0][0] = 1e-12
treat[0][1] = 1e-12
treat[0][2] = 1e-12
treat[0][3] = 1e-12
treat[1][0] = 0.5
treat[1][1] = 0.5
treat[1][2] = 0.5
treat[1][3] = 0.5
"""


@pytest.mark.parametrize(
    "text, old, new, message",
    [
        (DISCRETE_TEXT, "z_support = 0, 1", "z_support =", "line 2: z_support: empty list"),
        (FAMILY_TEXT, "begin stratum young 0.3", "begin stratum a",
         "line 2: expected 'begin stratum <label> <weight>'"),
        (FAMILY_TEXT, "begin stratum young 0.3", "begin stratumX young 0.3",
         "line 2: expected 'begin stratum <label> <weight>'"),
        (FAMILY_TEXT, "begin stratum young 0.3", "begin stratum a -1",
         "stratum a weight: must be nonnegative"),
        (FAMILY_TEXT, "begin stratum young 0.3\n", "begin stratum young 0.3\n  kind = binary\n",
         "line 3: stratum 'young': body must be discrete-kind"),
        (PO_TEXT, "y_pairs = 0,0:0.4; 0,1:0.1; 1,0:0.1; 1,1:0.4", "y_pairs = ;",
         "line 4: y_pairs: empty list"),
        (FAMILY_TEXT, FAMILY_TEXT.partition("\n")[2], "",
         "covariate_family requires at least one stratum block"),
        (DISCRETE_TEXT, "law[0][0] = 0:0.99, 1:0.01", "law[0][0] = 0:0.99, 2:0.01",
         "law[0][0]: binary outcome law must be supported on {0, 1}"),
        (TINY_PI_TEXT, "pi_support = 1e-12, 0.5", "pi_support = 0, 0.5",
         "multiplicative model needs pi > 0 at every level"),
    ],
    ids=["empty list", "stratum header", "stratum header word", "stratum weight", "stratum kind", "empty y_pairs",
         "no strata", "binary law", "cor4 pi"],
)
def test_file_errors_are_one_line(tmp_path, capsys, text, old, new, message):
    # Each file runs through `check --theorem cor4`: parse errors come first.
    assert old in text
    text = text.replace(old, new)
    with pytest.raises(ZbiasError) as info:
        check_cor4(parse_scenario(text))
    assert str(info.value) == message
    path = tmp_path / "bad.scn"
    path.write_text(text)
    assert main(["check", str(path), "--theorem", "cor4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_table_reraises_a_fault_the_walk_does_not_meet():
    # The file parsers are deterministic, so the walk always names the bad
    # cell; a parse that fails only once gets its first error back instead
    # of a table that was never built.
    from zbias import scenario_io

    calls = []

    def fails_once(text):
        calls.append(text)
        if len(calls) == 1:
            raise ValueError("first call")
        return float(text)

    with pytest.raises(ValueError, match="^first call$"):
        scenario_io._table(scenario_io._Entries(), (["t[0]"], ["0.5"], {}), "t", (1,),
                           fails_once)
    assert calls == ["0.5", "0.5"]


def test_indexed_key_error_order_follows_table_order():
    text = DISCRETE_TEXT.replace("mean[0][0][0] = 0.01", "mean[0][0] = 0.01")
    text = text.replace("treat[1][1] = 0.8", "treat[1] = 0.8")
    with pytest.raises(ScenarioFormatError, match=r"^line 9: treat\[1\]: expected 2 indices$"):
        parse_scenario(text)


def test_po_indexed_key_errors():
    with pytest.raises(ScenarioFormatError, match=r"^line 12: treat\[1\]\[3\]\[0\]: expected 2"):
        parse_scenario(PO_TEXT.replace("treat[1][3] = 0.8", "treat[1][3][0] = 0.8"))
    with pytest.raises(ScenarioFormatError, match=r"^line 13: treat index out of range$"):
        parse_scenario(PO_TEXT + "treat[0][4] = 0.5\n")


def test_indices_are_read_as_integers():
    s = parse_scenario(DISCRETE_TEXT.replace("treat[1][0] = 0.6", "treat[01][00] = 0.6"))
    assert s == parse_scenario(DISCRETE_TEXT)
    # Two spellings of one cell are two keys, not a duplicate: the later
    # line wins.
    for lines in ("treat[1][1] = 0.7\ntreat[001][1] = 0.8",
                  "treat[001][1] = 0.7\ntreat[1][1] = 0.8"):
        twice = parse_scenario(DISCRETE_TEXT.replace("treat[1][1] = 0.8", lines))
        assert twice == parse_scenario(DISCRETE_TEXT)


NON_BINARY_TEXT = DISCRETE_TEXT.replace("binary_outcome = true", "binary_outcome = false")


@pytest.mark.parametrize(
    "text, old, new, field",
    [
        (DISCRETE_TEXT, "z_support = 0, 1", "z_support = 0, inf", "z_support"),
        (DISCRETE_TEXT, "u_support = 0, 1", "u_support = -inf, 1", "u_support"),
        # A zero-probability infinite value makes the law mean NaN, which
        # the law/mean agreement check cannot catch.
        (NON_BINARY_TEXT, "law[0][0] = 0:0.99, 1:0.01", "law[0][0] = 0:0.99, 1:0.01, inf:0",
         "law[0][0]"),
        (PO_TEXT, "y_pairs = 0,0:0.4;", "y_pairs = 0,-inf:0.4;", "y_pairs"),
        (PO_TEXT, "pi_support = 0.3, 0.7", "pi_support = 0.3, inf", "pi_support"),
    ],
    ids=["z_support", "u_support", "law", "y_pairs", "pi_support"],
)
def test_non_finite_numbers_rejected(text, old, new, field):
    assert old in text
    with pytest.raises(InvariantViolation, match=f"^{re.escape(field)}: must be finite$"):
        parse_scenario(text.replace(old, new))


# More digits than int() accepts (4,300): no table is that large.
NINES = "9" * 5000


@pytest.mark.parametrize(
    "text, line",
    [
        (DISCRETE_TEXT, f"treat[{NINES}][0] = 0.5"),
        (DISCRETE_TEXT, f"mean[0][0][{NINES}] = 0.5"),
        (DISCRETE_TEXT, f"law[{NINES}][0] = 0:1"),
        (PO_TEXT, f"treat[0][{NINES}] = 0.5"),
    ],
    ids=["treat", "mean", "law", "po treat"],
)
def test_oversized_index_is_out_of_range(tmp_path, capsys, text, line):
    base = line.partition("[")[0]
    lineno = len(text.splitlines()) + 1
    with pytest.raises(ScenarioFormatError, match=rf"^line {lineno}: {base} index out of range$"):
        parse_scenario(text + line + "\n")
    path = tmp_path / "huge.scn"
    path.write_text(text + line + "\n")
    assert main(["eval", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {lineno}: {base} index out of range\n"


def test_oversized_index_depth_and_leading_zeros():
    # A wrong depth is still reported as such, and a long run of leading
    # zeros is just another spelling of a small index.
    with pytest.raises(ScenarioFormatError, match=r"^line 23: treat\[9+\]: expected 2 indices$"):
        parse_scenario(DISCRETE_TEXT + f"treat[{NINES}] = 0.5\n")
    zeros = DISCRETE_TEXT.replace("treat[1][0] =", f"treat[{'0' * 5000}1][0] =")
    assert parse_scenario(zeros) == parse_scenario(DISCRETE_TEXT)


@pytest.mark.parametrize("label", ["young", "a=b", "[0]", "\u00e9"])
def test_stratum_labels_round_trip(label):
    body = parse_scenario(FAMILY_TEXT).strata[0].scenario
    family = CovariateFamily(strata=(Stratum(label, 1.0, body),))
    assert parse_scenario(serialize_scenario(family)) == family


@pytest.mark.parametrize("label", ["a b", "a#b", "", " a", "a\u2028b", 3])
def test_labels_a_file_cannot_hold_are_rejected(label):
    # serialize_scenario would write these so that parse_scenario rejects
    # the file or reads a different label back.
    body = parse_scenario(FAMILY_TEXT).strata[0].scenario
    with pytest.raises(InvariantViolation) as info:
        Stratum(label, 1.0, body)
    assert str(info.value) == (
        f"stratum label: must be a nonempty string without whitespace or '#', got {label!r}"
    )
