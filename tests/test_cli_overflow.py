"""Sums that overflow the largest double, and files that are not UTF-8, end in
one diagnostic line with exit 1 instead of an internal error.

Validation sums name their field (``z_pmf: must sum to 1, got inf``); an
overflowed result reaches the first non-finite slot's error.  A sum whose
partial sums overflow although its value rounds to a finite double keeps
that value.
"""

import json
import math

import pytest

from zbias.cli import main

MAX = "1.7976931348623157e308"


def _run(capsys, tmp_path, text, *args):
    """(exit code, stderr) of a run that fails with one line on stderr."""
    code, out, err = _run_any(capsys, tmp_path, text, *args)
    assert out == ""
    assert err.count("\n") == 1
    return code, err


def _run_any(capsys, tmp_path, text, *args):
    path = tmp_path / "world.scn"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main([args[0], str(path), *args[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _discrete(z_pmf="1", n_z=1, mean="0", law=None, treat=("0.5",)):
    lines = ["kind = discrete", f"z_support = {', '.join(map(str, range(n_z)))}",
             f"z_pmf = {z_pmf}", "u_support = 0", "u_pmf = 1"]
    lines += [f"treat[{i}][0] = {treat[i % len(treat)]}" for i in range(n_z)]
    lines += [f"mean[{a}][{i}][0] = {mean}" for a in (0, 1) for i in range(n_z)]
    if law is not None:
        lines += [f"law[0][0] = {law}", "law[1][0] = 0:1"]
    return "\n".join(lines) + "\n"


def test_overflowing_z_pmf_names_the_field(capsys, tmp_path):
    code, err = _run(capsys, tmp_path, _discrete("1e308, 1e308", n_z=2), "eval")
    assert (code, err) == (1, "error: z_pmf: must sum to 1, got inf\n")


def test_overflowing_pair_masses_name_y_pairs(capsys, tmp_path):
    text = ("kind = potential_outcomes\npi_support = 0.5\npi_pmf = 1\n"
            "y_pairs = 1,0:1e308; 0,1:1e308\ntreat[0][0] = 0.5\ntreat[0][1] = 0.5\n")
    code, err = _run(capsys, tmp_path, text, "eval")
    assert (code, err) == (1, "error: y_pairs: must sum to 1, got inf\n")


def test_overflowing_law_masses_name_the_law_cell(capsys, tmp_path):
    code, err = _run(capsys, tmp_path, _discrete(law="0:1e308, 1:1e308"), "dce",
                     "--threshold", "0")
    assert (code, err) == (1, "error: law[0][0]: must sum to 1, got inf\n")


def test_overflowing_stratum_weights_name_the_strata(capsys, tmp_path):
    body = _discrete().replace("kind = discrete\n", "")
    text = ("kind = covariate_family\n" + f"begin stratum a 1e308\n{body}end stratum\n"
            + f"begin stratum b 1e308\n{body}end stratum\n")
    code, err = _run(capsys, tmp_path, text, "average")
    assert (code, err) == (1, "error: strata: weights must sum to 1, got inf\n")


def test_overflowing_law_mean_does_not_match(capsys, tmp_path):
    text = _discrete(mean="0", law=f"1.79e308:1e-10, {MAX}:1.0").replace(
        "mean[0][0][0] = 0", f"mean[0][0][0] = {MAX}")
    code, err = _run(capsys, tmp_path, text, "eval")
    assert code == 1
    assert err == ("error: law[0][0]: law mean inf does not match "
                   "mean[0][0][0] = 1.7976931348623157e+308\n")


@pytest.mark.parametrize("command", ["eval", "rr"])
def test_overflowing_estimator_sums_name_a_slot(capsys, tmp_path, command):
    # The masses sum to 1 within tolerance, yet E{Y(1)} passes the largest double.
    text = _discrete("0.5, 0.5000000005", n_z=2, mean=MAX, treat=("0.5", "0.6"))
    code, err = _run(capsys, tmp_path, text, command)
    assert (code, err) == (1, "error: true_control: nan is not finite\n")


def test_propensity_merge_past_an_intermediate_overflow(capsys, tmp_path):
    # Merging the three levels sums terms whose partial sums pass the largest
    # double although the mass-weighted mean itself rounds to it.
    text = _discrete("0.466, 0.068, 0.466", n_z=3, mean=MAX, treat=("0.5",))
    code, out, err = _run_any(capsys, tmp_path, text, "eval",
                              "--conditioning", "on_propensity")
    assert (code, err) == (0, "")
    assert json.loads(out)["adj_all"] == 0.0


def test_thm4_covariance_past_an_intermediate_overflow(capsys, tmp_path):
    text = ("kind = potential_outcomes\npi_support = 0.25, 0.75\npi_pmf = 0.5, 0.5000000005\n"
            f"y_pairs = 1e308,{MAX}:1.0; -1.0,0.0:0.0\n"
            "treat[0][0] = 0.25\ntreat[0][1] = 0.5\ntreat[1][0] = 0.75\ntreat[1][1] = 0.5\n")
    code, out, err = _run_any(capsys, tmp_path, text, "check", "--theorem", "thm4")
    assert (code, err) == (0, "")
    reports = json.loads(out)
    assert [r["condition_id"] for r in reports] == ["thm4.a", "thm4.b"]
    assert reports[1]["holds"] and math.isfinite(reports[1]["margin"])


def test_non_utf8_file_names_the_line(capsys, tmp_path):
    code, err = _run(capsys, tmp_path, b"kind = binary\npZ = 0.5 # \xff\n", "eval")
    assert (code, err) == (1, "error: line 2: not valid UTF-8 text\n")


def test_non_utf8_line_after_a_byte_order_mark_keeps_its_number(capsys, tmp_path):
    code, err = _run(capsys, tmp_path, b"\xef\xbb\xbfkind = binary\npZ = 0.5 # \xff\n", "eval")
    assert (code, err) == (1, "error: line 2: not valid UTF-8 text\n")


def test_parse_error_after_a_byte_order_mark_keeps_its_line(capsys, tmp_path):
    code, err = _run(capsys, tmp_path, "\ufeffkind = binary\npZ 0.5\n", "eval")
    assert (code, err) == (1, "error: line 2: expected 'key = value', got 'pZ 0.5'\n")


def test_non_utf8_line_is_counted_as_the_parser_counts(capsys, tmp_path):
    # CRLF and a lone CR end one line each, as in parse_scenario.
    code, err = _run(capsys, tmp_path, b"kind = binary\r\n\rpZ = 0.5\n\xc3\n", "eval")
    assert (code, err) == (1, "error: line 4: not valid UTF-8 text\n")


def _nan_margin_text():
    """E(Y|A=0,Z=z) overflows to inf at both z, so each thm1.b slack is
    inf - inf: the margin is NaN, and no comparison is a violation."""
    lines = ["kind = discrete", "z_support = 0.0, 1.0", "z_pmf = 0.5, 0.5",
             "u_support = 0.0, 1.0", "u_pmf = 1e-300, 1.00000000099",
             "treat[0][0] = 0.5", "treat[0][1] = 0.5", "treat[1][0] = 0.6", "treat[1][1] = 0.6"]
    lines += [f"mean[0][{i}][{j}] = {m}" for i in (0, 1) for j, m in enumerate(("0.0", MAX))]
    lines += [f"mean[1][{i}][{j}] = {m}" for i in (0, 1) for j, m in enumerate(("0.0", "0.5"))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("theorem", ["thm1", "thm7"])
def test_nan_margin_names_the_report(capsys, tmp_path, theorem):
    code, err = _run(capsys, tmp_path, _nan_margin_text(), "check", "--theorem", theorem)
    assert (code, err) == (1, f"error: {theorem}.b: margin nan is not finite\n")
