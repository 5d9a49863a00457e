"""Command-line interface: subcommands, output formats, exit codes."""

import json
import subprocess
import sys

import pytest

from conftest import worked_case
from test_scenario_io import CASE1_TEXT, DISCRETE_TEXT, FAMILY_TEXT, PO_TEXT
from zbias import serialize_scenario

CASE2_TEXT = serialize_scenario(worked_case("case2"))
CASE3_TEXT = serialize_scenario(worked_case("case3"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "zbias", *args], capture_output=True, text=True
    )


@pytest.fixture
def case1_file(tmp_path):
    path = tmp_path / "case1.scn"
    path.write_text(CASE1_TEXT)
    return str(path)


def test_eval_json(case1_file):
    cp = run_cli("eval", case1_file)
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    assert data["conditioning"] == "on_z"
    assert round(data["true_all"], 4) == 0.0550
    assert round(data["adj_all"], 4) == 0.0584


def test_eval_table_row(case1_file):
    cp = run_cli("eval", case1_file, "--table", "--conditioning", "on_z")
    assert cp.returncode == 0
    row = cp.stdout.splitlines()[-1].split()
    assert row == ["0.0550", "0.0574", "0.0584", "YES"]


def test_eval_table_all_cases(tmp_path):
    rows = {}
    for name, text in (("case1", CASE1_TEXT), ("case2", CASE2_TEXT), ("case3", CASE3_TEXT)):
        path = tmp_path / f"{name}.scn"
        path.write_text(text)
        cp = run_cli("eval", str(path), "--table")
        assert cp.returncode == 0
        rows[name] = cp.stdout.splitlines()[-1].split()
    assert rows["case1"] == ["0.0550", "0.0574", "0.0584", "YES"]
    assert rows["case2"] == ["0.0050", "0.0076", "0.0077", "YES"]
    assert rows["case3"] == ["0.0150", "0.0173", "0.0172", "NO"]


def test_eval_on_propensity(case1_file):
    cp = run_cli("eval", case1_file, "--conditioning", "on_propensity")
    data = json.loads(cp.stdout)
    assert data["conditioning"] == "on_propensity"
    assert round(data["adj_all"], 4) == 0.0584


def test_eval_potential_outcomes(tmp_path):
    path = tmp_path / "po.scn"
    path.write_text(PO_TEXT)
    cp = run_cli("eval", str(path))
    assert cp.returncode == 0
    assert json.loads(cp.stdout)["conditioning"] == "on_propensity"


def test_check_weaker(case1_file):
    cp = run_cli("check", case1_file, "--theorem", "weaker")
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    assert data[0]["condition_id"] == "weaker_condition"
    assert data[0]["holds"] is True


def test_check_thm1_bundle(case1_file):
    cp = run_cli("check", case1_file, "--theorem", "thm1")
    data = json.loads(cp.stdout)
    assert [r["condition_id"] for r in data] == ["thm1.a1", "thm1.a2", "thm1.a3", "thm1.b"]
    assert all(r["holds"] for r in data)


def test_check_collider_bundle(case1_file):
    cp = run_cli("check", case1_file, "--theorem", "collider")
    data = json.loads(cp.stdout)
    assert data[0]["condition_id"] == "collider.a0.monotone"


def test_check_po_theorems(tmp_path):
    path = tmp_path / "po.scn"
    path.write_text(PO_TEXT)
    for theorem in ("thm4", "cor3", "cor4", "thm5-binary"):
        cp = run_cli("check", str(path), "--theorem", theorem)
        assert cp.returncode == 0, cp.stderr
        assert json.loads(cp.stdout)


def test_check_kind_mismatch_is_validation_error(case1_file):
    cp = run_cli("check", case1_file, "--theorem", "thm4")
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:")
    assert len(cp.stderr.strip().splitlines()) == 1


def test_dce_binary_equals_eval(case1_file):
    eval_data = json.loads(run_cli("eval", case1_file).stdout)
    cp = run_cli("dce", case1_file, "--threshold", "0.5")
    data = json.loads(cp.stdout)
    assert data["threshold"] == 0.5
    for key in ("true_all", "unadj", "adj_all"):
        assert data[key] == pytest.approx(eval_data[key], abs=1e-12)


def test_rr_output(case1_file):
    cp = run_cli("rr", case1_file)
    data = json.loads(cp.stdout)
    assert data["unadj"] == pytest.approx((0.0305 / 0.425) / (0.00825 / 0.575), abs=1e-12)


def test_average(tmp_path):
    from zbias import covariate_average, parse_scenario

    path = tmp_path / "family.scn"
    path.write_text(FAMILY_TEXT)
    cp = run_cli("average", str(path))
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    expected = covariate_average(parse_scenario(FAMILY_TEXT))
    assert data["f"] == expected.treated_fraction
    assert data["true_all"] == expected.true_all
    assert data["adj_treated"] == expected.adj_treated


def test_mc_json(tmp_path):
    cp = run_cli("mc", "--draws", "20000", "--seed", "42")
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    assert data["draws"] == 20000
    assert data["seed"] == 42
    assert 0.6 < data["volume"] < 0.76


def test_mc_filter_flag():
    cp = run_cli("mc", "--draws", "500", "--seed", "7", "--filter", "cor1")
    assert cp.returncode == 0
    data = json.loads(cp.stdout)
    assert data["volume"] + data["tie_count"] / 500 == 1.0


def test_eval_direct_effect_flag(tmp_path):
    text = DISCRETE_TEXT
    # Make the treated-arm outcome depend on the instrument level.
    text = text.replace("mean[1][1][1] = 0.08", "mean[1][1][1] = 0.09")
    text = "\n".join(
        line for line in text.splitlines() if not line.startswith("law")
    )
    path = tmp_path / "direct.scn"
    path.write_text(text)
    refused = run_cli("eval", str(path))
    assert refused.returncode == 1
    assert "direct" in refused.stderr
    allowed = run_cli("eval", str(path), "--allow-direct-effect")
    assert allowed.returncode == 0
    json.loads(allowed.stdout)


def test_scatter_writes_csv(tmp_path):
    out = tmp_path / "scatter.csv"
    cp = run_cli("scatter", "--draws", "50", "--seed", "3", "--out", str(out))
    assert cp.returncode == 0
    assert json.loads(cp.stdout)["rows"] == 50
    assert out.read_text().splitlines()[0].startswith("pZ,pU,")


def test_scatter_reports_path_as_json_string(tmp_path):
    out = tmp_path / 'odd "name" \\ here.csv'
    cp = run_cli("scatter", "--draws", "5", "--seed", "3", "--out", str(out))
    assert cp.returncode == 0
    assert json.loads(cp.stdout) == {"rows": 5, "out": str(out)}
    assert out.exists()
    plain = tmp_path / "plain.csv"
    cp = run_cli("scatter", "--draws", "5", "--seed", "3", "--out", str(plain))
    assert cp.stdout == '{"rows": 5, "out": "%s"}\n' % plain


def test_byte_identical_reruns(case1_file):
    first = run_cli("eval", case1_file)
    second = run_cli("eval", case1_file)
    assert first.stdout == second.stdout
    mc1 = run_cli("mc", "--draws", "5000", "--seed", "11")
    mc2 = run_cli("mc", "--draws", "5000", "--seed", "11")
    assert mc1.stdout == mc2.stdout


def test_missing_file_is_io_error():
    cp = run_cli("eval", "/nonexistent/nowhere.scn")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error:")
    assert len(cp.stderr.strip().splitlines()) == 1


def test_invalid_scenario_is_validation_error(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text(CASE1_TEXT.replace("p11 = 0.8", "p11 = 1.2"))
    cp = run_cli("eval", str(path))
    assert cp.returncode == 1
    assert "p11" in cp.stderr
    assert len(cp.stderr.strip().splitlines()) == 1


def test_degenerate_population_exit_code(tmp_path):
    text = CASE1_TEXT
    for key in ("p11 = 0.8", "p10 = 0.6", "p01 = 0.2", "p00 = 0.1"):
        text = text.replace(key, key.split(" =")[0] + " = 0")
    path = tmp_path / "degenerate.scn"
    path.write_text(text)
    cp = run_cli("eval", str(path))
    assert cp.returncode == 3
    assert len(cp.stderr.strip().splitlines()) == 1


def test_unknown_flag_rejected(case1_file):
    cp = run_cli("eval", case1_file, "--bogus")
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:")
    assert len(cp.stderr.strip().splitlines()) == 1


def test_unknown_subcommand_rejected():
    cp = run_cli("frobnicate")
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:")


def test_dce_requires_threshold(case1_file):
    cp = run_cli("dce", case1_file)
    assert cp.returncode == 1
    assert "threshold" in cp.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dce_non_finite_threshold_is_validation_error(case1_file, value):
    # The "=" form keeps argparse from reading "-inf" as an option.
    cp = run_cli("dce", case1_file, f"--threshold={value}")
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert cp.stderr == "error: threshold: must be finite\n"


def test_non_finite_potential_outcome_is_validation_error(tmp_path):
    path = tmp_path / "inf.scn"
    path.write_text(
        "kind = potential_outcomes\n"
        "pi_support = 0.5\n"
        "pi_pmf = 1\n"
        "y_pairs = inf,0:0.5; 0,0:0.5\n"
        "treat[0][0] = 0.5\n"
        "treat[0][1] = 0.5\n"
    )
    cp = run_cli("eval", str(path))
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert cp.stderr == "error: y_pairs: must be finite\n"


def test_internal_error_is_one_line_with_exit_4(monkeypatch, capsys, case1_file):
    from zbias import cli

    def broken(args):
        raise AssertionError("inconsistent report\nfor thm1.a1")

    monkeypatch.setitem(cli._HANDLERS, "eval", broken)
    assert cli.main(["eval", case1_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal: AssertionError('inconsistent report\\nfor thm1.a1')\n"
    )
    monkeypatch.undo()
    assert cli.main(["eval", case1_file, "--table"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "YES"


def test_scatter_non_utf8_path_is_ascii_escaped(tmp_path):
    import os

    out = os.path.join(str(tmp_path), os.fsdecode(b"x\xff.csv"))
    cp = subprocess.run(
        [sys.executable, "-m", "zbias", "scatter", "--draws", "5", "--seed", "3", "--out", out],
        capture_output=True,
    )
    assert cp.returncode == 0, cp.stderr
    text = cp.stdout.decode("utf-8")
    assert text.isascii()
    assert json.loads(text) == {"rows": 5, "out": out}
    assert os.path.exists(os.fsencode(out))
    # A UTF-8 path other than ASCII is still printed as is.
    accented = tmp_path / "café.csv"
    cp = run_cli("scatter", "--draws", "5", "--seed", "3", "--out", str(accented))
    assert cp.stdout == '{"rows": 5, "out": "%s"}\n' % accented


def _binary_file(tmp_path, **values):
    """The worked case with some values replaced; outcome means may leave
    [0, 1], so the outcome is declared non-binary."""
    lines = [
        f"{line.split(' =')[0]} = {values[line.split(' =')[0]]}"
        if line.split(" =")[0] in values else line
        for line in CASE1_TEXT.splitlines()
    ]
    path = tmp_path / "world.scn"
    path.write_text("\n".join(lines + ["binary_outcome = false"]) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "command, means",
    [
        # Means of +-1e308 overflow every difference.
        ("eval", dict(r11="1e308", r10="1e308", r01="-1e308", r00="-1e308")),
        # A subnormal denominator overflows the ratio.
        ("rr", dict(r11="1.7e308", r10="1.7e308", r01="1e-320", r00="1e-320")),
    ],
)
def test_non_finite_result_is_one_line_exit_1(tmp_path, command, means):
    cp = run_cli(command, _binary_file(tmp_path, **means))
    assert cp.returncode == 1
    assert cp.stdout == ""
    assert cp.stderr == "error: true_treated: inf is not finite\n"


@pytest.mark.parametrize(
    "theorem, cells, message",
    [
        ("lemma_s5", dict(p11="0.5", p10="0", p01="0.5", p00="1e-10"),
         "presence ratio undefined: p10 = 0"),
        ("lemma_s7", dict(p11="0.9999999999", p10="1", p01="0.49999999995", p00="0.5"),
         "absence ratio undefined: 1-p10 = 0"),
    ],
)
def test_lemma_zero_denominator_names_the_zero_factor(tmp_path, theorem, cells, message):
    path = _binary_file(tmp_path, **cells)
    for name in (theorem, "weaker"):
        cp = run_cli("check", path, "--theorem", name)
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr == f"error: {message}\n"
