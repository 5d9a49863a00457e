"""The ``check`` theorem table: every name reaches its checker, and the
choice order is the one the usage line and README show."""

import re
from pathlib import Path

from test_scenario_io import CASE1_TEXT, PO_TEXT
from zbias import cli, conditions
from zbias.cli import main

# --theorem name -> the checker calls it makes, in order.
EXPECTED_CALLS = {
    "thm1": ["check_thm1"],
    "thm2": ["check_thm2"],
    "thm3": ["check_thm3"],
    "cor1": ["check_cor1"],
    "cor2": ["check_cor2"],
    "thm4": ["check_thm4"],
    "thm5-binary": ["check_thm5_binary"],
    "cor3": ["check_cor3"],
    "cor4": ["check_cor4"],
    "thm7": ["check_thm7"],
    "weaker": ["check_weaker_condition"],
    "lemma_s5": ["check_lemma_s5"],
    "lemma_s7": ["check_lemma_s7"],
    "collider": ["check_collider_association", "check_collider_association"],
}

USAGE_LINE = (
    "error: argument --theorem: invalid choice: 'bogus' (choose from 'thm1', 'thm2', "
    "'thm3', 'cor1', 'cor2', 'thm4', 'thm5-binary', 'cor3', 'cor4', 'thm7', 'weaker', "
    "'lemma_s5', 'lemma_s7', 'collider')\n"
)


def test_every_theorem_reaches_its_checker(tmp_path, monkeypatch, capsys):
    binary = tmp_path / "case1.scn"
    binary.write_text(CASE1_TEXT)
    po = tmp_path / "po.scn"
    po.write_text(PO_TEXT)
    calls = []

    def stub(name):
        def record(s, *args):
            calls.append((name, type(s).__name__, args))
            return []
        return record

    checkers = [name for name in vars(conditions) if name.startswith("check_")]
    assert len(checkers) == 14
    for name in checkers:
        monkeypatch.setattr(conditions, name, stub(name))
    cells = (0.8, 0.6, 0.2, 0.1)  # p11, p10, p01, p00 of case 1
    for theorem, expected in EXPECTED_CALLS.items():
        path = po if theorem in ("thm4", "thm5-binary", "cor3", "cor4") else binary
        calls.clear()
        assert main(["check", str(path), "--theorem", theorem]) == 0
        assert capsys.readouterr().out == "[]\n"
        assert [name for name, _kind, _args in calls] == expected, theorem
        kind, args = calls[0][1:]
        if theorem.startswith("lemma"):
            assert (kind, args) == ("float", cells[1:])
        elif theorem == "collider":
            assert [c[1:] for c in calls] == [("DiscreteScenario", (0,)),
                                              ("DiscreteScenario", (1,))]
        elif theorem in ("thm1", "thm2", "thm3", "thm7"):
            assert (kind, args) == ("DiscreteScenario", ())
    assert list(cli._THEOREMS) == list(EXPECTED_CALLS)


def test_unknown_theorem_usage_line(capsys):
    assert main(["check", "any.scn", "--theorem", "bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == USAGE_LINE


def test_readme_lists_the_theorems_in_table_order():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    row = next(line for line in readme.splitlines() if line.startswith("| `check FILE"))
    listed = re.search(r"`ID` in `([^`]*)`", row).group(1).split()
    assert listed == list(cli._THEOREMS)
