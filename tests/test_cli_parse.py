"""Command-line parsing: the one-pass subcommand parse against the full parser.

``cli._parse`` hands a command's arguments straight to its subparser.  For
every command line, valid or not, it must give the namespace, usage error
or help text that ``cli._build_parser().parse_args`` gives.
"""

import argparse

import pytest

from test_scenario_io import CASE1_TEXT
from zbias import cli

VALID = {
    "eval": ["eval", "f.scn"],
    "eval all flags": ["eval", "f.scn", "--table", "--conditioning", "on_propensity",
                       "--allow-direct-effect"],
    "eval = form": ["eval", "--conditioning=on_propensity", "f.scn"],
    "eval abbreviated": ["eval", "f.scn", "--cond", "on_z", "--tab", "--allow"],
    "check": ["check", "f.scn", "--theorem", "thm1"],
    "check = form": ["check", "--theorem=collider", "f.scn"],
    "check abbreviated": ["check", "f.scn", "--theo", "lemma_s5"],
    "dce": ["dce", "f.scn", "--threshold", "0.5"],
    "dce threshold -0.5": ["dce", "f.scn", "--threshold", "-0.5"],
    "dce threshold =-inf": ["dce", "f.scn", "--threshold=-inf"],
    "dce abbreviated": ["dce", "f.scn", "--thr", "1e-3", "--cond", "on_propensity"],
    "rr": ["rr", "f.scn", "--conditioning", "on_propensity"],
    "average": ["average", "f.scn", "--allow-direct-effect"],
    "mc": ["mc", "--draws", "10", "--seed", "1"],
    "mc = form": ["mc", "--draws=10", "--seed=1", "--filter=cor2"],
    "mc abbreviated": ["mc", "--dr", "10", "--se", "-1", "--fil", "cor1"],
    "scatter": ["scatter", "--draws", "10", "--seed", "1", "--out", "x.csv"],
    "scatter = form": ["scatter", "--out=x.csv", "--draws=5", "--seed=-3"],
    "-- before the scenario": ["eval", "--", "f.scn"],
    "-- after the scenario": ["eval", "f.scn", "--"],
    "-h after --": ["eval", "--", "-h"],
    "repeated option": ["eval", "f.scn", "--conditioning", "on_z",
                        "--conditioning", "on_propensity"],
}

INVALID = {
    "eval without scenario": ["eval"],
    "check without theorem": ["check", "f.scn"],
    "dce without threshold": ["dce", "f.scn"],
    "mc without seed": ["mc", "--draws", "10"],
    "scatter without out": ["scatter", "--draws", "1", "--seed", "1"],
    "bad theorem": ["check", "f.scn", "--theorem", "thm9"],
    "bad conditioning": ["eval", "f.scn", "--conditioning", "on_u"],
    "bad filter": ["mc", "--draws", "1", "--seed", "1", "--filter", "cor3"],
    "draws not an integer": ["mc", "--draws", "x", "--seed", "1"],
    "threshold not a number": ["dce", "f.scn", "--threshold", "x"],
    "threshold -1e-3": ["dce", "f.scn", "--threshold", "-1e-3"],
    "threshold -inf": ["dce", "f.scn", "--threshold", "-inf"],
    "option without value": ["eval", "f.scn", "--conditioning"],
    "flag with value": ["eval", "f.scn", "--table=yes"],
    "extra positional": ["eval", "a.scn", "b.scn"],
    "mc positional": ["mc", "--draws", "1", "--seed", "1", "extra"],
    "unknown long option": ["eval", "f.scn", "--bogus"],
    "unknown short option": ["rr", "f.scn", "-x"],
    "option of another command": ["rr", "f.scn", "--theorem", "thm1"],
    "-- hides an option": ["mc", "--draws", "10", "--", "--seed", "1"],
    "-- first": ["--", "eval", "f.scn"],
    "empty argv": [],
    "unknown command": ["evaluate", "f.scn"],
    "command prefix": ["ev", "f.scn"],
    "option first": ["--table", "eval", "f.scn"],
}

HELP = {
    "top-level -h": ["-h"],
    "top-level --help": ["--help"],
    "eval -h": ["eval", "-h"],
    "check --help after arguments": ["check", "f.scn", "--theorem", "thm1", "--help"],
    "mc abbreviated --he": ["mc", "--he"],
}


def _outcome(parse, argv):
    try:
        return "ok", vars(parse(argv))
    except cli._UsageError as exc:
        return "usage", str(exc)


@pytest.mark.parametrize("argv", VALID.values(), ids=VALID.keys())
def test_fast_parse_matches_full_parser_on_valid_argv(argv):
    outcome = _outcome(cli._parse, list(argv))
    assert outcome[0] == "ok"
    assert outcome == _outcome(cli._build_parser().parse_args, list(argv))


@pytest.mark.parametrize("argv", INVALID.values(), ids=INVALID.keys())
def test_fast_parse_matches_full_parser_on_usage_errors(argv):
    outcome = _outcome(cli._parse, list(argv))
    assert outcome[0] == "usage"
    assert outcome == _outcome(cli._build_parser().parse_args, list(argv))


@pytest.mark.parametrize("argv", HELP.values(), ids=HELP.keys())
def test_fast_parse_prints_the_full_parsers_help(argv, capsys):
    printed = []
    for parse in (cli._parse, cli._build_parser().parse_args):
        with pytest.raises(SystemExit) as exit_info:
            parse(list(argv))
        assert exit_info.value.code == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].out.startswith("usage: zbias") and printed[0].err == ""


def test_commands_are_the_parser_trees_subparsers():
    (action,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    assert cli._commands() is action.choices
    assert list(cli._commands()) == list(cli._HANDLERS)


@pytest.mark.parametrize("argv", [
    ["eval", "{path}", "--table"],
    ["check", "{path}", "--theorem", "thm1"],
    ["mc", "--draws", "10", "--seed", "1"],
], ids=["eval", "check", "mc"])
def test_one_argparse_pass_per_command(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "binary.scn"
    path.write_text(CASE1_TEXT)
    argv = [arg.format(path=path) for arg in argv]
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    assert cli.main(argv) == 0
    assert passes == [f"zbias {argv[0]}"]
    assert capsys.readouterr().err == ""
