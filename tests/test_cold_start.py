"""Start-up cost: the exact commands run without numpy, and the Monte Carlo
stack loads on first use with the same output bytes."""

import hashlib
import json
import os
import subprocess
import sys

from test_cli_golden import TIES_TEXT
from test_montecarlo import GOLDEN_MC_STDOUT, GOLDEN_SCATTER_SHA256
from test_scenario_io import CASE1_TEXT, FAMILY_TEXT

import zbias

MONTE_CARLO_MODULES = ("numpy", "zbias.montecarlo", "zbias.rng")

# Runs every exact command through one ``cli.main`` in a fresh interpreter
# and reports, after each, its exit code and which Monte Carlo modules are
# loaded.  Every theorem that accepts a binary or a discrete world is run.
COLD_PROBE = """\
import contextlib, io, json, sys
from zbias import cli
from zbias.scenario import BinaryScenario, DiscreteScenario

binary, discrete, family = sys.argv[1:4]
runs = [["eval", binary], ["eval", binary, "--table"], ["eval", discrete],
        ["rr", binary], ["dce", binary, "--threshold", "0.5"], ["average", family]]
for name, (kinds, _) in cli._THEOREMS.items():
    for path, kind in ((binary, BinaryScenario), (discrete, DiscreteScenario)):
        if kind in kinds:
            runs.append(["check", path, "--theorem", name])
runs.append(["eval", binary, "--no-such-flag"])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    loaded = [m for m in %r if m in sys.modules]
    print(json.dumps([argv[0], argv[-1], code, loaded]))
""" % (MONTE_CARLO_MODULES,)


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    paths = []
    for name, text in (("binary", CASE1_TEXT), ("discrete", TIES_TEXT), ("family", FAMILY_TEXT)):
        paths.append(tmp_path / f"{name}.scn")
        paths[-1].write_text(text)
    done = subprocess.run([sys.executable, "-c", COLD_PROBE, *map(str, paths)],
                          capture_output=True, text=True, check=True, timeout=120)
    runs = [json.loads(line) for line in done.stdout.splitlines()]
    checks = [run[1] for run in runs if run[0] == "check"]
    # Ten theorems accept a binary world, five of them a discrete one too.
    assert len(checks) == 15
    assert [run for run in runs if run[3]] == []
    # The worked world breaks the lemmas' premises: error paths count too.
    assert [run[1:3] for run in runs if run[2] != 0] == [
        ["lemma_s5", 1], ["lemma_s7", 1], ["--no-such-flag", 1],
    ]


def test_monte_carlo_names_are_listed_and_served_on_first_use():
    names = ("McConfig", "McResult", "ScenarioStream", "draw_scenario", "estimate_volume",
             "export_scatter", "population_biases")
    assert set(names) <= set(dir(zbias))
    from zbias import estimate_volume, montecarlo

    assert estimate_volume is montecarlo.estimate_volume
    assert zbias.McConfig is montecarlo.McConfig


def test_fresh_process_mc_and_scatter_give_the_golden_bytes(tmp_path):
    for name, seed, draws in ((None, 3, 4097), ("cor2", 7, 4097)):
        argv = ["mc", "--draws", str(draws), "--seed", str(seed)]
        argv += ["--filter", name] if name else []
        done = subprocess.run([sys.executable, "-m", "zbias", *argv], capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout == GOLDEN_MC_STDOUT[(name, seed, draws)] + "\n"
    path = tmp_path / "scatter.csv"
    for threads in ("0", "2"):
        subprocess.run([sys.executable, "-m", "zbias", "scatter", "--draws", "40000",
                        "--seed", "5", "--out", str(path)], capture_output=True, check=True,
                       timeout=120, env={**os.environ, "ZBIAS_THREADS": threads})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SCATTER_SHA256[(5, 40000)]
