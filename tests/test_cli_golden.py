"""In-process CLI runs: output digests pinned on fixture worlds, and
repeated ``main()`` calls in one process behaving like separate processes."""

import hashlib
import math
import random
import subprocess
import sys

from test_scenario_io import CASE1_TEXT, FAMILY_TEXT, PO_TEXT
from zbias import cli

# Three instrument levels, two of which share the propensity 0.21, and a
# non-binary outcome law with a three-point cell.
TIES_TEXT = """\
kind = discrete
z_support = 0, 1, 2
z_pmf = 0.3, 0.3, 0.4
u_support = 0, 1, 2
u_pmf = 0.2, 0.5, 0.3
treat[0][0] = 0.1
treat[0][1] = 0.2
treat[0][2] = 0.3
treat[1][0] = 0.3
treat[1][1] = 0.15
treat[1][2] = 0.25
treat[2][0] = 0.6
treat[2][1] = 0.7
treat[2][2] = 0.9
mean[0][0][0] = 0.1
mean[0][0][1] = 0.4
mean[0][0][2] = 0.5
mean[0][1][0] = 0.1
mean[0][1][1] = 0.4
mean[0][1][2] = 0.5
mean[0][2][0] = 0.1
mean[0][2][1] = 0.4
mean[0][2][2] = 0.5
mean[1][0][0] = 0.3
mean[1][0][1] = 0.6
mean[1][0][2] = 0.9
mean[1][1][0] = 0.3
mean[1][1][1] = 0.6
mean[1][1][2] = 0.9
mean[1][2][0] = 0.3
mean[1][2][1] = 0.6
mean[1][2][2] = 0.9
law[0][0] = 0:0.9, 1:0.1
law[0][1] = 0:0.6, 1:0.4
law[0][2] = 0:0.5, 1:0.5
law[1][0] = 0:0.7, 1:0.3
law[1][1] = 0:0.4, 1:0.6
law[1][2] = 0:0.1, 0.5:0.4, 1.4:0.5
binary_outcome = false
"""


# Levels 0 and 2 share a treatment row.  After the merge the treated
# fraction of the collapsed world differs from the original in the last
# bit, so propensity conditioning must divide by the collapsed world's own.
MERGED_TEXT = """\
kind = discrete
z_support = 0, 1, 2
z_pmf = 0.074, 0.37, 0.556
u_support = 0, 1
u_pmf = 0.246, 0.754
treat[0][0] = 0.86
treat[0][1] = 0.08
treat[1][0] = 0.07
treat[1][1] = 0.54
treat[2][0] = 0.86
treat[2][1] = 0.08
mean[0][0][0] = 0.94
mean[0][0][1] = 0.38
mean[0][1][0] = 0.94
mean[0][1][1] = 0.38
mean[0][2][0] = 0.94
mean[0][2][1] = 0.38
mean[1][0][0] = 0.22
mean[1][0][1] = 0.42
mean[1][1][0] = 0.22
mean[1][1][1] = 0.42
mean[1][2][0] = 0.22
mean[1][2][1] = 0.42
"""


def _grid_text(direct_effect: bool) -> str:
    """A 6x5 world whose tables break most monotonicity conditions, so the
    check bundles carry many witnesses; rows i and i+3 of the treatment
    table coincide, so conditioning on the propensity merges levels."""
    z_support = (0.1, 0.25, 0.5, 1.5, 2.0, 3.75)
    z_pmf = (0.1, 0.2, 0.15, 0.25, 0.2, 0.1)
    u_support = (-1.0, 0.0, 0.3, 2.0, 7.0)
    u_pmf = (0.3, 0.1, 0.2, 0.25, 0.15)
    lines = [
        "kind = discrete",
        "z_support = " + ", ".join(map(repr, z_support)),
        "z_pmf = " + ", ".join(map(repr, z_pmf)),
        "u_support = " + ", ".join(map(repr, u_support)),
        "u_pmf = " + ", ".join(map(repr, u_pmf)),
    ]
    for i in range(6):
        for j in range(5):
            lines.append(f"treat[{i}][{j}] = {((3 * i + 5 * j) % 9 + 0.5) / 10!r}")
    for a in (0, 1):
        for i in range(6):
            for j in range(5):
                k = 2 * i if direct_effect else 0
                lines.append(f"mean[{a}][{i}][{j}] = {((k + 7 * j + 4 * a) % 11) / 10!r}")
    return "\n".join(lines) + "\n"


WORLDS = {
    "binary": CASE1_TEXT,
    "ties": TIES_TEXT,
    "merged": MERGED_TEXT,
    "po": PO_TEXT,
    "family": FAMILY_TEXT,
    "grid": _grid_text(direct_effect=False),
    "grid_direct": _grid_text(direct_effect=True),
}


def _large_text() -> str:
    """A 32x16 world with a three-point outcome law per (a, u) cell, keys in
    shuffled order.  Every fourth instrument level repeats the treatment row
    of the level before it, so conditioning on the propensity merges levels."""
    rng = random.Random(7_2017)
    n_z, n_u = 32, 16

    def pmf(n):
        weights = [rng.uniform(0.5, 2.0) for _ in range(n)]
        total = sum(weights)
        return [w / total for w in weights]

    treat = []
    for i in range(n_z):
        treat.append(treat[-1] if i % 4 == 3 else [rng.uniform(0.05, 0.95) for _ in range(n_u)])
    lines = [
        "kind = discrete",
        "binary_outcome = false",
        "z_support = " + ", ".join(repr(0.5 * i - 3.0) for i in range(n_z)),
        "z_pmf = " + ", ".join(map(repr, pmf(n_z))),
        "u_support = " + ", ".join(repr(float(j * j)) for j in range(n_u)),
        "u_pmf = " + ", ".join(map(repr, pmf(n_u))),
    ]
    for i in range(n_z):
        for j in range(n_u):
            lines.append(f"treat[{i}][{j}] = {treat[i][j]!r}")
    for a in (0, 1):
        for j in range(n_u):
            probs = pmf(3)
            law = tuple(zip((0.0, 1.0, 2.5), probs))
            mean = math.fsum(v * p for v, p in law)
            lines.append(f"law[{a}][{j}] = " + ", ".join(f"{v!r}:{p!r}" for v, p in law))
            for i in range(n_z):
                lines.append(f"mean[{a}][{i}][{j}] = {mean!r}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


LARGE_COMMANDS = {
    "eval on_z": ["eval", "--conditioning", "on_z"],
    "eval on_propensity": ["eval", "--conditioning", "on_propensity"],
    "check thm1": ["check", "--theorem", "thm1"],
    "check thm7": ["check", "--theorem", "thm7"],
    "check collider": ["check", "--theorem", "collider"],
    "rr": ["rr"],
    "dce": ["dce", "--threshold", "0.5"],
}

COMMANDS = {
    "eval": ["eval"],
    "eval --table": ["eval", "--table"],
    "eval --allow-direct-effect": ["eval", "--allow-direct-effect"],
    "rr": ["rr"],
    "dce": ["dce", "--threshold", "0.5"],
    "average": ["average"],
}


def _run(argv, capsys) -> str:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return f"{code}\0{captured.out}\0{captured.err}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()[:16]


def digests(tmp_path, capsys) -> dict[str, str]:
    """'world command conditioning' -> digest of (exit code, stdout, stderr);
    'world check' covers every theorem in order."""
    out = {}
    for world, text in WORLDS.items():
        path = tmp_path / f"{world}.scn"
        path.write_text(text)
        for name, argv in COMMANDS.items():
            for cond in ("on_z", "on_propensity"):
                run = _run([argv[0], str(path), *argv[1:], "--conditioning", cond], capsys)
                out[f"{world} {name} {cond}"] = _digest(run)
        runs = [
            _run(["check", str(path), "--theorem", theorem], capsys)
            for theorem in cli._THEOREMS
        ]
        out[f"{world} check"] = _digest("\1".join(runs))
    return out


# Recorded before the exact-engine hot path was reworked (parser reuse,
# single-pass indexed keys, one moments pass per call).
GOLDEN = {
    "binary eval on_z": "0363da5ff4c90ae8",
    "binary eval on_propensity": "cddde67016428ce1",
    "binary eval --table on_z": "59f58593b8a9ed9f",
    "binary eval --table on_propensity": "59f58593b8a9ed9f",
    "binary eval --allow-direct-effect on_z": "0363da5ff4c90ae8",
    "binary eval --allow-direct-effect on_propensity": "cddde67016428ce1",
    "binary rr on_z": "f2879f63d6550a96",
    "binary rr on_propensity": "49bd9acd220dfc43",
    "binary dce on_z": "09c26b862e591e92",
    "binary dce on_propensity": "fc7cef9d8cca6058",
    "binary average on_z": "b0099d2af905223d",
    "binary average on_propensity": "b0099d2af905223d",
    "binary check": "9f4b0284396abeb7",
    "ties eval on_z": "9c0e46d345c54b54",
    "ties eval on_propensity": "c80b31a5b48bd7ec",
    "ties eval --table on_z": "af0ecd8979d02908",
    "ties eval --table on_propensity": "af0ecd8979d02908",
    "ties eval --allow-direct-effect on_z": "9c0e46d345c54b54",
    "ties eval --allow-direct-effect on_propensity": "c80b31a5b48bd7ec",
    "ties rr on_z": "8be3cc732b611359",
    "ties rr on_propensity": "d9480d8850698049",
    "ties dce on_z": "a2b0a9d54271723f",
    "ties dce on_propensity": "ac5e9ac8ef85774a",
    "ties average on_z": "a510b277c8887fc7",
    "ties average on_propensity": "a510b277c8887fc7",
    "ties check": "898eb88b1c7f191e",
    "merged eval on_z": "a8cd5181c55d70d7",
    "merged eval on_propensity": "5f25de0fb3c0da10",
    "merged eval --table on_z": "f089194ab0fae20a",
    "merged eval --table on_propensity": "f089194ab0fae20a",
    "merged eval --allow-direct-effect on_z": "a8cd5181c55d70d7",
    "merged eval --allow-direct-effect on_propensity": "5f25de0fb3c0da10",
    "merged rr on_z": "ce99f12309210272",
    "merged rr on_propensity": "852507303737b30e",
    "merged dce on_z": "86b6fe1bea2e9e5d",
    "merged dce on_propensity": "86b6fe1bea2e9e5d",
    "merged average on_z": "a510b277c8887fc7",
    "merged average on_propensity": "a510b277c8887fc7",
    "merged check": "b286612a7e1a04a9",
    "po eval on_z": "41cd809d50d7697a",
    "po eval on_propensity": "41cd809d50d7697a",
    "po eval --table on_z": "e21e82af54cd04c7",
    "po eval --table on_propensity": "e21e82af54cd04c7",
    "po eval --allow-direct-effect on_z": "41cd809d50d7697a",
    "po eval --allow-direct-effect on_propensity": "41cd809d50d7697a",
    "po rr on_z": "1e2025f82d331f9b",
    "po rr on_propensity": "1e2025f82d331f9b",
    "po dce on_z": "c414cb9ebbbd2421",
    "po dce on_propensity": "c414cb9ebbbd2421",
    "po average on_z": "baad1408ba39938b",
    "po average on_propensity": "baad1408ba39938b",
    "po check": "9ea02ed96733b3fb",
    "family eval on_z": "3ddd6ec1fa0139ba",
    "family eval on_propensity": "3ddd6ec1fa0139ba",
    "family eval --table on_z": "3ddd6ec1fa0139ba",
    "family eval --table on_propensity": "3ddd6ec1fa0139ba",
    "family eval --allow-direct-effect on_z": "3ddd6ec1fa0139ba",
    "family eval --allow-direct-effect on_propensity": "3ddd6ec1fa0139ba",
    "family rr on_z": "f0803766d1701e23",
    "family rr on_propensity": "f0803766d1701e23",
    "family dce on_z": "48c800987033f6cf",
    "family dce on_propensity": "48c800987033f6cf",
    "family average on_z": "6323d71544e0f5b4",
    "family average on_propensity": "93e57cd0e78054f4",
    "family check": "fb7e7a8427c516ad",
    "grid eval on_z": "b9f05a7ed2c86c97",
    "grid eval on_propensity": "7f8182685bd54607",
    "grid eval --table on_z": "c9f45e6dbfa98cda",
    "grid eval --table on_propensity": "c9f45e6dbfa98cda",
    "grid eval --allow-direct-effect on_z": "b9f05a7ed2c86c97",
    "grid eval --allow-direct-effect on_propensity": "7f8182685bd54607",
    "grid rr on_z": "5c2cfe18ea1d822a",
    "grid rr on_propensity": "735ac42e4de89ec8",
    "grid dce on_z": "86b6fe1bea2e9e5d",
    "grid dce on_propensity": "86b6fe1bea2e9e5d",
    "grid average on_z": "a510b277c8887fc7",
    "grid average on_propensity": "a510b277c8887fc7",
    "grid check": "09e6006e424be6bb",
    "grid_direct eval on_z": "d0a69cd9a033f075",
    "grid_direct eval on_propensity": "d0a69cd9a033f075",
    "grid_direct eval --table on_z": "d0a69cd9a033f075",
    "grid_direct eval --table on_propensity": "d0a69cd9a033f075",
    "grid_direct eval --allow-direct-effect on_z": "e58f6e0e4cb1f702",
    "grid_direct eval --allow-direct-effect on_propensity": "e2d29c500e9f567f",
    "grid_direct rr on_z": "d0a69cd9a033f075",
    "grid_direct rr on_propensity": "d0a69cd9a033f075",
    "grid_direct dce on_z": "86b6fe1bea2e9e5d",
    "grid_direct dce on_propensity": "86b6fe1bea2e9e5d",
    "grid_direct average on_z": "a510b277c8887fc7",
    "grid_direct average on_propensity": "a510b277c8887fc7",
    "grid_direct check": "9729cb2a0556873d",
}


def test_cli_output_digests_are_golden(tmp_path, capsys):
    assert digests(tmp_path, capsys) == GOLDEN


# Recorded before the scenario front end was rewritten (canonical-key table
# fill, bulk validation).
GOLDEN_LARGE = {
    "eval on_z": "0dab92dd6171eab5",
    "eval on_propensity": "1f6fa9f9c7704e0d",
    "check thm1": "60d0826d50f55fed",
    "check thm7": "217f818c4404da44",
    "check collider": "45aaa8255812c866",
    "rr": "a36b89154d6730f0",
    "dce": "77a08652e178653b",
}


def test_large_world_digests_are_golden(tmp_path, capsys):
    path = tmp_path / "large.scn"
    path.write_text(_large_text())
    out = {
        name: _digest(_run([argv[0], str(path), *argv[1:]], capsys))
        for name, argv in LARGE_COMMANDS.items()
    }
    assert out == GOLDEN_LARGE


def test_repeated_main_calls_match_separate_processes(tmp_path, capsys):
    binary = tmp_path / "binary.scn"
    binary.write_text(CASE1_TEXT)
    grid = tmp_path / "grid.scn"
    grid.write_text(WORLDS["grid"])
    calls = [
        ["eval", str(binary), "--table"],
        ["eval", str(binary)],
        ["eval", str(binary), "--bogus"],
        ["eval", str(binary), "--conditioning", "on_propensity"],
        ["frobnicate"],
        ["rr", str(grid), "--conditioning", "on_propensity"],
        ["check", str(grid), "--theorem", "thm7"],
        ["dce", str(binary)],
        ["dce", str(binary), "--threshold", "0.25"],
        ["eval", str(binary), "--table"],
    ]
    in_process = []
    for argv in calls:
        code = cli.main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    separate = []
    for argv in calls:
        cp = subprocess.run(
            [sys.executable, "-m", "zbias", *argv], capture_output=True, text=True
        )
        separate.append((cp.returncode, cp.stdout, cp.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [0, 0, 1, 0, 1, 0, 0, 1, 0, 0]


def test_parser_is_built_once_per_process(tmp_path, capsys):
    path = tmp_path / "binary.scn"
    path.write_text(CASE1_TEXT)
    parser = cli._build_parser()
    for argv in (["eval", str(path), "--table"], ["check", str(path), "--theorem", "thm1"]):
        assert cli.main(argv) == 0
        assert cli._build_parser() is parser
    assert capsys.readouterr().err == ""
