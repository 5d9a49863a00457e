"""The README's Python API example runs as written, and its CLI reference
names the commands and theorems the CLI accepts."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_cli_reference_names_every_command_and_theorem():
    from zbias import cli

    table = README.read_text(encoding="utf-8").split("## CLI reference", 1)[1].strip()
    rows = [line for line in table.split("\n\n", 1)[0].splitlines() if line.startswith("| `")]
    commands = [row.split("`")[1].split()[0] for row in rows]
    assert commands == list(cli._HANDLERS)
    (check,) = [row for row in rows if row.startswith("| `check ")]
    assert check.rstrip(" |").split("`")[-2].split() == list(cli._THEOREMS)
