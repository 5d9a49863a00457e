"""The README's Python API example runs as written, its CLI reference
names the commands and theorems the CLI accepts, and the chunk sizes it and
the ``cli`` docstring quote are the ones the code runs."""

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


def test_quoted_chunk_sizes_match_the_code():
    # Every chunk size the docs quote is written "N-draw chunk" (mc) or
    # "N-row chunk" (scatter), so none can go stale unchecked.
    from zbias import cli, montecarlo

    sizes = {"draw": montecarlo._CHUNK, "row": min(montecarlo._CHUNK, montecarlo._BLOCK)}
    for text in (README.read_text(encoding="utf-8"), cli.__doc__):
        quoted = re.findall(r"(\d[\d,]*)-(draw|row) chunk", text)
        assert {unit for _, unit in quoted} == set(sizes)
        assert all(int(n.replace(",", "")) == sizes[unit] for n, unit in quoted)
        assert not re.search(r"chunks? of \d", text)
