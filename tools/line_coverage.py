"""List the statements of src/zbias that the tier-1 suite never runs.

    python3 tools/line_coverage.py

Runs the tier-1 tests (``pytest -q --continue-on-collection-errors`` from
the repository root) in this process under ``sys.settrace`` and
``threading.settrace``, then prints every statement of ``src/zbias`` that
never ran, by file, line and source text.  A statement counts as run when
any of its lines ran; for a compound statement (``if``, ``for``, ``def``,
...) only the lines of its header count, so a multi-line condition is one
statement.  Docstrings are not statements.  Code that runs only in a child
process (subprocess tests, forked scatter workers) is not seen.

Exit status: 0 when nothing beyond the two ``sys.exit(main())`` entry
guards is listed, 1 when something is or the suite fails.  Standard
library only; tracing makes the suite about three times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zbias"
# Entry guards reached only by ``python -m zbias`` or ``python cli.py``,
# which the suite runs in subprocesses.
ALLOWED = {("__main__.py", "sys.exit(main())"), ("cli.py", "sys.exit(main())")}


def statements(path: Path):
    """(first line, last line, first line's text) of each statement."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans.append((first, last, lines[node.lineno - 1].strip()))
    return sorted(spans)


def trace_suite() -> tuple[int, dict[str, set[int]]]:
    """Run the suite in-process; return its exit code and the lines run
    per package file."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    local_tracers = {}

    def local_tracer(filename):
        add = hits.setdefault(filename, set()).add

        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if filename not in local_tracers:
            local_tracers[filename] = local_tracer(filename)
        return local_tracers[filename]

    import pytest

    os.chdir(ROOT)
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    code, hits = trace_suite()
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for first, last, text in statements(path):
            if ran.isdisjoint(range(first, last + 1)):
                unrun.append((path.name, first, text))
    print(f"\n{len(unrun)} statement(s) in src/zbias never ran under tier-1:")
    for name, line, text in unrun:
        print(f"  src/zbias/{name}:{line}: {text}")
    if code != 0:
        print(f"tier-1 failed (pytest exit {code}); coverage is incomplete")
        return 1
    return 1 if any((name, text) not in ALLOWED for name, _line, text in unrun) else 0


if __name__ == "__main__":
    sys.exit(main())
