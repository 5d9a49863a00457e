"""In-process mirror of the benchmark's Monte Carlo gate.

``bench/run.py`` fails a Monte Carlo op that exits non-zero, writes anything
to stderr (a Python or numpy warning included) or prints different bytes
with ``ZBIAS_THREADS`` unset and set to 2.  The golden tests pin the bytes
but not stderr or warnings, so these runs go through ``main()`` with every
warning turned into an error.
"""

import contextlib
import io
import warnings

import pytest

from zbias.cli import main


def _run(monkeypatch, argv, threads):
    if threads is None:
        monkeypatch.delenv("ZBIAS_THREADS", raising=False)
    else:
        monkeypatch.setenv("ZBIAS_THREADS", threads)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


@pytest.mark.parametrize("extra", [[], ["--filter", "cor1"], ["--filter", "cor2"]])
def test_mc_is_clean_and_thread_independent(monkeypatch, extra):
    argv = ["mc", "--draws", "65536", "--seed", "1301", *extra]
    outputs = [_run(monkeypatch, argv, threads) for threads in (None, "2")]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith('{"volume": ')


def test_scatter_is_clean_and_worker_independent(monkeypatch, tmp_path):
    out = tmp_path / "scatter.csv"
    argv = ["scatter", "--draws", "40000", "--seed", "1501", "--out", str(out)]
    runs = []
    for threads in ("1", "2"):
        stdout = _run(monkeypatch, argv, threads)
        runs.append((stdout, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][1].count(b"\n") == 40001
