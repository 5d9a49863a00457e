"""The benchmark harness's own tests, run as part of the suite.

``bench/`` traces and calls package names (``estimators.true_ace`` and
``adjusted_ace``, ``rng.retry_uniforms``, the ``cli.load_scenario`` binding,
``zbias.McConfig`` and ``estimate_volume``); a refactor that drops or renames
one of them fails here rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_suite_passes():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
