"""zbias benchmark: four CLI workloads, end-to-end metrics and a traced layer split.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_uniform --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, 11 named metrics

Each op is an in-process ``zbias.cli.main(argv)`` call with stdout captured,
run closed-loop in one process.  ``--trace 0`` times ops for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` runs a fixed seeded prefix
of the workload twice, untraced then traced, and reports the per-layer
split.  Every output is checked outside the timed region; a failed check
fails its op and makes the command exit 1.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
package is imported from ``src/`` of the checkout; without it the command
exits 2 and prints no result.  WORKLOADS.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("mc_uniform", "mc_filtered", "scatter_export", "exact_mix")
# Groups in the digest prefix, which is also the op list of a traced run.
PREFIX_GROUPS = {"mc_uniform": 4, "mc_filtered": 3, "scatter_export": 2, "exact_mix": 1000}
WARMUP_GROUPS = {"mc_uniform": 1, "mc_filtered": 1, "scatter_export": 1, "exact_mix": 40}
# Ops per window of the windowed throughputs (primary, alt): one Monte Carlo
# call each; for exact_mix one deal of KIND_DECK, and four large-world ops.
RATE_WINDOWS = {"mc_uniform": (1, 1), "mc_filtered": (1, 1), "scatter_export": (1, 1),
                "exact_mix": (len(wl.KIND_DECK), 4)}
SETUP_SAMPLES = 7
# The host this benchmark was defined on switches each vCPU between a fast
# mode and one about 1.7x slower, every 0.1-1 s, so raw times of identical
# runs spread by 20-60 %.  Timed runs therefore also time a fixed reference
# kernel between ops (at least every CALIBRATE_EVERY_S of op time) and
# scale each op's time by how much slower than REFERENCE_S the kernel ran
# just before and just after it.  Raw values are printed and saved too.
REFERENCE_S = 0.005
CALIBRATE_EVERY_S = 0.05
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10
LAYERS = ("cli", "scenario_io", "scenario", "estimators", "conditions", "rng", "montecarlo")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "units_per_s": "1/s",
    "alt_units_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

PER_LAYER = {
    "cli.main.self_ms": "ms",
    "scenario_io.load_scenario.ms": "ms",
    "scenario_io.bytes_read": "bytes",
    "scenario.to_discrete.ms": "ms",
    "scenario.to_discrete.calls": "count",
    "scenario.collapse_by_propensity.ms": "ms",
    "estimators.self_ms": "ms",
    "estimators.true_ace.calls": "calls/eval",
    "estimators.adjusted_ace.calls": "calls/eval",
    "conditions.check.self_ms": "ms",
    "conditions.reports_to_json.ms": "ms",
    "rng.primary_uniforms.s": "s",
    "rng.primary_uniforms.ns_per_draw": "ns",
    "rng.retry_uniforms.calls": "count",
    "rng.retry_uniforms.s": "s",
    "montecarlo.population_biases.s": "s",
    "montecarlo.population_biases.ns_per_draw": "ns",
    "montecarlo.estimate_volume.self_s": "s",
    "montecarlo.cor1_accept_ratio": "ratio",
    "montecarlo.cor1_accept_ratio.base": "count",
    "montecarlo.export_scatter.self_s": "s",
    "montecarlo.export_scatter.bytes": "bytes",
    "montecarlo.thread_busy_ratio": "ratio",
    "montecarlo.chunks": "count",
    **{f"layer.{name}.self_ms": "ms" for name in LAYERS},
    "trace.overhead_s": "s",
    "trace.uncovered_ms": "ms",
}

# Workload-specific names of the end-to-end metrics: (name, workload, metric, unit).
NAMED = (
    ("mc_draws_per_s", "mc_uniform", "units_per_s", "1/s"),
    ("mc_draws_per_s_2t", "mc_uniform", "alt_units_per_s", "1/s"),
    ("cor1_draws_per_s", "mc_filtered", "units_per_s", "1/s"),
    ("cor2_draws_per_s", "mc_filtered", "alt_units_per_s", "1/s"),
    ("scatter_rows_per_s", "scatter_export", "units_per_s", "1/s"),
    ("exact_ops_per_s", "exact_mix", "units_per_s", "1/s"),
    ("exact_p50_ms", "exact_mix", "op_p50_ms", "ms"),
    ("exact_p99_ms", "exact_mix", "op_tail_ms", "ms"),
)


# ------------------------------------------------------------------ helpers


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated q-th percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it;
    the median when no ladder step has."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return q
    return 50.0


@dataclass
class Rec:
    """One executed op with everything the checks and metrics need."""

    index: int
    op: wl.Op
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    window_ns: tuple[int, int]
    error: str | None = None
    maxrss_kb: int = 0                              # process peak RSS after the op
    speed: float = 1.0                              # reference slowdown around the op
    csv: tuple[str, int, int, int] | None = None   # sha256, rows, true flags, bytes


def execute(cli, index: int, op: wl.Op) -> Rec:
    """Run one op in-process; only the ``cli.main`` call is timed."""
    window_start = time.perf_counter_ns()
    if op.threads is None:
        os.environ.pop("ZBIAS_THREADS", None)
    else:
        os.environ["ZBIAS_THREADS"] = op.threads
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # an escaped exception fails the op
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    window = (window_start, time.perf_counter_ns())
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec = Rec(index, op, rc, out.getvalue(), err.getvalue(), seconds, window, error, maxrss)
    if "csv" in op.expect and os.path.exists(op.expect["csv"]):
        rec.csv = _digest_csv(op.expect["csv"])
        os.remove(op.expect["csv"])
    return rec


def _digest_csv(path: str) -> tuple[str, int, int, int]:
    h = hashlib.sha256()
    rows = trues = size = 0
    with open(path, "rb") as handle:
        for line in handle:
            h.update(line)
            size += len(line)
            rows += 1
            trues += line.endswith(b",true\n")
    return h.hexdigest(), rows - 1, trues, size


def _interpreter_work() -> float:
    # Float repr and parse in the interpreter, then a little array work.
    r = random.Random(12345)
    acc = 0.0
    for _ in range(3000):
        acc += float(repr(r.random()))
    a = np.random.Generator(np.random.Philox(key=1)).random(1 << 16)
    return acc + float((a * a + 1.0 / (a + 1.0)).sum())


def _array_work() -> float:
    # Philox draws and array arithmetic, the shape of the Monte Carlo kernel.
    acc = 0.0
    for key in range(4):
        a = np.random.Generator(np.random.Philox(key=key)).random(1 << 16)
        acc += float((a * a + 1.0 / (a + 1.0)).sum())
    return acc


# Reference kernel per workload, matched to where its calls spend their
# time: unfiltered mc calls run in numpy and slow down in the slow mode far
# less than interpreter-bound code does.
REFERENCE_WORK = {"mc_uniform": _array_work, "mc_filtered": _interpreter_work,
                  "scatter_export": _interpreter_work, "exact_mix": _interpreter_work}


def reference_seconds(work=_interpreter_work, threads: str | None = None) -> float:
    """Wall time of a fixed reference kernel that does not use zbias; with
    ``threads`` (a ZBIAS_THREADS value), that many copies run at once, so
    that the timing sees every vCPU a threaded call runs on."""
    start = time.perf_counter()
    if threads is None:
        work()
    else:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            for future in [pool.submit(work) for _ in range(int(threads))]:
                future.result()
    return time.perf_counter() - start


def run_groups(cli, groups, first_index: int, seconds: float | None = None,
               count: int | None = None, calibrate=None):
    """Execute whole groups of ops: for ``seconds`` of wall time, or exactly
    ``count`` groups.  With a reference kernel ``calibrate``, it is also
    timed, at each op's thread count, before the first op, after every
    CALIBRATE_EVERY_S of op time and after the last op, and each op gets the
    ``speed`` of the timings around it.  Returns the records in op order."""
    recs = []
    marks: dict[str | None, list] = {}   # threads -> [(ops run before, seconds)]
    since: dict[str | None, float] = {}
    start = time.perf_counter()
    done = 0
    while count is None or done < count:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        for op in next(groups):
            kind = op.threads
            if calibrate and since.get(kind, CALIBRATE_EVERY_S) >= CALIBRATE_EVERY_S:
                ran = sum(1 for r in recs if r.op.threads == kind)
                marks.setdefault(kind, []).append((ran, reference_seconds(calibrate, kind)))
                since[kind] = 0.0
            recs.append(execute(cli, first_index + len(recs), op))
            since[kind] = since.get(kind, 0.0) + recs[-1].seconds
        done += 1
    for kind, kind_marks in marks.items():
        same = [r for r in recs if r.op.threads == kind]
        kind_marks.append((len(same), reference_seconds(calibrate, kind)))
        set_speeds(same, kind_marks)
    return recs


def set_speeds(recs, marks) -> None:
    """Each op's speed: the mean of the reference timings just before and
    just after it, over REFERENCE_S."""
    for (at, before), (until, after) in zip(marks, marks[1:]):
        for rec in recs[at:until]:
            rec.speed = (before + after) / (2 * REFERENCE_S)


def streams(zbias, workload: str, seed: int):
    """(warm-up groups, timed groups) of a workload."""
    if workload == "mc_uniform":
        return wl.mc_uniform_groups(seed, True), wl.mc_uniform_groups(seed)
    if workload == "mc_filtered":
        return wl.mc_filtered_groups(seed, True), wl.mc_filtered_groups(seed)
    if workload == "scatter_export":
        os.makedirs(f"{OUT}/scatter", exist_ok=True)
        return (wl.scatter_groups(seed, f"{OUT}/scatter", True),
                wl.scatter_groups(seed, f"{OUT}/scatter"))
    return (wl.exact_groups(zbias, seed, f"{OUT}/corpus", True),
            wl.exact_groups(zbias, seed, f"{OUT}/corpus"))


# ------------------------------------------------------------------ checks


def check(zbias, workload: str, recs) -> dict[int, str]:
    """Op index -> first failed check, for every op that failed one."""
    failures: dict[int, str] = {}

    def fail(rec, message):
        failures.setdefault(rec.index, f"{' '.join(rec.op.argv)}: {message}")

    for rec in recs:
        if rec.error is not None:
            fail(rec, f"raised {rec.error}")
        elif rec.rc != 0:
            fail(rec, f"exit code {rec.rc}: {rec.stderr.strip()}")
        elif rec.stderr:
            fail(rec, f"wrote to stderr: {rec.stderr.strip()}")
        else:
            try:
                wl.check_op(rec.op, rec.stdout)
            except (wl.BadOutput, KeyError, TypeError) as exc:
                fail(rec, str(exc))

    by_group: dict[int, list[Rec]] = {}
    for rec in recs:
        by_group.setdefault(rec.op.group, []).append(rec)
    for group in by_group.values():
        if workload == "mc_uniform" and len({r.stdout for r in group}) != 1:
            for rec in group:
                fail(rec, "mc output differs between ZBIAS_THREADS unset and 2")
        if workload == "scatter_export":
            _check_scatter_group(zbias, group, fail)
    return failures


def _check_scatter_group(zbias, group, fail) -> None:
    if any(rec.csv is None for rec in group):
        for rec in group:
            if rec.csv is None:
                fail(rec, "no CSV written")
        return
    if len({rec.csv[0] for rec in group}) != 1:
        for rec in group:
            fail(rec, "CSV bytes differ between 1 and 2 threads")
    expect = group[0].op.expect
    result = zbias.estimate_volume(zbias.McConfig(draws=expect["draws"], seed=expect["seed"]))
    amplified = round(result.volume * result.draws)
    for rec in group:
        _sha, rows, trues, _size = rec.csv
        if rows != expect["draws"]:
            fail(rec, f"CSV has {rows} rows, expected {expect['draws']}")
        if trues != amplified:
            fail(rec, f"CSV has {trues} true flags, estimate_volume counts {amplified}")


def prefix_digest(recs) -> str:
    """sha256 over every byte the prefix ops printed and wrote."""
    h = hashlib.sha256()
    for rec in recs:
        h.update(json.dumps([rec.op.argv, rec.op.threads]).encode())
        h.update(b"\0" + rec.stdout.encode() + b"\0")
        if rec.csv is not None:
            h.update(rec.csv[0].encode())
    return h.hexdigest()


def check_golden(workload: str, seed: int, digest: str) -> str | None:
    """A mismatch with the digest recorded for this seed, if one is recorded."""
    expected = json.loads(GOLDEN.read_text())[workload].get(str(seed))
    if expected is not None and expected != digest:
        return f"output digest {digest} differs from the recorded {expected}"
    return None


# ----------------------------------------------------------------- metrics


def measure_setup_s() -> tuple[float, float]:
    """(raw, scaled) median wall time of ``import zbias`` in fresh
    interpreters; the reference kernel is timed before and after each."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import zbias; print(repr(time.perf_counter() - t))")
    samples, scaled = [], []
    before = reference_seconds()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True)
        after = reference_seconds()
        samples.append(float(done.stdout.strip()))
        scaled.append(samples[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(samples), statistics.median(scaled)


def windowed_rate(recs, size: int, seconds) -> float:
    """Median over consecutive windows of ``size`` ops of units per second,
    with ``seconds(rec)`` the op's time; a trailing partial window is
    dropped unless it is the only one."""
    windows = [recs[i:i + size] for i in range(0, len(recs), size)]
    if len(windows) > 1 and len(windows[-1]) < size:
        windows.pop()
    return statistics.median(
        sum(r.op.units for r in w) / sum(seconds(r) for r in w) for w in windows
    )


def end_to_end(workload: str, recs, scaled: bool) -> dict:
    """End-to-end values of the timed ops, from raw or speed-scaled times."""
    def seconds(rec):
        return rec.seconds / rec.speed if scaled else rec.seconds

    primary = [r for r in recs if r.op.primary]
    alt = [r for r in recs if r.op.alt]
    lat = sorted(seconds(r) * 1e3 for r in primary)
    size, alt_size = RATE_WINDOWS[workload]
    return {
        "units_per_s": windowed_rate(primary, size, seconds),
        "alt_units_per_s": windowed_rate(alt, alt_size, seconds),
        "op_p50_ms": percentile(lat, 50.0),
        "op_tail_ms": percentile(lat, tail_quantile(len(lat))),
        # One CLI call's peak: a later call can only add allocator noise
        # (the 2-thread scatter peak differs run to run).
        "peak_rss_mb": primary[0].maxrss_kb / 1024.0,
    }


TRACED = {
    "zbias.cli": ("main",),
    "zbias.scenario_io": ("load_scenario",),
    "zbias.scenario": ("to_discrete", "collapse_by_propensity"),
    "zbias.estimators": ("estimates", "rr", "dce", "po_estimates", "covariate_average",
                         "true_ace", "adjusted_ace"),
    "zbias.conditions": ("reports_to_json", "zbias_verdict"),   # plus every check_*
    "zbias.rng": ("primary_uniforms", "retry_uniforms"),
    "zbias.montecarlo": ("population_biases", "estimate_volume", "export_scatter"),
}


def _count_bytes(counters, path, *args, **kwargs):
    counters["scenario_io.bytes_read"] += os.path.getsize(path)


def _count_draws(counters, seed, start, n_draws, *args, **kwargs):
    counters["rng.primary_uniforms.draws"] += n_draws


def _count_rows(counters, params, *args, **kwargs):
    counters["montecarlo.population_biases.rows"] += len(params)


HOOKS = {
    "scenario_io.load_scenario": _count_bytes,
    "rng.primary_uniforms": _count_draws,
    "montecarlo.population_biases": _count_rows,
}


def trace_targets():
    """Span name -> (function, counter hook) for every traced function."""
    targets = {}
    for module_name, names in TRACED.items():
        module = importlib.import_module(module_name)
        if module_name == "zbias.conditions":
            names = names + tuple(n for n in vars(module) if n.startswith("check_"))
        short = module_name.split(".")[1]
        for name in names:
            span = f"{short}.{name}"
            targets[span] = (getattr(module, name), HOOKS.get(span))
    return targets


def zbias_modules():
    return [importlib.import_module(m) for m in ("zbias", *TRACED)]


def per_layer(spans, counters, recs, untraced) -> dict:
    """Layer metrics of the traced pass ``recs`` over the same ops as the
    untraced pass ``untraced``; times are raw except the overhead, which
    compares speed-scaled call times."""
    own = tracing.self_times(spans)
    top = tracing.roots(spans)
    kids = tracing.children_of(spans)

    def total(name, self_time=False):
        return sum(own[s.id] if self_time else s.end_ns - s.start_ns
                   for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def layer_self(prefix):
        return sum(own[s.id] for s in spans if s.name.startswith(prefix))

    # Root spans are the cli.main calls, one per op and in op order.
    root_ids = sorted((s for s in spans if s.parent is None), key=lambda s: s.start_ns)
    op_of = {span.id: rec for span, rec in zip(root_ids, recs)}

    evals = sum(1 for r in recs if r.op.argv[0] == "eval")

    def calls_per_eval(name):
        n = sum(1 for s in spans if s.name == name and op_of[top[s.id]].op.argv[0] == "eval")
        return n / evals if evals else 0.0

    cor1_draws = sum(r.op.units for r in recs if r.op.expect.get("filter") == "cor1")
    cor1_retries = sum(1 for s in spans if s.name == "rng.retry_uniforms"
                       and op_of[top[s.id]].op.expect.get("filter") == "cor1")
    draws = counters["rng.primary_uniforms.draws"]
    rows = counters["montecarlo.population_biases.rows"]

    busy = wall = 0
    for s in spans:
        if s.name in ("montecarlo.estimate_volume", "montecarlo.export_scatter") \
                and op_of[top[s.id]].op.threads == "2":
            by_thread: dict[int, list] = {}
            for c in kids.get(s.id, ()):
                by_thread.setdefault(c.thread, []).append((c.start_ns, c.end_ns))
            busy += sum(tracing.union_ns(iv) for iv in by_thread.values())
            wall += s.end_ns - s.start_ns

    harness_ns = sum(r.window_ns[1] - r.window_ns[0] for r in recs)
    covered_ns = tracing.union_ns((s.start_ns, s.end_ns) for s in root_ids)
    overhead_s = sum(r.seconds / r.speed for r in recs) - sum(
        r.seconds / r.speed for r in untraced)
    ms, sec = 1e-6, 1e-9
    values = {
        "cli.main.self_ms": total("cli.main", True) * ms,
        "scenario_io.load_scenario.ms": total("scenario_io.load_scenario") * ms,
        "scenario_io.bytes_read": counters["scenario_io.bytes_read"],
        "scenario.to_discrete.ms": total("scenario.to_discrete") * ms,
        "scenario.to_discrete.calls": calls("scenario.to_discrete"),
        "scenario.collapse_by_propensity.ms": total("scenario.collapse_by_propensity") * ms,
        "estimators.self_ms": layer_self("estimators.") * ms,
        "estimators.true_ace.calls": calls_per_eval("estimators.true_ace"),
        "estimators.adjusted_ace.calls": calls_per_eval("estimators.adjusted_ace"),
        "conditions.check.self_ms": layer_self("conditions.check_") * ms,
        "conditions.reports_to_json.ms": total("conditions.reports_to_json") * ms,
        "rng.primary_uniforms.s": total("rng.primary_uniforms") * sec,
        "rng.primary_uniforms.ns_per_draw":
            total("rng.primary_uniforms") / draws if draws else 0.0,
        "rng.retry_uniforms.calls": calls("rng.retry_uniforms"),
        "rng.retry_uniforms.s": total("rng.retry_uniforms") * sec,
        "montecarlo.population_biases.s": total("montecarlo.population_biases") * sec,
        "montecarlo.population_biases.ns_per_draw":
            total("montecarlo.population_biases") / rows if rows else 0.0,
        "montecarlo.estimate_volume.self_s": total("montecarlo.estimate_volume", True) * sec,
        "montecarlo.cor1_accept_ratio":
            cor1_draws / (cor1_draws + cor1_retries) if cor1_draws else 0.0,
        "montecarlo.cor1_accept_ratio.base": cor1_draws + cor1_retries,
        "montecarlo.export_scatter.self_s": total("montecarlo.export_scatter", True) * sec,
        "montecarlo.export_scatter.bytes": sum(r.csv[3] for r in recs if r.csv),
        "montecarlo.thread_busy_ratio": busy / (2 * wall) if wall else 0.0,
        "montecarlo.chunks": calls("rng.primary_uniforms"),
        **{f"layer.{name}.self_ms": layer_self(name + ".") * ms for name in LAYERS},
        "trace.overhead_s": overhead_s,
        "trace.uncovered_ms": (harness_ns - covered_ns) * ms,
    }
    return values


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps(s._asdict()) + "\n")


# --------------------------------------------------------------------- run


def provenance(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "zbias").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "draws": {"mc": wl.MC_DRAWS, "cor1": wl.COR1_DRAWS, "cor2": wl.COR2_DRAWS,
                  "scatter": wl.SCATTER_DRAWS},
        "threads": {"primary": "ZBIAS_THREADS unset", "alt": "ZBIAS_THREADS=2"},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    zbias = importlib.import_module("zbias")
    cli = importlib.import_module("zbias.cli")
    meta = provenance(args)
    workload, seed = args.workload, args.seed
    os.makedirs(f"{OUT}/results", exist_ok=True)

    raw_setup_s, setup_s = (None, None) if args.trace else measure_setup_s()
    warm_groups, groups = streams(zbias, workload, seed)
    warm = run_groups(cli, warm_groups, 0, count=WARMUP_GROUPS[workload])
    passes = [warm]
    prefix_groups = PREFIX_GROUPS[workload]
    failures: dict[int, str] = {}

    if not args.trace:
        timed = run_groups(cli, groups, len(warm), seconds=args.seconds,
                           calibrate=REFERENCE_WORK[workload])
        have = len({r.op.group for r in timed})
        rest = run_groups(cli, groups, len(warm) + len(timed),
                          count=max(0, prefix_groups - have))
        passes.append(timed + rest)
        prefix = [r for r in timed + rest if r.op.group < prefix_groups]
        values = {"setup_s": setup_s, **end_to_end(workload, timed, scaled=True)}
        metrics = {name: values[name] for name in END_TO_END}
        latencies = sum(1 for r in timed if r.op.primary)
        info = {"primary_ops": latencies, "alt_ops": sum(1 for r in timed if r.op.alt),
                "tail_percentile": tail_quantile(latencies), "latency_samples": latencies,
                "mean_speed": statistics.fmean(r.speed for r in timed),
                "raw": {"setup_s": raw_setup_s, **end_to_end(workload, timed, scaled=False)}}
        units = END_TO_END
    else:
        fixed = [list(group) for group in islice(groups, prefix_groups)]
        work = REFERENCE_WORK[workload]
        plain = run_groups(cli, iter(fixed), len(warm), count=prefix_groups, calibrate=work)
        t = tracing.Tracer()
        t.install(zbias_modules(), trace_targets())
        try:
            traced = run_groups(cli, iter(fixed), len(warm) + len(plain), count=prefix_groups,
                                calibrate=work)
        finally:
            t.restore()
        passes += [plain, traced]
        prefix = plain
        for a, b in zip(plain, traced):
            if a.stdout != b.stdout or a.csv != b.csv:
                failures[b.index] = f"{' '.join(b.op.argv)}: output changed under tracing"
        write_spans(f"{OUT}/results/spans-{workload}-seed{seed}.jsonl", t.spans)
        metrics = per_layer(t.spans, t.counters, traced, plain)
        info = {"spans": len(t.spans), "traced_ops": len(traced)}
        units = PER_LAYER

    recs = [rec for run in passes for rec in run]
    for run in passes:
        for key, message in check(zbias, workload, run).items():
            failures.setdefault(key, message)
    digest = prefix_digest(prefix)
    golden = check_golden(workload, seed, digest)
    if golden is not None:
        failures.setdefault(prefix[0].index, golden)

    attempted = len(recs)
    failed = len(failures)
    correct = failed == 0
    result = {
        "provenance": meta,
        "digest": {"ops": len(prefix), "sha256": digest},
        "info": info,
        "failures": [failures[k] for k in sorted(failures)],
        "metrics": metrics,
        "failed_ops_ratio": failed / attempted,
    }
    name = f"{workload}-seed{seed}-trace{args.trace}.json"
    Path(f"{OUT}/results/{name}").write_text(json.dumps(result, indent=1) + "\n")
    shutil.rmtree(f"{OUT}/corpus", ignore_errors=True)
    shutil.rmtree(f"{OUT}/scatter", ignore_errors=True)

    print("provenance " + json.dumps(meta))
    print(f"digest {workload} seed={seed} ops={len(prefix)} sha256={digest}")
    for message in result["failures"][:20]:
        print(f"FAILED {message}")
    for key, value in info.items():
        print(f"info {key} = {value}")
    if not args.trace:
        for alias, w, metric, unit in NAMED:
            if w == workload:
                print(named_line(alias, metric, metrics[metric], unit, info)[1])
    print(f"failed_ops_ratio = {failed / attempted:.6g} (of {attempted} ops)")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def named_line(alias: str, metric: str, value: float, unit: str, info: dict):
    """(name, printed line) of one workload-specific metric; latencies name the
    percentile they report and their sample count."""
    if not metric.startswith("op_"):
        return alias, f"{alias} = {value:.6g} {unit}"
    q = 50.0 if metric == "op_p50_ms" else info["tail_percentile"]
    name = f"{alias.rsplit('_p', 1)[0]}_p{q:g}_ms"
    return name, f"{name} = {value:.6g} {unit} (of {info['latency_samples']} ops)"


def run_all(args) -> int:
    """Every workload in its own process, then the workload-specific names."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines:
            return 2
        results[workload] = json.loads(lines[-1])
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    if not args.trace:
        def value(w, m):
            return results[w]["metrics"][m]["value"]

        metrics["setup_s"] = (statistics.median(value(w, "setup_s") for w in WORKLOADS), "s")
        for w in WORKLOADS:
            metrics[f"peak_rss_mb.{w}"] = (value(w, "peak_rss_mb"), "MB")
        metrics["failed_ops_ratio"] = (failed / attempted, "ratio")
        print("== all workloads ==")
        for key, (v, unit) in metrics.items():
            print(f"{key} = {v:.6g} {unit}")
        for alias, w, metric, unit in NAMED:
            saved = Path(f"{OUT}/results/{w}-seed{args.seed}-trace0.json")
            name, line = named_line(alias, metric, value(w, metric), unit,
                                    json.loads(saved.read_text())["info"])
            metrics[name] = (value(w, metric), unit)
            print(line)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 and all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zbias" / "__init__.py").is_file():
        print(f"error: no zbias sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
