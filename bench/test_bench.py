"""Tests of the benchmark's own logic.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads as wl
from tracer import Span

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize(
    "n, q",
    [(1, 50.0), (19, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9), (250000, 99.9)],
)
def test_tail_quantile_is_highest_with_ten_samples_beyond(n, q):
    assert run.tail_quantile(n) == q


def test_percentile_interpolates_between_ranks():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert run.percentile(values, 50.0) == 3.0
    assert run.percentile(values, 90.0) == pytest.approx(4.6)
    assert run.percentile(values, 100.0) == 5.0
    assert run.percentile([7.0], 99.0) == 7.0


def test_self_time_subtracts_union_of_children_across_threads():
    spans = [
        Span(0, "montecarlo.estimate_volume", 0, 100, None, 1),
        Span(1, "rng.primary_uniforms", 10, 40, 0, 2),      # worker thread 2
        Span(2, "rng.primary_uniforms", 30, 60, 0, 3),      # worker thread 3, overlaps
        Span(3, "montecarlo.population_biases", 90, 130, 0, 2),  # runs past the parent
        Span(4, "rng.retry_uniforms", 12, 20, 1, 2),        # grandchild
    ]
    own = tracing.self_times(spans)
    assert own[0] == 100 - (50 + 10)
    assert own[1] == 30 - 8
    assert own[2] == 30
    assert own[3] == 40
    assert own[4] == 8
    assert tracing.roots(spans) == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}


def test_union_merges_touching_and_nested_intervals():
    assert tracing.union_ns([]) == 0
    assert tracing.union_ns([(0, 10), (10, 20), (2, 5), (30, 31)]) == 21


def test_worker_spans_take_the_submitting_span_as_parent():
    t = tracing.Tracer()
    leaf = t.wrap("rng.leaf", lambda: threading.get_ident())

    def submit():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda _: leaf(), range(8)))

    outer = t.wrap("montecarlo.outer", submit)
    outer()
    (root,) = [s for s in t.spans if s.parent is None]
    children = [s for s in t.spans if s.parent is not None]
    assert len(children) == 8
    assert all(s.parent == root.id for s in children)
    assert all(s.thread != root.thread for s in children)
    covered = tracing.union_ns((s.start_ns, s.end_ns) for s in children)
    assert tracing.self_times(t.spans)[root.id] == root.end_ns - root.start_ns - covered


def _namespaces():
    return {(m.__name__, k): v for m in run.zbias_modules() for k, v in vars(m).items()}


def test_restore_puts_back_every_rebound_name():
    before = _namespaces()
    t = tracing.Tracer()
    t.install(run.zbias_modules(), run.trace_targets())
    during = _namespaces()
    changed = {key for key in before if during[key] is not before[key]}
    assert ("zbias.cli", "load_scenario") in changed
    assert ("zbias.montecarlo", "primary_uniforms") in changed
    assert ("zbias.estimators", "true_ace") in changed
    assert ("zbias.conditions", "check_thm1") in changed
    assert ("zbias.cli", "main") in changed
    t.restore()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_call_counts_and_restores_after_an_error(tmp_path):
    import zbias
    from zbias import cli

    path = tmp_path / "bad.scn"
    path.write_text("kind = binary\npZ = 2\n")
    before = _namespaces()
    t = tracing.Tracer()
    t.install(run.zbias_modules(), run.trace_targets())
    try:
        with pytest.raises(zbias.ScenarioFormatError):
            zbias.scenario_io.load_scenario(str(path))
        assert cli.main(["mc", "--draws", "10", "--seed", "1"]) == 0
    finally:
        t.restore()
    assert t.counters["scenario_io.bytes_read"] == path.stat().st_size
    assert t.counters["rng.primary_uniforms.draws"] == 10
    names = [s.name for s in t.spans]
    assert names.count("scenario_io.load_scenario") == 1
    assert "montecarlo.estimate_volume" in names and "cli.main" in names
    assert all(v is before[k] for k, v in _namespaces().items())


def test_strict_json_refuses_non_finite_constants():
    assert wl.strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": Infinity}', '{"a": -Infinity}', '[NaN]', "not json"):
        with pytest.raises(wl.BadOutput):
            wl.strict_json(text)


def test_covariance_gap_check_rejects_a_wrong_gap():
    op = wl.Op(["eval", "x.scn"], expect={"gaps": (0.1, 0.2, 0.3)})
    good = json.dumps({"unadj": 1.0, "adj_treated": 1.1, "adj_control": 1.2, "adj_all": 1.3})
    wl.check_op(op, good)
    bad = json.dumps({"unadj": 1.0, "adj_treated": 1.1, "adj_control": 1.2, "adj_all": 1.31})
    with pytest.raises(wl.BadOutput):
        wl.check_op(op, bad)


def test_mc_pair_with_differing_output_fails_both_ops():
    import zbias

    ops = next(wl.mc_uniform_groups(3, warmup=True))
    recs = [run.Rec(i, op, 0, out, "", 0.1, (0, 1)) for i, (op, out) in enumerate(zip(
        ops, ['{"volume": 0.7, "stderr": 0.0145, "draws": 1000, "seed": %d, "tie_count": 0}'
              % ops[0].expect["seed"],
              '{"volume": 0.69, "stderr": 0.0146, "draws": 1000, "seed": %d, "tie_count": 0}'
              % ops[0].expect["seed"]]))]
    failures = run.check(zbias, "mc_uniform", recs)
    assert sorted(failures) == [0, 1]
    assert all("differs" in message for message in failures.values())


def test_inputs_depend_only_on_the_seed():
    a = [op.argv for group in zip(range(3), wl.mc_filtered_groups(7)) for op in group[1]]
    b = [op.argv for group in zip(range(3), wl.mc_filtered_groups(7)) for op in group[1]]
    c = [op.argv for group in zip(range(3), wl.mc_filtered_groups(8)) for op in group[1]]
    assert a == b and a != c


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exact_corpus_is_seeded_and_keeps_the_kind_mix(tmp_path):
    import zbias

    def deal(seed, where):
        groups = wl.exact_groups(zbias, seed, str(where))
        ops = [next(groups)[0] for _ in range(2 * len(wl.KIND_DECK))]
        texts = [Path(op.argv[1]).read_text() for op in ops]
        return [op.argv[:1] + op.argv[2:] for op in ops], texts, ops

    a = deal(5, tmp_path / "a")
    b = deal(5, tmp_path / "b")
    c = deal(6, tmp_path / "c")
    assert a[:2] == b[:2] and a[1] != c[1]
    for block in (a[2][:20], a[2][20:]):
        assert sum(op.alt for op in block) == wl.KIND_DECK.count("large")


def test_ops_are_scaled_by_the_reference_timings_around_them():
    ops = [wl.Op(["eval", "x"], units=1, alt=True) for _ in range(4)]
    recs = [run.Rec(i, op, 0, "{}", "", 0.002, (0, 1)) for i, op in enumerate(ops)]
    ref = run.REFERENCE_S
    run.set_speeds(recs, [(0, ref), (2, 3 * ref), (4, ref)])
    assert [r.speed for r in recs] == [2.0, 2.0, 2.0, 2.0]
    run.set_speeds(recs, [(0, ref), (1, ref), (4, 2 * ref)])
    assert [r.speed for r in recs] == [1.0, 1.5, 1.5, 1.5]
    scaled = run.end_to_end("mc_uniform", recs, scaled=True)
    raw = run.end_to_end("mc_uniform", recs, scaled=False)
    assert raw["op_p50_ms"] == pytest.approx(2.0)
    assert scaled["op_p50_ms"] == pytest.approx(2.0 / 1.5)
    assert scaled["units_per_s"] == pytest.approx(1.5 / 0.002)


def test_each_thread_count_is_calibrated_on_its_own():
    class FakeCli:
        @staticmethod
        def main(argv):
            print("{}")
            return 0

    def groups():
        for group in range(3):
            yield [wl.Op(["mc"], None, group=group), wl.Op(["mc"], "2", group=group)]

    seen = []

    def work():
        seen.append(threading.get_ident())

    recs = run.run_groups(FakeCli, groups(), 0, count=3, calibrate=work)
    assert [r.op.threads for r in recs] == [None, "2"] * 3
    assert all(0.0 < r.speed < 1.0 for r in recs)
    assert len(set(seen)) >= 2        # the 2-thread timings ran on pool threads
