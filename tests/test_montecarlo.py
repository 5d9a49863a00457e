"""Monte Carlo explorer: determinism, sharding, distributional sanity, export."""

import contextlib
import hashlib
import io
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary_from_params
from zbias import (
    EstimateSet,
    InvariantViolation,
    McConfig,
    McResult,
    ScenarioStream,
    check_cor1,
    check_cor2,
    draw_scenario,
    estimate_volume,
    estimates,
    export_scatter,
    parse_scenario,
    population_biases,
    serialize_scenario,
    zbias_verdict,
)
from zbias import cli, montecarlo
from zbias.cli import main
from zbias.montecarlo import (
    _chunk_draws,
    _params_matrix,
    _project_cor1,
    _project_cor2,
    _thread_count,
)
from zbias.rng import philox4x64, primary_uniforms, retry_uniforms


# ---------------------------------------------------------------------------
# Counter-based stream semantics


def test_counter_blocks_are_position_independent():
    seed = 20240817
    whole = primary_uniforms(seed, 0, 8)
    first = primary_uniforms(seed, 0, 3)
    rest = primary_uniforms(seed, 3, 5)
    assert np.array_equal(np.vstack([first, rest]), whole)


def test_every_partition_gives_identical_rows():
    seed = 99
    reference = _params_matrix(seed, 0, 64)
    pieces = [_params_matrix(seed, s, 16) for s in range(0, 64, 16)]
    assert np.array_equal(np.vstack(pieces), reference)


def test_stream_is_deterministic():
    a = ScenarioStream(seed=7)
    b = ScenarioStream(seed=7)
    for _ in range(5):
        assert draw_scenario(a) == draw_scenario(b)
    c = ScenarioStream(seed=7, index=3)
    d = ScenarioStream(seed=7)
    for _ in range(3):
        draw_scenario(d)
    assert draw_scenario(c) == draw_scenario(d)


def test_stream_matches_vectorised_params():
    stream = ScenarioStream(seed=123)
    rows = _params_matrix(123, 0, 4)
    for k in range(4):
        s = draw_scenario(stream)
        assert s.z_prob == rows[k][0]
        assert s.u_prob == rows[k][1]
        assert s.treat[1][1] == rows[k][2]
        assert s.outcome_mean[0][0] == rows[k][9]


# ---------------------------------------------------------------------------
# Sampler distribution


def test_uniform_marginal_means():
    rows = _params_matrix(2024, 0, 10_000)
    means = rows.mean(axis=0)
    assert np.all(np.abs(means - 0.5) < 0.02)


def test_pairwise_correlations_small():
    rows = _params_matrix(2025, 0, 10_000)
    corr = np.corrcoef(rows, rowvar=False)
    off_diag = corr[~np.eye(10, dtype=bool)]
    assert np.all(np.abs(off_diag) < 0.05)


# ---------------------------------------------------------------------------
# Volume estimation


def test_single_draw_volume_is_zero_or_one():
    res = estimate_volume(McConfig(draws=1, seed=5))
    assert res.volume in (0.0, 1.0)
    assert res.stderr == 0.0


def test_volume_reproducible_and_thread_invariant(monkeypatch):
    cfg = McConfig(draws=50_000, seed=31415)
    monkeypatch.setenv("ZBIAS_THREADS", "1")
    sequential = estimate_volume(cfg)
    monkeypatch.setenv("ZBIAS_THREADS", "4")
    threaded = estimate_volume(cfg)
    assert sequential == threaded


def test_thread_cap_env_var(monkeypatch):
    cfg = McConfig(draws=40_000, seed=161803)
    baseline = estimate_volume(cfg)
    monkeypatch.setenv("ZBIAS_THREADS", "3")
    assert estimate_volume(cfg) == baseline
    monkeypatch.setenv("ZBIAS_THREADS", "not-a-number")
    with pytest.raises(InvariantViolation, match="ZBIAS_THREADS"):
        estimate_volume(cfg)


def test_volume_matches_manual_count():
    cfg = McConfig(draws=5_000, seed=777)
    res = estimate_volume(cfg)
    bias_adj, bias_unadj = population_biases(_params_matrix(777, 0, 5_000))
    gap = np.abs(bias_adj) - np.abs(bias_unadj)
    manual = int((gap > 1e-12).sum())
    assert res.volume == manual / 5_000
    assert res.tie_count == int((np.abs(gap) <= 1e-12).sum())


def test_disjoint_seeds_agree_within_pooled_error():
    a = estimate_volume(McConfig(draws=200_000, seed=1))
    b = estimate_volume(McConfig(draws=200_000, seed=2))
    pooled = math.hypot(a.stderr, b.stderr)
    assert abs(a.volume - b.volume) < 6 * pooled


def test_mcresult_derives_stderr():
    res = McResult(volume=0.5, draws=100, seed=0, tie_count=0)
    assert res.stderr == math.sqrt(0.5 * (1.0 - 0.5) / 100) == 0.05
    assert res == McResult(0.5, 100, 0, 0)
    with pytest.raises(TypeError, match="stderr"):
        McResult(volume=0.5, stderr=0.5, draws=100, seed=0, tie_count=0)


def test_bad_config_rejected():
    with pytest.raises(InvariantViolation, match="draws"):
        McConfig(draws=0, seed=1)
    with pytest.raises(InvariantViolation, match="filter"):
        McConfig(draws=10, seed=1, filter=("cor9",))


@pytest.mark.parametrize("field, kwargs", [
    ("draws", dict(draws=1.5, seed=1)),
    ("seed", dict(draws=10, seed=1.5)),
])
def test_config_rejects_non_integer_counts(field, kwargs):
    with pytest.raises(InvariantViolation, match=f"^{field}: must be an integer$"):
        McConfig(**kwargs)


@pytest.mark.parametrize("field, kwargs", [
    ("draws", dict(draws=True, seed=1)),
    ("seed", dict(draws=10, seed=False)),
    ("seed", dict(draws=10, seed=np.True_)),
])
def test_config_rejects_booleans(field, kwargs):
    # bool is an Integral, but True would print as "draws": True, which is not JSON.
    with pytest.raises(InvariantViolation, match=f"^{field}: must be an integer$"):
        McConfig(**kwargs)


@pytest.mark.parametrize("spelling", ["cor1", ("cor1.a",), ("cor1", "cor2"), ["cor1"]],
                         ids=["string", "dotted", "two-names", "list"])
def test_config_takes_one_filter_spelling(spelling):
    with pytest.raises(InvariantViolation, match="^filter: must be None, "):
        McConfig(draws=10, seed=1, filter=spelling)


def test_cli_filter_choices_are_the_projections():
    # The CLI stays numpy-free, so it spells the filter names itself.
    (commands,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    (action,) = [a for a in commands.choices["mc"]._actions if a.dest == "filter"]
    assert set(action.choices) == set(montecarlo._PROJECTIONS)


# ---------------------------------------------------------------------------
# Vectorised kernel against the exact estimators


def test_population_biases_match_estimators_module():
    rows = _params_matrix(4242, 0, 250)
    bias_adj, bias_unadj = population_biases(rows)
    for k, row in enumerate(rows):
        e = estimates(binary_from_params(*row))
        assert math.isclose(bias_adj[k], e.adj_all - e.true_all, abs_tol=1e-12)
        assert math.isclose(bias_unadj[k], e.unadj - e.true_all, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Projected (filtered) sampling


def test_cor1_filter_draws_satisfy_conditions_and_always_amplify():
    cfg = McConfig(draws=2_000, seed=404, filter=("cor1",))
    rows = _chunk_draws(cfg, 0, 2_000)[0]
    for row in rows[:200]:
        s = binary_from_params(*row)
        assert all(r.holds for r in check_cor1(s))
    res = estimate_volume(cfg)
    # Amplification is guaranteed weakly: every draw either amplifies
    # strictly or is an exact tie, which is counted and reported.
    assert res.volume == 1.0 - res.tie_count / cfg.draws
    assert res.volume == 1.0


def test_cor2_filter_draws_satisfy_conditions_and_always_amplify():
    cfg = McConfig(draws=2_000, seed=405, filter=("cor2",))
    rows = _chunk_draws(cfg, 0, 2_000)[0]
    for row in rows[:200]:
        s = binary_from_params(*row)
        assert all(r.holds for r in check_cor2(s))
    res = estimate_volume(cfg)
    assert res.volume == 1.0 - res.tie_count / cfg.draws


# ---------------------------------------------------------------------------
# CSV export


def test_scatter_layout_and_agreement_with_volume(tmp_path):
    out = tmp_path / "scatter.csv"
    cfg = McConfig(draws=100, seed=2718)
    rows_written = export_scatter(cfg, out)
    assert rows_written == 100
    lines = out.read_text().splitlines()
    assert lines[0] == "pZ,pU,p11,p10,p01,p00,r11,r10,r01,r00,bias_adj,bias_unadj,zbias"
    assert len(lines) == 101
    flags = []
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 13
        bias_adj, bias_unadj = float(cells[10]), float(cells[11])
        assert cells[12] in ("true", "false")
        assert (cells[12] == "true") == (abs(bias_adj) > abs(bias_unadj))
        flags.append(cells[12] == "true")
    res = estimate_volume(cfg)
    assert res.volume == sum(flags) / 100


def test_scatter_is_deterministic(tmp_path, monkeypatch):
    cfg = McConfig(draws=200, seed=9)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    export_scatter(cfg, first)
    monkeypatch.setenv("ZBIAS_THREADS", "3")
    export_scatter(cfg, second)
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()


def test_scatter_round_trips_parameters(tmp_path):
    out = tmp_path / "scatter.csv"
    export_scatter(McConfig(draws=10, seed=55), out)
    rows = _params_matrix(55, 0, 10)
    lines = out.read_text().splitlines()[1:]
    for line, row in zip(lines, rows):
        cells = [float(c) for c in line.split(",")[:10]]
        assert cells == list(row)


def test_scenario_file_and_scatter_row_share_one_layout(tmp_path):
    # The file keys of a drawn world are the scatter CSV's first ten
    # columns, with the same text per value, and the file parses back.
    out = tmp_path / "scatter.csv"
    export_scatter(McConfig(draws=4, seed=31), out)
    header, *rows = out.read_text().splitlines()
    stream = ScenarioStream(31)
    for row in rows:
        world = draw_scenario(stream)
        text = serialize_scenario(world)
        pairs = [line.split(" = ") for line in text.splitlines()[1:11]]
        assert [key for key, _ in pairs] == header.split(",")[:10]
        assert [value for _, value in pairs] == row.split(",")[:10]
        assert parse_scenario(text) == world


TIE_BAND_GAPS = [0.0, 1e-12, -1e-12, 0.25, -0.25, *(
    math.nextafter(g, toward) for g in (1e-12, -1e-12) for toward in (-1.0, 1.0))]


def test_mc_and_verdict_share_one_tie_band(tmp_path, monkeypatch):
    # |adj| - |unadj| is exact when one side is 0, so each gap lands on,
    # just inside or just outside the 1e-12 band.
    bias_adj = np.array([max(g, 0.0) for g in TIE_BAND_GAPS])
    bias_unadj = np.array([max(-g, 0.0) for g in TIE_BAND_GAPS])
    monkeypatch.setattr(montecarlo, "population_biases", lambda rows: (bias_adj, bias_unadj))
    monkeypatch.delenv("ZBIAS_THREADS", raising=False)
    verdicts = [
        zbias_verdict(EstimateSet(0.0, 0.0, 0.0, u, a, a, a, 0.5, "on_z"))
        for a, u in zip(bias_adj.tolist(), bias_unadj.tolist())
    ]
    cfg = McConfig(draws=len(TIE_BAND_GAPS), seed=1)
    result = estimate_volume(cfg)
    assert sum(v.zbias for v in verdicts) == 2 and sum(v.tie for v in verdicts) == 5
    assert result.volume == 2 / cfg.draws and result.tie_count == 5
    out = tmp_path / "scatter.csv"
    export_scatter(cfg, out)
    flags = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
    assert flags == ["true" if v.zbias else "false" for v in verdicts]


# ---------------------------------------------------------------------------
# Thread clamp


def test_thread_count_is_clamped_to_chunks_and_cpus():
    # A pure function of (requested, chunks, cpus): no pool is started here.
    assert _thread_count(0, 8, 4) == 1
    assert _thread_count(-3, 8, 4) == 1
    assert _thread_count(1, 8, 4) == 1
    assert _thread_count(2, 8, 2) == 2
    assert _thread_count(3, 8, 2) == 2
    assert _thread_count(64, 8, 16) == 8
    assert _thread_count(4, 1, 16) == 1
    assert _thread_count(4, 8, None) == 1


# ---------------------------------------------------------------------------
# numpy Philox4x64-10 against numpy's C bit generator

PHILOX_KEYS = (0, 2**63 + 11, 2**64 - 1)


def _counter_words(counter):
    return [(counter >> (64 * j)) & (2**64 - 1) for j in range(4)]


@pytest.mark.parametrize("key", PHILOX_KEYS)
def test_numpy_philox_matches_bit_generator(key):
    primary = [0, 4, 4 * 32_767, 4 * 10**9 + 3]
    retry = [((i + 1) << 64) + 4 * a for i, a in ((0, 0), (5, 1_000), (2**62, 1_001_003))]
    for counter in primary + retry:
        # Philox(counter=c) emits the blocks of counters c + 1, c + 2, ...
        expected = np.random.Philox(key=key, counter=counter).random_raw(8)
        words = np.array([_counter_words(counter + 1), _counter_words(counter + 2)],
                         dtype=np.uint64)
        assert np.array_equal(philox4x64(key, words).reshape(-1), expected)


def _reference_retry(seed, index, attempt):
    block = ((index + 1) << 64) + 4 * attempt
    return np.random.Generator(np.random.Philox(key=seed, counter=block)).random(16)


@pytest.mark.parametrize("key", PHILOX_KEYS)
def test_retry_uniforms_match_bit_generator(key):
    for index, attempt in ((0, 0), (7, 3), (123_456, 1_000), (2**40, 1_001_000)):
        assert np.array_equal(retry_uniforms(key, index, attempt),
                              _reference_retry(key, index, attempt))


# ---------------------------------------------------------------------------
# Round-based projection against a per-row reference


def _reference_sort_outcome_means(row):
    if row[6] < row[7]:
        row[6], row[7] = row[7], row[6]
    if row[8] < row[9]:
        row[8], row[9] = row[9], row[8]


def _reference_cor1(rows, seed, start, retry=_reference_retry):
    for offset, row in enumerate(rows):
        attempt = 0
        while True:
            p00, p10, p01 = np.sort(row[3:6])
            p11 = p10 + p01 - p00
            if p11 <= 1.0:
                break
            base = 1_000 + attempt
            triple = retry(seed, start + offset, base)[:3]
            while np.any(triple == 0.0):
                base += 1_000_000
                triple = retry(seed, start + offset, base)[:3]
            row[3:6] = triple
            attempt += 1
        row[2], row[3], row[4], row[5] = p11, p10, p01, p00
        _reference_sort_outcome_means(row)


def _reference_cor2(rows):
    for row in rows:
        x, y, w = row[3], row[4], row[5]
        row[2], row[3], row[4], row[5] = x, x * y, x * w, x * y * w
        _reference_sort_outcome_means(row)


PROJECTION_CASES = [(3, 0), (2024, 32_768), (2**63 + 5, 10**9), (2**64 - 1, 17)]


@pytest.mark.parametrize("seed,start", PROJECTION_CASES)
def test_cor1_projection_matches_per_row_reference(seed, start):
    rows = _params_matrix(seed, start, 600)
    expected = rows.copy()
    _reference_cor1(expected, seed, start)
    _project_cor1(rows, seed, start)
    assert rows.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed,start", PROJECTION_CASES)
def test_cor2_projection_matches_per_row_reference(seed, start):
    rows = _params_matrix(seed, start, 600)
    expected = rows.copy()
    _reference_cor2(expected)
    _project_cor2(rows, seed, start)
    assert rows.tobytes() == expected.tobytes()


def test_cor1_projection_skips_exact_zero_retries(monkeypatch):
    seed, start = 8, 0
    rows = _params_matrix(seed, start, 400)
    p00, p10, p01 = np.sort(rows[:, 3:6], axis=1).T
    rejected = np.nonzero(p10 + p01 - p00 > 1.0)[0]
    once, twice = int(rejected[0]), int(rejected[1])
    # A triple with an exact zero that would be accepted if not skipped;
    # draw ``twice`` also gets it on its first skip target.
    zeroed = {(once, 1_000), (twice, 1_000), (twice, 1_001_000)}
    poisoned = (0.0, 0.25, 0.5)

    def reference_retry(seed_, index, attempt):
        out = _reference_retry(seed_, index, attempt)
        if (index, attempt) in zeroed:
            out[:3] = poisoned
        return out

    real = montecarlo.retry_block_uniforms

    def patched(seed_, indices, attempts):
        out = real(seed_, indices, attempts)
        for k, pair in enumerate(zip(np.asarray(indices).tolist(),
                                     np.asarray(attempts).tolist())):
            if pair in zeroed:
                out[k, :3] = poisoned
        return out

    monkeypatch.setattr(montecarlo, "retry_block_uniforms", patched)
    expected = rows.copy()
    _reference_cor1(expected, seed, start, retry=reference_retry)
    _project_cor1(rows, seed, start)
    assert rows.tobytes() == expected.tobytes()
    assert rows[once, 5] != 0.0 and rows[twice, 5] != 0.0
    unpatched = _params_matrix(seed, start, 400)
    _reference_cor1(unpatched, seed, start)
    assert not np.array_equal(rows[[once, twice]], unpatched[[once, twice]])


@pytest.mark.parametrize("width", [1, 7, 4096])
@pytest.mark.parametrize("seed,start", PROJECTION_CASES)
def test_cor1_projection_bytes_do_not_depend_on_fetch_width(monkeypatch, seed, start, width):
    monkeypatch.setattr(montecarlo, "_FETCH_WIDTH", width)
    rows = _params_matrix(seed, start, 600)
    expected = rows.copy()
    _reference_cor1(expected, seed, start)
    _project_cor1(rows, seed, start)
    assert rows.tobytes() == expected.tobytes()


REJECTED_TRIPLE = (0.1, 0.95, 0.9)  # p11 = 0.9 + 0.95 - 0.1 > 1
ZERO_TRIPLE = (0.0, 0.25, 0.5)  # accepted, were its zero not skipped


def _forced_projection(monkeypatch, forced, seed=8, start=0, count=400):
    """Rows projected with the retry triples of the (draw, attempt) pairs in
    ``forced`` replaced, their per-row reference, and the pairs each fetch
    call asked for."""
    real = montecarlo.retry_block_uniforms
    calls = []

    def patched(seed_, indices, attempts):
        out = real(seed_, indices, attempts)
        pairs = list(zip(np.asarray(indices).tolist(), np.asarray(attempts).tolist()))
        calls.append(pairs)
        for k, pair in enumerate(pairs):
            if pair in forced:
                out[k, :3] = forced[pair]
        return out

    def reference_retry(seed_, index, attempt):
        out = _reference_retry(seed_, index, attempt)
        if (index, attempt) in forced:
            out[:3] = forced[(index, attempt)]
        return out

    rows = _params_matrix(seed, start, count)
    expected = rows.copy()
    _reference_cor1(expected, seed, start, retry=reference_retry)
    monkeypatch.setattr(montecarlo, "retry_block_uniforms", patched)
    _project_cor1(rows, seed, start)
    return rows, expected, calls


def _first_rejected(seed=8, start=0, count=400):
    p00, p10, p01 = np.sort(_params_matrix(seed, start, count)[:, 3:6], axis=1).T
    return int(np.nonzero(p10 + p01 - p00 > 1.0)[0][0])


def test_cor1_rejection_run_spans_fetch_windows(monkeypatch):
    draw = _first_rejected()
    forced = {(draw, 1_000 + a): REJECTED_TRIPLE for a in range(40)}
    rows, expected, calls = _forced_projection(monkeypatch, forced)
    assert rows.tobytes() == expected.tobytes()
    # The forced run crosses at least one window boundary.
    windows = [c for c in calls if any(pair in forced for pair in c)]
    assert len(windows) >= 2


def test_cor1_exact_zero_inside_a_fetch_window(monkeypatch):
    draw = _first_rejected()
    forced = {(draw, 1_000 + a): REJECTED_TRIPLE for a in range(3)}
    forced[(draw, 1_003)] = forced[(draw, 1_001_003)] = ZERO_TRIPLE
    rows, expected, calls = _forced_projection(monkeypatch, forced)
    assert rows.tobytes() == expected.tobytes()
    assert rows[draw, 5] != 0.0
    # Attempt 3 is fetched between its neighbours, then skipped twice.
    (window,) = [c for c in calls if (draw, 1_003) in c]
    assert (draw, 1_002) in window and (draw, 1_004) in window
    assert any((draw, 2_001_003) in c for c in calls)


# Few distinct values, so that ties and repeats are common.
tied_cells = st.one_of(st.sampled_from([5e-324, 0.25, 0.5, 0.75, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(tied_cells, min_size=3, max_size=3), min_size=1, max_size=40))
def test_triple_ordering_is_np_sort_bit_for_bit(triples):
    triples = np.array(triples)
    ordered = np.stack(montecarlo._ordered(triples), axis=1)
    assert ordered.tobytes() == np.sort(triples, axis=1).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(tied_cells, min_size=10, max_size=10), min_size=1, max_size=40))
def test_outcome_mean_sort_matches_per_row_reference(params):
    rows = np.zeros((len(params), 16))[:, :10]  # the strided layout of a chunk
    rows[:] = params
    expected = np.array(params)
    for row in expected:
        _reference_sort_outcome_means(row)
    montecarlo._sort_outcome_means(rows)
    assert np.ascontiguousarray(rows).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Filtered output pinned to the bytes of the per-row implementation

GOLDEN_FILTERED_STDOUT = {
    ("cor1", 0, 1): '{"volume": 1, "stderr": 0, "draws": 1, "seed": 0, "tie_count": 0}',
    ("cor1", 1, 1000): '{"volume": 1, "stderr": 0, "draws": 1000, "seed": 1, "tie_count": 0}',
    ("cor1", 2024, 40000): '{"volume": 0.99997499999999995, "stderr": 2.4999687498073227e-05, '
                           '"draws": 40000, "seed": 2024, "tie_count": 1}',
    ("cor1", 2**63 + 11, 5000): '{"volume": 0.99980000000000002, "stderr": '
                                '0.00019997999899988897, "draws": 5000, '
                                '"seed": 9223372036854775819, "tie_count": 1}',
    ("cor1", 2**64 - 1, 3000): '{"volume": 1, "stderr": 0, "draws": 3000, '
                               '"seed": 18446744073709551615, "tie_count": 0}',
    ("cor2", 0, 1): '{"volume": 1, "stderr": 0, "draws": 1, "seed": 0, "tie_count": 0}',
    ("cor2", 1, 1000): '{"volume": 1, "stderr": 0, "draws": 1000, "seed": 1, "tie_count": 0}',
    ("cor2", 2024, 40000): '{"volume": 0.99934999999999996, "stderr": 0.00012743405157178745, '
                           '"draws": 40000, "seed": 2024, "tie_count": 26}',
    ("cor2", 2**63 + 11, 5000): '{"volume": 0.99960000000000004, "stderr": '
                                '0.00028278613827412261, "draws": 5000, '
                                '"seed": 9223372036854775819, "tie_count": 2}',
    ("cor2", 2**64 - 1, 3000): '{"volume": 0.9996666666666667, "stderr": '
                               '0.00033327777314735803, "draws": 3000, '
                               '"seed": 18446744073709551615, "tie_count": 1}',
}


@pytest.mark.parametrize("name,seed,draws", sorted(GOLDEN_FILTERED_STDOUT))
def test_filtered_mc_stdout_is_golden(name, seed, draws):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["mc", "--draws", str(draws), "--seed", str(seed), "--filter", name]) == 0
    assert out.getvalue() == GOLDEN_FILTERED_STDOUT[(name, seed, draws)] + "\n"


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name,seed,draws",
                         [key for key in sorted(GOLDEN_FILTERED_STDOUT) if key[2] > 256])
def test_filtered_mc_stdout_does_not_depend_on_chunks_or_threads(
        monkeypatch, name, seed, draws, threads):
    monkeypatch.setattr(montecarlo, "_CHUNK", 256)
    monkeypatch.setenv("ZBIAS_THREADS", threads)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["mc", "--draws", str(draws), "--seed", str(seed), "--filter", name]) == 0
    assert out.getvalue() == GOLDEN_FILTERED_STDOUT[(name, seed, draws)] + "\n"


GOLDEN_PROJECTED_SHA256 = {
    ("cor1", 3, 0, 5000): "6bdd237162e44e8820e460b08b2d8a000fffc4c19a72a4f33a8fe123c48668d4",
    ("cor1", 40, 32768, 20000): "9d3c095a49e50a9f51430d0ec70b68fb9e8b45772d554b00494b75357c1dc277",
    ("cor1", 2**63 + 7, 0, 32768): "93232b3a11d5f5cbb1ea11ab45fc282f846878972d1eb46f6029051cf5c0160f",
    ("cor1", 11, 5, 777): "18edb50060caec0c32b11462807cf5adccd8ba9bd67a4154188b239649731586",
    ("cor2", 3, 0, 5000): "4ddc04c96f7189a25b15e3378e5dc3057ff95d6d4e8c0c32f523471f05aa232f",
    ("cor2", 40, 32768, 20000): "d73acceb82d4afbd0086e764f0afc5851f7def24da27b815ae21c57c8b04ba48",
    ("cor2", 2**63 + 7, 0, 32768): "1e5fc802caed9a510ad13609a180bc812be9f0c82c9f40384c9e4f9deb81364c",
    ("cor2", 11, 5, 777): "ad3905c10ad82f6b5a9243e1ead0399bf54daac74f53b9e9ef09f26425957377",
}


@pytest.mark.parametrize("name,seed,start,count", sorted(GOLDEN_PROJECTED_SHA256))
def test_projected_rows_are_golden(name, seed, start, count):
    cfg = McConfig(draws=start + count, seed=seed, filter=(name,))
    rows = _chunk_draws(cfg, start, count)[0]
    digest = hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest()
    assert digest == GOLDEN_PROJECTED_SHA256[(name, seed, start, count)]


# ---------------------------------------------------------------------------
# Blocked bias kernel pinned bit for bit to the direct transcription


def _reference_population_biases(params):
    p_z, p_u = params[:, 0], params[:, 1]
    p11, p10, p01, p00 = params[:, 2], params[:, 3], params[:, 4], params[:, 5]
    r11, r10, r01, r00 = params[:, 6], params[:, 7], params[:, 8], params[:, 9]

    pi1 = p_u * p11 + (1.0 - p_u) * p10
    pi0 = p_u * p01 + (1.0 - p_u) * p00
    f = p_z * pi1 + (1.0 - p_z) * pi0

    num_t1 = p_u * p11 * r11 + (1.0 - p_u) * p10 * r10
    num_t0 = p_u * p01 * r11 + (1.0 - p_u) * p00 * r10
    num_c1 = p_u * (1.0 - p11) * r01 + (1.0 - p_u) * (1.0 - p10) * r00
    num_c0 = p_u * (1.0 - p01) * r01 + (1.0 - p_u) * (1.0 - p00) * r00

    ey_treated = (p_z * num_t1 + (1.0 - p_z) * num_t0) / f
    ey_control = (p_z * num_c1 + (1.0 - p_z) * num_c0) / (1.0 - f)
    unadj = ey_treated - ey_control

    true_all = p_u * (r11 - r01) + (1.0 - p_u) * (r10 - r00)

    adj_all = p_z * (num_t1 / pi1 - num_c1 / (1.0 - pi1)) + (1.0 - p_z) * (
        num_t0 / pi0 - num_c0 / (1.0 - pi0)
    )
    return adj_all - true_all, unadj - true_all


def _assert_same_bits(params):
    expected = _reference_population_biases(params)
    got = population_biases(params)
    for want, have in zip(expected, got):
        assert have.shape == want.shape
        assert np.array_equal(have.view(np.uint64), want.view(np.uint64))


_BLOCK = montecarlo._BLOCK


@pytest.mark.parametrize("seed", [3, 2**63 + 3])
@pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 32767, 32768])
def test_population_biases_bits_match_reference(seed, count):
    _assert_same_bits(_params_matrix(seed, 11, count))


@pytest.mark.parametrize("name", ["cor1", "cor2"])
def test_population_biases_bits_match_reference_on_projected_rows(name):
    cfg = McConfig(draws=2 * 32768, seed=2**63 + 5, filter=(name,))
    _assert_same_bits(_chunk_draws(cfg, 32768, 20000)[0])


def test_population_biases_bits_match_reference_on_any_layout():
    rows = _params_matrix(77, 0, 3 * _BLOCK + 5)
    _assert_same_bits(np.ascontiguousarray(rows))
    _assert_same_bits(rows[::3])
    _assert_same_bits(rows[::-2, :])


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7,
                                   montecarlo._CHUNK])
def test_params_are_column_major_and_match_one_philox_call(count):
    # The rows are filled one _BLOCK of draws at a time; an unaligned start
    # checks that every block reads its own counters.
    rows = _params_matrix(6, 5, count)
    assert rows.T.flags.c_contiguous
    assert rows.tobytes() == primary_uniforms(6, 5, count)[:, :10].tobytes()


def test_every_layout_gives_the_same_bits():
    rows = _params_matrix(78, 0, 3 * _BLOCK + 5)
    column_major = np.asfortranarray(rows)
    assert column_major.flags.f_contiguous
    _assert_same_bits(column_major)
    for project in (_project_cor1, _project_cor2):
        c_order, f_order = np.ascontiguousarray(rows), np.array(rows, order="F")
        assert c_order.flags.c_contiguous and f_order.flags.f_contiguous
        project(c_order, 78, 0)
        project(f_order, 78, 0)
        assert c_order.tobytes() == f_order.tobytes()


def test_population_biases_bits_match_reference_at_extremes():
    tiny, top = 2.0**-53, 1.0 - 2.0**-53
    grid = np.array([tiny, 0.5, top])
    treat = np.array(np.meshgrid(*[grid] * 6, indexing="ij")).reshape(6, -1).T
    outcomes = np.array([[0.0, 0.0, 0.0, 0.0], [tiny, top, 0.0, 0.5],
                         [top, tiny, top, 0.0], [0.3, 0.0, 0.0, top]])
    rows = np.vstack([np.hstack([treat, np.tile(r, (len(treat), 1))]) for r in outcomes])
    _assert_same_bits(rows)


# ---------------------------------------------------------------------------
# Degenerate draws: treatment-side zeros are redrawn from the retry region


def test_degenerate_rows_are_redrawn_from_retry_region(monkeypatch, caplog):
    seed, start, count = 21, 100, 12
    treatment_zeros = {1: 0, 4: 5, 7: 2, 9: 3}
    outcome_zeros = {2: 6, 5: 9, 8: 12, 10: 15}
    real_primary = montecarlo.primary_uniforms
    real_retry = montecarlo.retry_uniforms

    def planted_primary(s, first, n):
        out = real_primary(s, first, n)
        for offset, col in {**treatment_zeros, **outcome_zeros}.items():
            out[offset, col] = 0.0
        return out

    def planted_retry(s, index, attempt):
        out = real_retry(s, index, attempt)
        if index == start + 7 and attempt == 0:
            out[4] = 0.0  # the first retry is itself degenerate
        return out

    monkeypatch.setattr(montecarlo, "primary_uniforms", planted_primary)
    monkeypatch.setattr(montecarlo, "retry_uniforms", planted_retry)
    with caplog.at_level("WARNING", logger="zbias.montecarlo"):
        rows = _params_matrix(seed, start, count)

    planted = planted_primary(seed, start, count)[:, :10]
    for offset in range(count):
        if offset in treatment_zeros:
            attempt = 1 if offset == 7 else 0
            expected = real_retry(seed, start + offset, attempt)[:10]
        else:
            expected = planted[offset]
        assert np.array_equal(rows[offset], expected)
    for offset, col in outcome_zeros.items():
        if col < 10:
            assert rows[offset, col] == 0.0
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == len(treatment_zeros) + 1
    assert warnings.count(f"degenerate draw {start + 7} (seed {seed}): redrawing") == 2


@pytest.mark.parametrize("col", range(6))
def test_lone_treatment_zero_is_redrawn(monkeypatch, caplog, col):
    seed, start, count = 22, 5, 40
    real_primary = montecarlo.primary_uniforms

    def planted_primary(s, first, n):
        out = real_primary(s, first, n)
        out[count - 1, col] = 0.0
        return out

    monkeypatch.setattr(montecarlo, "primary_uniforms", planted_primary)
    with caplog.at_level("WARNING", logger="zbias.montecarlo"):
        rows = _params_matrix(seed, start, count)
    assert np.array_equal(rows[:-1], real_primary(seed, start, count - 1)[:, :10])
    assert np.array_equal(rows[-1], retry_uniforms(seed, start + count - 1, 0)[:10])
    assert len(caplog.records) == 1


def test_redraws_in_later_fill_blocks_of_one_chunk(monkeypatch, caplog):
    # Offsets 8,191 and 8,192 straddle the first fill-block boundary of the
    # chunk at draw 32,768; 20,000 lies in its third block.
    seed, start = 23, 32_768
    planted = {start + 8_191: 0, start + 8_192: 3, start + 20_000: 5}
    real_primary = montecarlo.primary_uniforms

    def planted_primary(s, first, n):
        out = real_primary(s, first, n)
        for index, col in planted.items():
            if first <= index < first + n:
                out[index - first, col] = 0.0
        return out

    monkeypatch.setattr(montecarlo, "primary_uniforms", planted_primary)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    rows, redraws = _chunk_draws(McConfig(draws=2 * start, seed=seed), start, start)
    assert redraws == sorted(planted)
    expected = real_primary(seed, start, start)[:, :10]
    for index in planted:
        expected[index - start] = retry_uniforms(seed, index, 0)[:10]
    assert rows.tobytes() == expected.tobytes()

    messages = [f"degenerate draw {index} (seed {seed}): redrawing" for index in sorted(planted)]
    volumes = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("ZBIAS_THREADS", threads)
        caplog.clear()
        with caplog.at_level("WARNING", logger="zbias.montecarlo"):
            volumes[threads] = estimate_volume(McConfig(draws=2 * start, seed=seed))
        assert [r.getMessage() for r in caplog.records] == messages
    assert volumes["1"] == volumes["2"]


# ---------------------------------------------------------------------------
# Monte Carlo output bytes recorded before the blocked kernel

GOLDEN_MC_STDOUT = {
    (None, 0, 1): '{"volume": 1, "stderr": 0, "draws": 1, "seed": 0, "tie_count": 0}',
    (None, 3, 4097): '{"volume": 0.67683670978764954, "stderr": 0.0073066782134485518, '
                     '"draws": 4097, "seed": 3, "tie_count": 0}',
    (None, 2024, 40000): '{"volume": 0.68100000000000005, "stderr": 0.0023304452364301545, '
                         '"draws": 40000, "seed": 2024, "tie_count": 0}',
    (None, 2**63 + 11, 100000): '{"volume": 0.67925000000000002, "stderr": '
                                '0.0014760400993875471, "draws": 100000, '
                                '"seed": 9223372036854775819, "tie_count": 0}',
    (None, 2**64 - 1, 32768): '{"volume": 0.6815185546875, "stderr": 0.0025736882651435718, '
                              '"draws": 32768, "seed": 18446744073709551615, "tie_count": 0}',
    ("cor1", 7, 4097): '{"volume": 1, "stderr": 0, "draws": 4097, "seed": 7, "tie_count": 0}',
    ("cor1", 2**63 + 5, 33000): '{"volume": 0.99993939393939391, "stderr": '
                                '4.2853657780839865e-05, "draws": 33000, '
                                '"seed": 9223372036854775813, "tie_count": 2}',
    ("cor2", 7, 4097): '{"volume": 0.99975591896509641, "stderr": 0.00024405124530990811, '
                       '"draws": 4097, "seed": 7, "tie_count": 1}',
    ("cor2", 2**63 + 5, 70000): '{"volume": 0.9994142857142857, "stderr": '
                                '9.1446410887142824e-05, "draws": 70000, '
                                '"seed": 9223372036854775813, "tie_count": 41}',
}


@pytest.mark.parametrize("name,seed,draws", sorted(GOLDEN_MC_STDOUT, key=str))
def test_mc_stdout_is_golden(name, seed, draws):
    argv = ["mc", "--draws", str(draws), "--seed", str(seed)]
    if name:
        argv += ["--filter", name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == GOLDEN_MC_STDOUT[(name, seed, draws)] + "\n"


GOLDEN_SCATTER_SHA256 = {
    (5, 1): "ffac181770a18117a8226754c0287b6154ab0580d09d72a70f1a608a34d61ead",
    (5, 4097): "b6f823f887a15e8a7f3e93ddedfd9550277ca0e207414a8bb88c6d856828bceb",
    (5, 40000): "eed14953d6227ec87b5ea79376ba80836427316b5b155d6f4ce92862f8b99b7c",
    (2**63 + 3, 40000): "e421a004c71aa298c7633cbdcbc0e5e82a85a27c17a1f16152456099a0cb78c0",
}


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("seed,draws", sorted(GOLDEN_SCATTER_SHA256))
def test_scatter_csv_is_golden(tmp_path, monkeypatch, seed, draws, threads):
    if threads is None:
        monkeypatch.delenv("ZBIAS_THREADS", raising=False)
    else:
        monkeypatch.setenv("ZBIAS_THREADS", threads)
    path = tmp_path / "scatter.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["scatter", "--draws", str(draws), "--seed", str(seed),
                     "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SCATTER_SHA256[(seed, draws)]


# ---------------------------------------------------------------------------
# Streaming export: worker processes, bounded window, atomic replacement

SMALL_CHUNK = 1_000


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_scatter_leaves_target_untouched(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
    real = montecarlo._chunk_draws

    def failing(cfg, start, count):
        # Forked workers inherit the patch.
        if start == SMALL_CHUNK:
            raise OSError(28, "No space left on device")
        return real(cfg, start, count)

    monkeypatch.setattr(montecarlo, "_chunk_draws", failing)
    target = tmp_path / "out.csv"
    target.write_bytes(b"previous\n")
    monkeypatch.setenv("ZBIAS_THREADS", threads)
    code = main(["scatter", "--draws", "3500", "--seed", "5", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert target.read_bytes() == b"previous\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]


def test_scatter_into_missing_directory_names_the_target(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    assert main(["scatter", "--draws", "5", "--seed", "3", "--out", str(target)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    )


def test_scatter_refuses_a_target_it_could_not_open(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_bytes(b"previous\n")
    monkeypatch.setattr(montecarlo.os, "access", lambda path, mode: False)
    with pytest.raises(PermissionError):
        export_scatter(McConfig(draws=5, seed=3), target)
    assert target.read_bytes() == b"previous\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]


def test_scatter_file_modes(tmp_path):
    cfg = McConfig(draws=5, seed=3)
    fresh = tmp_path / "fresh.csv"
    old_umask = os.umask(0o027)
    try:
        export_scatter(cfg, fresh)
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o640
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"previous\n")
    kept.chmod(0o604)
    export_scatter(cfg, kept)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert kept.read_bytes() == fresh.read_bytes()


def test_scatter_follows_a_symlinked_target(tmp_path):
    cfg = McConfig(draws=5, seed=3)
    expected = tmp_path / "expected.csv"
    export_scatter(cfg, expected)
    real = tmp_path / "real.csv"
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    export_scatter(cfg, link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == expected.read_bytes()


def test_scatter_writes_into_a_fifo_in_place(tmp_path):
    cfg = McConfig(draws=40, seed=3)
    expected = tmp_path / "expected.csv"
    export_scatter(cfg, expected)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    export_scatter(cfg, fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["expected.csv", "pipe"]


def test_redraws_are_logged_in_draw_order_whatever_the_workers(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
    seed, planted = 17, (1_500, 2_100)
    real_primary = montecarlo.primary_uniforms

    def planted_primary(s, first, n):
        out = real_primary(s, first, n)
        for index in planted:
            if first <= index < first + n:
                out[index - first, 0] = 0.0
        return out

    monkeypatch.setattr(montecarlo, "primary_uniforms", planted_primary)
    expected = [f"degenerate draw {index} (seed {seed}): redrawing" for index in planted]
    cfg = McConfig(draws=3_500, seed=seed)
    outputs = {}
    for threads in ("1", "2"):
        caplog.clear()
        path = tmp_path / f"t{threads}.csv"
        monkeypatch.setenv("ZBIAS_THREADS", threads)
        with caplog.at_level("WARNING", logger="zbias.montecarlo"):
            export_scatter(cfg, path)
            assert [r.getMessage() for r in caplog.records] == expected
            caplog.clear()
            outputs[threads] = estimate_volume(cfg)
            assert [r.getMessage() for r in caplog.records] == expected
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    assert outputs["1"] == outputs["2"]


def test_scatter_window_bounds_chunks_in_flight(tmp_path, monkeypatch):
    from concurrent.futures import process

    seed, draws = 404, 7_500
    golden = tmp_path / "golden.csv"
    export_scatter(McConfig(draws=draws, seed=seed), golden)
    monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    submitted, consumed, in_flight = [0], [0], []
    real_submit = process.ProcessPoolExecutor.submit
    real_log = montecarlo._log_redraws

    def submit(self, *args, **kwargs):
        submitted[0] += 1
        in_flight.append(submitted[0] - consumed[0])
        return real_submit(self, *args, **kwargs)

    def log_redraws(seed_, redraws):
        # Called once for every block written.
        consumed[0] += 1
        real_log(seed_, redraws)

    monkeypatch.setattr(process.ProcessPoolExecutor, "submit", submit)
    monkeypatch.setattr(montecarlo, "_log_redraws", log_redraws)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    monkeypatch.setenv("ZBIAS_THREADS", "1")
    export_scatter(McConfig(draws=draws, seed=seed), one)
    assert (submitted[0], consumed[0]) == (0, 8)
    consumed[0] = 0
    monkeypatch.setenv("ZBIAS_THREADS", "2")
    export_scatter(McConfig(draws=draws, seed=seed), two)
    assert submitted[0] == consumed[0] == 8
    assert max(in_flight) == 3
    assert one.read_bytes() == golden.read_bytes()
    assert two.read_bytes() == golden.read_bytes()


def test_sequential_scatter_memory_is_flat_in_the_chunk_count(tmp_path, monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", 256)
    monkeypatch.setenv("ZBIAS_THREADS", "1")

    def peak(chunks):
        tracemalloc.start()
        try:
            export_scatter(McConfig(draws=256 * chunks, seed=9), tmp_path / "m.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) < 1.5 * peak(4)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_volume_memory_is_flat_in_the_chunk_count(monkeypatch, threads):
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("ZBIAS_THREADS", threads)
    estimate_volume(McConfig(draws=64, seed=9))  # first-call allocations

    def peak(chunks):
        tracemalloc.start()
        try:
            estimate_volume(McConfig(draws=64 * chunks, seed=9))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Two worker threads may hold their chunks' temporaries at the same
    # moment, so the threaded peak varies by up to one chunk between runs.
    assert peak(256) < 2 * peak(16)


def test_import_leaves_process_pool_modules_unloaded():
    # They cost ``import zbias`` about 20 ms; only a multi-worker scatter
    # needs them.  numpy and the Monte Carlo modules load on first use.
    probe = ("import sys, zbias; print(sorted(m for m in sys.modules if m in "
             "('multiprocessing', 'concurrent.futures.process', "
             "'numpy', 'zbias.montecarlo', 'zbias.rng')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# Scatter chunks at production constants: 8,192 rows, whatever _CHUNK is

MiB = 2**20


def scatter_peak(tmp_path, draws):
    """tracemalloc peak of this process over one export."""
    export_scatter(McConfig(draws=100, seed=9), tmp_path / "warm.csv")  # first-call allocations
    tracemalloc.start()
    try:
        export_scatter(McConfig(draws=draws, seed=9), tmp_path / "m.csv")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sequential_scatter_peak_is_one_small_chunk(tmp_path, monkeypatch):
    # One 8,192-row chunk is about 2 MB of text, held at most twice, besides
    # its rows.  Measured: 5.3 MiB; 32,768-row chunks peaked at 21.3 MiB.
    monkeypatch.setenv("ZBIAS_THREADS", "1")
    assert scatter_peak(tmp_path, 32_768) < 8 * MiB


def test_pooled_scatter_parent_peak_is_a_window_of_small_chunks(tmp_path, monkeypatch):
    # The parent holds at most workers + 1 = 3 chunks of about 2 MB, and
    # one of them twice while it is unpickled: about 8 MiB at worst.
    # Measured: 4.0-7.0 MiB over 21 runs; 32,768-row chunks: 15.5 MiB.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("ZBIAS_THREADS", "2")
    assert scatter_peak(tmp_path, 100_000) < 10 * MiB


def test_a_ten_thousand_row_scatter_runs_two_chunks_in_the_pool(tmp_path, monkeypatch):
    from concurrent.futures import process

    submitted = []
    real_submit = process.ProcessPoolExecutor.submit

    def submit(self, fn, cfg, chunk):
        submitted.append(chunk)
        return real_submit(self, fn, cfg, chunk)

    monkeypatch.setattr(process.ProcessPoolExecutor, "submit", submit)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    cfg = McConfig(draws=10_000, seed=2024)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    monkeypatch.setenv("ZBIAS_THREADS", "1")
    export_scatter(cfg, one)
    assert submitted == []
    monkeypatch.setenv("ZBIAS_THREADS", "2")
    export_scatter(cfg, two)
    assert submitted == [(0, 8_192), (8_192, 1_808)]
    assert two.read_bytes() == one.read_bytes()
    assert len(one.read_bytes().splitlines()) == 10_001


@pytest.mark.parametrize("given", ["", "link"])
def test_scatter_onto_a_directory_names_out_as_given(tmp_path, monkeypatch, capsys, given):
    # '' resolves to the working directory, and a symlink to the directory
    # it names; neither is a path the user gave.
    (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    assert main(["scatter", "--draws", "5", "--seed", "1", "--out", given]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {given!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["link"]


def test_bad_thread_count_is_reported_before_out_is_opened(tmp_path, monkeypatch, capsys):
    # ZBIAS_THREADS is checked when the chunk walk is set up, before --out
    # is touched, so a bad value wins over an unusable --out.
    monkeypatch.setenv("ZBIAS_THREADS", "x")
    monkeypatch.chdir(tmp_path)
    assert main(["scatter", "--draws", "5", "--seed", "1", "--out", ""]) == 1
    assert capsys.readouterr().err == "error: ZBIAS_THREADS: must be an integer\n"
    assert os.listdir(tmp_path) == []
