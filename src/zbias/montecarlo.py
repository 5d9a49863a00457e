"""Seeded exploration of the ten-probability binary parameter space.

Draws the ten scenario probabilities i.i.d. Uniform(0,1), computes the
whole-population true, unadjusted and adjusted effects for each draw, and
estimates the volume of the region where adjustment amplifies bias
(|adjusted - true| strictly exceeds |unadjusted - true|).

Determinism: every draw is keyed by (seed, draw index) through the
counter-based streams in ``zbias.rng``, so results are independent of chunk
size and worker count; (seed, draws) fixes every output bit.  Degenerate
draws (a treatment-side uniform equal to exactly 0.0, which would empty a
conditioning event) are redrawn from the draw's retry region and logged in
draw order, whatever the worker count.
"""

from __future__ import annotations

import errno
import logging
import os
import stat
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, field
from math import sqrt
from numbers import Integral

import numpy as np

from .conditions import _amplification
from .errors import InvariantViolation
from .estimators import _json_num
from .rng import PARAMS_PER_DRAW, primary_uniforms, retry_block_uniforms, retry_uniforms
from .scenario import _BINARY_KEYS, BinaryScenario, _binary_scenario

log = logging.getLogger(__name__)

SCATTER_HEADER = ",".join((*_BINARY_KEYS, "bias_adj", "bias_unadj", "zbias"))

_CHUNK = 1 << 15
_BLOCK = 1 << 13
_FETCH_WIDTH = 2048


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run description.

    ``filter`` restricts the sampled space by projection: ("cor1",) draws
    interaction-free monotone treatment tables on the additive scale,
    ("cor2",) on the multiplicative scale (outcome means made monotone in
    the confounder in both cases).
    """

    draws: int
    seed: int
    filter: tuple[str] | None = None

    def __post_init__(self):
        for name in ("draws", "seed"):
            if not isinstance(getattr(self, name), Integral):
                raise InvariantViolation("must be an integer", field=name)
        if self.draws < 1:
            raise InvariantViolation("must be at least 1", field="draws")
        if not 0 <= self.seed < 2**64:
            raise InvariantViolation("must fit in 64 bits", field="seed")
        if self.filter is not None and self.filter not in _FILTERS:
            raise InvariantViolation(
                f"must be None, {' or '.join(map(repr, _FILTERS))}, got {self.filter!r}",
                field="filter",
            )


@dataclass(frozen=True)
class McResult:
    """A volume estimate; ``stderr`` is its binomial standard error, derived
    from ``volume`` and ``draws``."""

    volume: float
    stderr: float = field(init=False)
    draws: int
    seed: int
    tie_count: int

    def __post_init__(self):
        stderr = sqrt(self.volume * (1.0 - self.volume) / self.draws)
        object.__setattr__(self, "stderr", stderr)

    def to_json(self) -> str:
        return (
            f'{{"volume": {_json_num(self.volume)}, "stderr": {_json_num(self.stderr)}, '
            f'"draws": {self.draws}, "seed": {self.seed}, "tie_count": {self.tie_count}}}'
        )


class ScenarioStream:
    """Sequential view of the per-draw parameter streams."""

    def __init__(self, seed: int, index: int = 0):
        self.seed = seed
        self.index = index

    def next_params(self) -> np.ndarray:
        params = _params_matrix(self.seed, self.index, 1)[0]
        self.index += 1
        return params


def draw_scenario(stream: ScenarioStream) -> BinaryScenario:
    """Next uniformly drawn binary scenario; advances the stream."""
    return _binary_scenario(stream.next_params().tolist())


def _param_draws(seed: int, start: int, count: int) -> tuple[np.ndarray, list[int]]:
    """Parameters of draws [start, start + count), degenerate rows redrawn,
    and the draw index of every redraw made, in draw order."""
    rows = primary_uniforms(seed, start, count)[:, :PARAMS_PER_DRAW]
    redraws = []
    # A zero treatment-side parameter (pZ, pU or a treatment cell) can empty
    # a conditioning event; outcome parameters cannot.  A zero has
    # probability 2**-53 per word: one whole-chunk test is the normal path,
    # the per-row scan runs only when it fires.
    if not (rows[:, :6] == 0.0).any():
        return rows, redraws
    bad = np.nonzero(rows[:, :6].min(axis=1) == 0.0)[0]
    for offset in bad:
        index = start + int(offset)
        attempt = 0
        row = rows[offset]
        while (row[:6] == 0.0).any():
            redraws.append(index)
            row = retry_uniforms(seed, index, attempt)[:PARAMS_PER_DRAW]
            attempt += 1
        rows[offset] = row
    return rows, redraws


def _log_redraws(seed: int, redraws) -> None:
    for index in redraws:
        log.warning("degenerate draw %d (seed %d): redrawing", index, seed)


def _params_matrix(seed: int, start: int, count: int) -> np.ndarray:
    """Parameters of draws [start, start + count), degenerate rows redrawn
    and logged."""
    rows, redraws = _param_draws(seed, start, count)
    _log_redraws(seed, redraws)
    return rows


def _project_cor1(rows: np.ndarray, seed: int, start: int) -> None:
    """Interaction-free monotone tables on the additive scale.

    The three free treatment cells are ordered into (p00, p10, p01) =
    (min, mid, max), then p11 = p10 + p01 - p00; triples pushing p11 above 1
    are resampled from the draw's retry region.  The ordering fixes p01 >= p10,
    so only the half of the cor1 region with p01 >= p10 is sampled.  Outcome
    means are swapped into the monotone order within each arm.

    Rejection runs in rounds over the whole chunk.  A round fetches retry
    attempts [k, k + m) of every draw still rejected in one vectorised call,
    m = ceil(``_FETCH_WIDTH`` / draws pending).  Each draw keeps its first
    accepted attempt (a draw with none holds attempt k until a later round),
    so m never shows in the output.
    """
    p00, p10, p01 = _ordered(rows[:, 3:6])
    p11 = p10 + p01 - p00
    pending = np.nonzero(p11 > 1.0)[0]
    attempt = 0
    while pending.size:
        width = -(-_FETCH_WIDTH // pending.size)
        lo, mid, hi = _ordered(_fresh_triples(seed, start + pending, attempt, width))
        q11 = mid + hi - lo
        accepted = (q11 <= 1.0).reshape(pending.size, width)
        first = np.arange(pending.size) * width + accepted.argmax(axis=1)
        p00[pending], p10[pending], p01[pending], p11[pending] = (
            lo[first], mid[first], hi[first], q11[first])
        pending = pending[~accepted.any(axis=1)]
        attempt += width
    rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5] = p11, p10, p01, p00
    _sort_outcome_means(rows)


def _project_cor2(rows: np.ndarray, seed: int, start: int) -> None:
    """Interaction-free monotone tables on the multiplicative scale.

    Reparametrised so p11 = p10 * p01 / p00 holds with no rejection:
    p11 = x, p10 = x*y, p01 = x*w, p00 = x*y*w from three uniforms.
    """
    x = rows[:, 3]
    y = rows[:, 4]
    w = rows[:, 5]
    p10 = x * y
    p01 = x * w
    p00 = p10 * w
    rows[:, 2] = x
    rows[:, 3] = p10
    rows[:, 4] = p01
    rows[:, 5] = p00
    _sort_outcome_means(rows)


# The one list of filters: name -> in-place projection (cor2 ignores seed, start).
_PROJECTIONS = {"cor1": _project_cor1, "cor2": _project_cor2}
_FILTERS = tuple((name,) for name in _PROJECTIONS)


def _fresh_triples(seed: int, indices: np.ndarray, attempt: int, width: int) -> np.ndarray:
    # Attempts [attempt, attempt + width) of each draw, draw-major.  Projection
    # retries live after the degeneracy retries in the draw's retry region;
    # each attempt skips exact zeros like the primary stream does.
    indices = np.repeat(indices, width)
    base = np.tile(np.arange(1_000 + attempt, 1_000 + attempt + width), indices.size // width)
    triples = retry_block_uniforms(seed, indices, base)[:, :3]
    zero = np.nonzero((triples == 0.0).any(axis=1))[0]
    while zero.size:
        base[zero] += 1_000_000
        triples[zero] = retry_block_uniforms(seed, indices[zero], base[zero])[:, :3]
        zero = zero[(triples[zero] == 0.0).any(axis=1)]
    return triples


def _ordered(triples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Per-row (min, mid, max) by selection: np.sort's bits (no NaN or -0.0 gets here).
    a, b, c = triples.T
    low, high = np.minimum(a, b), np.maximum(a, b)
    return np.minimum(low, c), np.maximum(low, np.minimum(high, c)), np.maximum(high, c)


def _sort_outcome_means(rows: np.ndarray) -> None:
    # Columns: r11, r10, r01, r00.  Monotone in u means r_a1 >= r_a0.
    for high, low in ((6, 7), (8, 9)):
        top = rows[:, high].copy()
        np.maximum(top, rows[:, low], out=rows[:, high])
        np.minimum(top, rows[:, low], out=rows[:, low])


def _chunk_draws(cfg: McConfig, start: int, count: int) -> tuple[np.ndarray, list[int]]:
    # The redraws are returned, not logged, so that the caller can log them
    # in draw order whichever thread or process made the chunk.
    rows, redraws = _param_draws(cfg.seed, start, count)
    if cfg.filter:
        _PROJECTIONS[cfg.filter[0]](rows, cfg.seed, start)
    return rows, redraws


def population_biases(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(adjusted - true, unadjusted - true) for rows of scenario parameters.

    Vectorised transcription of the whole-population formulas in the
    estimators module; the test suite pins the two routes together.

    The rows are walked in blocks of ``_BLOCK``.  Each block is copied,
    transposed, into a buffer of ten contiguous columns, so every ufunc
    streams through contiguous memory that stays in the L2 cache instead of
    striding through the row-major input.  The shared subexpressions
    (``1 - p_u``, ``1 - p_z`` and the four products ``p_u*p11``,
    ``(1-p_u)*p10``, ``p_u*p01``, ``(1-p_u)*p00`` behind both the
    propensities and the treated numerators) are computed once, and each
    temporary is overwritten in place once it is dead.

    Bit rule: every floating-point operation keeps the operands and the
    evaluation order of the direct transcription (``p_u * p11 * r11`` is
    ``(p_u*p11)*r11``), so the outputs are bit-identical to it; nothing is
    reassociated, distributed or fused.

    The block buffers are one (20, ``_BLOCK``) array allocated once per
    call, not a fresh temporary per ufunc: per-op temporaries of a few
    thousand rows (32 KB at 4,096) fall below glibc's mmap threshold, churn
    the heap and raised peak RSS.  ``_BLOCK`` = 8,192 keeps the buffer
    (1.3 MB) inside a 2 MB per-core L2 and was the fastest of 1,024 to
    32,768 rows.
    """
    n = len(params)
    bias_adj = np.empty(n)
    bias_unadj = np.empty(n)
    buf = np.empty((PARAMS_PER_DRAW + 10, min(n, _BLOCK)))
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        cols = buf[:, : e - s]
        np.copyto(cols[:PARAMS_PER_DRAW], params[s:e].T)
        p_z, p_u, p11, p10, p01, p00, r11, r10, r01, r00 = cols[:PARAMS_PER_DRAW]
        q_u, q_z, a11, a10, a01, a00, pi1, pi0, f, t = cols[PARAMS_PER_DRAW:]

        np.subtract(1.0, p_u, out=q_u)
        np.subtract(1.0, p_z, out=q_z)
        np.multiply(p_u, p11, out=a11)
        np.multiply(q_u, p10, out=a10)
        np.multiply(p_u, p01, out=a01)
        np.multiply(q_u, p00, out=a00)
        np.add(a11, a10, out=pi1)
        np.add(a01, a00, out=pi0)
        np.multiply(p_z, pi1, out=f)
        np.multiply(q_z, pi0, out=t)
        f += t

        # Treated numerators: num_t1 -> a11, num_t0 -> a01.
        a11 *= r11
        a10 *= r10
        a11 += a10
        a01 *= r11
        a00 *= r10
        a01 += a00
        # Control numerators: num_c1 -> p11, num_c0 -> p01.
        np.subtract(1.0, p11, out=p11)
        np.multiply(p_u, p11, out=p11)
        p11 *= r01
        np.subtract(1.0, p10, out=p10)
        np.multiply(q_u, p10, out=p10)
        p10 *= r00
        p11 += p10
        np.subtract(1.0, p01, out=p01)
        np.multiply(p_u, p01, out=p01)
        p01 *= r01
        np.subtract(1.0, p00, out=p00)
        np.multiply(q_u, p00, out=p00)
        p00 *= r00
        p01 += p00
        num_t1, num_t0, num_c1, num_c0 = a11, a01, p11, p01

        # Unadjusted: ey_treated -> a10, ey_control -> a00, unadj -> a10.
        np.multiply(p_z, num_t1, out=a10)
        np.multiply(q_z, num_t0, out=t)
        a10 += t
        a10 /= f
        np.multiply(p_z, num_c1, out=a00)
        np.multiply(q_z, num_c0, out=t)
        a00 += t
        np.subtract(1.0, f, out=f)
        a00 /= f
        a10 -= a00

        # True effect -> r11.
        np.subtract(r11, r01, out=r11)
        np.multiply(p_u, r11, out=r11)
        np.subtract(r10, r00, out=r10)
        np.multiply(q_u, r10, out=r10)
        r11 += r10

        # Adjusted: stratum contrasts -> num_t1, num_t0, then adj -> num_t1.
        num_t1 /= pi1
        np.subtract(1.0, pi1, out=pi1)
        num_c1 /= pi1
        num_t1 -= num_c1
        np.multiply(p_z, num_t1, out=num_t1)
        num_t0 /= pi0
        np.subtract(1.0, pi0, out=pi0)
        num_c0 /= pi0
        num_t0 -= num_c0
        np.multiply(q_z, num_t0, out=num_t0)
        num_t1 += num_t0

        np.subtract(num_t1, r11, out=bias_adj[s:e])
        np.subtract(a10, r11, out=bias_unadj[s:e])
    return bias_adj, bias_unadj


def _thread_count(value: int, chunks: int, cpus: int | None) -> int:
    """Worker threads for a run: the requested ``value`` clamped to the
    chunk count and the CPU count (``os.cpu_count()``, None if unknown);
    0, negative values or an unknown CPU count mean sequential."""
    return max(1, min(value, chunks, cpus or 1))


def _workers(draws: int, size: int) -> int:
    """ZBIAS_THREADS (unset means 0) clamped for ``draws`` in chunks of ``size``."""
    try:
        requested = int(os.environ.get("ZBIAS_THREADS", "0"))
    except ValueError:
        raise InvariantViolation("must be an integer", field="ZBIAS_THREADS") from None
    return _thread_count(requested, -(-draws // size), os.cpu_count())


def _in_order(work, cfg: McConfig, size: int, make_pool):
    """``work(cfg, chunk)`` of every chunk of ``cfg.draws``, in draw order.

    Chunks are ``size`` draws (the last may be shorter): ``_CHUNK`` for
    ``mc``, 8,192 for the CSV text of ``scatter``.  ZBIAS_THREADS is read
    and checked here, before any chunk runs, and clamped to these chunks
    (``_workers``).  With more than one worker the chunks run in the
    ``make_pool(workers)`` pool.  The chunk plan is walked lazily, and at
    most ``workers + 1`` chunks are submitted and not yet consumed, so
    memory does not grow with the draw count.
    """
    workers = _workers(cfg.draws, size)
    plan = ((start, min(size, cfg.draws - start)) for start in range(0, cfg.draws, size))
    if workers == 1:
        return (work(cfg, chunk) for chunk in plan)
    return _pooled(work, cfg, plan, make_pool, workers)


def _pooled(work, cfg: McConfig, plan, make_pool, workers: int):
    """``_in_order``'s window of ``workers + 1`` chunks, in a pool made
    only once the first result is asked for."""
    pool = make_pool(workers)
    try:
        window = deque()
        for chunk in plan:
            window.append(pool.submit(work, cfg, chunk))
            if len(window) > workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _volume_block(cfg: McConfig, chunk: tuple[int, int]) -> tuple[int, int, list[int]]:
    """Amplified and tied draw counts of one chunk, and its redraws."""
    rows, redraws = _chunk_draws(cfg, *chunk)
    amplified, tie = _amplification(*population_biases(rows))
    return int(amplified.sum()), int(tie.sum()), redraws


def estimate_volume(cfg: McConfig) -> McResult:
    """Estimated volume of the amplification region with its binomial
    standard error; exact ties are excluded from the count and reported.
    ZBIAS_THREADS sets the worker threads (see ``_thread_count``)."""
    count = ties = 0
    blocks = _in_order(_volume_block, cfg, _CHUNK, ThreadPoolExecutor)
    with closing(blocks):
        for block_count, block_ties, redraws in blocks:
            _log_redraws(cfg.seed, redraws)
            count += block_count
            ties += block_ties
    return McResult(volume=count / cfg.draws, draws=cfg.draws, seed=cfg.seed, tie_count=ties)


def _scatter_block(cfg: McConfig, chunk: tuple[int, int]) -> tuple[bytes, list[int]]:
    """CSV rows of one chunk of draws, each ending in a newline, and the
    redraws made for them.

    The one row formatter of ``export_scatter``, run in-process when it is
    sequential and in worker processes otherwise.  A worker receives only
    ``(cfg, chunk)`` and regenerates the chunk from its Philox counters.
    A chunk of 8,192 rows is about 2 MB of text, held at most twice.
    """
    rows, redraws = _chunk_draws(cfg, *chunk)
    bias_adj, bias_unadj = population_biases(rows)
    amplified, _ = _amplification(bias_adj, bias_unadj)
    lines = []
    for row, ba, bu, flag in zip(rows, bias_adj, bias_unadj, amplified):
        # tolist() gives Python floats, whose repr is the same shortest
        # round-trip text, without a numpy scalar and a float() per cell.
        cells = list(map(repr, row.tolist()))
        cells.append(repr(float(ba)))
        cells.append(repr(float(bu)))
        cells.append("true" if flag else "false")
        lines.append(",".join(cells))
    lines.append("")
    text = "\n".join(lines)
    del lines  # at most two copies of the block are alive at once
    return text.encode("ascii"), redraws


def _process_pool(workers: int):
    """Pool for ``_scatter_block``: ``float.__repr__`` holds the GIL, so
    threads cannot share the formatting."""
    # Imported here: at module top they would add about 20 ms to every Monte
    # Carlo command.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # A forked worker starts with the imported package (no re-import per
    # call) and runs only _scatter_block, which takes no lock of the parent.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method))


@contextmanager
def _naming(path):
    """Re-raise an ``OSError`` as one that names ``path``."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


@contextmanager
def _replacing(path):
    """Binary handle whose bytes become the file at ``path`` only when the
    ``with`` block completes.

    The bytes go to a temporary file beside the target, which ``os.replace``
    moves over it; on any exception the temporary file is removed and the
    target is left as it was.  A symlink is followed to the file it names.
    A new file gets the mode ``open(path, "w")`` would give it, an existing
    one keeps its mode.  A target that exists and is not a regular file (a
    FIFO, a device) is written in place: replacing it would destroy the node.
    An ``OSError`` in opening, checking or moving the file names ``path`` as
    given, not the path it resolves to nor the temporary file.
    """
    target = os.path.realpath(path)
    temp = None
    with _naming(path):
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            handle = open(target, "wb")
        elif mode is not None and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        else:
            head, tail = os.path.split(target)
            temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            # Mode 0o666 less the umask, as open() creates files.
            handle = open(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
    try:
        with handle:
            if temp and mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            yield handle
        if temp:
            with _naming(path):
                os.replace(temp, target)
    except BaseException:
        if temp:
            with suppress(OSError):
                os.unlink(temp)
        raise


def export_scatter(cfg: McConfig, path) -> int:
    """Write one CSV row per draw: the ten parameters, both biases, and the
    amplification flag.  Returns the data row count.

    Chunks of ``min(_CHUNK, _BLOCK)`` = 8,192 rows stream to ``path`` in
    draw order, and the file appears only once every row is written.  With
    more than one worker (ZBIAS_THREADS, clamped to these chunks) the rows
    are formatted in worker processes; the bytes do not depend on it.
    """
    # Capped at _BLOCK rather than a constant of its own, so tests that patch
    # _CHUNK still drive small chunks; 8,192 rows set scatter's memory bound,
    # and retuning _BLOCK for the kernel moves that bound too.
    blocks = _in_order(_scatter_block, cfg, min(_CHUNK, _BLOCK), _process_pool)
    with _replacing(path) as handle, closing(blocks):
        handle.write(SCATTER_HEADER.encode("ascii") + b"\n")
        for block, redraws in blocks:
            _log_redraws(cfg.seed, redraws)
            handle.write(block)
            del block  # not kept alive while the next chunk is formatted
    return cfg.draws
