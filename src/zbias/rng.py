"""Deterministic, splittable uniform streams for the Monte Carlo explorer.

Built on the Philox 4x64-10 counter-based bit generator: output block c
(four 64-bit words, hence four doubles) is a pure function of (key, c), so
any draw index can be assigned a fixed counter region and generated in any
order, on any number of workers, with bit-identical results.

Layout used throughout this package:

  * the 64-bit user seed is the Philox key, used verbatim (it is the key's
    low word; the high word is 0);
  * draw ``i`` owns the four primary blocks [4*i, 4*i + 4), i.e. 16 doubles,
    of which the first 10 are the scenario parameters in the order
    pZ, pU, p11, p10, p01, p00, r11, r10, r01, r00;
  * retries for degenerate draws come from the disjoint region starting at
    block (i + 1) << 64, consumed 16 doubles at a time; the cor1 projection
    reads only the first block of its attempts, numbered from 1000 on.

Block numbers are the counters handed to ``np.random.Philox(counter=c)``,
which increments before it generates: "block c" is the output of the
Philox function at counter c + 1.

Two routes compute the same function.  The primary region, read in long
contiguous runs, goes through numpy's C ``Philox`` bit generator.  The retry
region, read a few scattered blocks at a time for many draws at once, goes
through ``philox4x64``, a numpy transcription that evaluates any set of
counters in one vectorised call.

Uniform doubles are the standard 53-bit mapping of one 64-bit word each,
``(word >> 11) * 2**-53``, so they lie in [0, 1); a value can be exactly 0.0
(probability 2**-53 per word) but never 1.0.
"""

from __future__ import annotations

import numpy as np

BLOCKS_PER_DRAW = 4
DOUBLES_PER_DRAW = 4 * BLOCKS_PER_DRAW
PARAMS_PER_DRAW = 10

# Random123 Philox4x64 multipliers and Weyl key increments.
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_ROUNDS = 10
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT_DOUBLE = np.uint64(11)
_MASK64 = (1 << 64) - 1


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # High and low words of the 128-bit products m * x, built from 32-bit
    # halves because numpy has no 128-bit integers.
    m_lo, m_hi = m & _MASK32, m >> _SHIFT32
    x_lo, x_hi = x & _MASK32, x >> _SHIFT32
    cross = x_lo * m_hi
    cross += (x_lo * m_lo) >> _SHIFT32
    mid = x_hi * m_lo
    mid += cross & _MASK32
    hi = x_hi * m_hi
    hi += cross >> _SHIFT32
    hi += mid >> _SHIFT32
    return hi, m * x


def philox4x64(key: int, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output words for an (n, 4) uint64 array of counters.

    Each row is one 256-bit counter x as four little-endian 64-bit words;
    the result row is Philox(key, x), which ``np.random.Philox(key=key,
    counter=x - 1)`` emits first.  ``key`` is the low key word (the high
    word is 0, as for a 64-bit numpy seed).
    """
    x0, x1, x2, x3 = (np.array(counters[:, j], dtype=np.uint64) for j in range(4))
    k0, k1 = key & _MASK64, 0
    for round_ in range(_ROUNDS):
        if round_:
            k0 = (k0 + _W0) & _MASK64
            k1 = (k1 + _W1) & _MASK64
        hi0, lo0 = _mulhilo(_M0, x0)
        hi1, lo1 = _mulhilo(_M1, x2)
        hi1 ^= x1
        hi1 ^= np.uint64(k0)
        hi0 ^= x3
        hi0 ^= np.uint64(k1)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return np.stack([x0, x1, x2, x3], axis=1)


def _to_unit(words: np.ndarray) -> np.ndarray:
    return (words >> _SHIFT_DOUBLE) * (1.0 / 9007199254740992.0)


def primary_uniforms(seed: int, start_draw: int, n_draws: int) -> np.ndarray:
    """Uniforms for draws [start_draw, start_draw + n_draws), one row each.

    Rows hold the 16 doubles of the draw's primary region; concatenating the
    rows of adjacent shards reproduces a single sequential generation.
    """
    gen = np.random.Generator(np.random.Philox(key=seed, counter=BLOCKS_PER_DRAW * start_draw))
    return gen.random(n_draws * DOUBLES_PER_DRAW).reshape(n_draws, DOUBLES_PER_DRAW)


def retry_block_uniforms(seed: int, draw_indices, attempts, blocks: int = 1) -> np.ndarray:
    """The first ``4 * blocks`` doubles of retry attempt ``attempts[k]`` of
    draw ``draw_indices[k]``, one row per k.

    Only the requested blocks are generated.  Counters are built in 64-bit
    words, so draw indices must stay below 2**64 - 1 and attempts below
    2**61 (far beyond any reachable run).
    """
    # Attempt a of draw i reads blocks ((i + 1) << 64) + 4a + b, b < blocks,
    # which the generator emits from counter words (4a + b + 1, i + 1, 0, 0).
    draws = np.asarray(draw_indices, dtype=np.uint64)
    first = np.asarray(attempts, dtype=np.uint64) * np.uint64(BLOCKS_PER_DRAW) + np.uint64(1)
    counters = np.zeros((draws.size, blocks, 4), dtype=np.uint64)
    counters[:, :, 0] = first[:, None] + np.arange(blocks, dtype=np.uint64)
    counters[:, :, 1] = (draws + np.uint64(1))[:, None]
    words = philox4x64(seed, counters.reshape(-1, 4))
    return _to_unit(words).reshape(draws.size, 4 * blocks)


def retry_uniforms(seed: int, draw_index: int, attempt: int) -> np.ndarray:
    """The 16 doubles of the given retry attempt (0-based) for one draw."""
    return retry_block_uniforms(seed, [draw_index], [attempt], BLOCKS_PER_DRAW)[0]
