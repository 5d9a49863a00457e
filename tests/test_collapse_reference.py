"""``collapse_by_propensity`` against a per-cell transcription of its merge.

The package merges a group of tied instrument levels column by column:
each column's weighted terms go to one ``fsum``.  The transcription below is
the loop it replaced, one generator per cell, with the same products in the
same order, so every merged row, label and mass must agree bit for bit
(compared through ``float.hex``, which tells -0.0 from 0.0).

The merge weights can sum to 1 + 2^-52, so a merged probability can round
up past 1.  The package caps merged treatment cells, and merged means of a
binary outcome, at 1; the transcription applies the same cap, which moves
no value at or below 1.
"""

import random
from math import fsum

import pytest

from zbias import DiscreteScenario, collapse_by_propensity
from zbias.scenario import PROPENSITY_MERGE_TOL


def _ref_total(terms):
    try:
        return fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def ref_collapse(s, tol=PROPENSITY_MERGE_TOL):
    """(label, mass, treatment row, (arm-0 means, arm-1 means)) per merged level."""
    pi = [fsum(p * t for p, t in zip(s.u_pmf, row)) for row in s.treat]
    order = sorted(range(s.n_z), key=lambda i: (pi[i], s.z_support[i]))
    groups = []
    for i in order:
        if groups and pi[i] - pi[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    levels = []
    for group in groups:
        if len(group) == 1:
            i = group[0]
            mass, treat_row = s.z_pmf[i], s.treat[i]
            means = (s.outcome_mean[0][i], s.outcome_mean[1][i])
        else:
            mass = fsum(s.z_pmf[i] for i in group)
            if mass > 0.0:
                weights = [s.z_pmf[i] / mass for i in group]
            else:
                weights = [1.0 / len(group)] * len(group)
            treat_row = tuple(
                min(fsum(w * s.treat[i][j] for w, i in zip(weights, group)), 1.0)
                for j in range(s.n_u)
            )
            means = tuple(
                tuple(
                    _ref_total([w * s.outcome_mean[a][i][j] for w, i in zip(weights, group)])
                    for j in range(s.n_u)
                )
                for a in (0, 1)
            )
            if s.binary_outcome:
                means = tuple(tuple(min(m, 1.0) for m in arm) for arm in means)
        label = fsum(p * t for p, t in zip(s.u_pmf, treat_row))
        levels.append((label, mass, treat_row, means))
    return levels


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    return tuple(map(_hex, value))


def _levels(s):
    return [(z, w, t, (s.outcome_mean[0][i], s.outcome_mean[1][i]))
            for i, (z, w, t) in enumerate(zip(s.z_support, s.z_pmf, s.treat))]


def _tie_world(rnd, n_z, n_u, binary):
    """Tied treatment rows (exact copies, and copies moved by less than the
    merge tolerance) and zero-mass levels; from four levels on, the last two
    are a tied pair of zero mass."""
    z_pmf = [0.0 if rnd.random() < 0.15 else rnd.uniform(0.1, 1.0) for _ in range(n_z)]
    treat = []
    for i in range(n_z):
        if i and rnd.random() < 0.3:
            row = list(treat[rnd.randrange(i)])
            if rnd.random() < 0.3:
                j = rnd.randrange(n_u)
                row[j] = min(max(row[j] + rnd.choice((-1e-12, 1e-12)), 0.0), 1.0)
            treat.append(row)
        else:
            treat.append([rnd.choice((0.0, 1.0, rnd.random())) for _ in range(n_u)])
    if n_z >= 4:
        treat[-2] = [rnd.random() for _ in range(n_u)]
        treat[-1] = list(treat[-2])
        z_pmf[-2] = z_pmf[-1] = 0.0
    if not any(z_pmf):
        z_pmf[0] = 1.0
    u_pmf = [rnd.uniform(0.1, 1.0) for _ in range(n_u)]
    if binary:
        cell = lambda: rnd.choice((0.0, 1.0, rnd.random()))  # noqa: E731
    else:
        cell = lambda: rnd.choice((-1e308, 1e308, rnd.uniform(-5, 5)))  # noqa: E731
    means = [[[cell() for _ in range(n_u)] for _ in range(n_z)] for _ in (0, 1)]
    return DiscreteScenario(
        z_support=range(n_z), z_pmf=[w / fsum(z_pmf) for w in z_pmf],
        u_support=range(n_u), u_pmf=[w / fsum(u_pmf) for w in u_pmf],
        treat=treat, outcome_mean=means, binary_outcome=binary,
    )


# The worlds whose merge rounds up past 1: three tied levels whose weights
# sum to 1 + 2^-52, under a treatment cell of 1.0 or a binary mean of 1.0.
ROUNDING_Z_PMF = (0.06385303459677581, 0.07597256723361885,
                  0.45480395728284007, 0.40537044088676527)


def rounding_world(binary: bool) -> DiscreteScenario:
    treat_top = 0.9 if binary else 1.0
    treat = [(0.2, treat_top)] * 3 + [(0.1, 0.3)]
    return DiscreteScenario(
        z_support=(0, 1, 2, 3), z_pmf=ROUNDING_Z_PMF, u_support=(0, 1), u_pmf=(0.5, 0.5),
        treat=treat, outcome_mean=[[(0.25, 0.5)] * 4, [(0.5, 1.0)] * 4],
        binary_outcome=binary,
    )


SHAPES = [(1, 1), (1, 3), (2, 2), (3, 1), (4, 3), (6, 2), (8, 4), (12, 6), (16, 8),
          (24, 12), (32, 16), (32, 16)]


def _worlds():
    for seed, (n_z, n_u) in enumerate(SHAPES):
        for binary in (False, True):
            yield f"ties-{n_z}x{n_u}-{binary}-{seed}", _tie_world(
                random.Random(seed * 2 + binary), n_z, n_u, binary)
    for binary in (False, True):
        yield f"rounding-{binary}", rounding_world(binary)


@pytest.mark.parametrize("name, world", list(_worlds()))
def test_collapse_matches_per_cell_merge_bit_for_bit(name, world):
    collapsed = collapse_by_propensity(world)
    assert _hex(_levels(collapsed)) == _hex(ref_collapse(world)), name
    # A collapsed world is its own collapse: the same object comes back.
    assert collapse_by_propensity(collapsed) is collapsed
    assert _hex(ref_collapse(collapsed)) == _hex(_levels(collapsed))


def test_generated_worlds_reach_every_merge_case():
    # Otherwise the comparison above could pass on single-level groups alone.
    seen = set()
    for name, world in _worlds():
        pi = {}
        for w, row in zip(world.z_pmf, world.treat):
            pi.setdefault(fsum(p * t for p, t in zip(world.u_pmf, row)), []).append(w)
        for masses in pi.values():
            seen.add("merged" if len(masses) > 1 else "single")
            if len(masses) > 1 and not any(masses):
                seen.add("zero-mass group")
        if world.n_z == 1:
            seen.add("one level")
        if len(collapse_by_propensity(world).z_support) < world.n_z:
            seen.add("fewer levels")
    assert {"merged", "single", "zero-mass group", "one level", "fewer levels"} <= seen


def test_rounding_worlds_round_up_past_one():
    mass = fsum(ROUNDING_Z_PMF[:3])
    assert fsum([w / mass for w in ROUNDING_Z_PMF[:3]]) == 1.0 + 2.0 ** -52
    for binary in (False, True):
        collapsed = collapse_by_propensity(rounding_world(binary))
        assert collapsed.n_z == 2
        top = collapsed.outcome_mean[1][1][1] if binary else collapsed.treat[1][1]
        assert top == 1.0
