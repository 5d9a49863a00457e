"""Differential test: the condition checkers against their frozen reference.

Generated binary, discrete and potential-outcome worlds (single-level
supports, ties, zero-mass levels, nonpositive cells, empty arms, exactly
additive or multiplicative treatment tables, non-binary and missing outcome
pairs, outcome means near the largest double) go through all fourteen
checkers, the four fits and ``outcome_odds_ratio`` of both ``zbias.conditions``
and ``reference_conditions``.  They must give the same ``reports_to_json``
and ``repr``, or raise the same exception type with the same message.

The one intended difference is an overflowed report: where the reference
builds a report whose margin is infinite although its compared values are
finite (and prints ``"margin": null``), the package raises
``InvariantViolation`` naming that report.
"""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_conditions as reference
from zbias import (
    BinaryScenario,
    DiscreteScenario,
    InvariantViolation,
    PotentialOutcomeScenario,
    conditions,
    to_discrete,
)

# Every report the reference builds, so an overflowed one can be named.
_built = []
_reference_report = reference._report


def _recording_report(condition_id, checks):
    checks = list(checks)
    _built.append((condition_id, checks))
    return _reference_report(condition_id, checks)


reference._report = _recording_report

BIG = 1.7e308


def _prob(rnd):
    r = rnd.random()
    if r < 0.15:
        return 0.0
    if r < 0.25:
        return 1.0
    if r < 0.45:
        return rnd.choice((0.25, 0.5, 0.75))  # ties
    return rnd.random()


def _mean(rnd, binary):
    if binary:
        return _prob(rnd)
    r = rnd.random()
    if r < 0.15:
        return rnd.choice((-BIG, BIG))
    if r < 0.35:
        return rnd.choice((-1.0, 0.0, 2.0))
    return rnd.uniform(-5.0, 5.0)


def _pmf(rnd, n):
    weights = [0.0 if rnd.random() < 0.2 else rnd.uniform(0.1, 1.0) for _ in range(n)]
    if not any(weights):
        weights[rnd.randrange(n)] = 1.0
    total = math.fsum(weights)
    return [w / total for w in weights]


def _treatment_table(rnd, n_rows, n_cols):
    """Rows over z, columns over u: additive, multiplicative or free."""
    shape = rnd.choice(("additive", "multiplicative", "free"))
    if shape == "additive":
        rows = [rnd.uniform(0.0, 0.5) for _ in range(n_rows)]
        cols = [rnd.choice((0.0, 0.25, rnd.uniform(0.0, 0.5))) for _ in range(n_cols)]
        return [[r + c for c in cols] for r in rows]
    if shape == "multiplicative":
        rows = [rnd.choice((1.0, 0.5, rnd.random())) for _ in range(n_rows)]
        cols = [rnd.choice((1.0, 0.5, rnd.random())) for _ in range(n_cols)]
        return [[r * c for c in cols] for r in rows]
    return [[_prob(rnd) for _ in range(n_cols)] for _ in range(n_rows)]


def _binary_world(rnd):
    (p00, p01), (p10, p11) = _treatment_table(rnd, 2, 2)
    binary = rnd.random() < 0.5
    means = [[_mean(rnd, binary) for _ in range(2)] for _ in range(2)]
    return BinaryScenario(z_prob=_prob(rnd), u_prob=_prob(rnd),
                          treat=((p00, p01), (p10, p11)), outcome_mean=means,
                          binary_outcome=binary)


def _discrete_world(rnd):
    n_z, n_u = rnd.randint(1, 4), rnd.randint(1, 4)
    binary = rnd.random() < 0.3
    means = []
    overflow = not binary and rnd.random() < 0.15
    if overflow:  # every u-step of E(Y|A,U) overflows to +inf
        n_u = 2
    for _arm in (0, 1):
        if overflow:
            means.append([[-BIG, BIG]] * n_z)
        elif rnd.random() < 0.7:
            row = [_mean(rnd, binary) for _ in range(n_u)]
            means.append([row] * n_z)
        else:
            means.append([[_mean(rnd, binary) for _ in range(n_u)] for _ in range(n_z)])
    return DiscreteScenario(
        z_support=sorted(rnd.sample(range(-5, 6), n_z)),
        z_pmf=_pmf(rnd, n_z),
        u_support=sorted(rnd.sample(range(-5, 6), n_u)),
        u_pmf=_pmf(rnd, n_u),
        treat=_treatment_table(rnd, n_z, n_u),
        outcome_mean=means,
        binary_outcome=binary,
    )


BINARY_PAIRS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def _po_world(rnd):
    pairs = list(BINARY_PAIRS)
    shape = rnd.random()
    if shape < 0.15:
        pairs.remove(rnd.choice(pairs))
    elif shape < 0.25:
        pairs.append((2.0, rnd.choice((0.0, 1.0))))
    rnd.shuffle(pairs)
    pair_pmf = _pmf(rnd, len(pairs))
    base = [_prob(rnd) for _ in pairs]
    rows = []
    for _ in range(rnd.randint(1, 3)):
        r = rnd.random()
        if r < 0.4:  # shifted rows: an exact additive selection model
            shift = rnd.uniform(-min(base), 1.0 - max(base))
            rows.append([min(max(b + shift, 0.0), 1.0) for b in base])
        elif r < 0.7:  # scaled rows: an exact multiplicative one
            rows.append([b * rnd.uniform(0.2, 1.0) for b in base])
        else:
            rows.append([_prob(rnd) for _ in pairs])
    by_pi = {}
    for row in rows:
        pi = min(math.fsum(t * p for t, p in zip(row, pair_pmf)), 1.0)
        by_pi.setdefault(pi, row)
    levels = sorted(by_pi)
    return PotentialOutcomeScenario(
        pi_support=levels,
        pi_pmf=_pmf(rnd, len(levels)),
        y_pairs=pairs,
        pair_pmf=pair_pmf,
        treat=[by_pi[pi] for pi in levels],
    )


def _calls(world):
    """(name, args) for every applicable checker and fit."""
    calls = []
    if isinstance(world, BinaryScenario):
        cells = (world.treat[1][1], world.treat[1][0], world.treat[0][1], world.treat[0][0])
        calls += [("check_cor1", (world,)), ("check_cor2", (world,)),
                  ("check_weaker_condition", (world,)),
                  ("check_lemma_s5", cells), ("check_lemma_s7", cells)]
        world = to_discrete(world)
    if isinstance(world, DiscreteScenario):
        calls += [(name, (world,)) for name in (
            "check_thm1", "check_thm2", "check_thm3", "check_thm7",
            "fit_additive", "fit_multiplicative")]
        calls += [("check_collider_association", (world, arm)) for arm in (0, 1, 2)]
    else:
        calls += [(name, (world,)) for name in (
            "check_thm4", "check_thm5_binary", "check_cor3", "check_cor4",
            "fit_cor3_model", "fit_cor4_model", "outcome_odds_ratio")]
    return calls


def _outcome(module, name, args):
    try:
        result = getattr(module, name)(*args)
    except Exception as exc:  # the comparison is the point, whatever is raised
        return type(exc), str(exc)
    if isinstance(result, (list, module.ConditionReport)):
        return "ok", module.reports_to_json(result), repr(result)
    return "ok", repr(result)


def _overflowed(built):
    """Id of the first report built with an infinite margin over finite
    compared values, or None."""
    for condition_id, checks in built:
        if checks and all(slack == math.inf for *_rest, slack in checks) and any(
            math.isfinite(lhs) and math.isfinite(rhs) for _cell, lhs, rhs, _slack in checks
        ):
            return condition_id
    return None


def _expected(name, args):
    """The reference outcome, with an overflowed report turned into the
    error the package raises for it."""
    _built.clear()
    outcome = _outcome(reference, name, args)
    overflowed = _overflowed(_built)
    if overflowed is not None:
        return InvariantViolation, f"{overflowed}: margin inf is not finite"
    return outcome


def _world(rnd, kind):
    return {"binary": _binary_world, "discrete": _discrete_world, "po": _po_world}[kind](rnd)


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False), st.sampled_from(["binary", "discrete", "po"]))
def test_checkers_match_reference(rnd, kind):
    world = _world(rnd, kind)
    for name, args in _calls(world):
        assert _outcome(conditions, name, args) == _expected(name, args), name


def test_generated_worlds_reach_both_outcomes():
    # Otherwise the comparison above could pass on errors alone.
    rnd = random.Random(9)
    seen = {}
    for _ in range(300):
        for kind in ("binary", "discrete", "po"):
            for name, args in _calls(_world(rnd, kind)):
                outcome = _expected(name, args)
                seen.setdefault(name, set()).add(
                    "ok" if outcome[0] == "ok" else "overflow"
                    if outcome[1].endswith("margin inf is not finite") else "error"
                )
    assert len(seen) == 19
    for name, kinds in seen.items():
        assert "ok" in kinds, name
    assert all("error" in seen[name] for name in (
        "check_thm2", "check_thm3", "check_cor3", "check_cor4", "check_lemma_s5",
        "check_lemma_s7", "check_weaker_condition", "fit_multiplicative", "fit_cor4_model"))
    assert "overflow" in seen["check_thm1"]


def _large_world(rnd, n_z, n_u):
    """A world of up to 32x16 levels whose tables rise in z and in u except
    at half of their cells (so about a third of the neighbouring pairs are
    out of order), with tied treatment rows, zero-mass instrument levels
    and, sometimes, an exactly multiplicative treatment table."""
    def grid(lo, hi):
        cells = [[lo + (hi - lo) * (i + j + 1) / (n_z + n_u) for j in range(n_u)]
                 for i in range(n_z)]
        for row in cells:
            for j in range(n_u):
                if rnd.random() < 0.5:
                    row[j] = rnd.uniform(lo, hi)
        return cells

    if rnd.random() < 0.2:
        rows = sorted(rnd.uniform(0.2, 1.0) for _ in range(n_z))
        cols = sorted(rnd.uniform(0.2, 1.0) for _ in range(n_u))
        treat = [[r * c for c in cols] for r in rows]
    else:
        treat = grid(0.05, 0.95)
    for i in range(1, n_z):
        if rnd.random() < 0.25:
            treat[i] = list(treat[rnd.randrange(i)])
    binary = rnd.random() < 0.5
    means = []
    for _arm in (0, 1):
        table = grid(0.0, 1.0) if binary else grid(-3.0, 3.0)
        means.append([table[0]] * n_z if rnd.random() < 0.5 else table)
    pmf = _pmf(rnd, n_z)
    return DiscreteScenario(
        z_support=sorted(rnd.sample(range(-40, 40), n_z)), z_pmf=pmf,
        u_support=sorted(rnd.sample(range(-20, 20), n_u)), u_pmf=_pmf(rnd, n_u),
        treat=treat, outcome_mean=means, binary_outcome=binary,
    )


LARGE_SHAPES = [(32, 16), (32, 16), (32, 16), (31, 15), (24, 12), (16, 16), (16, 8),
                (12, 5), (9, 7), (8, 4), (32, 2), (2, 16), (1, 16), (32, 1), (5, 3),
                (3, 5), (20, 10), (32, 16), (7, 13), (4, 4)]


def test_large_worlds_match_reference_witness_for_witness():
    # Whole columns, long witness lists: every report, witness order included.
    compared = violated = 0
    for seed, (n_z, n_u) in enumerate(LARGE_SHAPES):
        world = _large_world(random.Random(seed), n_z, n_u)
        for name, args in _calls(world):
            outcome = _outcome(conditions, name, args)
            assert outcome == _expected(name, args), (seed, name)
            if name == "check_thm7" and outcome[0] == "ok":
                for _condition_id, checks in _built:
                    compared += len(checks)
                    violated += sum(slack < -1e-12 for *_rest, slack in checks)
    assert compared > 20_000
    assert 0.25 < violated / compared < 0.4


def test_nan_first_slack_does_not_hide_a_violation():
    # inf - inf makes the first slack, and so the margin, NaN; the violated
    # comparison after it must still be found, so that both builders reject
    # the report for its NaN margin.
    nan = math.inf - math.inf
    runs = [("first", math.inf, math.inf, nan),
            conditions._at_least(("z {lo}->{hi}", (0.0, 1.0, 2.0), None), [0.0, 2.0], [1.0, 1.0])]
    checks = [("first", math.inf, math.inf, nan),
              (("z {lo}->{hi}", 0.0, 1.0), 0.0, 1.0, -1.0),
              (("z {lo}->{hi}", 1.0, 2.0), 2.0, 1.0, 1.0)]
    outcomes = []
    for build, items in ((conditions._report, runs), (_reference_report, checks)):
        try:
            build("x", items)
        except InvariantViolation as exc:
            outcomes.append(str(exc))
    assert outcomes == ["x: margin nan is not finite"] * 2


def test_nan_misfit_first_in_a_later_column_does_not_hide_an_infinite_one():
    # u level 1 has mass 5e-324, so its u part overflows to inf; level z=0's
    # propensity underflows to 0.0, so that column's first misfit is
    # |0.5 - 0 * inf| = NaN and the next one is infinite.  The package reads
    # the misfits column by column and the reference row by row; a max keeps
    # a NaN only when it comes first, so both must find the infinite one.
    tiny = 5e-324
    world = DiscreteScenario(
        z_support=[0.0, 1.0], z_pmf=[0.4, 0.6], u_support=[0.0, 1.0, 2.0],
        u_pmf=[0.5, tiny, 0.5], treat=[[tiny, 0.5, tiny], [tiny, 0.9, tiny]],
        outcome_mean=[[[0.5] * 3] * 2] * 2)
    pi = [math.fsum(p * t for p, t in zip(world.u_pmf, row)) for row in world.treat]
    treated = math.fsum(p * x for p, x in zip(world.z_pmf, pi))
    gamma = [math.fsum(p * t for p, t in zip(world.z_pmf, column)) / treated
             for column in zip(*world.treat)]
    first = [abs(world.treat[0][j] - pi[0] * g) for j, g in enumerate(gamma)]
    assert not math.isnan(first[0]) and math.isnan(first[1])
    assert conditions.fit_multiplicative(world).residual_max == math.inf
    for name, args in _calls(world):
        assert _outcome(conditions, name, args) == _expected(name, args), name


def _near_product_world(n_z, n_u, scale):
    """An exactly multiplicative treatment table with its last cell scaled."""
    rows = [0.3 + 0.6 * (i + 1) / n_z for i in range(n_z)]
    cols = [0.2 + 0.8 * (j + 1) / n_u for j in range(n_u)]
    treat = [[r * c for c in cols] for r in rows]
    treat[-1][-1] *= scale
    return DiscreteScenario(
        z_support=list(range(n_z)), z_pmf=[1 / n_z] * n_z, u_support=list(range(n_u)),
        u_pmf=[1 / n_u] * n_u, treat=treat, outcome_mean=[[[0.5] * n_u] * n_z] * 2)


def test_collider_multiplicativity_at_the_tolerance_edge():
    # collider.a1.indep is reported exactly when the multiplicative residual is
    # at most 1e-9; these tables put it at about half and five times that edge.
    tiny = 5e-324
    nan_first = DiscreteScenario(
        z_support=[0.0, 1.0], z_pmf=[0.4, 0.6], u_support=[0.0, 1.0, 2.0],
        u_pmf=[0.5, tiny, 0.5], treat=[[tiny, 0.5, tiny], [tiny, 0.9, tiny]],
        outcome_mean=[[[0.5] * 3] * 2] * 2)
    near = [(_near_product_world(n_z, n_u, 1.0 + eps), residual)
            for n_z, n_u, below, above in ((2, 2, 3.7e-9, 3.7e-8), (32, 16, 6.5e-10, 6.5e-9))
            for eps, residual in ((below, 5e-10), (above, 5e-9))]
    for world, residual in near:
        assert residual / 2 < conditions.fit_multiplicative(world).residual_max < residual * 2
        reported = [r.condition_id for r in conditions.check_collider_association(world, 1)]
        assert ("collider.a1.indep" in reported) == (residual < 1e-9), residual
    for world, residual in [*near, (nan_first, math.inf)]:
        names = [("fit_multiplicative", (world,))] + [
            ("check_collider_association", (world, arm)) for arm in (0, 1)]
        for name, args in names:
            assert _outcome(conditions, name, args) == _expected(name, args), (name, residual)
