"""Domain types: validation, conversion, propensity, collapse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary_from_params, random_binary, worked_case
from zbias import (
    BinaryScenario,
    CovariateFamily,
    DiscreteScenario,
    InvariantViolation,
    PotentialOutcomeScenario,
    Stratum,
    collapse_by_propensity,
    estimates,
    propensity,
    to_discrete,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_binary_scenario_rejects_out_of_range_cell():
    with pytest.raises(InvariantViolation, match="p11"):
        binary_from_params(0.5, 0.5, 1.2, 0.6, 0.2, 0.1, 0.08, 0.06, 0.02, 0.01)


def test_binary_scenario_rejects_bad_marginal():
    with pytest.raises(InvariantViolation, match="pU"):
        binary_from_params(0.5, -0.1, 0.8, 0.6, 0.2, 0.1, 0.08, 0.06, 0.02, 0.01)


def test_binary_outcome_flag_gates_r_validation():
    with pytest.raises(InvariantViolation, match="r11"):
        binary_from_params(0.5, 0.5, 0.8, 0.6, 0.2, 0.1, 1.5, 0.06, 0.02, 0.01)
    s = binary_from_params(
        0.5, 0.5, 0.8, 0.6, 0.2, 0.1, 1.5, 0.06, 0.02, 0.01, binary_outcome=False
    )
    assert s.outcome_mean[1][1] == 1.5


def test_discrete_rejects_non_increasing_support():
    with pytest.raises(InvariantViolation, match="z_support"):
        DiscreteScenario(
            z_support=(0.0, 0.0),
            z_pmf=(0.5, 0.5),
            u_support=(0.0, 1.0),
            u_pmf=(0.5, 0.5),
            treat=((0.1, 0.2), (0.3, 0.4)),
            outcome_mean=(((0.1, 0.2), (0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
        )


def test_discrete_rejects_bad_pmf_sum():
    with pytest.raises(InvariantViolation, match="z_pmf"):
        DiscreteScenario(
            z_support=(0.0, 1.0),
            z_pmf=(0.5, 0.6),
            u_support=(0.0, 1.0),
            u_pmf=(0.5, 0.5),
            treat=((0.1, 0.2), (0.3, 0.4)),
            outcome_mean=(((0.1, 0.2), (0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
        )


def test_outcome_law_mean_must_match_table():
    with pytest.raises(InvariantViolation, match="law"):
        DiscreteScenario(
            z_support=(0.0, 1.0),
            z_pmf=(0.5, 0.5),
            u_support=(0.0, 1.0),
            u_pmf=(0.5, 0.5),
            treat=((0.1, 0.2), (0.3, 0.4)),
            outcome_mean=(((0.1, 0.2), (0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
            outcome_law=(
                (((0.0, 0.5), (1.0, 0.5)), ((0.0, 0.8), (1.0, 0.2))),
                (((0.0, 0.7), (1.0, 0.3)), ((0.0, 0.6), (1.0, 0.4))),
            ),
        )


def test_po_scenario_consistency_constraint():
    # sum_j treat * joint must equal pi at every support point.
    with pytest.raises(InvariantViolation, match="Pr\\(A=1\\|pi\\)=pi"):
        PotentialOutcomeScenario(
            pi_support=(0.3, 0.7),
            pi_pmf=(0.5, 0.5),
            y_pairs=((0.0, 0.0), (1.0, 1.0)),
            pair_pmf=(0.5, 0.5),
            treat=((0.9, 0.9), (0.7, 0.7)),
        )


def test_po_scenario_accepts_consistent_table():
    s = PotentialOutcomeScenario(
        pi_support=(0.3, 0.7),
        pi_pmf=(0.5, 0.5),
        y_pairs=((0.0, 0.0), (1.0, 1.0)),
        pair_pmf=(0.5, 0.5),
        treat=((0.2, 0.4), (0.6, 0.8)),
    )
    assert s.n_pi == 2 and s.n_pairs == 2


def test_family_weights_must_sum_to_one():
    s = to_discrete(worked_case("case1"))
    with pytest.raises(InvariantViolation, match="strata"):
        CovariateFamily(strata=(Stratum("x0", 0.4, s), Stratum("x1", 0.4, s)))


def test_binary_scenario_names_an_int_beyond_the_float_range():
    with pytest.raises(InvariantViolation, match="^pZ: must be finite$"):
        binary_from_params(10**400, 0.5, 0.8, 0.6, 0.2, 0.1, 0.08, 0.06, 0.02, 0.01)


def test_stratum_names_an_int_weight_beyond_the_float_range():
    s = to_discrete(worked_case("case1"))
    with pytest.raises(InvariantViolation, match="^weight: must be finite$"):
        Stratum("x0", 10**400, s)


def test_to_discrete_matches_worked_case(case1):
    d = to_discrete(case1)
    assert d.z_support == (0.0, 1.0)
    assert d.treat[1][1] == 0.8
    assert d.outcome_mean[1][0][1] == 0.08
    assert d.outcome_mean[1][1][1] == 0.08
    assert d.binary_outcome
    assert d.outcome_law is not None


def test_to_discrete_degenerate_marginal_is_legal():
    s = binary_from_params(0.0, 0.5, 0.8, 0.6, 0.2, 0.1, 0.08, 0.06, 0.02, 0.01)
    d = to_discrete(s)
    assert d.z_pmf == (1.0, 0.0)


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=10, max_size=10))
def test_to_discrete_preserves_all_estimands(vals):
    b = binary_from_params(*vals)
    eb = estimates(b)
    ed = estimates(to_discrete(b))
    for name in ("true_treated", "true_control", "true_all", "unadj",
                 "adj_treated", "adj_control", "adj_all", "treated_fraction"):
        assert math.isclose(getattr(eb, name), getattr(ed, name), abs_tol=1e-12)


def test_propensity_worked_case(case1, case3):
    # Oracle: pi(z) = sum_u Pr(U=u) * treat(z, u).
    assert propensity(to_discrete(case1)) == pytest.approx(
        {0.0: 0.5 * 0.2 + 0.5 * 0.1, 1.0: 0.5 * 0.8 + 0.5 * 0.6}, abs=1e-15
    )
    assert propensity(to_discrete(case3)) == pytest.approx(
        {0.0: 0.25, 1.0: 0.45}, abs=1e-15
    )


def test_propensity_constant_table():
    s = DiscreteScenario(
        z_support=(0.0, 1.0, 2.0),
        z_pmf=(0.2, 0.3, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.3, 0.3), (0.3, 0.3), (0.3, 0.3)),
        outcome_mean=(
            ((0.1, 0.2), (0.1, 0.2), (0.1, 0.2)),
            ((0.3, 0.4), (0.3, 0.4), (0.3, 0.4)),
        ),
    )
    assert all(v == pytest.approx(0.3, abs=1e-15) for v in propensity(s).values())


def test_collapse_identity_when_injective(case1):
    d = to_discrete(case1)
    c = collapse_by_propensity(d)
    # Unchanged up to relabelling by propensity.
    assert c.z_pmf == d.z_pmf
    assert c.treat == d.treat
    assert set(c.z_support) == set(propensity(d).values())
    e_before = estimates(d)
    e_after = estimates(c)
    assert e_before.adj_all == pytest.approx(e_after.adj_all, abs=1e-15)


def test_collapse_is_idempotent(case1):
    d = to_discrete(case1)
    once = collapse_by_propensity(d)
    twice = collapse_by_propensity(once)
    assert twice is once


def test_collapse_merges_equal_propensity_levels():
    # Two instrument levels with identical rows: same propensity and same
    # conditional outcome means; merging must not move any estimand.
    s = DiscreteScenario(
        z_support=(0.0, 1.0, 2.0),
        z_pmf=(0.25, 0.25, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.4, 0.6),
        treat=((0.2, 0.5), (0.2, 0.5), (0.6, 0.9)),
        outcome_mean=(
            ((0.1, 0.3), (0.1, 0.3), (0.1, 0.3)),
            ((0.2, 0.7), (0.2, 0.7), (0.2, 0.7)),
        ),
    )
    c = collapse_by_propensity(s)
    assert c.n_z == 2
    assert c.z_pmf[0] == pytest.approx(0.5, abs=1e-15)
    before = estimates(s)
    after = estimates(c)
    for name in ("true_treated", "true_control", "true_all", "unadj",
                 "adj_treated", "adj_control", "adj_all"):
        assert math.isclose(getattr(before, name), getattr(after, name), abs_tol=1e-12)
    assert collapse_by_propensity(c) is c


def test_collapse_tolerance_must_be_nonnegative(case1):
    with pytest.raises(InvariantViolation, match="tol"):
        collapse_by_propensity(to_discrete(case1), tol=-1.0)


def test_collapse_merges_within_tolerance():
    # Propensities 0.30 and 0.30 + 5e-10 merge at the default 1e-9 tolerance
    # but stay apart when the tolerance is tightened below their gap.
    bump = 1e-9
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.2, 0.4), (0.2 + bump, 0.4 + bump)),
        outcome_mean=(((0.1, 0.2), (0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
    )
    merged = collapse_by_propensity(s)
    assert merged.n_z == 1
    kept = collapse_by_propensity(s, tol=1e-12)
    assert kept.n_z == 2


def test_collapse_reorders_by_propensity_without_moving_estimands():
    # Treatment probability decreases in z, so the propensity ordering is the
    # reverse of the declared support ordering; relabelling must not move
    # any estimand.
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.4, 0.6),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.6, 0.8), (0.1, 0.3)),
        outcome_mean=(((0.1, 0.2), (0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
    )
    c = collapse_by_propensity(s)
    assert list(c.z_support) == sorted(propensity(s).values())
    before, after = estimates(s), estimates(c)
    for name in ("true_treated", "true_control", "true_all", "unadj",
                 "adj_treated", "adj_control", "adj_all"):
        assert math.isclose(getattr(before, name), getattr(after, name), abs_tol=1e-12)


def test_joint_mass_sums_to_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = to_discrete(random_binary(rng))
        total = sum(zp * up for zp in d.z_pmf for up in d.u_pmf)
        assert abs(total - 1.0) <= 1e-12


# One or two bad cells planted in a table; the error names the first in
# row-major order, with the field and message each check has always used.
BAD_CELLS = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "negative": -0.5, "above one": 1.5, "non-number": "abc",
}


def _planted_error(table, index, bad):
    """Expected message for a bad value at ``table`` cell ``index``."""
    row = f"{table}" + "".join(f"[{k}]" for k in index[:-1])
    cell = row + f"[{index[-1]}]"
    value = BAD_CELLS[bad]
    if bad == "nan":
        return f"{row}: must not be NaN"
    if bad == "non-number":
        return f"{row}: must be a number"
    if table == "mean" and math.isinf(value):
        return f"{cell}: must be finite"
    return f"{cell}: must lie in [0, 1], got {value!r}"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_validation_names_first_bad_cell_in_row_major_order(data):
    rnd = data.draw(st.randoms(use_true_random=False))
    kind = data.draw(st.sampled_from(["treat", "mean", "po treat", "law mismatch"]))
    rows, cols = rnd.randint(1, 6), rnd.randint(1, 6)

    def pmf(n):
        return [1.0 / n] * n

    if kind == "po treat":
        pair_pmf = pmf(cols)
        # Row k lies in [k/rows, (k+1)/rows), so pi is strictly increasing.
        treat = [[(k + rnd.random()) / rows for _ in range(cols)] for k in range(rows)]
        pi = [math.fsum(t * p for t, p in zip(row, pair_pmf)) for row in treat]
        table, shape = treat, (rows, cols)

        def build():
            return PotentialOutcomeScenario(
                pi_support=pi, pi_pmf=pmf(rows),
                y_pairs=[(float(j), 0.0) for j in range(cols)], pair_pmf=pair_pmf,
                treat=treat,
            )
    else:
        treat = [[rnd.random() for _ in range(cols)] for _ in range(rows)]
        column = [[rnd.random() for _ in range(cols)] for _ in (0, 1)]
        mean = [[list(column[a]) for _ in range(rows)] for a in (0, 1)]
        law = [[((0.0, 1.0 - m), (1.0, m)) for m in column[a]] for a in (0, 1)]
        table, shape = (treat, (rows, cols)) if kind == "treat" else (mean, (2, rows, cols))

        def build():
            return DiscreteScenario(
                z_support=range(rows), z_pmf=pmf(rows), u_support=range(cols),
                u_pmf=pmf(cols), treat=treat, outcome_mean=mean,
                outcome_law=law if kind == "law mismatch" else None, binary_outcome=True,
            )

    cells = [divmod(n, cols) for n in range(rows * cols)]
    if len(shape) == 3:
        cells = [(a, i, j) for a in (0, 1) for i, j in cells]
    picked = sorted(data.draw(st.lists(st.sampled_from(cells), min_size=1,
                                       max_size=1 if kind == "law mismatch" else 2,
                                       unique=True)))
    bad = data.draw(st.sampled_from(sorted(BAD_CELLS)))
    for index in picked:
        *outer, j = index
        target = table
        for k in outer:
            target = target[k]
        if kind == "law mismatch":
            original = target[j]
            target[j] += 1e-6 if original < 0.5 else -1e-6
        else:
            target[j] = BAD_CELLS[bad]
    with pytest.raises(InvariantViolation) as info:
        build()
    if kind == "law mismatch":
        a, i, j = picked[0]
        assert str(info.value) == (
            f"law[{a}][{j}]: law mean {original!r} does not match "
            f"mean[{a}][{i}][{j}] = {mean[a][i][j]!r}"
        )
    else:
        name = "mean" if kind == "mean" else "treat"
        assert str(info.value) == _planted_error(name, picked[0], bad)


def _law_world(law, binary=False, mean=None):
    """A 2x2 discrete world with the outcome law ``law`` (cells in (a, u)
    order) and, unless given, the means that the law implies."""
    cells = [list(cell) for cell in law]
    if mean is None:
        mean = [math.fsum(v * p for v, p in cell) for cell in cells]
    return dict(z_support=(0, 1), z_pmf=(0.5, 0.5), u_support=(0, 1), u_pmf=(0.5, 0.5),
                treat=((0.2, 0.4), (0.6, 0.8)),
                outcome_mean=[[mean[2 * a:2 * a + 2]] * 2 for a in (0, 1)],
                outcome_law=[cells[:2], cells[2:]], binary_outcome=binary)


COIN = ((0.0, 0.5), (1.0, 0.5))
# Each law breaks exactly one rule that the one-pass test over the whole law
# checks, and keeps every other, so that test alone must catch it.
LAW_FAULTS = {
    "mass sums past 1, mean kept": _law_world([COIN, COIN, ((0.0, 0.7), (1.0, 0.5)), COIN]),
    "values tied": _law_world([COIN, ((1.0, 0.5), (1.0, 0.5)), COIN, COIN]),
    "values falling": _law_world([COIN, COIN, COIN, ((1.0, 0.5), (0.0, 0.5))]),
    "values tied, rising across cells": _law_world(
        [COIN, ((2.0, 0.5), (2.0, 0.5)), ((3.0, 0.5), (4.0, 0.5)), ((5.0, 0.5), (6.0, 0.5))]),
    "binary outcome off {0, 1}": _law_world(
        [COIN, ((0.0, 0.75), (2.0, 0.25)), COIN, COIN], binary=True),
    "negative mass": _law_world(
        [((0.0, 0.25), (1.0, 1.0), (2.0, -0.25))] + [((0.0, 0.5), (1.0, 0.0), (2.0, 0.5))] * 3),
    "law mean off": _law_world([COIN] * 4, mean=[0.5, 0.5, 0.5, 0.5 + 1e-6]),
    "arms of 3 and 1 cells": {**_law_world([COIN] * 4), "outcome_law": [[COIN] * 3, [COIN]]},
    "three arms": {**_law_world([COIN] * 4), "outcome_law": [[COIN] * 2] * 3},
    "a cell of pairs of 3": _law_world(
        [COIN, COIN, COIN, ((0.0, 0.5, 9.0), (1.0, 0.5, 9.0))], mean=[0.5] * 4),
    "valid, cells of 2 and 3 points": _law_world(
        [COIN, ((0.0, 0.25), (1.0, 0.5), (2.0, 0.25)), COIN, COIN]),
    "valid": _law_world([COIN] * 4),
}


@pytest.mark.parametrize("name", LAW_FAULTS)
def test_outcome_law_checks_match_reference(name):
    import reference_scenario

    kwargs = LAW_FAULTS[name]

    def outcome(cls):
        try:
            return "ok", repr(cls(**kwargs))
        except Exception as exc:  # the comparison is the point, whatever is raised
            return type(exc), str(exc)

    expected = outcome(reference_scenario.DiscreteScenario)
    assert outcome(DiscreteScenario) == expected
    assert (expected[0] == "ok") == name.startswith("valid")


def test_one_shot_iterables_build_the_same_scenario():
    # The one-pass table tests read only tuples and lists, which can be
    # iterated again by the row walk; anything else goes to the walk whole.
    kwargs = LAW_FAULTS["valid"]
    lazy = dict(kwargs, treat=[iter(row) for row in kwargs["treat"]],
                outcome_mean=[[iter(row) for row in arm] for arm in kwargs["outcome_mean"]],
                outcome_law=(iter(arm) for arm in kwargs["outcome_law"]))
    assert DiscreteScenario(**lazy) == DiscreteScenario(**kwargs)
