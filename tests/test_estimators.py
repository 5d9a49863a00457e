"""Estimand computation: worked cases, oracle agreement, identities, reductions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORKED_ROUNDED, binary_from_params, random_binary, worked_case
from oracles import binary_brute_force, po_brute_force
from zbias import (
    CovariateFamily,
    DegeneratePopulationError,
    DiscreteScenario,
    InvariantViolation,
    MissingOutcomeLawError,
    PotentialOutcomeScenario,
    Stratum,
    UndefinedStratumError,
    ZeroDenominatorError,
    adjusted_ace,
    adjusted_minus_unadjusted_via_covariance,
    covariate_average,
    dce,
    estimates,
    po_estimates,
    rr,
    to_discrete,
    true_ace,
    unadjusted_ace,
)

SLOTS = ("true_treated", "true_control", "true_all", "unadj",
         "adj_treated", "adj_control", "adj_all")

unit_floats = st.floats(min_value=0.01, max_value=0.99)


# ---------------------------------------------------------------------------
# Worked cases


@pytest.mark.parametrize("name", ["case1", "case2", "case3"])
def test_worked_case_rounds_to_expected_row(name):
    e = estimates(worked_case(name))
    t, u, a, _ = WORKED_ROUNDED[name]
    assert f"{e.true_all:.4f}" == f"{t:.4f}"
    assert f"{e.unadj:.4f}" == f"{u:.4f}"
    assert f"{e.adj_all:.4f}" == f"{a:.4f}"


def test_case1_intermediate_conditional_means(case1):
    # E(Y A) = 0.0305 and E(Y (1-A)) = 0.00825 by direct cell enumeration.
    e = estimates(case1)
    assert e.treated_fraction == pytest.approx(0.425, abs=1e-15)
    assert e.unadj == pytest.approx(0.0305 / 0.425 - 0.00825 / 0.575, abs=1e-12)


def test_case3_adjusted_below_unadjusted(case3):
    e = estimates(case3)
    assert e.adj_all == pytest.approx(0.0171818181818181818, abs=1e-12)
    assert e.adj_all < e.unadj


def test_true_ace_null_effect_is_zero():
    s = binary_from_params(0.3, 0.6, 0.8, 0.6, 0.2, 0.1, 0.07, 0.03, 0.07, 0.03)
    tt, tc, ta = true_ace(to_discrete(s))
    assert tt == pytest.approx(0.0, abs=1e-15)
    assert tc == pytest.approx(0.0, abs=1e-15)
    assert ta == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Oracle equivalence and algebraic identities


def test_brute_force_oracle_agreement_on_worked_cases():
    for name in ("case1", "case2", "case3"):
        s = worked_case(name)
        expected = binary_brute_force(s)
        e = estimates(s)
        for slot in SLOTS:
            assert math.isclose(getattr(e, slot), expected[slot], abs_tol=1e-12), slot


def test_brute_force_oracle_agreement_randomized():
    rng = np.random.default_rng(101)
    for _ in range(300):
        s = random_binary(rng)
        expected = binary_brute_force(s)
        e = estimates(s)
        for slot in SLOTS:
            assert math.isclose(getattr(e, slot), expected[slot], abs_tol=1e-12)


@settings(max_examples=80)
@given(st.lists(unit_floats, min_size=10, max_size=10))
def test_convex_combination_identities(vals):
    e = estimates(binary_from_params(*vals))
    f = e.treated_fraction
    assert abs(e.true_all - (f * e.true_treated + (1 - f) * e.true_control)) <= 1e-12
    assert abs(e.adj_all - (f * e.adj_treated + (1 - f) * e.adj_control)) <= 1e-12


@settings(max_examples=80)
@given(st.lists(unit_floats, min_size=10, max_size=10))
def test_covariance_route_matches_direct_difference(vals):
    s = to_discrete(binary_from_params(*vals))
    gaps = adjusted_minus_unadjusted_via_covariance(s)
    at, ac, aa = adjusted_ace(s)
    un = unadjusted_ace(s)
    direct = (at - un, ac - un, aa - un)
    for via_cov, d in zip(gaps, direct):
        assert abs(via_cov - d) <= 1e-12


def test_covariance_route_zero_when_no_instrument():
    s = binary_from_params(0.5, 0.5, 0.7, 0.7, 0.2, 0.2, 0.08, 0.06, 0.02, 0.01)
    gaps = adjusted_minus_unadjusted_via_covariance(to_discrete(s))
    assert all(abs(g) <= 1e-15 for g in gaps)


def test_covariance_route_worked_case(case1):
    _, _, d_all = adjusted_minus_unadjusted_via_covariance(to_discrete(case1))
    e = estimates(case1)
    assert d_all == pytest.approx(e.adj_all - e.unadj, abs=1e-12)
    assert round(e.adj_all, 4) - round(e.unadj, 4) == pytest.approx(0.0010, abs=1e-12)


# ---------------------------------------------------------------------------
# Reductions


def test_no_confounding_reduction():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pz, pu, t0, t1, m0, m1 = rng.uniform(0.05, 0.95, size=6)
        s = binary_from_params(pz, pu, t1, t1, t0, t0, m1, m1, m0, m0)
        e = estimates(s)
        for slot in SLOTS[1:]:
            assert math.isclose(getattr(e, slot), e.true_treated, abs_tol=1e-12)


def test_no_instrument_reduction():
    rng = np.random.default_rng(6)
    for _ in range(200):
        pz, pu, tu1, tu0, r11_, r10_, r01_, r00_ = rng.uniform(0.05, 0.95, size=8)
        s = binary_from_params(pz, pu, tu1, tu0, tu1, tu0, r11_, r10_, r01_, r00_)
        e = estimates(s)
        assert math.isclose(e.adj_treated, e.unadj, abs_tol=1e-12)
        assert math.isclose(e.adj_control, e.unadj, abs_tol=1e-12)
        assert math.isclose(e.adj_all, e.unadj, abs_tol=1e-12)


def test_on_propensity_equals_on_z_for_injective_propensity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        s = to_discrete(random_binary(rng))
        on_z = estimates(s, "on_z")
        on_pi = estimates(s, "on_propensity")
        for slot in SLOTS:
            assert math.isclose(getattr(on_z, slot), getattr(on_pi, slot), abs_tol=1e-12)


def test_dce_and_rr_respect_conditioning_choice(case1):
    s = to_discrete(case1)
    for slot in SLOTS:
        assert math.isclose(
            getattr(dce(s, 0.5, "on_z"), slot),
            getattr(dce(s, 0.5, "on_propensity"), slot),
            abs_tol=1e-12,
        )
        assert math.isclose(
            getattr(rr(s, "on_z"), slot),
            getattr(rr(s, "on_propensity"), slot),
            abs_tol=1e-12,
        )
    assert rr(s, "on_propensity").conditioning == "on_propensity"


# ---------------------------------------------------------------------------
# Error paths


def test_degenerate_population_errors():
    s = binary_from_params(0.5, 0.5, 0, 0, 0, 0, 0.08, 0.06, 0.02, 0.01)
    with pytest.raises(DegeneratePopulationError):
        estimates(s)
    with pytest.raises(DegeneratePopulationError):
        unadjusted_ace(to_discrete(s))


def test_undefined_stratum_error_names_level():
    # Pr(A=1 | Z=1) = 0 while Pr(Z=1) > 0: mu_1(1) undefined.
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.3, 0.4), (0.0, 0.0)),
        outcome_mean=(((0.1, 0.2), (0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
    )
    with pytest.raises(UndefinedStratumError, match="Z=1.0"):
        adjusted_ace(s)


def test_zero_mass_stratum_is_skipped_not_an_error():
    s = DiscreteScenario(
        z_support=(0.0, 1.0, 2.0),
        z_pmf=(0.5, 0.5, 0.0),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.3, 0.4), (0.5, 0.6), (0.0, 0.0)),
        outcome_mean=(
            ((0.1, 0.2), (0.1, 0.2), (0.1, 0.2)),
            ((0.3, 0.4), (0.3, 0.4), (0.3, 0.4)),
        ),
    )
    adjusted_ace(s)


def test_direct_effect_requires_explicit_opt_in():
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.2, 0.4), (0.3, 0.5)),
        outcome_mean=(((0.1, 0.2), (0.15, 0.25)), ((0.3, 0.4), (0.35, 0.45))),
    )
    with pytest.raises(InvariantViolation, match="direct"):
        true_ace(s)
    tt, tc, ta = true_ace(s, allow_direct_effect=True)
    e = estimates(s, allow_direct_effect=True)
    assert (tt, tc, ta) == (e.true_treated, e.true_control, e.true_all)


# ---------------------------------------------------------------------------
# Distributional effects


def test_dce_requires_outcome_law():
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.2, 0.4), (0.3, 0.5)),
        outcome_mean=(((0.1, 0.2), (0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
    )
    with pytest.raises(MissingOutcomeLawError):
        dce(s, 0.5)


def test_dce_equals_ace_for_binary_outcome():
    rng = np.random.default_rng(12)
    for _ in range(100):
        s = to_discrete(random_binary(rng))
        d = dce(s, 0.5)
        e = estimates(s)
        for slot in SLOTS:
            assert math.isclose(getattr(d, slot), getattr(e, slot), abs_tol=1e-12)


def test_dce_above_support_is_zero(case1):
    d = dce(to_discrete(case1), 1.0)
    for slot in SLOTS:
        assert getattr(d, slot) == 0.0


def test_dce_names_an_int_threshold_beyond_the_float_range(case1):
    with pytest.raises(InvariantViolation, match="^threshold: must be finite$"):
        dce(to_discrete(case1), 10**400)


def test_dce_three_valued_outcome_matches_dichotomized_scenario():
    # Outcome in {0, 1, 2}; threshold between 1 and 2 keeps only the top value.
    law = (
        (((0.0, 0.5), (1.0, 0.3), (2.0, 0.2)), ((0.0, 0.3), (1.0, 0.4), (2.0, 0.3))),
        (((0.0, 0.2), (1.0, 0.5), (2.0, 0.3)), ((0.0, 0.1), (1.0, 0.4), (2.0, 0.5))),
    )
    means = tuple(
        tuple(
            tuple(sum(v * p for v, p in law[a][j]) for j in (0, 1))
            for _ in (0, 1)
        )
        for a in (0, 1)
    )
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.4, 0.6),
        treat=((0.2, 0.4), (0.5, 0.7)),
        outcome_mean=means,
        outcome_law=law,
    )
    d = dce(s, 1.5)
    tails = tuple(
        tuple(sum(p for v, p in law[a][j] if v > 1.5) for j in (0, 1)) for a in (0, 1)
    )
    dichotomized = DiscreteScenario(
        z_support=s.z_support,
        z_pmf=s.z_pmf,
        u_support=s.u_support,
        u_pmf=s.u_pmf,
        treat=s.treat,
        outcome_mean=((tails[0], tails[0]), (tails[1], tails[1])),
        binary_outcome=True,
    )
    e = estimates(dichotomized)
    for slot in SLOTS:
        assert math.isclose(getattr(d, slot), getattr(e, slot), abs_tol=1e-12)
    assert d.threshold == 1.5


# ---------------------------------------------------------------------------
# Ratio scale


def test_rr_null_effect_gives_unit_true_ratios():
    # Identical outcome means in both arms: the true ratios are exactly 1.
    # The observational slots still move with confounding, so only the null
    # scenarios with u-constant means make all seven ratios 1.
    rng = np.random.default_rng(13)
    for _ in range(100):
        pz, pu, p11_, p10_, p01_, p00_, m1, m0 = rng.uniform(0.05, 0.95, size=8)
        s = binary_from_params(pz, pu, p11_, p10_, p01_, p00_, m1, m0, m1, m0)
        r = rr(to_discrete(s))
        for slot in ("true_treated", "true_control", "true_all"):
            assert math.isclose(getattr(r, slot), 1.0, abs_tol=1e-12)
        flat = binary_from_params(pz, pu, p11_, p10_, p01_, p00_, m1, m1, m1, m1)
        r = rr(to_discrete(flat))
        for slot in SLOTS:
            assert math.isclose(getattr(r, slot), 1.0, abs_tol=1e-12)


def test_rr_worked_case_unadjusted_ratio(case1):
    r = rr(to_discrete(case1))
    assert r.unadj == pytest.approx((0.0305 / 0.425) / (0.00825 / 0.575), abs=1e-12)


def test_rr_ordering_under_weaker_condition(case1):
    r = rr(to_discrete(case1))
    assert r.adj_all >= r.unadj >= r.true_all


def test_rr_zero_denominator_names_slot():
    s = binary_from_params(0.5, 0.5, 0.8, 0.6, 0.2, 0.1, 0.08, 0.06, 0.0, 0.0)
    with pytest.raises(ZeroDenominatorError, match="true_treated|unadj"):
        rr(to_discrete(s))


def test_rr_rejects_negative_means():
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.2, 0.4), (0.3, 0.5)),
        outcome_mean=(((-0.1, 0.2), (-0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
    )
    with pytest.raises(InvariantViolation, match="nonnegative"):
        rr(s)


# ---------------------------------------------------------------------------
# Covariate averaging


def test_single_stratum_average_equals_stratum():
    s = to_discrete(worked_case("case1"))
    fam = CovariateFamily(strata=(Stratum("only", 1.0, s),))
    avg = covariate_average(fam)
    e = estimates(s)
    for slot in SLOTS:
        assert math.isclose(getattr(avg, slot), getattr(e, slot), abs_tol=1e-12)


def test_two_identical_strata_average_equals_common_value():
    s = to_discrete(worked_case("case2"))
    fam = CovariateFamily(strata=(Stratum("a", 0.3, s), Stratum("b", 0.7, s)))
    avg = covariate_average(fam)
    e = estimates(s)
    for slot in SLOTS:
        assert math.isclose(getattr(avg, slot), getattr(e, slot), abs_tol=1e-12)


def test_two_stratum_average_matches_hand_enumerated_mixture():
    s1 = to_discrete(worked_case("case1"))
    s2 = to_discrete(worked_case("case2"))
    w1, w2 = 0.3, 0.7
    fam = CovariateFamily(strata=(Stratum("x1", w1, s1), Stratum("x2", w2, s2)))
    avg = covariate_average(fam)
    e1, e2 = estimates(s1), estimates(s2)
    f1, f2 = e1.treated_fraction, e2.treated_fraction
    f_bar = w1 * f1 + w2 * f2
    assert avg.treated_fraction == pytest.approx(f_bar, abs=1e-15)
    assert avg.true_all == pytest.approx(w1 * e1.true_all + w2 * e2.true_all, abs=1e-12)
    assert avg.unadj == pytest.approx(w1 * e1.unadj + w2 * e2.unadj, abs=1e-12)
    assert avg.adj_all == pytest.approx(w1 * e1.adj_all + w2 * e2.adj_all, abs=1e-12)
    wt1 = w1 * f1 / f_bar
    assert avg.true_treated == pytest.approx(
        wt1 * e1.true_treated + (1 - wt1) * e2.true_treated, abs=1e-12
    )
    wc1 = w1 * (1 - f1) / (1 - f_bar)
    assert avg.adj_control == pytest.approx(
        wc1 * e1.adj_control + (1 - wc1) * e2.adj_control, abs=1e-12
    )


def test_average_true_all_matches_flattened_confounder():
    # Folding the stratum label into the confounder preserves the population
    # causal effect (both strata share the instrument law, so independence
    # of Z and the extended confounder survives).
    s1 = to_discrete(worked_case("case1"))
    s2 = to_discrete(worked_case("case2"))
    w1, w2 = 0.4, 0.6
    fam = CovariateFamily(strata=(Stratum("x1", w1, s1), Stratum("x2", w2, s2)))
    flat = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0, 2.0, 3.0),
        u_pmf=(
            w1 * s1.u_pmf[0], w1 * s1.u_pmf[1],
            w2 * s2.u_pmf[0], w2 * s2.u_pmf[1],
        ),
        treat=tuple(
            s1.treat[i] + s2.treat[i] for i in range(2)
        ),
        outcome_mean=tuple(
            tuple(s1.outcome_mean[a][i] + s2.outcome_mean[a][i] for i in range(2))
            for a in (0, 1)
        ),
    )
    avg = covariate_average(fam)
    assert avg.true_all == pytest.approx(estimates(flat).true_all, abs=1e-12)


def test_average_propagates_stratum_errors():
    degenerate = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.0, 0.0), (0.0, 0.0)),
        outcome_mean=(((0.1, 0.2), (0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
    )
    fam = CovariateFamily(
        strata=(Stratum("ok", 0.5, to_discrete(worked_case("case1"))),
                Stratum("bad", 0.5, degenerate))
    )
    with pytest.raises(DegeneratePopulationError):
        covariate_average(fam)


# ---------------------------------------------------------------------------
# Potential-outcome worlds


def _po_from_model(pi_levels, pi_pmf, joint, delta, eta, theta):
    pairs = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    pmf = tuple(joint[pair] for pair in pairs)
    ey1 = sum(p for (y1, _y0), p in zip(pairs, pmf) if y1 == 1.0)
    ey0 = sum(p for (_y1, y0), p in zip(pairs, pmf) if y0 == 1.0)
    ey11 = joint[(1.0, 1.0)]
    alpha = -(delta * ey1 + eta * ey0 + theta * ey11)
    treat = tuple(
        tuple(pi + alpha + delta * y1 + eta * y0 + theta * y1 * y0 for y1, y0 in pairs)
        for pi in pi_levels
    )
    return PotentialOutcomeScenario(
        pi_support=pi_levels, pi_pmf=pi_pmf, y_pairs=pairs, pair_pmf=pmf, treat=treat
    )


def test_po_randomized_assignment_collapses_everything():
    pairs = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    pmf = (0.4, 0.1, 0.1, 0.4)
    s = PotentialOutcomeScenario(
        pi_support=(0.3, 0.7),
        pi_pmf=(0.5, 0.5),
        y_pairs=pairs,
        pair_pmf=pmf,
        treat=tuple(tuple(pi for _ in pairs) for pi in (0.3, 0.7)),
    )
    e = po_estimates(s)
    assert e.unadj == pytest.approx(e.true_all, abs=1e-12)
    assert e.true_treated == pytest.approx(e.true_all, abs=1e-12)
    assert e.true_control == pytest.approx(e.true_all, abs=1e-12)
    assert e.adj_all == pytest.approx(e.unadj, abs=1e-12)
    assert e.adj_treated == pytest.approx(e.unadj, abs=1e-12)
    assert e.adj_control == pytest.approx(e.unadj, abs=1e-12)


def test_po_golden_selection_model():
    # pi in {0.3, 0.7}, positively associated outcomes (odds ratio 16),
    # selection slopes delta=0.1, eta=0.05, no interaction.
    s = _po_from_model(
        (0.3, 0.7), (0.5, 0.5),
        {(0.0, 0.0): 0.4, (0.0, 1.0): 0.1, (1.0, 0.0): 0.1, (1.0, 1.0): 0.4},
        delta=0.1, eta=0.05, theta=0.0,
    )
    e = po_estimates(s)
    golden = {
        "true_treated": 0.01,
        "true_control": -0.01,
        "true_all": 0.0,
        "unadj": 0.12,
        "adj_treated": 0.14095238095238096,
        "adj_control": 0.14476190476190477,
        "adj_all": 0.14285714285714285,
    }
    for slot, value in golden.items():
        assert math.isclose(getattr(e, slot), value, abs_tol=1e-12), slot
    assert e.adj_treated >= e.unadj >= e.true_treated
    assert e.adj_control >= e.unadj >= e.true_control
    assert e.adj_all >= e.unadj >= e.true_all
    assert e.conditioning == "on_propensity"


def test_po_matches_brute_force_oracle():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 100:
        pi_levels = tuple(sorted(rng.uniform(0.2, 0.8, size=2)))
        if pi_levels[1] - pi_levels[0] < 0.05:
            continue
        raw = rng.dirichlet(np.ones(4))
        joint = {
            (0.0, 0.0): raw[0], (0.0, 1.0): raw[1],
            (1.0, 0.0): raw[2], (1.0, 1.0): raw[3],
        }
        delta, eta, theta = rng.uniform(0.0, 0.1, size=3)
        try:
            s = _po_from_model(pi_levels, (0.5, 0.5), joint, delta, eta, theta)
        except InvariantViolation:
            continue
        expected = po_brute_force(s)
        e = po_estimates(s)
        for slot in SLOTS:
            assert math.isclose(getattr(e, slot), expected[slot], abs_tol=1e-12)
        checked += 1


def test_po_degenerate_population():
    s = PotentialOutcomeScenario(
        pi_support=(0.0,),
        pi_pmf=(1.0,),
        y_pairs=((0.0, 0.0), (1.0, 1.0)),
        pair_pmf=(0.5, 0.5),
        treat=((0.0, 0.0),),
    )
    with pytest.raises(DegeneratePopulationError):
        po_estimates(s)


def test_po_degenerate_propensity_stratum():
    # Overall f is interior, but the pi=1 stratum has an empty control arm.
    s = PotentialOutcomeScenario(
        pi_support=(0.5, 1.0),
        pi_pmf=(0.5, 0.5),
        y_pairs=((0.0, 0.0), (1.0, 1.0)),
        pair_pmf=(0.5, 0.5),
        treat=((0.5, 0.5), (1.0, 1.0)),
    )
    with pytest.raises(DegeneratePopulationError, match="pi=1.0"):
        po_estimates(s)


# ---------------------------------------------------------------------------
# Serialization of results


def test_estimate_set_json_round_trips(case1):
    import json

    e = estimates(case1)
    data = json.loads(e.to_json())
    assert data["true_all"] == e.true_all
    assert data["f"] == e.treated_fraction
    assert data["conditioning"] == "on_z"
    assert list(data) == list(SLOTS) + ["f", "conditioning"]


# ---------------------------------------------------------------------------
# Error precedence: an empty treatment arm is reported before a direct
# effect, and a direct effect before an unknown conditioning.


def _direct_effect_world(treat):
    return DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=treat,
        outcome_mean=(((0.1, 0.2), (0.15, 0.25)), ((0.3, 0.4), (0.35, 0.45))),
    )


def test_degenerate_population_wins_over_direct_effect():
    s = _direct_effect_world(((0.0, 0.0), (0.0, 0.0)))
    assert s.outcome_mean_depends_on_z()
    for conditioning in ("on_z", "on_propensity", "bogus"):
        with pytest.raises(DegeneratePopulationError):
            estimates(s, conditioning)
    family = CovariateFamily(strata=(Stratum("only", 1.0, s),))
    with pytest.raises(DegeneratePopulationError):
        covariate_average(family)


def test_direct_effect_wins_over_unknown_conditioning():
    s = _direct_effect_world(((0.2, 0.4), (0.3, 0.5)))
    with pytest.raises(InvariantViolation, match="^mean: outcome mean varies with z"):
        estimates(s, "bogus")
    with pytest.raises(InvariantViolation, match="^conditioning: unknown conditioning 'bogus'$"):
        estimates(s, "bogus", allow_direct_effect=True)


def test_rr_checks_conditioning_before_direct_effect_and_degeneracy():
    degenerate = _direct_effect_world(((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(InvariantViolation, match="^conditioning: unknown conditioning"):
        rr(degenerate, "bogus")
    with pytest.raises(InvariantViolation, match="^mean: outcome mean varies with z"):
        rr(degenerate)
    flat = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((1.0, 1.0), (1.0, 1.0)),
        outcome_mean=(((0.1, 0.2), (0.1, 0.2)), ((0.3, 0.4), (0.3, 0.4))),
    )
    for conditioning in ("on_z", "on_propensity"):
        with pytest.raises(DegeneratePopulationError):
            rr(flat, conditioning)


def test_estimates_share_one_moments_pass_without_changing_slots(monkeypatch):
    from zbias import estimators

    s = to_discrete(worked_case("case1"))
    expected = {
        "on_z": (true_ace(s), adjusted_ace(s, "on_z")),
        "on_propensity": (true_ace(s), adjusted_ace(s, "on_propensity")),
    }
    calls = []
    real = estimators._moments
    monkeypatch.setattr(estimators, "_moments", lambda w: calls.append(w) or real(w))
    for conditioning, (true, adjusted) in expected.items():
        calls.clear()
        e = estimates(s, conditioning)
        assert (e.true_treated, e.true_control, e.true_all) == true
        assert (e.adj_treated, e.adj_control, e.adj_all) == adjusted
        # The collapsed world of on_propensity needs its own moments.
        assert len(calls) == (1 if conditioning == "on_z" else 2)
        assert calls[0] is s
