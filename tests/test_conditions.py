"""Condition checkers: reports, fits, lemma verifiers, verdicts, soundness sweeps."""

import json
import math

import numpy as np
import pytest

from conftest import binary_from_params, worked_case
from zbias import (
    ConditionReport,
    DiscreteScenario,
    InvariantViolation,
    NonBinaryOutcomeError,
    NonpositiveCellError,
    PotentialOutcomeScenario,
    PremiseViolationError,
    ZeroDenominatorError,
    check_collider_association,
    check_cor1,
    check_cor2,
    check_cor3,
    check_cor4,
    check_lemma_s5,
    check_lemma_s7,
    check_thm1,
    check_thm2,
    check_thm3,
    check_thm4,
    check_thm5_binary,
    check_thm7,
    check_weaker_condition,
    estimates,
    fit_additive,
    fit_cor3_model,
    fit_multiplicative,
    outcome_odds_ratio,
    po_estimates,
    reports_to_json,
    serialize_scenario,
    to_discrete,
    zbias_verdict,
)
from zbias import conditions
from zbias.cli import main
from zbias.estimators import _json_num


def additive_model_scenario(base=0.1, u_slope=0.3, z_slope=0.2, means=None):
    """treat(z, u) = base + u_slope*u + z_slope*z on binary supports."""
    treat = (
        (base, base + u_slope),
        (base + z_slope, base + z_slope + u_slope),
    )
    if means is None:
        means = ((0.01, 0.02), (0.06, 0.08))
    return DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=treat,
        outcome_mean=((means[0], means[0]), (means[1], means[1])),
        binary_outcome=True,
    )


def multiplicative_model_scenario(base=0.1, u_factor=3.0, z_factor=2.0, means=None):
    """treat(z, u) = base * u_factor**u * z_factor**z on binary supports."""
    treat = (
        (base, base * u_factor),
        (base * z_factor, base * z_factor * u_factor),
    )
    if means is None:
        means = ((0.01, 0.02), (0.06, 0.08))
    return DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=treat,
        outcome_mean=((means[0], means[0]), (means[1], means[1])),
        binary_outcome=True,
    )


def by_id(reports):
    return {r.condition_id: r for r in reports}


# ---------------------------------------------------------------------------
# Monotone-association conditions


def test_thm1_holds_on_first_worked_case(case1):
    reports = by_id(check_thm1(to_discrete(case1)))
    assert set(reports) == {"thm1.a1", "thm1.a2", "thm1.a3", "thm1.b"}
    assert all(r.holds for r in reports.values())
    e = estimates(case1)
    verdict = zbias_verdict(e)
    assert all(slot.signed_ordering for slot in verdict.slots)


def test_thm1_constant_table_margins_zero():
    s = additive_model_scenario(base=0.3, u_slope=0.0, z_slope=0.0)
    reports = by_id(check_thm1(s))
    assert reports["thm1.a1"].margin == 0.0
    assert reports["thm1.a2"].margin == 0.0
    assert all(r.holds for r in reports.values())


def test_thm1_second_worked_case_fails_condition_b(case2):
    reports = by_id(check_thm1(to_discrete(case2)))
    assert reports["thm1.a1"].holds
    assert reports["thm1.a2"].holds
    assert reports["thm1.a3"].holds
    assert not reports["thm1.b"].holds
    assert reports["thm1.b"].witnesses
    assert reports["thm1.b"].margin < -1e-12


# ---------------------------------------------------------------------------
# Decompositions


def test_additive_model_fits_exactly():
    dec = fit_additive(additive_model_scenario())
    assert dec.residual_max == pytest.approx(0.0, abs=1e-15)
    reports = by_id(check_thm2(additive_model_scenario()))
    assert all(r.holds for r in reports.values())


def test_additive_fit_residual_on_interaction(case1):
    # Additive contrast 0.1 spreads evenly over the four cells.
    dec = fit_additive(to_discrete(case1))
    assert dec.residual_max == pytest.approx(0.025, abs=1e-12)
    reports = by_id(check_thm2(to_discrete(case1)))
    assert not reports["thm2.a"].holds


def test_multiplicative_model_fits_exactly():
    dec = fit_multiplicative(multiplicative_model_scenario())
    assert dec.residual_max == pytest.approx(0.0, abs=1e-14)
    reports = by_id(check_thm3(multiplicative_model_scenario()))
    assert all(r.holds for r in reports.values())


def test_multiplicative_fit_requires_positive_cells():
    s = additive_model_scenario(base=0.0)
    with pytest.raises(NonpositiveCellError, match="treat\\[0\\]\\[0\\]"):
        fit_multiplicative(s)


def test_additive_fit_normalisation():
    dec = fit_additive(to_discrete(worked_case("case2")))
    # E[u_effect(U)] = 0 by construction.
    assert 0.5 * dec.u_effect[0] + 0.5 * dec.u_effect[1] == pytest.approx(0.0, abs=1e-15)
    dec = fit_multiplicative(to_discrete(worked_case("case2")))
    assert 0.5 * dec.u_effect[0] + 0.5 * dec.u_effect[1] == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Cross-product ratio condition


def test_weaker_condition_worked_cases(case1, case2, case3):
    r1 = check_weaker_condition(case1)
    assert r1.holds
    # Ratios 2/3 and 0.5625; the minimal slack is 1 - 2/3.
    assert r1.margin == pytest.approx(1.0 - (0.8 * 0.1) / (0.6 * 0.2), abs=1e-12)
    r2 = check_weaker_condition(case2)
    assert not r2.holds
    assert any(w.lhs == pytest.approx(1.125, abs=1e-12) for w in r2.witnesses)
    r3 = check_weaker_condition(case3)
    assert not r3.holds
    assert any(w.lhs == pytest.approx(1.25, abs=1e-12) for w in r3.witnesses)


def test_weaker_condition_zero_numerator_is_vacuous():
    # p11 = 0 zeroes the presence numerator (vacuous pass) even though the
    # denominator vanishes too; the absence ratio is 0.7 <= 1.
    s = binary_from_params(0.5, 0.5, 0.0, 0.0, 0.0, 0.3, 0.08, 0.06, 0.02, 0.01)
    assert check_weaker_condition(s).holds


def test_weaker_condition_zero_denominator_raises():
    s = binary_from_params(0.5, 0.5, 0.8, 0.0, 0.2, 0.1, 0.08, 0.06, 0.02, 0.01)
    with pytest.raises(ZeroDenominatorError, match="p10"):
        check_weaker_condition(s)


# ---------------------------------------------------------------------------
# Binary no-interaction corollaries


def test_cor1_zero_contrast_holds():
    s = binary_from_params(0.5, 0.5, 0.6, 0.4, 0.3, 0.1, 0.08, 0.06, 0.02, 0.01)
    reports = by_id(check_cor1(s))
    assert reports["cor1.a"].holds
    assert reports["cor1.b"].holds
    assert reports["cor1.c"].holds


def test_cor1_fails_on_interaction(case1):
    reports = by_id(check_cor1(case1))
    assert not reports["cor1.a"].holds
    assert reports["cor1.a"].witnesses[0].lhs == pytest.approx(0.1, abs=1e-12)


def test_cor2_unit_odds_holds():
    s = binary_from_params(0.5, 0.5, 0.4, 0.2, 0.2, 0.1, 0.08, 0.06, 0.02, 0.01)
    reports = by_id(check_cor2(s))
    assert reports["cor2.a'"].holds
    assert reports["cor2.b"].holds
    assert reports["cor2.c"].holds


# ---------------------------------------------------------------------------
# Collider association


def test_collider_additive_scenario_holds_both_arms():
    s = additive_model_scenario()
    for arm in (0, 1):
        reports = check_collider_association(s, arm)
        assert reports[0].condition_id == f"collider.a{arm}.monotone"
        assert reports[0].holds


def test_collider_multiplicative_independence_at_treated_arm():
    s = multiplicative_model_scenario()
    reports = by_id(check_collider_association(s, 1))
    assert reports["collider.a1.monotone"].holds
    assert "collider.a1.indep" in reports
    assert reports["collider.a1.indep"].holds
    assert reports["collider.a1.indep"].margin >= -1e-15


def test_collider_constant_treatment_margin_zero():
    s = additive_model_scenario(u_slope=0.2, z_slope=0.0)
    reports = check_collider_association(s, 0)
    assert reports[0].margin == pytest.approx(0.0, abs=1e-15)


def test_collider_decides_multiplicativity_with_the_one_treatment_fit(monkeypatch):
    # Only arm 1 on a strictly positive table asks whether it is multiplicative.
    calls = []
    fit = conditions._fit_treatment
    monkeypatch.setattr(conditions, "_fit_treatment",
                        lambda *args: calls.append(args[1]) or fit(*args))
    positive = multiplicative_model_scenario()
    zero_cell = additive_model_scenario(base=0.0)
    for world, arm, fits in ((positive, 1, 1), (positive, 0, 0), (zero_cell, 1, 0),
                             (zero_cell, 0, 0)):
        calls.clear()
        check_collider_association(world, arm)
        assert calls == [conditions.MultiplicativeDecomposition] * fits, (arm, fits)


def test_violated_collider_independence_names_its_cells(tmp_path, capsys):
    # Multiplicative within 1e-9, so indep is reported, but F(u|A=1,z) moves by
    # about 1e-10 in z: its witnesses name one instrument level each.
    s = multiplicative_model_scenario()
    treat = [list(row) for row in s.treat]
    treat[1][1] *= 1 + 1e-9
    path = tmp_path / "near.scn"
    path.write_text(serialize_scenario(DiscreteScenario(
        z_support=s.z_support, z_pmf=s.z_pmf, u_support=s.u_support, u_pmf=s.u_pmf,
        treat=treat, outcome_mean=s.outcome_mean, binary_outcome=True)))
    assert main(["check", str(path), "--theorem", "collider"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    indep = {r["condition_id"]: r for r in json.loads(captured.out)}["collider.a1.indep"]
    assert not indep["holds"]
    assert [w["cell"] for w in indep["witnesses"]] == ["F(u=0.0|A=1,Z=1.0)"]


# ---------------------------------------------------------------------------
# Lemma conclusion verifiers


def test_lemma_s5_conclusions_hold():
    report = check_lemma_s5(0.6, 0.4, 0.3, 0.1)
    assert report.holds


def test_lemma_s7_conclusions_hold():
    report = check_lemma_s7(0.4, 0.2, 0.2, 0.1)
    assert report.holds
    contrast_check = [w for w in report.witnesses]
    assert not contrast_check
    assert report.margin == pytest.approx(min(0.1, 1 - (0.6 * 0.9) / (0.8 * 0.8)), abs=1e-12)


def test_lemma_constant_table_margins_zero():
    report = check_lemma_s5(0.3, 0.3, 0.3, 0.3)
    assert report.margin == pytest.approx(0.0, abs=1e-12)
    report = check_lemma_s7(0.3, 0.3, 0.3, 0.3)
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_lemma_premise_violations_raise():
    with pytest.raises(PremiseViolationError):
        check_lemma_s5(0.8, 0.6, 0.2, 0.1)  # nonzero contrast
    with pytest.raises(PremiseViolationError):
        check_lemma_s7(0.8, 0.6, 0.2, 0.1)  # nonunit odds
    with pytest.raises(PremiseViolationError):
        check_lemma_s5(0.1, 0.6, 0.6, 0.1)  # not monotone


# ---------------------------------------------------------------------------
# Potential-outcome conditions


def cor3_scenario(delta=0.1, eta=0.05, theta=0.0, joint=None, pi_levels=(0.3, 0.7)):
    pairs = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    if joint is None:
        joint = (0.4, 0.1, 0.1, 0.4)
    ey1 = sum(p for (y1, _), p in zip(pairs, joint) if y1 == 1.0)
    ey0 = sum(p for (_, y0), p in zip(pairs, joint) if y0 == 1.0)
    ey11 = joint[3]
    alpha = -(delta * ey1 + eta * ey0 + theta * ey11)
    treat = tuple(
        tuple(pi + alpha + delta * y1 + eta * y0 + theta * y1 * y0 for y1, y0 in pairs)
        for pi in pi_levels
    )
    return PotentialOutcomeScenario(
        pi_support=pi_levels,
        pi_pmf=tuple(1.0 / len(pi_levels) for _ in pi_levels),
        y_pairs=pairs,
        pair_pmf=joint,
        treat=treat,
    )


def test_thm4_randomized_assignment_margins_zero():
    pairs = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    s = PotentialOutcomeScenario(
        pi_support=(0.3, 0.7),
        pi_pmf=(0.5, 0.5),
        y_pairs=pairs,
        pair_pmf=(0.4, 0.1, 0.1, 0.4),
        treat=tuple(tuple(pi for _ in pairs) for pi in (0.3, 0.7)),
    )
    reports = by_id(check_thm4(s))
    assert reports["thm4.a"].margin == pytest.approx(0.0, abs=1e-12)
    assert reports["thm4.b"].margin == pytest.approx(0.0, abs=1e-12)


def test_thm4_holds_for_monotone_selection_model():
    s = cor3_scenario(delta=0.1, eta=0.05, theta=0.02)
    reports = by_id(check_thm4(s))
    assert reports["thm4.a"].holds
    assert reports["thm4.b"].holds


def test_thm4_fails_with_negative_selection_slope():
    s = cor3_scenario(delta=-0.15, eta=0.0, theta=0.0)
    reports = by_id(check_thm4(s))
    assert not reports["thm4.a"].holds
    assert reports["thm4.a"].witnesses


def test_cor3_model_fit_and_checks():
    s = cor3_scenario(delta=0.1, eta=0.05, theta=0.02)
    model = fit_cor3_model(s)
    assert model.delta == pytest.approx(0.1, abs=1e-12)
    assert model.eta == pytest.approx(0.05, abs=1e-12)
    assert model.theta == pytest.approx(0.02, abs=1e-12)
    assert model.residual_max <= 1e-12
    reports = by_id(check_cor3(s))
    assert reports["cor3.a"].holds
    assert reports["cor3.b"].holds


def test_cor3_fails_with_negative_interaction():
    s = cor3_scenario(delta=0.1, eta=0.05, theta=-0.04)
    reports = by_id(check_cor3(s))
    assert not reports["cor3.a"].holds
    assert any(w.cell == "theta" for w in reports["cor3.a"].witnesses)


def test_odds_ratio_values():
    s = cor3_scenario(joint=(0.4, 0.1, 0.1, 0.4))
    assert outcome_odds_ratio(s) == pytest.approx(16.0, abs=1e-12)
    independent = cor3_scenario(joint=(0.25, 0.25, 0.25, 0.25))
    assert outcome_odds_ratio(independent) == pytest.approx(1.0, abs=1e-12)
    reports = by_id(check_cor3(independent))
    assert reports["cor3.b"].margin == pytest.approx(0.0, abs=1e-12)


def test_cor4_multiplicative_selection_model():
    pairs = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    joint = (0.4, 0.1, 0.1, 0.4)
    delta, eta, theta = 1.3, 1.1, 1.05
    factor = {pair: delta ** pair[0] * eta ** pair[1] * theta ** (pair[0] * pair[1])
              for pair in pairs}
    norm = sum(p * factor[pair] for pair, p in zip(pairs, joint))
    alpha = 1.0 / norm
    pi_levels = (0.2, 0.5)
    treat = tuple(
        tuple(alpha * pi * factor[pair] for pair in pairs) for pi in pi_levels
    )
    s = PotentialOutcomeScenario(
        pi_support=pi_levels,
        pi_pmf=(0.5, 0.5),
        y_pairs=pairs,
        pair_pmf=joint,
        treat=treat,
    )
    reports = by_id(check_cor4(s))
    assert reports["cor4.a'"].holds
    assert reports["cor4.b"].holds
    e = po_estimates(s)
    v = zbias_verdict(e)
    assert all(slot.signed_ordering for slot in v.slots)


def test_cor4_rejects_nonpositive_cells():
    s = cor3_scenario(delta=0.3, eta=0.0, theta=0.0, pi_levels=(0.3, 0.5))
    # alpha = -0.15, so treat(0.3, (0,0)) = 0.15 > 0; force a zero by shifting.
    pairs = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    treat = tuple(
        tuple(0.0 if pair == (0.0, 0.0) else t for pair, t in zip(pairs, row))
        for row in s.treat
    )
    joint = s.pair_pmf
    # Rebalance so the propensity constraint still holds.
    pi = tuple(
        sum(p * t for p, t in zip(joint, row)) for row in treat
    )
    s2 = PotentialOutcomeScenario(
        pi_support=pi, pi_pmf=(0.5, 0.5), y_pairs=pairs, pair_pmf=joint, treat=treat
    )
    with pytest.raises(NonpositiveCellError):
        check_cor4(s2)


def test_thm5_binary_interaction_free_model():
    s = cor3_scenario(delta=0.1, eta=0.05, theta=0.0)
    reports = by_id(check_thm5_binary(s))
    assert reports["thm5b.a"].holds
    assert reports["thm5b.b"].holds
    assert reports["thm5b.c"].holds
    with_interaction = cor3_scenario(delta=0.1, eta=0.05, theta=0.05)
    reports = by_id(check_thm5_binary(with_interaction))
    assert not reports["thm5b.a"].holds


def test_non_binary_outcomes_rejected():
    pairs = ((0.0, 0.0), (2.0, 1.0))
    s = PotentialOutcomeScenario(
        pi_support=(0.4,),
        pi_pmf=(1.0,),
        y_pairs=pairs,
        pair_pmf=(0.5, 0.5),
        treat=((0.4, 0.4),),
    )
    with pytest.raises(NonBinaryOutcomeError):
        fit_cor3_model(s)


# ---------------------------------------------------------------------------
# Direct-effect conditions


def test_thm7_reduces_to_monotone_checks_for_constant_z(case1):
    reports = by_id(check_thm7(to_discrete(case1)))
    assert reports["thm7.a.treat"].holds
    assert reports["thm7.a.mean"].holds
    assert reports["thm7.b"].holds


def test_thm7_monotone_direct_effect_scenario():
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.1, 0.4), (0.3, 0.6)),
        outcome_mean=(
            ((0.10, 0.30), (0.11, 0.31)),
            ((0.40, 0.60), (0.41, 0.61)),
        ),
    )
    reports = by_id(check_thm7(s))
    assert reports["thm7.a.treat"].holds
    assert reports["thm7.a.mean"].holds
    # The direct effect pushes against the collider direction; condition (b)
    # need not hold, so just confirm the report exists and is well formed.
    assert "thm7.b" in reports


def test_thm7_decreasing_outcome_in_z_fails():
    s = DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(0.5, 0.5),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.1, 0.4), (0.3, 0.6)),
        outcome_mean=(
            ((0.10, 0.30), (0.05, 0.25)),
            ((0.40, 0.60), (0.35, 0.55)),
        ),
    )
    reports = by_id(check_thm7(s))
    assert not reports["thm7.a.mean"].holds
    assert reports["thm7.a.mean"].witnesses


# ---------------------------------------------------------------------------
# Verdicts


def test_verdict_yes_no_on_worked_cases(case1, case2, case3):
    assert zbias_verdict(estimates(case1)).label == "YES"
    assert zbias_verdict(estimates(case2)).label == "YES"
    assert zbias_verdict(estimates(case3)).label == "NO"


def test_verdict_tie_when_no_instrument():
    s = binary_from_params(0.5, 0.5, 0.7, 0.7, 0.2, 0.2, 0.08, 0.06, 0.02, 0.01)
    v = zbias_verdict(estimates(s))
    assert v.tie
    assert not v.zbias
    assert v.label == "NO"


def test_non_necessity_witness(case2):
    # Every sufficient condition can fail while amplification still occurs.
    reports = by_id(check_thm1(to_discrete(case2)))
    assert not reports["thm1.b"].holds
    assert not check_weaker_condition(case2).holds
    assert zbias_verdict(estimates(case2)).label == "YES"


# ---------------------------------------------------------------------------
# Report serialization


def test_single_level_support_is_vacuously_monotone():
    # One instrument level: nothing to compare, so every monotonicity check
    # holds with infinite slack, and the JSON still parses.
    s = DiscreteScenario(
        z_support=(0.0,),
        z_pmf=(1.0,),
        u_support=(0.0, 1.0),
        u_pmf=(0.5, 0.5),
        treat=((0.2, 0.5),),
        outcome_mean=(((0.1, 0.3),), ((0.2, 0.6),)),
    )
    reports = by_id(check_thm1(s))
    assert reports["thm1.a1"].holds
    assert reports["thm1.a1"].margin == math.inf
    assert reports["thm1.b"].holds

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    parsed = json.loads(reports_to_json(check_thm1(s)), parse_constant=reject)
    assert parsed[0]["margin"] is None
    e = estimates(s)
    assert e.adj_all == pytest.approx(e.unadj, abs=1e-15)


def test_inconsistent_report_is_an_invariant_violation(tmp_path, monkeypatch, capsys):
    # A NaN margin is neither a pass nor a fail: exit 1, not an internal error.
    with pytest.raises(InvariantViolation, match="inconsistent report for thm1.b"):
        ConditionReport("thm1.b", True, math.nan, ())
    with pytest.raises(InvariantViolation):
        ConditionReport("thm1.b", True, -1.0, ())
    monkeypatch.setattr(conditions, "check_thm1",
                        lambda s: [ConditionReport("thm1.b", True, math.nan, ())])
    path = tmp_path / "case1.scn"
    path.write_text(serialize_scenario(worked_case("case1")))
    assert main(["check", str(path), "--theorem", "thm1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: inconsistent report for thm1.b\n"


def test_report_json_shape(case1):
    reports = check_thm1(to_discrete(case1))
    data = json.loads(reports_to_json(reports))
    assert [r["condition_id"] for r in data] == ["thm1.a1", "thm1.a2", "thm1.a3", "thm1.b"]
    for entry in data:
        assert set(entry) == {"condition_id", "holds", "margin", "witnesses"}
    failing = json.loads(reports_to_json(check_weaker_condition(worked_case("case2"))))
    assert failing[0]["holds"] is False
    witness = failing[0]["witnesses"][0]
    assert set(witness) == {"cell", "lhs", "rhs"}


# ---------------------------------------------------------------------------
# Soundness sweeps (compact versions; the acceptance suite runs the full sizes)


def _monotone_binary_draw(rng):
    q = np.sort(rng.uniform(size=4))
    p00, mid1, mid2, p11 = q
    if rng.uniform() < 0.5:
        p10, p01 = mid1, mid2
    else:
        p10, p01 = mid2, mid1
    r = rng.uniform(size=4)
    r11, r10 = max(r[0], r[1]), min(r[0], r[1])
    r01, r00 = max(r[2], r[3]), min(r[2], r[3])
    return binary_from_params(
        rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
        p11, p10, p01, p00, r11, r10, r01, r00,
    )


def test_weaker_condition_plus_monotonicity_implies_ordering():
    rng = np.random.default_rng(31)
    kept = 0
    while kept < 400:
        s = _monotone_binary_draw(rng)
        p11, p10, p01, p00 = s.treat[1][1], s.treat[1][0], s.treat[0][1], s.treat[0][0]
        if p10 * p01 == 0 or (1 - p10) * (1 - p01) == 0:
            continue
        if not check_weaker_condition(s).holds:
            continue
        thm1 = by_id(check_thm1(to_discrete(s)))
        assert thm1["thm1.a1"].holds and thm1["thm1.a2"].holds and thm1["thm1.a3"].holds
        v = zbias_verdict(estimates(s))
        assert all(slot.signed_ordering for slot in v.slots)
        kept += 1


def test_thm1_sweep_compact():
    rng = np.random.default_rng(32)
    kept = 0
    while kept < 300:
        base = rng.uniform(0.02, 0.45)
        u_slope = rng.uniform(0.0, 0.5 - base)
        z_slope = rng.uniform(0.0, 1.0 - base - u_slope)
        means = tuple(
            tuple(sorted(rng.uniform(0.0, 1.0, size=2))) for _ in range(2)
        )
        s = additive_model_scenario(base, u_slope, z_slope, means)
        if not all(r.holds for r in check_thm1(s)):
            continue
        v = zbias_verdict(estimates(s))
        assert all(slot.signed_ordering for slot in v.slots)
        kept += 1


def test_ratio_denominator_underflow_is_a_zero_denominator():
    # Neither factor is zero, but their product underflows.
    s = binary_from_params(0.5, 0.5, 0.5, 1e-200, 1e-200, 0.5, 0.1, 0.1, 0.1, 0.1)
    with pytest.raises(ZeroDenominatorError, match=r"^presence ratio undefined: p10\*p01 = 0$"):
        check_weaker_condition(s)


# Every treatment cell is positive, but at pi = 1e-300 the cor4 theta
# denominator t10 * t01 = 1e-600 underflows to 0.
COR4_UNDERFLOW_TEXT = """\
kind = potential_outcomes
pi_support = 1e-300, 0.5
pi_pmf = 0.5, 0.5
y_pairs = 0,0:0.25; 0,1:0.25; 1,0:0.25; 1,1:0.25
""" + "".join(f"treat[{k}][{j}] = {t}\n" for k, t in ((0, "1e-300"), (1, "0.5")) for j in range(4))


def test_cor4_denominator_underflow_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "cor4.scn"
    path.write_text(COR4_UNDERFLOW_TEXT)
    assert main(["check", str(path), "--theorem", "cor4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: theta undefined at pi = 1e-300: t10*t01 = 0\n"


def _subnormal_treat_text(z_pmf, u_pmf):
    """A discrete world whose every treatment cell is the smallest subnormal."""
    cells = [(i, j) for i in range(len(z_pmf)) for j in range(len(u_pmf))]
    return (
        f"kind = discrete\nz_support = {', '.join(str(i) for i in range(len(z_pmf)))}\n"
        f"z_pmf = {', '.join(z_pmf)}\n"
        f"u_support = {', '.join(str(j) for j in range(len(u_pmf)))}\n"
        f"u_pmf = {', '.join(u_pmf)}\n"
        + "".join(f"treat[{i}][{j}] = 5e-324\n" for i, j in cells)
        + "".join(f"mean[{a}][{i}][{j}] = 0.5\n" for a in (0, 1) for i, j in cells)
    )


# Every cell is positive, but each pmf * 5e-324 product rounds to 0.0, so
# Pr(A=1) = 0.0: the multiplicative fit has no treated population to divide by.
@pytest.mark.parametrize("theorem", ["thm3", "collider"])
@pytest.mark.parametrize(
    "z_pmf, u_pmf", [(("0.5", "0.5"), ("1",)), (("1",), ("0.5", "0.5"))],
    ids=["two-z", "one-z"],
)
def test_underflowed_treated_fraction_is_a_degenerate_population(
    tmp_path, capsys, theorem, z_pmf, u_pmf
):
    path = tmp_path / "subnormal.scn"
    path.write_text(_subnormal_treat_text(z_pmf, u_pmf))
    assert main(["check", str(path), "--theorem", theorem]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if len(z_pmf) == 2 or theorem == "thm3":
        assert captured.err == (
            "error: Pr(A=1) = 0.0: multiplicative fit needs a treated population\n"
        )


# Outcome means of +-1.7e308 across u: every slack across u overflows to
# -inf, which strict JSON cannot spell.
OVERFLOW_TEXT = """\
kind = discrete
z_support = 0, 1
z_pmf = 0.5, 0.5
u_support = 0, 1
u_pmf = 0.5, 0.5
treat[0][0] = 0.2
treat[0][1] = 0.4
treat[1][0] = 0.6
treat[1][1] = 0.8
""" + "".join(
    f"mean[{a}][{i}][{j}] = {'-' if j else ''}1.7e308\n"
    for a in (0, 1) for i in (0, 1) for j in (0, 1)
)


@pytest.mark.parametrize(
    "theorem, condition_id",
    [("thm1", "thm1.a3"), ("thm2", "thm2.b"), ("thm3", "thm3.b"), ("thm7", "thm7.a.mean")],
)
def test_overflowed_margin_is_one_line_exit_1(tmp_path, capsys, theorem, condition_id):
    path = tmp_path / "overflow.scn"
    path.write_text(OVERFLOW_TEXT)
    assert main(["check", str(path), "--theorem", theorem]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {condition_id}: margin -inf is not finite\n"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_numbers_must_be_finite(value):
    with pytest.raises(InvariantViolation, match="is not finite"):
        _json_num(value)


# The mirror image: every slack across u overflows to +inf, which must not
# read as "nothing to compare" (null) when there were comparisons.
POSITIVE_OVERFLOW_TEXT = OVERFLOW_TEXT[:OVERFLOW_TEXT.index("mean[")] + "".join(
    f"mean[{a}][{i}][{j}] = {'' if j else '-'}1.7e308\n"
    for a in (0, 1) for i in (0, 1) for j in (0, 1)
)


@pytest.mark.parametrize("theorem", ["thm1", "thm2", "thm3", "thm7", "collider"])
def test_positive_overflow_is_never_null(tmp_path, capsys, theorem):
    path = tmp_path / "overflow.scn"
    path.write_text(POSITIVE_OVERFLOW_TEXT)
    code = main(["check", str(path), "--theorem", theorem])
    captured = capsys.readouterr()
    if code == 0:
        # Every report of this 2x2 world has comparisons.
        assert captured.err == ""
        for report in json.loads(captured.out, parse_constant=_reject_constant):
            assert report["margin"] is not None, report["condition_id"]
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
    if theorem == "thm1":
        assert captured.err == "error: thm1.a3: margin inf is not finite\n"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_infinite_odds_ratio_margin_stays_null():
    # The compared value itself is infinite, so null is its honest spelling.
    s = PotentialOutcomeScenario(
        pi_support=(0.5,), pi_pmf=(1.0,),
        y_pairs=((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)),
        pair_pmf=(0.5, 0.0, 0.0, 0.5),
        treat=((0.5, 0.5, 0.5, 0.5),),
    )
    for check, condition_id in ((check_cor3, "cor3.b"), (check_cor4, "cor4.b"),
                                (check_thm5_binary, "thm5b.b")):
        report = next(r for r in check(s) if r.condition_id == condition_id)
        assert report.margin == math.inf
        assert '"margin": null' in report.to_json()


@pytest.mark.parametrize("count", [1, 30])  # short and long witness lists
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_report_json_names_the_first_non_finite_witness_value(count, value):
    from zbias import Witness

    finite = [Witness("finite", 0.5, -0.25)] * (count - 1)
    report = ConditionReport("x", False, -1.0, finite + [
        Witness("first", 1.0, value), Witness("later", -math.inf, 0.0)])
    with pytest.raises(InvariantViolation) as info:
        report.to_json()
    assert str(info.value) == f"{value!r} is not finite and has no JSON form"


@pytest.mark.parametrize("count", [1, 30])
def test_report_json_keeps_finite_witnesses_whose_cells_spell_inf_or_nan(count):
    from zbias import Witness

    witnesses = [Witness(f"infimum of nan-free cell {k} \u2264 \u00e9", k / 3, -0.0)
                 for k in range(count)]
    text = ConditionReport("x", False, -1.0, witnesses).to_json()
    assert [(w["cell"], w["lhs"], w["rhs"]) for w in json.loads(text)["witnesses"]] == [
        (w.cell, w.lhs, w.rhs) for w in witnesses]
    assert '\u2264 \u00e9", "lhs": 0, "rhs": -0}' in text  # valid UTF-8 is not escaped


def test_witness_is_a_frozen_dataclass_with_keyword_and_positional_fields():
    # Witness writes its fields itself; it must still act as the dataclass it declares.
    import dataclasses
    import pickle

    from zbias import Witness

    w = Witness("cell", 0.25, rhs=-0.5)
    assert repr(w) == "Witness(cell='cell', lhs=0.25, rhs=-0.5)"
    assert w == Witness(cell="cell", lhs=0.25, rhs=-0.5) != Witness("cell", 0.25, 0.5)
    assert hash(w) == hash(Witness("cell", 0.25, -0.5))
    assert dataclasses.asdict(w) == {"cell": "cell", "lhs": 0.25, "rhs": -0.5}
    assert dataclasses.replace(w, lhs=1.0) == Witness("cell", 1.0, -0.5)
    assert pickle.loads(pickle.dumps(w)) == w
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.lhs = 1.0
    with pytest.raises(TypeError):
        Witness("cell", 0.25)
