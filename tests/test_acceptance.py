"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Criteria on real-data reanalyses are out of scope by design (no data ships
with this package), so nothing here references them.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from conftest import binary_from_params, worked_case
from oracles import binary_brute_force
from zbias import (
    DiscreteScenario,
    McConfig,
    PotentialOutcomeScenario,
    adjusted_ace,
    adjusted_minus_unadjusted_via_covariance,
    check_cor1,
    check_cor2,
    check_cor3,
    check_lemma_s5,
    check_lemma_s7,
    check_thm1,
    check_thm4,
    check_weaker_condition,
    dce,
    estimates,
    po_estimates,
    rr,
    serialize_scenario,
    to_discrete,
    unadjusted_ace,
    zbias_verdict,
)
from zbias.cli import main as cli_main
from zbias.montecarlo import _chunk_draws, _params_matrix

SLOTS = ("true_treated", "true_control", "true_all", "unadj",
         "adj_treated", "adj_control", "adj_all")


def verdict_line(criterion, passed):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


def signed_ordering_ok(e, slack=1e-12):
    return all(
        adj - e.unadj >= -slack and e.unadj - true >= -slack
        for adj, true in (
            (e.adj_treated, e.true_treated),
            (e.adj_control, e.true_control),
            (e.adj_all, e.true_all),
        )
    )


def test_criterion_1_worked_case_rows(tmp_path):
    expected = {
        "case1": ["0.0550", "0.0574", "0.0584", "YES"],
        "case2": ["0.0050", "0.0076", "0.0077", "YES"],
        "case3": ["0.0150", "0.0173", "0.0172", "NO"],
    }
    start = time.perf_counter()
    ok = True
    for name, row in expected.items():
        path = tmp_path / f"{name}.scn"
        path.write_text(serialize_scenario(worked_case(name)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli_main(["eval", str(path), "--conditioning", "on_z", "--table"])
        ok = ok and status == 0 and out.getvalue().splitlines()[-1].split() == row
    elapsed = time.perf_counter() - start
    verdict_line("01 worked-case golden rows (4 dp, half-even)", ok and elapsed < 1.0)


def test_criterion_2_volume_of_amplification_region():
    import json

    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(["mc", "--draws", "1000000", "--seed", "42"])
    elapsed = time.perf_counter() - start
    res = json.loads(out.getvalue())
    ok = (
        status == 0
        and 0.6755 <= res["volume"] <= 0.6855
        and abs(res["stderr"] - 0.00047) <= 0.0001
        and elapsed < 30.0
    )
    print(f"  volume={res['volume']:.6f} stderr={res['stderr']:.6f} elapsed={elapsed:.1f}s")
    verdict_line("02 Monte Carlo volume (10^6 draws)", ok)


def test_criterion_3_covariance_identity_sweep():
    rows = _params_matrix(987654321, 0, 10_000)
    worst = 0.0
    for row in rows:
        s = to_discrete(binary_from_params(*row))
        via_cov = adjusted_minus_unadjusted_via_covariance(s)
        at, ac, aa = adjusted_ace(s)
        un = unadjusted_ace(s)
        for lhs, rhs in zip(via_cov, (at - un, ac - un, aa - un)):
            worst = max(worst, abs(lhs - rhs))
    print(f"  worst gap={worst:.3e}")
    verdict_line("03 covariance-route identity on 10,000 draws", worst <= 1e-12)


def _thm1_candidates(rng):
    """Random scenario families biased toward the monotone region."""
    while True:
        n_z = int(rng.integers(2, 4))
        n_u = int(rng.integers(2, 4))
        kind = rng.integers(0, 3)
        if kind == 0:
            z_eff = np.sort(rng.uniform(0.02, 0.5, size=n_z))
            u_eff = np.sort(rng.uniform(0.0, 0.48, size=n_u))
            treat = z_eff[:, None] + u_eff[None, :]
        elif kind == 1:
            z_eff = np.sort(rng.uniform(0.05, 0.95, size=n_z))
            u_eff = np.sort(rng.uniform(0.05, 0.95, size=n_u))
            treat = z_eff[:, None] * u_eff[None, :]
        else:
            treat = rng.uniform(0.02, 0.98, size=(n_z, n_u))
            treat = np.sort(np.sort(treat, axis=0), axis=1)
        means = np.sort(rng.uniform(0.0, 1.0, size=(2, n_u)), axis=1)
        z_pmf = rng.dirichlet(np.ones(n_z))
        u_pmf = rng.dirichlet(np.ones(n_u))
        yield DiscreteScenario(
            z_support=tuple(range(n_z)),
            z_pmf=tuple(z_pmf),
            u_support=tuple(range(n_u)),
            u_pmf=tuple(u_pmf),
            treat=tuple(tuple(r) for r in treat),
            outcome_mean=tuple(
                tuple(tuple(means[a]) for _ in range(n_z)) for a in (0, 1)
            ),
        )


def test_criterion_4_monotone_condition_soundness_sweep():
    rng = np.random.default_rng(24601)
    passed = 0
    violations = 0
    candidates = _thm1_candidates(rng)
    while passed < 10_000:
        s = next(candidates)
        if not all(r.holds for r in check_thm1(s)):
            continue
        passed += 1
        if not signed_ordering_ok(estimates(s)):
            violations += 1
    print(f"  scenarios passing every sub-check: {passed}, ordering violations: {violations}")
    verdict_line("04 monotone-condition soundness on 10,000 scenarios", violations == 0)


def test_criterion_5_interaction_free_sweeps():
    violations = 0
    lemma_failures = 0
    for seed, flavor in ((1111, "cor1"), (2222, "cor2")):
        rows = _chunk_draws(
            McConfig(draws=10_000, seed=seed, filter=(flavor,)), 0, 10_000
        )[0]
        for row in rows:
            s = binary_from_params(*row)
            checks = check_cor1(s) if flavor == "cor1" else check_cor2(s)
            if not all(r.holds for r in checks):
                lemma_failures += 1
                continue
            p11, p10, p01, p00 = row[2], row[3], row[4], row[5]
            lemma = (
                check_lemma_s5(p11, p10, p01, p00)
                if flavor == "cor1"
                else check_lemma_s7(p11, p10, p01, p00)
            )
            if not lemma.holds:
                lemma_failures += 1
            if not signed_ordering_ok(estimates(s)):
                violations += 1
    print(f"  ordering violations: {violations}, lemma failures: {lemma_failures}")
    verdict_line(
        "05 interaction-free sweeps (10,000 additive + 10,000 multiplicative)",
        violations == 0 and lemma_failures == 0,
    )


def _random_selection_scenario(rng):
    pairs = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    while True:
        joint = rng.dirichlet(np.ones(4))
        odds = (joint[3] * joint[0]) / (joint[2] * joint[1])
        if odds < 1.0:
            continue
        n_pi = int(rng.integers(2, 4))
        levels = np.sort(rng.uniform(0.2, 0.8, size=n_pi))
        if np.min(np.diff(levels)) < 0.01:
            continue
        delta, eta, theta = rng.uniform(0.0, 0.05, size=3)
        ey1 = joint[2] + joint[3]
        ey0 = joint[1] + joint[3]
        alpha = -(delta * ey1 + eta * ey0 + theta * joint[3])
        treat = tuple(
            tuple(pi + alpha + delta * y1 + eta * y0 + theta * y1 * y0
                  for y1, y0 in pairs)
            for pi in levels
        )
        return PotentialOutcomeScenario(
            pi_support=tuple(levels),
            pi_pmf=tuple(rng.dirichlet(np.ones(n_pi))),
            y_pairs=pairs,
            pair_pmf=tuple(joint),
            treat=treat,
        )


def test_criterion_6_selection_model_sweep():
    rng = np.random.default_rng(606)
    violations = 0
    rejected_by_checks = 0
    kept = 0
    while kept < 2_000:
        s = _random_selection_scenario(rng)
        checks = check_thm4(s) + check_cor3(s)
        if not all(r.holds for r in checks):
            rejected_by_checks += 1
            continue
        kept += 1
        if not signed_ordering_ok(po_estimates(s)):
            violations += 1
    print(f"  ordering violations: {violations}, rejected by checks: {rejected_by_checks}")
    verdict_line("06 selection-model sweep (2,000 scenarios)", violations == 0)


def test_criterion_7_oracle_equivalence():
    rows = _params_matrix(13579, 0, 1_000)
    worst = 0.0
    for row in rows:
        s = binary_from_params(*row)
        expected = binary_brute_force(s)
        e = estimates(s)
        for slot in SLOTS:
            worst = max(worst, abs(getattr(e, slot) - expected[slot]))
    print(f"  worst slot gap={worst:.3e}")
    verdict_line("07 brute-force oracle equivalence on 1,000 draws", worst <= 1e-12)


def test_criterion_8_reductions():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(1_000):
        pz, pu, t1, t0, m1, m0 = rng.uniform(0.02, 0.98, size=6)
        e = estimates(binary_from_params(pz, pu, t1, t1, t0, t0, m1, m1, m0, m0))
        ok = ok and all(
            math.isclose(getattr(e, slot), e.true_all, abs_tol=1e-12) for slot in SLOTS
        )
    for _ in range(1_000):
        pz, pu, tu1, tu0 = rng.uniform(0.02, 0.98, size=4)
        r_vals = rng.uniform(size=4)
        e = estimates(binary_from_params(pz, pu, tu1, tu0, tu1, tu0, *r_vals))
        ok = ok and all(
            math.isclose(getattr(e, slot), e.unadj, abs_tol=1e-12)
            for slot in ("adj_treated", "adj_control", "adj_all")
        )
    rows = _params_matrix(80808, 0, 1_000)
    for row in rows:
        s = to_discrete(binary_from_params(*row))
        d = dce(s, 0.5)
        e = estimates(s)
        ok = ok and all(
            math.isclose(getattr(d, slot), getattr(e, slot), abs_tol=1e-12)
            for slot in SLOTS
        )
    for _ in range(1_000):
        pz, pu, p11_, p10_, p01_, p00_, m1, m0 = rng.uniform(0.02, 0.98, size=8)
        null = rr(to_discrete(binary_from_params(pz, pu, p11_, p10_, p01_, p00_,
                                                 m1, m0, m1, m0)))
        ok = ok and all(
            math.isclose(getattr(null, slot), 1.0, abs_tol=1e-12)
            for slot in ("true_treated", "true_control", "true_all")
        )
        flat = rr(to_discrete(binary_from_params(pz, pu, p11_, p10_, p01_, p00_,
                                                 m1, m1, m1, m1)))
        ok = ok and all(
            math.isclose(getattr(flat, slot), 1.0, abs_tol=1e-12) for slot in SLOTS
        )
    verdict_line("08 reduction identities (1,000 draws each)", ok)


def test_criterion_9_sufficiency_is_not_necessity():
    s = worked_case("case2")
    thm1 = {r.condition_id: r for r in check_thm1(to_discrete(s))}
    weaker = check_weaker_condition(s)
    verdict = zbias_verdict(estimates(s))
    ok = (not thm1["thm1.b"].holds) and (not weaker.holds) and verdict.label == "YES"
    verdict_line("09 amplification without any sufficient condition", ok)
