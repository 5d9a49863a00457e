"""The shared estimand core against copies of the per-path formulas it replaced.

Before the discrete, potential-outcome, ratio and distributional estimands
shared one moments pass and one standardisation, each path carried its own
sums.  Those sums are kept below, verbatim, as references.  Every slot must
agree in its ``repr`` (so bit for bit, including the sign of zero), every
``thm4`` report must agree byte for byte, and every error must keep its
class, its message and the order in which it is raised.
"""

import ast
import random
from math import fsum
from pathlib import Path

import pytest

from zbias import (
    DceSet,
    DegeneratePopulationError,
    DiscreteScenario,
    EstimateSet,
    InvariantViolation,
    MissingOutcomeLawError,
    PotentialOutcomeScenario,
    UndefinedConditionalError,
    UndefinedStratumError,
    ZeroDenominatorError,
    check_thm4,
    collapse_by_propensity,
    dce,
    estimates,
    po_estimates,
    RrSet,
    reports_to_json,
    rr,
)
from zbias.conditions import _nondecreasing, _report, _selection_by_potential
from zbias.scenario import PROPENSITY_MERGE_TOL

FIELDS = ("true_treated", "true_control", "true_all", "unadj", "adj_treated",
          "adj_control", "adj_all", "treated_fraction", "conditioning")


# ---------------------------------------------------------------------------
# References: potential-outcome estimands and thm4, as first written.


def ref_po_estimates(s):
    def atoms():
        for k in range(s.n_pi):
            kw = s.pi_pmf[k]
            for j, (y1, y0) in enumerate(s.y_pairs):
                yield k, j, y1, y0, kw * s.pair_pmf[j], s.treat[k][j]

    f = fsum(w * t for *_ignored, w, t in atoms())
    if not 0.0 < f < 1.0:
        raise DegeneratePopulationError(
            f"Pr(A=1) = {f!r}: conditional estimands need both arms populated"
        )
    ey_treated = fsum(w * t * y1 for _k, _j, y1, _y0, w, t in atoms()) / f
    ey_control = fsum(w * (1.0 - t) * y0 for _k, _j, _y1, y0, w, t in atoms()) / (1.0 - f)
    y0_given_treated = fsum(w * t * y0 for _k, _j, _y1, y0, w, t in atoms()) / f
    y1_given_control = fsum(w * (1.0 - t) * y1 for _k, _j, y1, _y0, w, t in atoms()) / (1.0 - f)
    y1_mean = fsum(p * y1 for (y1, _y0), p in zip(s.y_pairs, s.pair_pmf))
    y0_mean = fsum(p * y0 for (_y1, y0), p in zip(s.y_pairs, s.pair_pmf))

    nu0 = []
    nu1 = []
    arm1_mass = []
    for k in range(s.n_pi):
        mass1 = fsum(p * t for p, t in zip(s.pair_pmf, s.treat[k]))
        mass0 = fsum(p * (1.0 - t) for p, t in zip(s.pair_pmf, s.treat[k]))
        if s.pi_pmf[k] > 0.0 and (mass1 <= 0.0 or mass0 <= 0.0):
            raise DegeneratePopulationError(
                f"propensity stratum pi={s.pi_support[k]!r} has an empty treatment arm"
            )
        arm1_mass.append(mass1)
        if s.pi_pmf[k] == 0.0 and (mass1 <= 0.0 or mass0 <= 0.0):
            nu1.append(0.0)
            nu0.append(0.0)
            continue
        nu1.append(
            fsum(p * t * y1 for (y1, _y0), p, t in zip(s.y_pairs, s.pair_pmf, s.treat[k]))
            / mass1
        )
        nu0.append(
            fsum(p * (1.0 - t) * y0 for (_y1, y0), p, t in zip(s.y_pairs, s.pair_pmf, s.treat[k]))
            / mass0
        )

    int1_all = fsum(s.pi_pmf[k] * nu1[k] for k in range(s.n_pi))
    int0_all = fsum(s.pi_pmf[k] * nu0[k] for k in range(s.n_pi))
    int0_treated = fsum(s.pi_pmf[k] * arm1_mass[k] * nu0[k] for k in range(s.n_pi)) / f
    int1_control = (
        fsum(s.pi_pmf[k] * (1.0 - arm1_mass[k]) * nu1[k] for k in range(s.n_pi)) / (1.0 - f)
    )
    return (
        ey_treated - y0_given_treated,
        y1_given_control - ey_control,
        y1_mean - y0_mean,
        ey_treated - ey_control,
        ey_treated - int0_treated,
        int1_control - ey_control,
        int1_all - int0_all,
        f,
        "on_propensity",
    )


def ref_nu_by_pi(s, arm):
    levels = []
    values = []
    for k in range(s.n_pi):
        if s.pi_pmf[k] == 0.0:
            continue
        if arm == 1:
            den = fsum(p * t for p, t in zip(s.pair_pmf, s.treat[k]))
            num = fsum(
                p * t * y1 for (y1, _y0), p, t in zip(s.y_pairs, s.pair_pmf, s.treat[k])
            )
        else:
            den = fsum(p * (1.0 - t) for p, t in zip(s.pair_pmf, s.treat[k]))
            num = fsum(
                p * (1.0 - t) * y0
                for (_y1, y0), p, t in zip(s.y_pairs, s.pair_pmf, s.treat[k])
            )
        if den <= 0.0:
            raise UndefinedConditionalError(
                f"E(Y|A={arm}, pi={s.pi_support[k]!r}) undefined: empty arm"
            )
        levels.append(s.pi_support[k])
        values.append(num / den)
    return levels, values


def ref_check_thm4(s):
    checks = []
    for arm in (0, 1):
        levels, probs = _selection_by_potential(s, arm)
        checks.extend(
            _nondecreasing(probs, levels, f"Pr(A=1|Y({arm})): y {{lo}}->{{hi}}")
        )
    a = _report("thm4.a", checks)
    checks = []
    for arm in (0, 1):
        levels, values = ref_nu_by_pi(s, arm)
        weights = [p for p in s.pi_pmf if p > 0.0]
        e_pi = fsum(w * lv for w, lv in zip(weights, levels))
        e_nu = fsum(w * v for w, v in zip(weights, values))
        cov = fsum(w * lv * v for w, lv, v in zip(weights, levels, values)) - e_pi * e_nu
        checks.append((f"cov(pi, E(Y|A={arm},pi))", -cov, 0.0, -cov))
    b = _report("thm4.b", checks)
    return [a, b]


# ---------------------------------------------------------------------------
# References: discrete estimands, ratio scale and distributional effects.


def _ref_cells(s):
    for i in range(s.n_z):
        zw = s.z_pmf[i]
        for j in range(s.n_u):
            yield i, j, zw * s.u_pmf[j]


def ref_moments(s):
    f = fsum(w * s.treat[i][j] for i, j, w in _ref_cells(s))
    if not 0.0 < f < 1.0:
        raise DegeneratePopulationError(
            f"Pr(A=1) = {f!r}: conditional estimands need both arms populated"
        )
    ey_treated = fsum(w * s.treat[i][j] * s.outcome_mean[1][i][j] for i, j, w in _ref_cells(s)) / f
    ey_control = (
        fsum(w * (1.0 - s.treat[i][j]) * s.outcome_mean[0][i][j] for i, j, w in _ref_cells(s))
        / (1.0 - f)
    )
    y0_given_treated = (
        fsum(w * s.treat[i][j] * s.outcome_mean[0][i][j] for i, j, w in _ref_cells(s)) / f
    )
    y1_given_control = (
        fsum(w * (1.0 - s.treat[i][j]) * s.outcome_mean[1][i][j] for i, j, w in _ref_cells(s))
        / (1.0 - f)
    )
    y1_mean = fsum(w * s.outcome_mean[1][i][j] for i, j, w in _ref_cells(s))
    y0_mean = fsum(w * s.outcome_mean[0][i][j] for i, j, w in _ref_cells(s))
    return dict(f=f, ey_treated=ey_treated, ey_control=ey_control, y1_mean=y1_mean,
                y0_mean=y0_mean, y0_given_treated=y0_given_treated,
                y1_given_control=y1_given_control)


def ref_mu_values(s):
    pi = [fsum(s.u_pmf[j] * s.treat[i][j] for j in range(s.n_u)) for i in range(s.n_z)]
    mu0 = [None] * s.n_z
    mu1 = [None] * s.n_z
    for i in range(s.n_z):
        if s.z_pmf[i] == 0.0:
            continue
        if pi[i] <= 0.0:
            raise UndefinedStratumError(
                f"E(Y|A=1, Z={s.z_support[i]!r}) undefined: Pr(A=1|Z=z) = 0"
            )
        if pi[i] >= 1.0:
            raise UndefinedStratumError(
                f"E(Y|A=0, Z={s.z_support[i]!r}) undefined: Pr(A=0|Z=z) = 0"
            )
        mu1[i] = fsum(
            s.u_pmf[j] * s.treat[i][j] * s.outcome_mean[1][i][j] for j in range(s.n_u)
        ) / pi[i]
        mu0[i] = fsum(
            s.u_pmf[j] * (1.0 - s.treat[i][j]) * s.outcome_mean[0][i][j]
            for j in range(s.n_u)
        ) / (1.0 - pi[i])
    return mu0, mu1, pi


def ref_standardised_means(s, m):
    mu0, mu1, pi = ref_mu_values(s)
    used = [i for i in range(s.n_z) if s.z_pmf[i] > 0.0]
    int1_all = fsum(s.z_pmf[i] * mu1[i] for i in used)
    int0_all = fsum(s.z_pmf[i] * mu0[i] for i in used)
    int0_treated = fsum(s.z_pmf[i] * pi[i] * mu0[i] for i in used) / m["f"]
    int1_control = fsum(s.z_pmf[i] * (1.0 - pi[i]) * mu1[i] for i in used) / (1.0 - m["f"])
    return int1_all, int0_all, int0_treated, int1_control


def _ref_require_no_direct_effect(s, allow_direct_effect):
    if not allow_direct_effect and s.outcome_mean_depends_on_z():
        raise InvariantViolation(
            "outcome mean varies with z (direct instrument-to-outcome effect); "
            "pass allow_direct_effect=True to average over the joint law",
            field="mean",
        )


def _ref_check_conditioning(conditioning):
    if conditioning not in ("on_z", "on_propensity"):
        raise InvariantViolation(f"unknown conditioning {conditioning!r}", field="conditioning")


def ref_estimates(s, conditioning, allow_direct_effect=False):
    m = ref_moments(s)
    _ref_require_no_direct_effect(s, allow_direct_effect)
    tt = m["ey_treated"] - m["y0_given_treated"]
    tc = m["y1_given_control"] - m["ey_control"]
    ta = m["y1_mean"] - m["y0_mean"]
    _ref_check_conditioning(conditioning)
    world = s if conditioning == "on_z" else collapse_by_propensity(s, PROPENSITY_MERGE_TOL)
    mw = m if world is s else ref_moments(world)
    int1_all, int0_all, int0_treated, int1_control = ref_standardised_means(world, mw)
    return (tt, tc, ta, m["ey_treated"] - m["ey_control"],
            mw["ey_treated"] - int0_treated, int1_control - mw["ey_control"],
            int1_all - int0_all, m["f"], conditioning)


def ref_rr(s, conditioning):
    for a in (0, 1):
        for i in range(s.n_z):
            for j in range(s.n_u):
                if s.outcome_mean[a][i][j] < 0.0:
                    raise InvariantViolation(
                        "ratio-scale estimands need nonnegative outcome means",
                        field=f"mean[{a}][{i}][{j}]",
                    )
    _ref_check_conditioning(conditioning)
    _ref_require_no_direct_effect(s, allow_direct_effect=False)
    m = ref_moments(s)
    world = s if conditioning == "on_z" else collapse_by_propensity(s, PROPENSITY_MERGE_TOL)
    int1_all, int0_all, int0_treated, int1_control = ref_standardised_means(
        world, m if world is s else ref_moments(world)
    )
    slots = {
        "true_treated": (m["ey_treated"], m["y0_given_treated"]),
        "true_control": (m["y1_given_control"], m["ey_control"]),
        "true_all": (m["y1_mean"], m["y0_mean"]),
        "unadj": (m["ey_treated"], m["ey_control"]),
        "adj_treated": (m["ey_treated"], int0_treated),
        "adj_control": (int1_control, m["ey_control"]),
        "adj_all": (int1_all, int0_all),
    }
    values = []
    for name, (num, den) in slots.items():
        if den <= 0.0:
            raise ZeroDenominatorError(f"{name}: denominator {den!r} is not positive")
        values.append(num / den)
    return (*values, m["f"], conditioning)


def ref_dce(s, threshold, conditioning):
    if s.outcome_law is None:
        raise MissingOutcomeLawError(
            "distributional effects need law[a][j] entries for every (a, u)"
        )
    tail = [
        [fsum(p for v, p in s.outcome_law[a][j] if v > threshold) for j in range(s.n_u)]
        for a in (0, 1)
    ]
    dichotomized = DiscreteScenario(
        z_support=s.z_support,
        z_pmf=s.z_pmf,
        u_support=s.u_support,
        u_pmf=s.u_pmf,
        treat=s.treat,
        outcome_mean=tuple(tuple(tuple(tail[a]) for _ in range(s.n_z)) for a in (0, 1)),
        outcome_law=None,
        binary_outcome=True,
    )
    return (*ref_estimates(dichotomized, conditioning), float(threshold))


# ---------------------------------------------------------------------------
# Generated worlds


def _outcome(fn, *args):
    """A call's result as comparable text: the repr of every value, or the
    error class and message."""
    try:
        value = fn(*args)
    except (ArithmeticError, LookupError, ValueError, AssertionError):
        raise
    except Exception as exc:  # noqa: BLE001 - the package's own errors
        return ("error", type(exc).__name__, str(exc))
    if isinstance(value, tuple):
        return ("ok",) + tuple(map(repr, value))
    if isinstance(value, list):
        return ("ok", reports_to_json(value))
    names = FIELDS + (("threshold",) if hasattr(value, "threshold") else ())
    return ("ok",) + tuple(repr(getattr(value, k)) for k in names)


def _pmf(r, n, zero_share):
    while True:
        raw = [0.0 if r.random() < zero_share else r.uniform(0.05, 1.0) for _ in range(n)]
        total = fsum(raw)
        if total > 0.0:
            return [x / total for x in raw]


def _prob(r):
    roll = r.random()
    if roll < 0.08:
        return 0.0
    if roll < 0.16:
        return 1.0
    return r.random()


def _po_world(r):
    n_pairs = r.randint(1, 5)
    pool = [r.uniform(-3.0, 3.0) for _ in range(3)] + [0.0, 1.0, -1.0, 0.5]
    pairs = set()
    while len(pairs) < n_pairs:
        pairs.add((r.choice(pool), r.choice(pool)))
    pairs = sorted(pairs)
    pair_pmf = _pmf(r, n_pairs, 0.15)
    rows = {}
    for _ in range(r.randint(1, 4)):
        row = tuple(_prob(r) for _ in pairs)
        rows.setdefault(fsum(t * p for t, p in zip(row, pair_pmf)), row)
    support = sorted(rows)
    return PotentialOutcomeScenario(
        pi_support=tuple(support),
        pi_pmf=tuple(_pmf(r, len(support), 0.25)),
        y_pairs=tuple(pairs),
        pair_pmf=tuple(pair_pmf),
        treat=tuple(rows[pi] for pi in support),
    )


def _discrete_world(r, direct=False):
    n_z, n_u = r.randint(1, 5), r.randint(1, 4)
    treat = []
    for i in range(n_z):
        if i and r.random() < 0.3:
            treat.append(treat[r.randrange(i)])
        else:
            treat.append(tuple(_prob(r) if r.random() < 0.3 else r.random() for _ in range(n_u)))
    values = (-1.0, 0.0, 0.5, 1.0, 2.5)
    laws, means = [], []
    for _a in (0, 1):
        arm_law, arm_mean = [], []
        for _j in range(n_u):
            support = sorted(r.sample(values, r.randint(1, 3)))
            probs = _pmf(r, len(support), 0.0)
            arm_law.append(tuple(zip(support, probs)))
            arm_mean.append(fsum(v * p for v, p in zip(support, probs)))
        laws.append(tuple(arm_law))
        means.append(arm_mean)
    mean_table = tuple(
        tuple(
            tuple(m + (r.uniform(-0.3, 0.3) if direct else 0.0) for m in means[a])
            for _ in range(n_z)
        )
        for a in (0, 1)
    )
    return DiscreteScenario(
        z_support=tuple(float(i) for i in range(n_z)),
        z_pmf=tuple(_pmf(r, n_z, 0.2)),
        u_support=tuple(float(j) for j in range(n_u)),
        u_pmf=tuple(_pmf(r, n_u, 0.1)),
        treat=tuple(treat),
        outcome_mean=mean_table,
        outcome_law=None if direct else tuple(laws),
    )


# Fixed cases for each error the potential-outcome paths raise, in the
# order they are raised.
PO_ERROR_WORLDS = {
    # Pr(A=1) = 0 overall.
    "degenerate_population": PotentialOutcomeScenario(
        pi_support=(0.0,), pi_pmf=(1.0,), y_pairs=((0.0, 0.0), (1.0, 1.0)),
        pair_pmf=(0.5, 0.5), treat=((0.0, 0.0),),
    ),
    # Interior f, but the pi=1 stratum has no controls.
    "empty_control_arm": PotentialOutcomeScenario(
        pi_support=(0.5, 1.0), pi_pmf=(0.5, 0.5), y_pairs=((0.0, 0.0), (1.0, 1.0)),
        pair_pmf=(0.5, 0.5), treat=((0.5, 0.5), (1.0, 1.0)),
    ),
    # The pi=0 stratum has no treated units and the pi=1 stratum no
    # controls: the estimands name the first level, thm4 names arm 0 first.
    "both_arms_empty": PotentialOutcomeScenario(
        pi_support=(0.0, 0.5, 1.0), pi_pmf=(0.25, 0.5, 0.25),
        y_pairs=((-1.5, 0.25), (2.0, -0.75)), pair_pmf=(0.5, 0.5),
        treat=((0.0, 0.0), (0.25, 0.75), (1.0, 1.0)),
    ),
    # Empty arms only at zero-mass levels: no error.
    "zero_mass_empty_arms": PotentialOutcomeScenario(
        pi_support=(0.0, 0.5, 1.0), pi_pmf=(0.0, 1.0, 0.0),
        y_pairs=((-1.5, 0.25), (2.0, -0.75)), pair_pmf=(0.5, 0.5),
        treat=((0.0, 0.0), (0.25, 0.75), (1.0, 1.0)),
    ),
}


@pytest.mark.parametrize("name", sorted(PO_ERROR_WORLDS))
def test_po_error_cases_keep_class_and_message(name):
    s = PO_ERROR_WORLDS[name]
    assert _outcome(po_estimates, s) == _outcome(ref_po_estimates, s)
    assert _outcome(check_thm4, s) == _outcome(ref_check_thm4, s)


def test_po_error_cases_raise_what_they_name():
    outcomes = {name: (_outcome(po_estimates, s), _outcome(check_thm4, s))
                for name, s in PO_ERROR_WORLDS.items()}
    assert outcomes["degenerate_population"][0][:2] == ("error", "DegeneratePopulationError")
    assert outcomes["empty_control_arm"][0] == (
        "error", "DegeneratePopulationError",
        "propensity stratum pi=1.0 has an empty treatment arm",
    )
    assert outcomes["both_arms_empty"] == (
        ("error", "DegeneratePopulationError",
         "propensity stratum pi=0.0 has an empty treatment arm"),
        ("error", "UndefinedConditionalError", "E(Y|A=0, pi=1.0) undefined: empty arm"),
    )
    assert outcomes["zero_mass_empty_arms"][0][0] == "ok"


def test_po_slots_and_thm4_match_reference_bit_for_bit():
    r = random.Random(20170605)
    seen = set()
    for _ in range(1500):
        s = _po_world(r)
        new, ref = _outcome(po_estimates, s), _outcome(ref_po_estimates, s)
        assert new == ref, s
        assert _outcome(check_thm4, s) == _outcome(ref_check_thm4, s), s
        seen.add(new[:2] if new[0] == "error" else "ok")
        seen.add(("zero-mass level", 0.0 in s.pi_pmf))
    # The generator reaches every branch: both errors, success, zero-mass levels.
    assert {"ok", ("zero-mass level", True),
            ("error", "DegeneratePopulationError")} <= seen


@pytest.mark.parametrize("conditioning", ["on_z", "on_propensity"])
def test_discrete_estimates_rr_dce_match_reference_bit_for_bit(conditioning):
    r = random.Random(f"discrete:{conditioning}")
    kinds = set()
    for n in range(400):
        s = _discrete_world(r)
        for fn, ref, args in (
            (estimates, ref_estimates, (conditioning,)),
            (rr, ref_rr, (conditioning,)),
            (dce, ref_dce, (r.choice((-2.0, 0.0, 0.25, 0.75, 1.0, 3.0)), conditioning)),
        ):
            new = _outcome(fn, s, *args)
            assert new == _outcome(ref, s, *args), (fn.__name__, s)
            kinds.add((fn.__name__, new[1] if new[0] == "error" else "ok"))
        if n % 4 == 0:
            d = _discrete_world(r, direct=True)
            args = (d, conditioning, True)
            assert _outcome(estimates, *args) == _outcome(ref_estimates, *args), d
    for name in ("estimates", "rr", "dce"):
        assert (name, "ok") in kinds
    assert ("estimates", "UndefinedStratumError") in kinds
    assert ("rr", "InvariantViolation") in kinds


def test_worlds_with_large_outcomes_keep_their_bits():
    # Slots near the overflow threshold are still finite and unchanged.
    s = PotentialOutcomeScenario(
        pi_support=(0.3, 0.7), pi_pmf=(0.5, 0.5),
        y_pairs=((8e307, -8e307), (-8e307, 8e307)), pair_pmf=(0.5, 0.5),
        treat=((0.2, 0.4), (0.6, 0.8)),
    )
    assert _outcome(po_estimates, s) == _outcome(ref_po_estimates, s)
    assert _outcome(po_estimates, s)[0] == "ok"


# ---------------------------------------------------------------------------
# The oracle stays independent of the code it checks.


def test_oracles_import_neither_the_package_nor_numpy():
    path = Path(__file__).with_name("oracles.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0] if node.level == 0 else ".")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "__import__":
            imported.add("__import__")
    assert not imported & {"zbias", "numpy", ".", "__import__", "importlib"}, imported


# ---------------------------------------------------------------------------
# One result type: finiteness and the whole-population invariants.


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("cls", [EstimateSet, RrSet])
@pytest.mark.parametrize("position, field", [(0, "true_treated"), (6, "adj_all"), (7, "f")])
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_result_rejects_non_finite_numbers(cls, position, field, value):
    numbers = [0.25] * 7 + [0.5]
    numbers[position] = value
    with pytest.raises(InvariantViolation, match=f"^{field}: "):
        cls(*numbers, "on_z")


def test_dce_set_is_an_estimate_set_with_a_finite_threshold():
    d = DceSet(*[0.25] * 7, 0.5, "on_z", 0.75)
    assert isinstance(d, EstimateSet)
    assert d.to_json().endswith('"f": 0.5, "conditioning": "on_z", "threshold": 0.75}')
    with pytest.raises(InvariantViolation, match="^threshold: "):
        DceSet(*[0.25] * 7, 0.5, "on_z", NAN)
