"""Exact computation of causal estimands from a scenario.

Seven quantities are computed for every world, on the difference scale:

  true_treated   E{Y(1) - Y(0) | A=1}
  true_control   E{Y(1) - Y(0) | A=0}
  true_all       E{Y(1)} - E{Y(0)}
  unadj          E(Y | A=1) - E(Y | A=0)
  adj_treated    E(Y|A=1) - sum_z E(Y|A=0,z) Pr(z|A=1)
  adj_control    sum_z E(Y|A=1,z) Pr(z|A=0) - E(Y|A=0)
  adj_all        sum_z [E(Y|A=1,z) - E(Y|A=0,z)] Pr(z)

Adjustment can condition on the instrument itself (``on_z``) or on its
propensity (``on_propensity``, which first merges levels with equal
propensity).  Everything is an exact finite sum, accumulated with
compensated summation over (z outer, u inner); nothing is sampled here.

One core serves every world: one pass over cells (mass, Pr(A=1), y1, y0)
gives the moments, and one standardisation over strata (level, mass, pi,
mu0, mu1) gives the adjusted means.  Discrete worlds have a cell per (z, u)
and a stratum per z; potential-outcome worlds a cell per (pi, pair) and a
stratum per pi.  Slots are differences, or ratios, of moment pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring, encode_basestring_ascii
from math import fsum, isfinite
from operator import mul, sub
from typing import Literal

from .errors import (
    DegeneratePopulationError,
    InvariantViolation,
    MissingOutcomeLawError,
    UndefinedStratumError,
    ZeroDenominatorError,
)
from .scenario import (
    IDENTITY_TOL,
    BinaryScenario,
    CovariateFamily,
    DiscreteScenario,
    PotentialOutcomeScenario,
    _propensity_values,
    _total,
    _treated_fraction,
    _valid,
    collapse_by_propensity,
    to_discrete,
)

Conditioning = Literal["on_z", "on_propensity"]

_JSON_KEYS = (
    "true_treated",
    "true_control",
    "true_all",
    "unadj",
    "adj_treated",
    "adj_control",
    "adj_all",
)
# Result fields written under another name.
_JSON_NAMES = {"treated_fraction": "f"}
# JSON numbers: 17 significant digits round-trip a double.
_NUMBER = "%.17g"


def _json_num(value: float) -> str:
    # Strict JSON has no spelling for infinities or NaN.
    if not isfinite(value):
        raise InvariantViolation(f"{value!r} is not finite and has no JSON form")
    return _NUMBER % value


def _json_str(text: str) -> str:
    if text.isascii():
        return encode_basestring(text)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        # A path byte that is not UTF-8 arrives as a lone surrogate; only
        # the ASCII escape keeps stdout valid UTF-8 JSON.
        return encode_basestring_ascii(text)
    return encode_basestring(text)


def _check_convex(total: float, f: float, treated: float, control: float, name: str) -> None:
    # The absolute tolerance is meant for outcome scales around unity; allow
    # it to grow with the magnitude of the slots so large-valued outcomes do
    # not trip the identity spuriously.
    scale = max(1.0, abs(total), abs(treated), abs(control))
    if abs(total - (f * treated + (1.0 - f) * control)) > IDENTITY_TOL * scale:
        raise InvariantViolation(
            f"convex-combination identity violated for {name}", field=name
        )


@dataclass(frozen=True)
class EstimateSet:
    """The seven difference-scale estimands plus context.

    ``treated_fraction`` is Pr(A=1); whole-population slots are its convex
    combinations of the treated/control slots.  Both, and finiteness of
    every number, are checked at construction.
    """

    true_treated: float
    true_control: float
    true_all: float
    unadj: float
    adj_treated: float
    adj_control: float
    adj_all: float
    treated_fraction: float
    conditioning: str

    def __post_init__(self):
        for key, value in vars(self).items():
            if key != "conditioning" and not isfinite(value):
                raise InvariantViolation(
                    f"{value!r} is not finite", field=_JSON_NAMES.get(key, key)
                )
        self._check_totals()

    def _check_totals(self) -> None:
        _check_convex(self.true_all, self.treated_fraction, self.true_treated,
                      self.true_control, "true_all")
        _check_convex(self.adj_all, self.treated_fraction, self.adj_treated,
                      self.adj_control, "adj_all")

    def to_json(self) -> str:
        # One key per field, in declaration order.
        parts = [
            f'"{key}": {_json_str(value)}' if key == "conditioning"
            else f'"{_JSON_NAMES.get(key, key)}": {_json_num(value)}'
            for key, value in vars(self).items()
        ]
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class DceSet(EstimateSet):
    """Distributional effects: the estimands of the indicator I(Y > threshold)."""

    threshold: float


@dataclass(frozen=True)
class RrSet(EstimateSet):
    """Ratio-scale estimands; whole-population slots are mediants of the
    treated/control slots, so they lie between them (checked here)."""

    def _check_totals(self) -> None:
        for total, lo, hi, name in (
            (self.true_all, *sorted((self.true_treated, self.true_control)), "true_all"),
            (self.adj_all, *sorted((self.adj_treated, self.adj_control)), "adj_all"),
        ):
            scale = max(1.0, abs(lo), abs(hi))
            if not (lo - IDENTITY_TOL * scale <= total <= hi + IDENTITY_TOL * scale):
                raise InvariantViolation(
                    f"whole-population ratio must lie between the treated and "
                    f"control ratios", field=name,
                )


@dataclass(frozen=True)
class _Moments:
    f: float
    ey_treated: float          # E(Y | A=1)
    ey_control: float          # E(Y | A=0)
    y1_mean: float             # E{Y(1)}
    y0_mean: float             # E{Y(0)}
    y0_given_treated: float    # E{Y(0) | A=1}
    y1_given_control: float    # E{Y(1) | A=0}


def _cell_moments(cells, marginal) -> _Moments:
    """The seven moments of a world given as cells (w, t, y1, y0): the
    cell's mass, Pr(A=1) in it and its mean potential outcomes.  E{Y(1)} and
    E{Y(0)} are summed over ``marginal``, atoms (p, y1, y0) of the law of
    the potential outcomes alone."""
    f = fsum(w * t for w, t, _y1, _y0 in cells)
    if not 0.0 < f < 1.0:
        raise DegeneratePopulationError(
            f"Pr(A=1) = {f!r}: conditional estimands need both arms populated"
        )
    return _Moments(
        f,
        _total([w * t * y1 for w, t, y1, _y0 in cells]) / f,
        _total([w * (1.0 - t) * y0 for w, t, _y1, y0 in cells]) / (1.0 - f),
        _total([p * y1 for p, y1, _y0 in marginal]),
        _total([p * y0 for p, _y1, y0 in marginal]),
        _total([w * t * y0 for w, t, _y1, y0 in cells]) / f,
        _total([w * (1.0 - t) * y1 for w, t, y1, _y0 in cells]) / (1.0 - f),
    )


def _moments(s: DiscreteScenario) -> _Moments:
    """Moments of a discrete world: one cell per (z, u), z outer."""
    cells = [
        (zw * uw, t, y1, y0)
        for zw, t_row, y1_row, y0_row in zip(
            s.z_pmf, s.treat, s.outcome_mean[1], s.outcome_mean[0]
        )
        for uw, t, y1, y0 in zip(s.u_pmf, t_row, y1_row, y0_row)
    ]
    return _cell_moments(cells, [(w, y1, y0) for w, _t, y1, y0 in cells])


def _mu_values(s: DiscreteScenario):
    """Strata (z, weight, pi, mu0, mu1) of the positive-mass instrument
    levels, in support order: Pr(Z=z), the propensity and the conditional
    outcome means mu_a(z).  Raises UndefinedStratumError when a positive-mass
    level has an empty treatment arm.
    """
    pi = _propensity_values(s)
    strata = []
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
        row = s.treat[i]
        mu1 = _total([*map(mul, map(mul, s.u_pmf, row), s.outcome_mean[1][i])]) / pi[i]
        untreated = map(mul, s.u_pmf, map(sub, repeat(1.0), row))
        mu0 = _total([*map(mul, untreated, s.outcome_mean[0][i])]) / (1.0 - pi[i])
        strata.append((s.z_support[i], s.z_pmf[i], pi[i], mu0, mu1))
    return strata


def _po_strata(s: PotentialOutcomeScenario):
    """Strata (pi, weight, arm-1 mass, nu0, nu1) of the positive-mass
    propensity levels, in support order: nu_a(pi) = E(Y | A=a, pi) divides by
    the arm's own mass, and is None when that arm is empty."""
    strata = []
    for k in range(s.n_pi):
        if s.pi_pmf[k] == 0.0:
            continue
        row = tuple(zip(s.pair_pmf, s.treat[k], s.y_pairs))
        mass1 = _treated_fraction(s.pair_pmf, s.treat[k])
        mass0 = fsum(p * (1.0 - t) for p, t, _y in row)
        nu1 = _total([p * t * y1 for p, t, (y1, _) in row]) / mass1 if mass1 > 0.0 else None
        nu0 = _total([p * (1 - t) * y0 for p, t, (_, y0) in row]) / mass0 if mass0 > 0.0 else None
        strata.append((s.pi_support[k], s.pi_pmf[k], mass1, nu0, nu1))
    return strata


def _standardise(strata, f: float) -> tuple[float, float, float, float]:
    """(int1_all, int0_all, int0_treated, int1_control): the stratum outcome
    means standardised over the law of the strata, of the strata given A=1
    and of the strata given A=0.  ``f`` is Pr(A=1)."""
    return (
        _total([w * mu1 for _lv, w, _pi, _mu0, mu1 in strata]),
        _total([w * mu0 for _lv, w, _pi, mu0, _mu1 in strata]),
        _total([w * pi * mu0 for _lv, w, pi, mu0, _mu1 in strata]) / f,
        _total([w * (1.0 - pi) * mu1 for _lv, w, pi, _mu0, mu1 in strata]) / (1.0 - f),
    )


def _true_pairs(m: _Moments):
    """The true slots as (minuend, subtrahend) pairs: a difference on the
    difference scale, numerator and denominator on the ratio scale."""
    return (
        (m.ey_treated, m.y0_given_treated),
        (m.y1_given_control, m.ey_control),
        (m.y1_mean, m.y0_mean),
    )


def _adjusted_pairs(m: _Moments, means):
    """The adjusted slots as pairs; ``means`` is a _standardise result."""
    int1_all, int0_all, int0_treated, int1_control = means
    return (
        (m.ey_treated, int0_treated),
        (int1_control, m.ey_control),
        (int1_all, int0_all),
    )


def _slot_pairs(m: _Moments, m_adj: _Moments, means) -> tuple:
    """All seven slots as pairs, in _JSON_KEYS order; the adjusted slots
    take their observed arm means from ``m_adj``."""
    return (*_true_pairs(m), (m.ey_treated, m.ey_control), *_adjusted_pairs(m_adj, means))


def _differences(pairs) -> tuple:
    return tuple(a - b for a, b in pairs)


def _require_no_direct_effect(s: DiscreteScenario, allow_direct_effect: bool) -> None:
    if not allow_direct_effect and s.outcome_mean_depends_on_z():
        raise InvariantViolation(
            "outcome mean varies with z (direct instrument-to-outcome effect); "
            "pass allow_direct_effect=True to average over the joint law",
            field="mean",
        )


def _check_conditioning(conditioning: str) -> None:
    if conditioning not in ("on_z", "on_propensity"):
        raise InvariantViolation(f"unknown conditioning {conditioning!r}", field="conditioning")


def _adjustment(s: DiscreteScenario, m: _Moments, conditioning: str):
    """Moments and standardised means of the world adjustment conditions on:
    ``s`` itself or its propensity collapse.  ``m`` holds the moments of ``s``."""
    world = s if conditioning == "on_z" else collapse_by_propensity(s)
    m_world = m if world is s else _moments(world)
    return m_world, _standardise(_mu_values(world), m_world.f)


def true_ace(
    s: DiscreteScenario, allow_direct_effect: bool = False
) -> tuple[float, float, float]:
    """(treated, control, whole-population) true average causal effects.

    By default the outcome table must be constant in z; with
    ``allow_direct_effect`` the outcome means are averaged over the joint
    law of (Z, U) given the relevant arm instead.
    """
    _require_no_direct_effect(s, allow_direct_effect)
    return _differences(_true_pairs(_moments(s)))


def unadjusted_ace(s: DiscreteScenario) -> float:
    """Naive treated-minus-control mean difference, by full enumeration."""
    m = _moments(s)
    return m.ey_treated - m.ey_control


def adjusted_ace(
    s: DiscreteScenario, conditioning: Conditioning = "on_z"
) -> tuple[float, float, float]:
    """(treated, control, whole-population) adjusted estimators.

    ``on_propensity`` first collapses instrument levels whose propensities
    agree within ``PROPENSITY_MERGE_TOL`` and then standardises over the
    collapsed levels.
    """
    _check_conditioning(conditioning)
    return _differences(_adjusted_pairs(*_adjustment(s, _moments(s), conditioning)))


def _pi_covariance(levels) -> float:
    """cov{pi, v} over levels (w, pi, v) of a law with masses w:
    E[pi v] - E[pi] E[v]."""
    e_pi = fsum(w * pi for w, pi, _v in levels)
    e_v = _total([w * v for w, _pi, v in levels])
    return _total([w * pi * v for w, pi, v in levels]) - e_pi * e_v


def adjusted_minus_unadjusted_via_covariance(
    s: DiscreteScenario,
) -> tuple[float, float, float]:
    """Adjusted-minus-unadjusted gaps via the propensity covariance identity.

    The treated gap is -cov{pi(Z), mu_0(Z)} / (f(1-f)), the control gap is
    -cov{pi(Z), mu_1(Z)} / (f(1-f)), and the whole-population gap is
    -cov{pi, mu_0}/(1-f) - cov{pi, mu_1}/f, with covariances under the
    marginal law of Z.  Independent route; must agree with the direct
    difference of the estimators.
    """
    m = _moments(s)
    strata = _mu_values(s)
    cov0, cov1 = (_pi_covariance([(w, pi, mu[a]) for _z, w, pi, *mu in strata]) for a in (0, 1))
    denom = m.f * (1.0 - m.f)
    return (
        -cov0 / denom,
        -cov1 / denom,
        -cov0 / (1.0 - m.f) - cov1 / m.f,
    )


def estimates(
    scenario: BinaryScenario | DiscreteScenario,
    conditioning: Conditioning = "on_z",
    allow_direct_effect: bool = False,
) -> EstimateSet:
    """All seven estimands of a (binary or discrete) scenario."""
    s = to_discrete(scenario) if isinstance(scenario, BinaryScenario) else scenario
    # Checks run in the order true_ace and adjusted_ace would raise them:
    # empty arm, direct effect, conditioning.
    m = _moments(s)
    _require_no_direct_effect(s, allow_direct_effect)
    _check_conditioning(conditioning)
    m_world, means = _adjustment(s, m, conditioning)
    return EstimateSet(*_differences(_slot_pairs(m, m_world, means)), m.f, conditioning)


def dce(
    s: DiscreteScenario,
    threshold: float,
    conditioning: Conditioning = "on_z",
) -> DceSet:
    """Distributional causal effects at a threshold: estimands of I(Y > y).

    Requires the scenario to carry a full outcome law.  For a binary outcome
    and any threshold in [0, 1) this coincides with the difference-scale
    estimands; above the top outcome value every slot is zero.  The
    threshold must be finite.
    """
    try:
        threshold = float(threshold)
    except OverflowError as exc:  # an int beyond the double range
        raise InvariantViolation("must be finite", field="threshold") from exc
    if not isfinite(threshold):
        raise InvariantViolation("must be finite", field="threshold")
    if s.outcome_law is None:
        raise MissingOutcomeLawError(
            "distributional effects need law[a][j] entries for every (a, u)"
        )
    # Masses may sum to 1 + VALIDATION_TOL, so a tail probability is capped at 1.
    tail = [[min(fsum(p for v, p in cell if v > threshold), 1.0) for cell in arm]
            for arm in s.outcome_law]
    # Tails lie in [0, 1]; the other fields, and every number of ``e``, are checked.
    mean = tuple(tuple(tuple(tail[a]) for _ in range(s.n_z)) for a in (0, 1))
    world = _valid(DiscreteScenario, **{**vars(s), "outcome_mean": mean, "outcome_law": None,
                                        "binary_outcome": True})
    e = estimates(world, conditioning)
    return _valid(DceSet, **vars(e), threshold=threshold)


def rr(s: DiscreteScenario, conditioning: Conditioning = "on_z") -> RrSet:
    """Ratio-scale estimands.

    Outcome means must be nonnegative (binary or positive outcomes); the
    adjusted slots divide the standardised means, never ratios of ratios.
    """
    if min(min(map(min, arm)) for arm in s.outcome_mean) < 0.0:
        a, i, j = next((a, i, j) for a in (0, 1) for i in range(s.n_z)
                       for j in range(s.n_u) if s.outcome_mean[a][i][j] < 0.0)
        raise InvariantViolation("ratio-scale estimands need nonnegative outcome means",
                                 field=f"mean[{a}][{i}][{j}]")
    _check_conditioning(conditioning)
    _require_no_direct_effect(s, allow_direct_effect=False)
    m = _moments(s)
    _m_world, means = _adjustment(s, m, conditioning)
    # The adjusted ratios take the observed arm means of ``s`` itself, not of
    # the collapsed world (the two agree up to rounding); the bytes rely on it.
    values = []
    for name, (num, den) in zip(_JSON_KEYS, _slot_pairs(m, m, means)):
        if den <= 0.0:
            raise ZeroDenominatorError(f"{name}: denominator {den!r} is not positive")
        values.append(num / den)
    return RrSet(*values, m.f, conditioning)


def covariate_average(
    family: CovariateFamily,
    conditioning: Conditioning = "on_z",
    allow_direct_effect: bool = False,
) -> EstimateSet:
    """Estimands averaged over observed covariate strata.

    Whole-population slots average by the stratum law; treated slots by the
    stratum law given A=1 (weight times the stratum's treated fraction,
    renormalised) and control slots by the law given A=0.
    """
    active = [st for st in family.strata if st.weight > 0.0]
    per = [estimates(st.scenario, conditioning, allow_direct_effect) for st in active]
    f_bar = fsum(st.weight * e.treated_fraction for st, e in zip(active, per))
    if not 0.0 < f_bar < 1.0:
        # Every stratum has 0 < Pr(A=1) < 1, but weights that sum to 1 only
        # within VALIDATION_TOL can carry their average outside (0, 1).
        raise DegeneratePopulationError(
            f"covariate family has Pr(A=1) = {f_bar!r}, outside (0, 1): "
            f"its stratum weights sum to {fsum(st.weight for st in active)!r}"
        )
    w_treated = [st.weight * e.treated_fraction / f_bar for st, e in zip(active, per)]
    w_control = [
        st.weight * (1.0 - e.treated_fraction) / (1.0 - f_bar)
        for st, e in zip(active, per)
    ]
    w_all = [st.weight for st in active]
    by_slot = (w_treated, w_control, w_all, w_all, w_treated, w_control, w_all)
    return EstimateSet(
        *(
            _total([w * getattr(e, key) for w, e in zip(weights, per)])
            for key, weights in zip(_JSON_KEYS, by_slot)
        ),
        f_bar,
        conditioning,
    )


def _normalised(pmf: tuple[float, ...]) -> tuple[float, ...]:
    """``pmf`` divided by its sum when that is more than ``IDENTITY_TOL`` from 1."""
    mass = fsum(pmf)
    return pmf if abs(mass - 1.0) <= IDENTITY_TOL else tuple(p / mass for p in pmf)


def po_estimates(s: PotentialOutcomeScenario) -> EstimateSet:
    """Estimands when the confounder is the potential-outcome pair itself.

    The observed outcome is Y = A Y(1) + (1-A) Y(0), so the true slots come
    straight from the joint law and the treatment table; adjustment
    conditions on the propensity.  Masses that sum to 1 + d, |d| >
    ``IDENTITY_TOL``, are divided by their sum, so that cells and marginal
    weigh one law (a view not checked again: its Pr(A=1|pi) = pi gaps move
    by about |d|).
    """
    pi_pmf, pair_pmf = _normalised(s.pi_pmf), _normalised(s.pair_pmf)
    if pi_pmf is not s.pi_pmf or pair_pmf is not s.pair_pmf:
        s = _valid(PotentialOutcomeScenario, **{**vars(s), "pi_pmf": pi_pmf, "pair_pmf": pair_pmf})
    marginal = [(p, y1, y0) for p, (y1, y0) in zip(s.pair_pmf, s.y_pairs)]
    cells = [
        (kw * p, t, y1, y0)
        for kw, row in zip(s.pi_pmf, s.treat)
        for (p, y1, y0), t in zip(marginal, row)
    ]
    m = _cell_moments(cells, marginal)
    strata = _po_strata(s)
    for pi, _w, _mass1, nu0, nu1 in strata:
        if nu0 is None or nu1 is None:
            raise DegeneratePopulationError(
                f"propensity stratum pi={pi!r} has an empty treatment arm"
            )
    means = _standardise(strata, m.f)
    return EstimateSet(*_differences(_slot_pairs(m, m, means)), m.f, "on_propensity")
