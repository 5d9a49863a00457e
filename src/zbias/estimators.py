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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, isfinite
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
    PROPENSITY_MERGE_TOL,
    BinaryScenario,
    CovariateFamily,
    DiscreteScenario,
    PotentialOutcomeScenario,
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


def _fmt(value: float) -> str:
    # 17 significant digits: round-trip exact for doubles.
    return f"{value:.17g}"


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
    combinations of the treated/control slots (checked at construction).
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
        _check_convex(self.true_all, self.treated_fraction, self.true_treated,
                      self.true_control, "true_all")
        _check_convex(self.adj_all, self.treated_fraction, self.adj_treated,
                      self.adj_control, "adj_all")

    def to_json(self) -> str:
        parts = [f'"{k}": {_fmt(getattr(self, k))}' for k in _JSON_KEYS]
        parts.append(f'"f": {_fmt(self.treated_fraction)}')
        parts.append(f'"conditioning": "{self.conditioning}"')
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class DceSet:
    """Distributional effects: the estimands of the indicator I(Y > threshold)."""

    true_treated: float
    true_control: float
    true_all: float
    unadj: float
    adj_treated: float
    adj_control: float
    adj_all: float
    treated_fraction: float
    conditioning: str
    threshold: float

    def __post_init__(self):
        _check_convex(self.true_all, self.treated_fraction, self.true_treated,
                      self.true_control, "true_all")
        _check_convex(self.adj_all, self.treated_fraction, self.adj_treated,
                      self.adj_control, "adj_all")

    def to_json(self) -> str:
        parts = [f'"{k}": {_fmt(getattr(self, k))}' for k in _JSON_KEYS]
        parts.append(f'"f": {_fmt(self.treated_fraction)}')
        parts.append(f'"conditioning": "{self.conditioning}"')
        parts.append(f'"threshold": {_fmt(self.threshold)}')
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class RrSet:
    """Ratio-scale estimands; whole-population slots are mediants of the
    treated/control slots, so they lie between them (checked here)."""

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

    def to_json(self) -> str:
        parts = [f'"{k}": {_fmt(getattr(self, k))}' for k in _JSON_KEYS]
        parts.append(f'"f": {_fmt(self.treated_fraction)}')
        parts.append(f'"conditioning": "{self.conditioning}"')
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class _Moments:
    f: float
    ey_treated: float          # E(Y | A=1)
    ey_control: float          # E(Y | A=0)
    y1_mean: float             # E{Y(1)}
    y0_mean: float             # E{Y(0)}
    y0_given_treated: float    # E{Y(0) | A=1}
    y1_given_control: float    # E{Y(1) | A=0}


def _cells(s: DiscreteScenario):
    for i in range(s.n_z):
        zw = s.z_pmf[i]
        for j in range(s.n_u):
            yield i, j, zw * s.u_pmf[j]


def _moments(s: DiscreteScenario) -> _Moments:
    f = fsum(w * s.treat[i][j] for i, j, w in _cells(s))
    if not 0.0 < f < 1.0:
        raise DegeneratePopulationError(
            f"Pr(A=1) = {f!r}: conditional estimands need both arms populated"
        )
    ey_treated = fsum(w * s.treat[i][j] * s.outcome_mean[1][i][j] for i, j, w in _cells(s)) / f
    ey_control = (
        fsum(w * (1.0 - s.treat[i][j]) * s.outcome_mean[0][i][j] for i, j, w in _cells(s))
        / (1.0 - f)
    )
    y0_given_treated = (
        fsum(w * s.treat[i][j] * s.outcome_mean[0][i][j] for i, j, w in _cells(s)) / f
    )
    y1_given_control = (
        fsum(w * (1.0 - s.treat[i][j]) * s.outcome_mean[1][i][j] for i, j, w in _cells(s))
        / (1.0 - f)
    )
    y1_mean = fsum(w * s.outcome_mean[1][i][j] for i, j, w in _cells(s))
    y0_mean = fsum(w * s.outcome_mean[0][i][j] for i, j, w in _cells(s))
    return _Moments(f, ey_treated, ey_control, y1_mean, y0_mean,
                    y0_given_treated, y1_given_control)


def _propensity_list(s: DiscreteScenario) -> list[float]:
    return [fsum(s.u_pmf[j] * s.treat[i][j] for j in range(s.n_u)) for i in range(s.n_z)]


def _mu_values(s: DiscreteScenario):
    """Per-level conditional outcome means mu_a(z), skipping zero-mass levels.

    Returns (mu0, mu1, pi) lists indexed like z_support; entries are None at
    zero-mass levels.  Raises UndefinedStratumError when a positive-mass
    level has an empty treatment arm.
    """
    pi = _propensity_list(s)
    mu0: list[float | None] = [None] * s.n_z
    mu1: list[float | None] = [None] * s.n_z
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


def _require_no_direct_effect(s: DiscreteScenario, allow_direct_effect: bool) -> None:
    if not allow_direct_effect and s.outcome_mean_depends_on_z():
        raise InvariantViolation(
            "outcome mean varies with z (direct instrument-to-outcome effect); "
            "pass allow_direct_effect=True to average over the joint law",
            field="mean",
        )


def _true_slots(m: _Moments) -> tuple[float, float, float]:
    return (
        m.ey_treated - m.y0_given_treated,
        m.y1_given_control - m.ey_control,
        m.y1_mean - m.y0_mean,
    )


def _standardised_means(s: DiscreteScenario, m: _Moments) -> tuple[float, float, float, float]:
    """(int1_all, int0_all, int0_treated, int1_control): the outcome means
    mu_a(z) standardised over the law of Z, of Z given A=1 and of Z given A=0.
    ``m`` holds the moments of ``s``."""
    mu0, mu1, pi = _mu_values(s)
    used = [i for i in range(s.n_z) if s.z_pmf[i] > 0.0]
    int1_all = fsum(s.z_pmf[i] * mu1[i] for i in used)
    int0_all = fsum(s.z_pmf[i] * mu0[i] for i in used)
    int0_treated = fsum(s.z_pmf[i] * pi[i] * mu0[i] for i in used) / m.f
    int1_control = fsum(s.z_pmf[i] * (1.0 - pi[i]) * mu1[i] for i in used) / (1.0 - m.f)
    return int1_all, int0_all, int0_treated, int1_control


def _adjusted_slots(s: DiscreteScenario, m: _Moments) -> tuple[float, float, float]:
    int1_all, int0_all, int0_treated, int1_control = _standardised_means(s, m)
    return (
        m.ey_treated - int0_treated,
        int1_control - m.ey_control,
        int1_all - int0_all,
    )


def _check_conditioning(conditioning: str) -> None:
    if conditioning not in ("on_z", "on_propensity"):
        raise InvariantViolation(f"unknown conditioning {conditioning!r}", field="conditioning")


def true_ace(
    s: DiscreteScenario, allow_direct_effect: bool = False
) -> tuple[float, float, float]:
    """(treated, control, whole-population) true average causal effects.

    By default the outcome table must be constant in z; with
    ``allow_direct_effect`` the outcome means are averaged over the joint
    law of (Z, U) given the relevant arm instead.
    """
    _require_no_direct_effect(s, allow_direct_effect)
    return _true_slots(_moments(s))


def unadjusted_ace(s: DiscreteScenario) -> float:
    """Naive treated-minus-control mean difference, by full enumeration."""
    m = _moments(s)
    return m.ey_treated - m.ey_control


def adjusted_ace(
    s: DiscreteScenario,
    conditioning: Conditioning = "on_z",
    merge_tol: float = PROPENSITY_MERGE_TOL,
) -> tuple[float, float, float]:
    """(treated, control, whole-population) adjusted estimators.

    ``on_propensity`` first collapses instrument levels sharing a propensity
    and then standardises over the collapsed levels.
    """
    _check_conditioning(conditioning)
    world = s if conditioning == "on_z" else collapse_by_propensity(s, merge_tol)
    return _adjusted_slots(world, _moments(world))


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
    mu0, mu1, pi = _mu_values(s)
    used = [i for i in range(s.n_z) if s.z_pmf[i] > 0.0]
    e_pi = fsum(s.z_pmf[i] * pi[i] for i in used)
    cov0 = fsum(s.z_pmf[i] * pi[i] * mu0[i] for i in used) - e_pi * fsum(
        s.z_pmf[i] * mu0[i] for i in used
    )
    cov1 = fsum(s.z_pmf[i] * pi[i] * mu1[i] for i in used) - e_pi * fsum(
        s.z_pmf[i] * mu1[i] for i in used
    )
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
    merge_tol: float = PROPENSITY_MERGE_TOL,
) -> EstimateSet:
    """All seven estimands of a (binary or discrete) scenario."""
    s = to_discrete(scenario) if isinstance(scenario, BinaryScenario) else scenario
    # Checks run in the order true_ace and adjusted_ace would raise them:
    # empty arm, direct effect, conditioning.
    m = _moments(s)
    _require_no_direct_effect(s, allow_direct_effect)
    tt, tc, ta = _true_slots(m)
    _check_conditioning(conditioning)
    world = s if conditioning == "on_z" else collapse_by_propensity(s, merge_tol)
    at, ac, aa = _adjusted_slots(world, m if world is s else _moments(world))
    return EstimateSet(
        true_treated=tt,
        true_control=tc,
        true_all=ta,
        unadj=m.ey_treated - m.ey_control,
        adj_treated=at,
        adj_control=ac,
        adj_all=aa,
        treated_fraction=m.f,
        conditioning=conditioning,
    )


def dce(
    s: DiscreteScenario,
    threshold: float,
    conditioning: Conditioning = "on_z",
    merge_tol: float = PROPENSITY_MERGE_TOL,
) -> DceSet:
    """Distributional causal effects at a threshold: estimands of I(Y > y).

    Requires the scenario to carry a full outcome law.  For a binary outcome
    and any threshold in [0, 1) this coincides with the difference-scale
    estimands; above the top outcome value every slot is zero.  The
    threshold must be finite.
    """
    if not isfinite(threshold):
        raise InvariantViolation("must be finite", field="threshold")
    if s.outcome_law is None:
        raise MissingOutcomeLawError(
            "distributional effects need law[a][j] entries for every (a, u)"
        )
    tail = [
        [
            fsum(p for v, p in s.outcome_law[a][j] if v > threshold)
            for j in range(s.n_u)
        ]
        for a in (0, 1)
    ]
    dichotomized = DiscreteScenario(
        z_support=s.z_support,
        z_pmf=s.z_pmf,
        u_support=s.u_support,
        u_pmf=s.u_pmf,
        treat=s.treat,
        outcome_mean=tuple(
            tuple(tuple(tail[a]) for _ in range(s.n_z)) for a in (0, 1)
        ),
        outcome_law=None,
        binary_outcome=True,
    )
    e = estimates(dichotomized, conditioning, merge_tol=merge_tol)
    return DceSet(
        true_treated=e.true_treated,
        true_control=e.true_control,
        true_all=e.true_all,
        unadj=e.unadj,
        adj_treated=e.adj_treated,
        adj_control=e.adj_control,
        adj_all=e.adj_all,
        treated_fraction=e.treated_fraction,
        conditioning=e.conditioning,
        threshold=float(threshold),
    )


def rr(
    s: DiscreteScenario,
    conditioning: Conditioning = "on_z",
    merge_tol: float = PROPENSITY_MERGE_TOL,
) -> RrSet:
    """Ratio-scale estimands.

    Outcome means must be nonnegative (binary or positive outcomes); the
    adjusted slots divide the standardised means, never ratios of ratios.
    """
    for a in (0, 1):
        for i in range(s.n_z):
            for j in range(s.n_u):
                if s.outcome_mean[a][i][j] < 0.0:
                    raise InvariantViolation(
                        "ratio-scale estimands need nonnegative outcome means",
                        field=f"mean[{a}][{i}][{j}]",
                    )
    _check_conditioning(conditioning)
    _require_no_direct_effect(s, allow_direct_effect=False)
    m = _moments(s)
    world = s if conditioning == "on_z" else collapse_by_propensity(s, merge_tol)
    int1_all, int0_all, int0_treated, int1_control = _standardised_means(
        world, m if world is s else _moments(world)
    )

    slots = {
        "true_treated": (m.ey_treated, m.y0_given_treated),
        "true_control": (m.y1_given_control, m.ey_control),
        "true_all": (m.y1_mean, m.y0_mean),
        "unadj": (m.ey_treated, m.ey_control),
        "adj_treated": (m.ey_treated, int0_treated),
        "adj_control": (int1_control, m.ey_control),
        "adj_all": (int1_all, int0_all),
    }
    values = {}
    for name, (num, den) in slots.items():
        if den <= 0.0:
            raise ZeroDenominatorError(f"{name}: denominator {den!r} is not positive")
        values[name] = num / den
    return RrSet(treated_fraction=m.f, conditioning=conditioning, **values)


def covariate_average(
    family: CovariateFamily,
    conditioning: Conditioning = "on_z",
    allow_direct_effect: bool = False,
    merge_tol: float = PROPENSITY_MERGE_TOL,
) -> EstimateSet:
    """Estimands averaged over observed covariate strata.

    Whole-population slots average by the stratum law; treated slots by the
    stratum law given A=1 (weight times the stratum's treated fraction,
    renormalised) and control slots by the law given A=0.
    """
    active = [st for st in family.strata if st.weight > 0.0]
    per = [
        estimates(st.scenario, conditioning, allow_direct_effect, merge_tol)
        for st in active
    ]
    f_bar = fsum(st.weight * e.treated_fraction for st, e in zip(active, per))
    if not 0.0 < f_bar < 1.0:
        raise DegeneratePopulationError(
            f"covariate family has Pr(A=1) = {f_bar!r}: every stratum is degenerate"
        )
    w_treated = [st.weight * e.treated_fraction / f_bar for st, e in zip(active, per)]
    w_control = [
        st.weight * (1.0 - e.treated_fraction) / (1.0 - f_bar)
        for st, e in zip(active, per)
    ]
    return EstimateSet(
        true_treated=fsum(w * e.true_treated for w, e in zip(w_treated, per)),
        true_control=fsum(w * e.true_control for w, e in zip(w_control, per)),
        true_all=fsum(st.weight * e.true_all for st, e in zip(active, per)),
        unadj=fsum(st.weight * e.unadj for st, e in zip(active, per)),
        adj_treated=fsum(w * e.adj_treated for w, e in zip(w_treated, per)),
        adj_control=fsum(w * e.adj_control for w, e in zip(w_control, per)),
        adj_all=fsum(st.weight * e.adj_all for st, e in zip(active, per)),
        treated_fraction=f_bar,
        conditioning=conditioning,
    )


def po_estimates(s: PotentialOutcomeScenario) -> EstimateSet:
    """Estimands when the confounder is the potential-outcome pair itself.

    The observed outcome is Y = A Y(1) + (1-A) Y(0), so the true slots come
    straight from the joint law and the treatment table; adjustment
    conditions on the propensity.
    """

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

    # nu_a(pi): outcome means inside each propensity stratum.
    nu0: list[float] = []
    nu1: list[float] = []
    arm1_mass: list[float] = []
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
    return EstimateSet(
        true_treated=ey_treated - y0_given_treated,
        true_control=y1_given_control - ey_control,
        true_all=y1_mean - y0_mean,
        unadj=ey_treated - ey_control,
        adj_treated=ey_treated - int0_treated,
        adj_control=int1_control - ey_control,
        adj_all=int1_all - int0_all,
        treated_fraction=f,
        conditioning="on_propensity",
    )
