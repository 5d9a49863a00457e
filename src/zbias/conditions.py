"""Checkers for the sufficient conditions under which adjustment amplifies bias.

Each checker returns one or more ``ConditionReport`` values: a verdict, the
minimal slack (``margin``, negative exactly when violated) and a witness per
violated cell.  Monotonicity is always weak and evaluated over the declared
support order with tolerance 1e-12; model-fit residuals and positivity use
the looser validation tolerance 1e-9.

A report is built from runs ``(cell, lhs, rhs, slack)``, each one comparison
(a cell string and three floats) or whole columns of them under one
``(template, labels, at)`` cell.  The margin is one ``min`` over the slacks,
and only the violated comparisons of a violated report get a cell string.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import fsum, isfinite
from numbers import Integral
from operator import mul, neg, sub, truediv

from .errors import (
    DegeneratePopulationError,
    InvariantViolation,
    NonBinaryOutcomeError,
    NonpositiveCellError,
    PremiseViolationError,
    UndefinedConditionalError,
    ZeroDenominatorError,
)
from .estimators import (_NUMBER, EstimateSet, _json_num, _json_str, _mu_values,
                         _pi_covariance, _po_strata)
from .scenario import (
    IDENTITY_TOL,
    VALIDATION_TOL,
    BinaryScenario,
    DiscreteScenario,
    PotentialOutcomeScenario,
    _binary_params,
    _propensity_values,
    _total,
    _treated_fraction,
)


@dataclass(frozen=True)
class Witness:
    """One violated comparison: the cell plus the two compared values."""

    cell: str
    lhs: float
    rhs: float

    def __init__(self, cell: str, lhs: float, rhs: float) -> None:
        # Into __dict__, cheaper than the generated frozen __init__ (and no __post_init__ runs).
        fields = self.__dict__
        fields["cell"], fields["lhs"], fields["rhs"] = cell, lhs, rhs


# A witness's JSON object, its numbers written as ``_json_num`` writes them.
_WITNESS = '{"cell": %%s, "lhs": %s, "rhs": %s}' % (_NUMBER, _NUMBER)


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    holds: bool
    margin: float
    witnesses: tuple[Witness, ...]

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        consistent = self.holds == (not self.witnesses) == (self.margin >= -IDENTITY_TOL)
        if not consistent:
            raise InvariantViolation(f"inconsistent report for {self.condition_id}")
        # +inf is "nothing to compare"; an overflowed -inf or a NaN has no JSON form.
        if math.isnan(self.margin) or self.margin == -math.inf:
            raise InvariantViolation(f"margin {self.margin!r} is not finite",
                                     field=self.condition_id)

    def to_json(self) -> str:
        """One JSON object; an infinite margin (nothing to compare) is
        written as ``null``, since JSON has no infinity."""
        witnesses = self.witnesses
        cells = ", ".join([_WITNESS] * len(witnesses)) % tuple(
            [x for w in witnesses for x in (_json_str(w.cell), w.lhs, w.rhs)])
        if "n" in cells:  # %.17g writes inf or nan, but no finite number or key, with an n
            for w in witnesses:  # _json_num raises for the first non-finite one
                _json_num(w.lhs), _json_num(w.rhs)
        margin = "null" if self.margin == math.inf else _json_num(self.margin)
        return (
            '{"condition_id": %s, "holds": %s, "margin": %s, "witnesses": [%s]}'
            % (_json_str(self.condition_id), "true" if self.holds else "false",
               margin, cells)
        )


def reports_to_json(reports) -> str:
    if isinstance(reports, ConditionReport):
        reports = [reports]
    return "[" + ", ".join(r.to_json() for r in reports) + "]"


def _report(condition_id: str, runs: list) -> ConditionReport:
    """A report over runs made by ``_at_least``, ``_at_most`` or ``_equal``.
    A slack below -1e-12 is a violation; the margin is the least slack, or
    infinity (``null`` in JSON) with nothing to compare.  A NaN margin (an
    infinity less an infinity), or an infinite margin over finite compared
    values (an overflow), raises InvariantViolation."""
    slacks = []
    for cell, _lhs, _rhs, slack in runs:
        slacks += [slack] if type(cell) is str else slack
    margin = min(slacks, default=math.inf)
    if math.isnan(margin) or margin == math.inf and any(
            isfinite(lhs) and isfinite(rhs) for cell, *pair, _slack in runs
            for lhs, rhs in ([pair] if type(cell) is str else zip(*pair))):
        raise InvariantViolation(f"margin {margin!r} is not finite", field=condition_id)
    witnesses = tuple(_witnesses(runs)) if margin < -IDENTITY_TOL else ()
    return ConditionReport(condition_id, not witnesses, margin, witnesses)


def _witnesses(runs) -> list:
    """A Witness per violated comparison, in order.  Cell k of a run is its
    template with ``at`` and with labels k and k + 1 as ``lo`` and ``hi``
    (or k + 1 alone as ``hi``); each label sequence is formatted once."""
    witnesses, texts, floor = [], {}, -IDENTITY_TOL
    for cell, lhs, rhs, slack in runs:
        if type(cell) is str:
            witnesses += [Witness(cell, lhs, rhs)] if slack < floor else []
        elif hits := [k for k, x in enumerate(slack) if x < floor]:
            template, labels, at = cell
            text = texts.get(id(labels)) or texts.setdefault(id(labels), [*map(str, labels)])
            cell = template.replace("%", "%%").format(at=at, lo="%s", hi="%s")
            names = [*zip(text, text[1:])] if "{lo}" in template else [*zip(text[1:])]
            witnesses += [Witness(cell % names[k], lhs[k], rhs[k]) for k in hits]
    return witnesses


def _at_least(cell, lhs, rhs):
    """The comparisons lhs >= rhs, with slack lhs - rhs: one (a cell string
    and two floats) or a run (a (template, labels, at) cell and two columns)."""
    return cell, lhs, rhs, lhs - rhs if type(cell) is str else list(map(sub, lhs, rhs))


def _at_most(cell, lhs, rhs):
    """The comparisons lhs <= rhs, with slack rhs - lhs."""
    return cell, lhs, rhs, rhs - lhs if type(cell) is str else list(map(sub, rhs, lhs))


def _equal(cell, lhs, rhs):
    """The comparisons lhs == rhs, with slack -|lhs - rhs|."""
    return cell, lhs, rhs, (-abs(lhs - rhs) if type(cell) is str
                            else list(map(neg, map(abs, map(sub, lhs, rhs)))))


def _nondecreasing(values, labels, template):
    """A one-run list requiring values to be weakly increasing along labels."""
    return [_at_least((template, labels, None), values[1:], values[:-1])]


def _treated_prob_by_u(s: DiscreteScenario) -> list[float]:
    # Pr(A=1 | U=u), using Z independent of U.
    return [_treated_fraction(s.z_pmf, column) for column in zip(*s.treat)]


def _outcome_mean_by_u(s: DiscreteScenario, arm: int) -> list[float]:
    """E(Y | A=a, U=u).  Equals the table row when it is constant in z;
    otherwise averages over the conditional law of Z given (A=a, U=u)."""
    if not s.outcome_mean_depends_on_z():
        return list(s.outcome_mean[arm][0])
    values = []
    for u, column, means in zip(s.u_support, zip(*s.treat), zip(*s.outcome_mean[arm])):
        weights = list(map(mul, s.z_pmf, column if arm == 1 else map(sub, repeat(1.0), column)))
        total = fsum(weights)
        if total <= 0.0:
            raise UndefinedConditionalError(
                f"E(Y|A={arm}, U={u!r}) undefined: empty conditioning event")
        values.append(_total(list(map(mul, weights, means))) / total)
    return values


def _outcome_by_u_checks(s: DiscreteScenario) -> list:
    """E(Y|A=a,U=u) non-decreasing in u, for both arms."""
    return [run for arm in (0, 1) for run in _nondecreasing(
        _outcome_mean_by_u(s, arm), s.u_support, f"E(Y|A={arm},U): u {{lo}}->{{hi}}")]


def check_thm1(s: DiscreteScenario) -> list[ConditionReport]:
    """Monotone-association conditions for the scalar-instrument ordering.

    Four sub-reports: the propensity is non-decreasing in z; Pr(A=1|U=u) is
    non-decreasing in u; E(Y|A=a,U=u) is non-decreasing in u for both arms;
    and E(Y|A=a,Z=z) is non-increasing in z for both arms (checked over
    positive-mass levels, where it is defined).
    """
    pi = _propensity_values(s)
    a1 = _report("thm1.a1", _nondecreasing(pi, s.z_support, "Pr(A=1|Z): z {lo}->{hi}"))
    pau = _treated_prob_by_u(s)
    a2 = _report("thm1.a2", _nondecreasing(pau, s.u_support, "Pr(A=1|U): u {lo}->{hi}"))
    a3 = _report("thm1.a3", _outcome_by_u_checks(s))
    return [a1, a2, a3, _outcome_by_z_report("thm1.b", s)]


def _outcome_by_z_report(condition_id: str, s: DiscreteScenario) -> ConditionReport:
    """E(Y|A=a,Z=z) non-increasing in z for both arms, over the
    positive-mass levels where it is defined."""
    labels, _w, _pi, *mu = zip(*_mu_values(s))
    return _report(condition_id, [
        _at_least((f"E(Y|A={arm},Z): z {{lo}}->{{hi}}", labels, None), mu[arm][:-1], mu[arm][1:])
        for arm in (0, 1)
    ])


@dataclass(frozen=True)
class _Decomposition:
    """The treatment table split into a z part and a u part; ``residual_max``
    is the largest misfit over the cells."""

    z_levels: tuple[float, ...]
    z_effect: tuple[float, ...]
    u_levels: tuple[float, ...]
    u_effect: tuple[float, ...]
    residual_max: float


class AdditiveDecomposition(_Decomposition):
    """treat(z,u) ~ z_effect(z) + u_effect(u), normalised so E[u_effect(U)] = 0."""


class MultiplicativeDecomposition(_Decomposition):
    """treat(z,u) ~ z_effect(z) * u_effect(u), normalised so E[u_effect(U)] = 1."""


def _fit_treatment(s: DiscreteScenario, cls, split, residual):
    """pi (the propensity), per u level its part ``split(Pr(A=1|U=u), Pr(A=1))``
    and the largest |``residual(column, pi, part)``|: misfits are >= 0 or NaN,
    so a max over them in any order from cell (0, 0) is the same."""
    pi = _propensity_values(s)
    f = _treated_fraction(s.z_pmf, pi)
    columns = list(zip(*s.treat))
    gamma = tuple(split(_treated_fraction(s.z_pmf, column), f) for column in columns)
    misfits = chain.from_iterable(
        map(abs, residual(column, pi, repeat(g))) for column, g in zip(columns, gamma))
    return cls(s.z_support, tuple(pi), s.u_support, gamma, max(misfits))


def fit_additive(s: DiscreteScenario) -> AdditiveDecomposition:
    """Best additive decomposition of the treatment table.

    The z part is the propensity and the u part is Pr(A=1|U=u) - Pr(A=1);
    when the table is exactly additive the residual is zero.
    """
    return _fit_treatment(s, AdditiveDecomposition, sub,
                          lambda t, pi, g: map(sub, map(sub, t, pi), g))


def _ratio_to_treated(p: float, f: float) -> float:
    # Positive cells can still give Pr(A=1) = 0.0 when their products underflow.
    if f == 0.0:
        raise DegeneratePopulationError(
            f"Pr(A=1) = {f!r}: multiplicative fit needs a treated population")
    return p / f


def fit_multiplicative(s: DiscreteScenario) -> MultiplicativeDecomposition:
    """Best multiplicative decomposition; requires a strictly positive table."""
    if not min(map(min, s.treat)) > 0.0:
        i, j = next((i, j) for i, row in enumerate(s.treat) for j, t in enumerate(row) if t <= 0.0)
        raise NonpositiveCellError(f"treat[{i}][{j}] = {s.treat[i][j]!r}: "
                                   "multiplicative fit needs strictly positive cells")
    return _fit_treatment(s, MultiplicativeDecomposition, _ratio_to_treated,
                          lambda t, pi, g: map(sub, t, map(mul, pi, g)))


def _monotone_effect_checks(s: DiscreteScenario, dec) -> list:
    return (_nondecreasing(dec.z_effect, dec.z_levels, "z effect: z {lo}->{hi}")
            + _nondecreasing(dec.u_effect, dec.u_levels, "u effect: u {lo}->{hi}")
            + _outcome_by_u_checks(s))


def _top_support_mass_checks(s: DiscreteScenario, pi) -> list:
    """Finite-support essential-supremum condition: the top confounder level
    keeps positive conditional mass given (A=a, Z=z) at every positive-mass
    instrument level; ``pi`` is the propensity at each level."""
    top, checks = s.n_u - 1, []
    head = f"Pr(U={s.u_support[top]!r}|A="
    for i in range(s.n_z):
        if s.z_pmf[i] == 0.0:
            continue
        tail = f",Z={s.z_support[i]!r})"
        for arm in (0, 1):
            num = s.u_pmf[top] * (s.treat[i][top] if arm == 1 else 1.0 - s.treat[i][top])
            den = pi[i] if arm == 1 else 1.0 - pi[i]
            if den <= 0.0:
                raise UndefinedConditionalError(
                    f"Pr(U|A={arm}, Z={s.z_support[i]!r}) undefined: empty arm"
                )
            checks.append(_at_least(f"{head}{arm}{tail}", num / den, VALIDATION_TOL))
    return checks


def _treatment_model_reports(s: DiscreteScenario, dec, thm: str, fit: str, label: str):
    """The exact-fit, monotone-effect and top-mass reports shared by the
    additive (thm2) and multiplicative (thm3) models."""
    return [
        _report(f"{thm}.{fit}", [_at_most(label, dec.residual_max, VALIDATION_TOL)]),
        _report(f"{thm}.b", _monotone_effect_checks(s, dec)),
        _report(f"{thm}.c", _top_support_mass_checks(s, dec.z_effect)),
    ]


def check_thm2(s: DiscreteScenario) -> list[ConditionReport]:
    """Additive-model sufficient conditions: exact additive treatment table,
    monotone effect pieces, and the top-level mass condition."""
    return _treatment_model_reports(
        s, fit_additive(s), "thm2", "a", "max |treat - (z_effect + u_effect)|"
    )


def check_thm3(s: DiscreteScenario) -> list[ConditionReport]:
    """Multiplicative-model sufficient conditions."""
    return _treatment_model_reports(
        s, fit_multiplicative(s), "thm3", "a'", "max |treat - z_effect * u_effect|"
    )


def _binary_cells(s: BinaryScenario) -> tuple[float, float, float, float]:
    # (p11, p10, p01, p00) with z as the first index.
    return _binary_params(s)[2:6]


def _ratio_check(tag: str, p11: float, p10: float, p01: float, p00: float):
    """The comparison p11*p00 / (p10*p01) <= 1 on treatment presence, or the
    same on the complements 1-p for tag "absence".

    A zero numerator passes vacuously; a zero denominator under a positive
    numerator raises, naming the zero factor.
    """
    prefix = ""
    if tag == "absence":
        p11, p10, p01, p00, prefix = 1 - p11, 1 - p10, 1 - p01, 1 - p00, "1-"
    num = p11 * p00
    if num == 0.0:
        return _at_most(f"{tag} ratio", 0.0, 1.0)
    den = p10 * p01
    if den == 0.0:
        zeros = [prefix + name for name, value in (("p10", p10), ("p01", p01)) if value == 0.0]
        # Both factors can be positive and still underflow together.
        zero = zeros[0] if zeros else f"{prefix}p10*{prefix}p01"
        raise ZeroDenominatorError(f"{tag} ratio undefined: {zero} = 0")
    return _at_most(f"{tag} ratio", num / den, 1.0)


def check_weaker_condition(s: BinaryScenario) -> ConditionReport:
    """Non-positive multiplicative interaction on both treatment presence and
    absence: p11*p00/(p10*p01) <= 1 and (1-p11)(1-p00)/((1-p10)(1-p01)) <= 1.
    """
    cells = _binary_cells(s)
    return _report(
        "weaker_condition", [_ratio_check("presence", *cells), _ratio_check("absence", *cells)]
    )


def _binary_model_reports(s: BinaryScenario, thm: str, fit: str, label: str, interaction):
    """The no-interaction, monotone-treatment and monotone-outcome reports
    shared by the additive (cor1) and multiplicative (cor2) models;
    ``interaction(p11, p10, p01, p00)`` must be zero."""
    p11, p10, p01, p00 = _binary_cells(s)
    gap = interaction(p11, p10, p01, p00)
    r = s.outcome_mean
    return [
        _report(f"{thm}.{fit}", [_equal(label, gap, 0.0)]),
        _report(f"{thm}.b", [
            _at_least("p11 >= p10", p11, p10),
            _at_least("p11 >= p01", p11, p01),
            _at_least("p10 >= p00", p10, p00),
            _at_least("p01 >= p00", p01, p00),
        ]),
        _report(f"{thm}.c", [_at_least(f"r{a}1 >= r{a}0", r[a][1], r[a][0]) for a in (0, 1)]),
    ]


def check_cor1(s: BinaryScenario) -> list[ConditionReport]:
    """Binary-case additive conditions: zero additive interaction, monotone
    treatment effects, monotone outcome means in u."""
    return _binary_model_reports(s, "cor1", "a", "p11 - p10 - p01 + p00",
                                 lambda p11, p10, p01, p00: p11 - p10 - p01 + p00)


def check_cor2(s: BinaryScenario) -> list[ConditionReport]:
    """Binary-case multiplicative conditions: unit cross-product ratio plus
    the same monotonicity as the additive case."""
    return _binary_model_reports(s, "cor2", "a'", "p11*p00 - p10*p01",
                                 lambda p11, p10, p01, p00: p11 * p00 - p10 * p01)


def check_collider_association(s: DiscreteScenario, arm: int) -> list[ConditionReport]:
    """Direction of the association induced between Z and U by conditioning
    on the treatment: F(u | A=a, Z=z) must be non-decreasing in z at every u.

    For an exactly multiplicative treatment table and arm 1, additionally
    checks that Z and U are conditionally independent (the conditional
    distribution of U does not move with z at all).
    """
    if isinstance(arm, bool) or not isinstance(arm, Integral) or arm not in (0, 1):
        raise PremiseViolationError(f"arm must be 0 or 1, got {arm!r}")
    used = [i for i in range(s.n_z) if s.z_pmf[i] > 0.0]
    cdfs = []
    for i in used:
        row = s.treat[i] if arm == 1 else map(sub, repeat(1.0), s.treat[i])
        weights = list(map(mul, s.u_pmf, row))
        total = fsum(weights)
        if total <= 0.0:
            raise UndefinedConditionalError(
                f"Pr(U|A={arm}, Z={s.z_support[i]!r}) undefined: empty conditioning event"
            )
        # Sums from 0.0 (a first -0.0 becomes 0.0) never fall: those above 1 end it.
        cdf = list(accumulate(map(truediv, weights, repeat(total)), initial=0.0))
        top = bisect_right(cdf, 1.0)
        cdfs.append(cdf[1:top] + [1.0] * (len(cdf) - top))

    columns, labels = list(zip(*cdfs)), [s.z_support[i] for i in used]
    template = f"F(u={{at}}|A={arm},Z): z {{lo}}->{{hi}}"
    reports = [_report(f"collider.a{arm}.monotone", [
        _at_least((template, labels, u), column[1:], column[:-1])
        for u, column in zip(s.u_support, columns)
    ])]

    # Arm first: the multiplicative fit runs only where its answer is used.
    if (arm == 1 and min(map(min, s.treat)) > 0.0
            and fit_multiplicative(s).residual_max <= VALIDATION_TOL):
        # Each level against the first: comparison k names label k + 1.
        labels = labels[:1] + labels
        reports.append(_report("collider.a1.indep", [
            _equal(("F(u={at}|A=1,Z={hi})", labels, u), column, [column[0]] * len(column))
            for u, column in zip(s.u_support, columns)
        ]))
    return reports


def _require_monotone_quadruple(p11, p10, p01, p00, lemma: str) -> None:
    if not (
        p11 >= max(p10, p01) - VALIDATION_TOL
        and min(p10, p01) >= p00 - VALIDATION_TOL
    ):
        raise PremiseViolationError(
            f"{lemma} premises need p11 >= max(p10, p01) and min(p10, p01) >= p00"
        )
    if not p00 > 0.0:
        raise PremiseViolationError(f"{lemma} premises need p00 > 0")


def check_lemma_s5(p11: float, p10: float, p01: float, p00: float) -> ConditionReport:
    """Conclusions of the no-additive-interaction lemma: under monotonicity
    and zero additive contrast, both cross-product ratios are at most 1."""
    _require_monotone_quadruple(p11, p10, p01, p00, "lemma_s5")
    contrast = p11 - p10 - p01 + p00
    if abs(contrast) > VALIDATION_TOL:
        raise PremiseViolationError(
            f"lemma_s5 premises need zero additive interaction, got {contrast!r}"
        )
    cells = (p11, p10, p01, p00)
    return _report(
        "lemma_s5", [_ratio_check("presence", *cells), _ratio_check("absence", *cells)]
    )


def check_lemma_s7(p11: float, p10: float, p01: float, p00: float) -> ConditionReport:
    """Conclusions of the no-multiplicative-interaction lemma: nonnegative
    additive contrast and absence ratio at most 1."""
    _require_monotone_quadruple(p11, p10, p01, p00, "lemma_s7")
    gap = p11 * p00 - p10 * p01
    if abs(gap) > VALIDATION_TOL:
        raise PremiseViolationError(
            f"lemma_s7 premises need p11*p00 = p10*p01, got gap {gap!r}"
        )
    contrast = p11 - p10 - p01 + p00
    return _report(
        "lemma_s7",
        [_at_least("p11 - p10 - p01 + p00", contrast, 0.0),
         _ratio_check("absence", p11, p10, p01, p00)],
    )


def _selection_by_potential(s: PotentialOutcomeScenario, arm: int):
    """Pr(A=1 | Y(arm) = y) over the distinct values of that potential outcome."""
    totals: dict[float, float] = {}
    nums: dict[float, float] = {}
    for j, (y1, y0) in enumerate(s.y_pairs):
        value = y1 if arm == 1 else y0
        mass = s.pair_pmf[j]
        selected = fsum(
            s.pi_pmf[k] * s.pair_pmf[j] * s.treat[k][j] for k in range(s.n_pi)
        )
        totals[value] = totals.get(value, 0.0) + mass
        nums[value] = nums.get(value, 0.0) + selected
    levels = sorted(v for v, mass in totals.items() if mass > 0.0)
    return levels, [nums[v] / totals[v] for v in levels]


def check_thm4(s: PotentialOutcomeScenario) -> list[ConditionReport]:
    """General-confounder ordering conditions: selection is monotone in each
    potential outcome, and the propensity is non-positively associated with
    the within-arm outcome means."""
    checks = []
    for arm in (0, 1):
        levels, probs = _selection_by_potential(s, arm)
        checks += _nondecreasing(probs, levels, f"Pr(A=1|Y({arm})): y {{lo}}->{{hi}}")
    a = _report("thm4.a", checks)
    strata = _po_strata(s)
    checks = []
    for arm in (0, 1):
        levels = [(w, pi, nu[arm]) for pi, w, _mass1, *nu in strata]
        for _w, pi, value in levels:
            if value is None:
                raise UndefinedConditionalError(
                    f"E(Y|A={arm}, pi={pi!r}) undefined: empty arm"
                )
        cov = _pi_covariance(levels)
        checks.append(_at_least(f"cov(pi, E(Y|A={arm},pi))", -cov, 0.0))
    b = _report("thm4.b", checks)
    return [a, b]


@dataclass(frozen=True)
class _SelectionModel:
    """Binary selection model fitted exactly from the four outcome cells at
    each propensity level; each coefficient is its pi_pmf-weighted mean."""

    alpha: float
    delta: float
    eta: float
    theta: float
    residual_max: float


class Cor3Model(_SelectionModel):
    """Saturated binary selection model
    Pr(A=1|pi,y1,y0) = alpha + pi + delta*y1 + eta*y0 + theta*y1*y0,
    fitted exactly from the four outcome cells at each propensity level.
    ``residual_max`` is the largest spread of a coefficient across levels."""


class Cor4Model(_SelectionModel):
    """Multiplicative analogue
    Pr(A=1|pi,y1,y0) = alpha * pi * delta^y1 * eta^y0 * theta^(y1*y0)."""


# (y1, y0) outcome pairs in the order the selection models name their cells.
_PAIRS = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))


def _binary_pair_index(s: PotentialOutcomeScenario) -> dict[tuple[float, float], int]:
    values = {v for pair in s.y_pairs for v in pair}
    if not values <= {0.0, 1.0}:
        raise NonBinaryOutcomeError(
            f"potential outcomes must take values in {{0, 1}}, got {sorted(values)}"
        )
    index = {pair: j for j, pair in enumerate(s.y_pairs)}
    missing = [pair for pair in sorted(_PAIRS) if pair not in index]
    if missing:
        raise NonBinaryOutcomeError(
            f"binary selection model needs all four outcome pairs declared; "
            f"missing {missing}"
        )
    return index


def _fit_selection(s: PotentialOutcomeScenario, index, cls, coefficients):
    """``coefficients(pi, t11, t10, t01, t00)`` gives (alpha, delta, eta,
    theta) at one propensity level, from the treatment cells of its pairs."""
    columns = list(zip(*(
        coefficients(s.pi_support[k], *(s.treat[k][index[pair]] for pair in _PAIRS))
        for k in range(s.n_pi)
    )))
    residual = max(max(c) - min(c) for c in columns)
    return cls(*(fsum(w * c for w, c in zip(s.pi_pmf, column)) for column in columns),
               residual)


def fit_cor3_model(s: PotentialOutcomeScenario) -> Cor3Model:
    return _fit_selection(
        s, _binary_pair_index(s), Cor3Model,
        lambda pi, t11, t10, t01, t00: (t00 - pi, t10 - t00, t01 - t00, t11 - t10 - t01 + t00),
    )


def fit_cor4_model(s: PotentialOutcomeScenario) -> Cor4Model:
    index = _binary_pair_index(s)
    for pair, j in index.items():
        for k in range(s.n_pi):
            if s.treat[k][j] <= 0.0:
                raise NonpositiveCellError(
                    f"treat[{k}][{j}] = {s.treat[k][j]!r}: multiplicative model "
                    "needs strictly positive cells"
                )
    if any(pi <= 0.0 for pi in s.pi_support):
        raise NonpositiveCellError("multiplicative model needs pi > 0 at every level")

    def coefficients(pi, t11, t10, t01, t00):
        den = t10 * t01
        if den == 0.0:
            # Both cells are positive, but their product can underflow.
            raise ZeroDenominatorError(f"theta undefined at pi = {pi!r}: t10*t01 = 0")
        return t00 / pi, t10 / t00, t01 / t00, t11 * t00 / den

    return _fit_selection(s, index, Cor4Model, coefficients)


def outcome_odds_ratio(s: PotentialOutcomeScenario) -> float:
    """Odds ratio of the joint binary potential-outcome law; infinite when
    only the diagonal carries mass, NaN when degenerate in both factors."""
    index = _binary_pair_index(s)
    p11, p10, p01, p00 = (s.pair_pmf[index[pair]] for pair in _PAIRS)
    num = p11 * p00
    den = p10 * p01
    if den == 0.0:
        return math.nan if num == 0.0 else math.inf
    return num / den


def _odds_ratio_checks(s: PotentialOutcomeScenario):
    ratio = outcome_odds_ratio(s)
    # A degenerate joint (NaN) makes the association vacuous.
    return [_at_least("outcome odds ratio", 1.0 if math.isnan(ratio) else ratio, 1.0)]


def _coefficient_checks(model: _SelectionModel, floor: float):
    """Coefficients constant across pi, and delta and eta at least ``floor``."""
    return [
        _at_most("coefficient spread across pi", model.residual_max, VALIDATION_TOL),
        _at_least("delta", model.delta, floor),
        _at_least("eta", model.eta, floor),
    ]


def _selection_model_reports(s: PotentialOutcomeScenario, model: _SelectionModel, thm: str,
                             fit: str, floor: float):
    """The coefficient and outcome-association reports shared by the
    additive (cor3) and multiplicative (cor4) selection models."""
    theta = _at_least("theta", model.theta, floor)
    return [
        _report(f"{thm}.{fit}", [*_coefficient_checks(model, floor), theta]),
        _report(f"{thm}.b", _odds_ratio_checks(s)),
    ]


def check_cor3(s: PotentialOutcomeScenario) -> list[ConditionReport]:
    """Binary-outcome additive selection model with nonnegative coefficients,
    plus nonnegative association between the potential outcomes."""
    return _selection_model_reports(s, fit_cor3_model(s), "cor3", "a", 0.0)


def check_cor4(s: PotentialOutcomeScenario) -> list[ConditionReport]:
    """Binary-outcome multiplicative selection model with coefficients at
    least 1, plus nonnegative outcome association."""
    return _selection_model_reports(s, fit_cor4_model(s), "cor4", "a'", 1.0)


def check_thm5_binary(s: PotentialOutcomeScenario) -> list[ConditionReport]:
    """Binary-outcome reading of the interaction-free additive selection
    model: the saturated fit must have no interaction term, nonnegative main
    effects, nonnegative outcome association, and a top outcome level whose
    conditional mass never vanishes (the finite essential-supremum analogue)."""
    model = fit_cor3_model(s)
    no_interaction = ("theta = 0", model.theta, 0.0, VALIDATION_TOL - abs(model.theta))
    a = _report("thm5b.a", [*_coefficient_checks(model, 0.0), no_interaction])
    b = _report("thm5b.b", _odds_ratio_checks(s))
    index = _binary_pair_index(s)
    m11, m10, m01, m00 = (s.pair_pmf[index[pair]] for pair in _PAIRS)
    checks = []
    # Per given outcome, its levels 0 and 1 as (top, bottom): the masses with
    # the other outcome 1 and 0.  The other outcome's esssup at a level is
    # 1.0 when its top cell has mass; both levels need mass to be compared.
    for given, other, levels in ((1, 0, ((m01, m00), (m11, m10))),
                                 (0, 1, ((m10, m00), (m11, m01)))):
        if all(top > 0.0 or bottom > 0.0 for top, bottom in levels):
            (top0, _), (top1, _) = levels
            checks.append(_equal(f"esssup Y({other}) | Y({given}): 0.0 vs 1.0",
                                 float(top1 > 0.0), float(top0 > 0.0)))
    c = _report("thm5b.c", checks)
    return [a, b, c]


def _grid_checks(s: DiscreteScenario, table, head: str) -> list:
    """``table`` (indexed [z][u]) non-decreasing in z at every u, then in u
    at every z; ``head`` opens each cell label."""
    by_z, by_u = head + "., u={at}): z {lo}->{hi}", head + "z={at}, .): u {lo}->{hi}"
    return ([_at_least((by_z, s.z_support, u), column[1:], column[:-1])
             for u, column in zip(s.u_support, zip(*table))]
            + [_at_least((by_u, s.u_support, z), row[1:], row[:-1])
               for z, row in zip(s.z_support, table)])


def check_thm7(s: DiscreteScenario) -> list[ConditionReport]:
    """Conditions allowing a direct instrument-to-outcome effect: treatment
    and outcome tables monotone in both coordinates, and the within-arm
    outcome-by-instrument means still non-increasing."""
    return [
        _report("thm7.a.treat", _grid_checks(s, s.treat, "treat(")),
        _report("thm7.a.mean", _grid_checks(s, s.outcome_mean[0], "E(Y|A=0, ")
                + _grid_checks(s, s.outcome_mean[1], "E(Y|A=1, ")),
        _outcome_by_z_report("thm7.b", s),
    ]


@dataclass(frozen=True)
class SlotOrdering:
    """Ordering facts for one population slot."""

    slot: str
    signed_ordering: bool       # adjusted >= unadjusted >= true, weakly
    amplification: bool         # |adjusted - true| >= |unadjusted - true|, weakly
    ordering_margin: float
    amplification_margin: float


@dataclass(frozen=True)
class ZbiasVerdict:
    """Bias-amplification verdict for an estimate set.

    ``zbias`` is the headline call: strictly larger adjusted bias on the
    whole population.  Exact ties (within 1e-12) are flagged and count as no
    amplification.
    """

    slots: tuple[SlotOrdering, ...]
    zbias: bool
    tie: bool

    @property
    def label(self) -> str:
        return "YES" if self.zbias else "NO"


def _amplification(bias_adj, bias_unadj):
    """(amplified, tie): |bias_adj| exceeds |bias_unadj| by more than 1e-12,
    or the two agree within 1e-12.  Floats give bools, numpy arrays give
    boolean arrays."""
    gap = abs(bias_adj) - abs(bias_unadj)
    return gap > IDENTITY_TOL, abs(gap) <= IDENTITY_TOL


def zbias_verdict(e: EstimateSet) -> ZbiasVerdict:
    """Judge amplification: per-slot orderings plus the strict whole-population call."""
    slots = []
    for name, adj, true in (
        ("treated", e.adj_treated, e.true_treated),
        ("control", e.adj_control, e.true_control),
        ("all", e.adj_all, e.true_all),
    ):
        ordering_margin = min(adj - e.unadj, e.unadj - true)
        amp_margin = abs(adj - true) - abs(e.unadj - true)
        slots.append(
            SlotOrdering(
                slot=name,
                signed_ordering=ordering_margin >= -IDENTITY_TOL,
                amplification=amp_margin >= -IDENTITY_TOL,
                ordering_margin=ordering_margin,
                amplification_margin=amp_margin,
            )
        )
    zbias, tie = _amplification(e.adj_all - e.true_all, e.unadj - e.true_all)
    return ZbiasVerdict(slots=tuple(slots), zbias=zbias, tie=tie)
