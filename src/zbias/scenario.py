"""Domain types for fully specified discrete data-generating processes.

A scenario pins down the joint law of an instrument-like covariate Z, an
unmeasured confounder U, a binary treatment A and an outcome Y.  Z and U are
independent by construction; the treatment table gives Pr(A=1|Z,U) and the
outcome table gives E(Y|A,U) (optionally E(Y|A,Z,U) when a direct Z-to-Y
effect is modelled).  All downstream computation (estimands, condition
checks, Monte Carlo) consumes these types.

Types are frozen dataclasses validated at construction; every operation is a
pure function of its inputs, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

from .errors import InvariantViolation

# Exact-identity comparisons (convex combinations, round-trips, ties).
IDENTITY_TOL = 1e-12
# Input validation (pmf sums, model-fit residuals, law/mean agreement).
VALIDATION_TOL = 1e-9
# Default tolerance for merging instrument levels with equal propensity.
PROPENSITY_MERGE_TOL = 1e-9


def _as_float(value, name: str, finite: bool = False) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation("must be a number", field=name) from exc
    if math.isnan(out):
        raise InvariantViolation("must not be NaN", field=name)
    if finite and math.isinf(out):
        raise InvariantViolation("must be finite", field=name)
    return out


def _float_tuple(values, name: str, finite: bool = False) -> tuple[float, ...]:
    values = tuple(values)
    try:
        out = tuple(map(float, values))
        if math.isfinite(sum(out)):  # no NaN or infinity, so nothing to name
            return out
    except (TypeError, ValueError):
        pass
    return tuple(_as_float(v, name, finite) for v in values)


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvariantViolation(f"must lie in [0, 1], got {value!r}", field=name)


def _in_unit_interval(row: tuple[float, ...]) -> bool:
    # Exact for a nonempty row without NaN, which min and max could skip.
    return 0.0 <= min(row) and max(row) <= 1.0


def _check_probs(row: tuple[float, ...], name: str) -> None:
    """``_check_prob`` on each entry of a nonempty, NaN-free row, naming the
    first bad one ``name[k]``."""
    if not _in_unit_interval(row):
        for k, value in enumerate(row):
            _check_prob(value, f"{name}[{k}]")


def _check_strictly_increasing(values: tuple[float, ...], name: str) -> None:
    if not values:
        raise InvariantViolation("must be nonempty", field=name)
    for a, b in zip(values, values[1:]):
        if not b > a:
            raise InvariantViolation(
                f"must be strictly increasing, got {a!r} before {b!r}", field=name
            )


def _check_pmf(pmf: tuple[float, ...], size: int, name: str) -> None:
    if len(pmf) != size:
        raise InvariantViolation(f"expected {size} entries, got {len(pmf)}", field=name)
    if not (pmf and min(pmf) >= 0.0 and math.isfinite(sum(pmf))):
        for k, p in enumerate(pmf):
            if p < 0.0 or not math.isfinite(p):
                raise InvariantViolation(f"entry {k} must be nonnegative, got {p!r}", field=name)
    total = fsum(pmf)
    if abs(total - 1.0) > VALIDATION_TOL:
        raise InvariantViolation(f"must sum to 1, got {total!r}", field=name)


@dataclass(frozen=True)
class BinaryScenario:
    """Binary-instrument, binary-confounder world described by ten probabilities.

    ``treat[z][u]`` is Pr(A=1 | Z=z, U=u) and ``outcome_mean[a][u]`` is
    E(Y | A=a, U=u); with a binary outcome the latter are probabilities.
    Z ~ Bernoulli(z_prob) and U ~ Bernoulli(u_prob) are independent.
    """

    z_prob: float
    u_prob: float
    treat: tuple[tuple[float, float], tuple[float, float]]
    outcome_mean: tuple[tuple[float, float], tuple[float, float]]
    binary_outcome: bool = True

    def __post_init__(self):
        object.__setattr__(self, "z_prob", _as_float(self.z_prob, "pZ"))
        object.__setattr__(self, "u_prob", _as_float(self.u_prob, "pU"))
        _check_prob(self.z_prob, "pZ")
        _check_prob(self.u_prob, "pU")
        if len(self.treat) != 2 or any(len(row) != 2 for row in self.treat):
            raise InvariantViolation("must be a 2x2 table", field="p")
        treat = tuple(
            tuple(_as_float(self.treat[z][u], f"p{z}{u}") for u in (0, 1)) for z in (0, 1)
        )
        object.__setattr__(self, "treat", treat)
        for z in (0, 1):
            for u in (0, 1):
                _check_prob(treat[z][u], f"p{z}{u}")
        if len(self.outcome_mean) != 2 or any(len(row) != 2 for row in self.outcome_mean):
            raise InvariantViolation("must be a 2x2 table", field="r")
        mean = tuple(
            tuple(_as_float(self.outcome_mean[a][u], f"r{a}{u}") for u in (0, 1))
            for a in (0, 1)
        )
        object.__setattr__(self, "outcome_mean", mean)
        object.__setattr__(self, "binary_outcome", bool(self.binary_outcome))
        for a in (0, 1):
            for u in (0, 1):
                if not math.isfinite(mean[a][u]):
                    raise InvariantViolation("must be finite", field=f"r{a}{u}")
                if self.binary_outcome:
                    _check_prob(mean[a][u], f"r{a}{u}")


# outcome_law[a][u_index] is a finite distribution ((value, prob), ...) of Y
# given A=a, U=u; present only when distributional effects are wanted.
OutcomeLaw = tuple[tuple[tuple[tuple[float, float], ...], ...], ...]


@dataclass(frozen=True)
class DiscreteScenario:
    """General finite-support instrument and confounder.

    ``treat[i][j]`` is Pr(A=1 | Z=z_i, U=u_j) and ``outcome_mean[a][i][j]``
    is E(Y | A=a, Z=z_i, U=u_j).  Scenarios without a direct Z-to-Y arrow
    keep the outcome table constant in the z index.  Support sequences are
    strictly increasing; their order defines every monotonicity check.
    """

    z_support: tuple[float, ...]
    z_pmf: tuple[float, ...]
    u_support: tuple[float, ...]
    u_pmf: tuple[float, ...]
    treat: tuple[tuple[float, ...], ...]
    outcome_mean: tuple[tuple[tuple[float, ...], ...], ...]
    outcome_law: OutcomeLaw | None = None
    binary_outcome: bool = False

    def __post_init__(self):
        for name in ("z_support", "u_support"):
            object.__setattr__(self, name, _float_tuple(getattr(self, name), name, finite=True))
        object.__setattr__(self, "z_pmf", _float_tuple(self.z_pmf, "z_pmf"))
        object.__setattr__(self, "u_pmf", _float_tuple(self.u_pmf, "u_pmf"))
        object.__setattr__(self, "binary_outcome", bool(self.binary_outcome))
        _check_strictly_increasing(self.z_support, "z_support")
        _check_strictly_increasing(self.u_support, "u_support")
        _check_pmf(self.z_pmf, self.n_z, "z_pmf")
        _check_pmf(self.u_pmf, self.n_u, "u_pmf")

        if len(self.treat) != self.n_z:
            raise InvariantViolation(f"expected {self.n_z} rows", field="treat")
        treat = tuple(
            _float_tuple(row, f"treat[{i}]") for i, row in enumerate(self.treat)
        )
        object.__setattr__(self, "treat", treat)
        for i, row in enumerate(treat):
            if len(row) != self.n_u:
                raise InvariantViolation(f"expected {self.n_u} entries", field=f"treat[{i}]")
            _check_probs(row, f"treat[{i}]")

        if len(self.outcome_mean) != 2:
            raise InvariantViolation("expected tables for a=0 and a=1", field="mean")
        mean = tuple(
            tuple(_float_tuple(row, f"mean[{a}][{i}]") for i, row in enumerate(arm))
            for a, arm in enumerate(self.outcome_mean)
        )
        object.__setattr__(self, "outcome_mean", mean)
        for a in (0, 1):
            if len(mean[a]) != self.n_z:
                raise InvariantViolation(f"expected {self.n_z} rows", field=f"mean[{a}]")
            for i, row in enumerate(mean[a]):
                if len(row) != self.n_u:
                    raise InvariantViolation(
                        f"expected {self.n_u} entries", field=f"mean[{a}][{i}]"
                    )
                if math.isfinite(sum(row)) and (
                    not self.binary_outcome or _in_unit_interval(row)
                ):
                    continue
                for j, cell in enumerate(row):
                    if not math.isfinite(cell):
                        raise InvariantViolation("must be finite", field=f"mean[{a}][{i}][{j}]")
                    if self.binary_outcome:
                        _check_prob(cell, f"mean[{a}][{i}][{j}]")

        if self.outcome_law is not None:
            law = tuple(
                tuple(
                    tuple(
                        (_as_float(v, f"law[{a}][{j}]", finite=True),
                         _as_float(p, f"law[{a}][{j}]"))
                        for v, p in law_au
                    )
                    for j, law_au in enumerate(arm)
                )
                for a, arm in enumerate(self.outcome_law)
            )
            object.__setattr__(self, "outcome_law", law)
            if len(law) != 2 or any(len(arm) != self.n_u for arm in law):
                raise InvariantViolation(
                    "expected one distribution per (a, u) cell", field="law"
                )
            columns = [tuple(zip(*mean[a])) for a in (0, 1)]
            for a in (0, 1):
                for j in range(self.n_u):
                    name = f"law[{a}][{j}]"
                    values = tuple(v for v, _ in law[a][j])
                    probs = tuple(p for _, p in law[a][j])
                    _check_strictly_increasing(values, name)
                    _check_pmf(probs, len(probs), name)
                    if self.binary_outcome and any(v not in (0.0, 1.0) for v in values):
                        raise InvariantViolation(
                            "binary outcome law must be supported on {0, 1}", field=name
                        )
                    law_mean = fsum(v * p for v, p in law[a][j])
                    # IEEE subtraction is monotone, so the column's extremes
                    # bound every |law_mean - mean| exactly.
                    column = columns[a][j]
                    gaps = (abs(law_mean - min(column)), abs(law_mean - max(column)))
                    if max(gaps) > VALIDATION_TOL:
                        i = next(i for i, m in enumerate(column)
                                 if abs(law_mean - m) > VALIDATION_TOL)
                        raise InvariantViolation(
                            f"law mean {law_mean!r} does not match "
                            f"mean[{a}][{i}][{j}] = {column[i]!r}",
                            field=name,
                        )

    @property
    def n_z(self) -> int:
        return len(self.z_support)

    @property
    def n_u(self) -> int:
        return len(self.u_support)

    def outcome_mean_depends_on_z(self, tol: float = IDENTITY_TOL) -> bool:
        """True when some E(Y|A=a,Z=z,U=u) varies with z beyond ``tol``."""
        for a in (0, 1):
            base = self.outcome_mean[a][0]
            for row in self.outcome_mean[a][1:]:
                if any(abs(x - y) > tol for x, y in zip(row, base)):
                    return True
        return False


@dataclass(frozen=True)
class PotentialOutcomeScenario:
    """World where the confounder is the pair of potential outcomes.

    The instrument is summarised by its scalar propensity ``pi``; the joint
    law of (Y(1), Y(0)) is independent of ``pi``; ``treat[k][j]`` is
    Pr(A=1 | pi_k, pair_j).  The defining property Pr(A=1 | pi) = pi must
    hold at every support point.
    """

    pi_support: tuple[float, ...]
    pi_pmf: tuple[float, ...]
    y_pairs: tuple[tuple[float, float], ...]
    pair_pmf: tuple[float, ...]
    treat: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "pi_support", _float_tuple(self.pi_support, "pi_support", finite=True)
        )
        object.__setattr__(self, "pi_pmf", _float_tuple(self.pi_pmf, "pi_pmf"))
        pairs = tuple(
            (_as_float(y1, "y_pairs", finite=True), _as_float(y0, "y_pairs", finite=True))
            for y1, y0 in self.y_pairs
        )
        object.__setattr__(self, "y_pairs", pairs)
        object.__setattr__(self, "pair_pmf", _float_tuple(self.pair_pmf, "y_pairs"))
        _check_strictly_increasing(self.pi_support, "pi_support")
        _check_probs(self.pi_support, "pi_support")
        _check_pmf(self.pi_pmf, len(self.pi_support), "pi_pmf")
        if not pairs:
            raise InvariantViolation("must be nonempty", field="y_pairs")
        if len(set(pairs)) != len(pairs):
            raise InvariantViolation("pairs must be distinct", field="y_pairs")
        _check_pmf(self.pair_pmf, len(pairs), "y_pairs")

        if len(self.treat) != len(self.pi_support):
            raise InvariantViolation(
                f"expected {len(self.pi_support)} rows", field="treat"
            )
        treat = tuple(
            _float_tuple(row, f"treat[{k}]") for k, row in enumerate(self.treat)
        )
        object.__setattr__(self, "treat", treat)
        for k, row in enumerate(treat):
            if len(row) != len(pairs):
                raise InvariantViolation(f"expected {len(pairs)} entries", field=f"treat[{k}]")
            _check_probs(row, f"treat[{k}]")
            implied = fsum(t * p for t, p in zip(row, self.pair_pmf))
            if abs(implied - self.pi_support[k]) > VALIDATION_TOL:
                raise InvariantViolation(
                    f"Pr(A=1|pi)=pi must hold: treatment table implies {implied!r} "
                    f"at pi={self.pi_support[k]!r}",
                    field=f"treat[{k}]",
                )

    @property
    def n_pi(self) -> int:
        return len(self.pi_support)

    @property
    def n_pairs(self) -> int:
        return len(self.y_pairs)


@dataclass(frozen=True)
class Stratum:
    """One level of an observed covariate: a label, its mass, and its world."""

    label: str
    weight: float
    scenario: DiscreteScenario

    def __post_init__(self):
        object.__setattr__(self, "weight", _as_float(self.weight, "weight"))
        if self.weight < 0.0:
            raise InvariantViolation("must be nonnegative", field=f"stratum {self.label} weight")


@dataclass(frozen=True)
class CovariateFamily:
    """Collection of per-stratum scenarios with a law over the strata."""

    strata: tuple[Stratum, ...]

    def __post_init__(self):
        object.__setattr__(self, "strata", tuple(self.strata))
        if not self.strata:
            raise InvariantViolation("must contain at least one stratum", field="strata")
        total = fsum(st.weight for st in self.strata)
        if abs(total - 1.0) > VALIDATION_TOL:
            raise InvariantViolation(f"weights must sum to 1, got {total!r}", field="strata")


def to_discrete(scenario: BinaryScenario) -> DiscreteScenario:
    """Embed a binary scenario into the general finite-support form.

    Supports become {0, 1}; the outcome table is constant in z.  When the
    outcome is binary a two-point outcome law is attached so distributional
    effects are available on the converted scenario.
    """
    law = None
    if scenario.binary_outcome:
        law = tuple(
            tuple(
                ((0.0, 1.0 - scenario.outcome_mean[a][u]), (1.0, scenario.outcome_mean[a][u]))
                for u in (0, 1)
            )
            for a in (0, 1)
        )
    return DiscreteScenario(
        z_support=(0.0, 1.0),
        z_pmf=(1.0 - scenario.z_prob, scenario.z_prob),
        u_support=(0.0, 1.0),
        u_pmf=(1.0 - scenario.u_prob, scenario.u_prob),
        treat=scenario.treat,
        outcome_mean=(
            (scenario.outcome_mean[0], scenario.outcome_mean[0]),
            (scenario.outcome_mean[1], scenario.outcome_mean[1]),
        ),
        outcome_law=law,
        binary_outcome=scenario.binary_outcome,
    )


def _propensity_values(scenario: DiscreteScenario) -> list[float]:
    return [
        fsum(scenario.u_pmf[j] * scenario.treat[i][j] for j in range(scenario.n_u))
        for i in range(scenario.n_z)
    ]


def propensity(scenario: DiscreteScenario) -> dict[float, float]:
    """Pr(A=1 | Z=z) for each instrument level, marginalising the confounder."""
    return dict(zip(scenario.z_support, _propensity_values(scenario)))


def collapse_by_propensity(
    scenario: DiscreteScenario, tol: float = PROPENSITY_MERGE_TOL
) -> DiscreteScenario:
    """Merge instrument levels whose propensities differ by at most ``tol``.

    Merged levels are relabelled by their propensity (the merged treatment
    row's own marginal), masses add, and treatment/outcome rows combine as
    mass-weighted averages.  The result has an injective propensity map, and
    collapsing an already collapsed scenario returns it unchanged.
    """
    if tol < 0.0:
        raise InvariantViolation("must be nonnegative", field="tol")
    pi = _propensity_values(scenario)
    order = sorted(range(scenario.n_z), key=lambda i: (pi[i], scenario.z_support[i]))
    groups: list[list[int]] = []
    for i in order:
        if groups and pi[i] - pi[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])

    already_collapsed = (
        all(len(g) == 1 for g in groups)
        and [g[0] for g in groups] == list(range(scenario.n_z))
        and all(scenario.z_support[i] == pi[i] for i in range(scenario.n_z))
    )
    if already_collapsed:
        return scenario

    support: list[float] = []
    pmf: list[float] = []
    treat_rows: list[tuple[float, ...]] = []
    mean_rows: list[tuple[tuple[float, ...], tuple[float, ...]]] = []
    for group in groups:
        if len(group) == 1:
            i = group[0]
            mass = scenario.z_pmf[i]
            treat_row = scenario.treat[i]
            means = (scenario.outcome_mean[0][i], scenario.outcome_mean[1][i])
        else:
            mass = fsum(scenario.z_pmf[i] for i in group)
            if mass > 0.0:
                weights = [scenario.z_pmf[i] / mass for i in group]
            else:
                weights = [1.0 / len(group)] * len(group)
            treat_row = tuple(
                fsum(w * scenario.treat[i][j] for w, i in zip(weights, group))
                for j in range(scenario.n_u)
            )
            means = tuple(
                tuple(
                    fsum(w * scenario.outcome_mean[a][i][j] for w, i in zip(weights, group))
                    for j in range(scenario.n_u)
                )
                for a in (0, 1)
            )
        # Label with the merged row's own propensity so that the collapsed
        # scenario satisfies propensity(z) == z exactly.
        label = fsum(scenario.u_pmf[j] * treat_row[j] for j in range(scenario.n_u))
        support.append(label)
        pmf.append(mass)
        treat_rows.append(treat_row)
        mean_rows.append(means)

    return DiscreteScenario(
        z_support=tuple(support),
        z_pmf=tuple(pmf),
        u_support=scenario.u_support,
        u_pmf=scenario.u_pmf,
        treat=tuple(treat_rows),
        outcome_mean=(
            tuple(m[0] for m in mean_rows),
            tuple(m[1] for m in mean_rows),
        ),
        outcome_law=scenario.outcome_law,
        binary_outcome=scenario.binary_outcome,
    )
