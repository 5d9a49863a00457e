"""The three scenario constructors and their validation helpers as they
stood before the shared validation core, kept verbatim (imports made
absolute) as the reference for ``tests/test_scenario_differential.py``.
It imports nothing from the package but its error classes, so it pins
validation: which inputs are accepted, what is stored, and which error is
raised first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

from zbias.errors import InvariantViolation

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
