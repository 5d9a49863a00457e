"""Domain types for fully specified discrete data-generating processes.

A scenario pins down the joint law of an instrument-like covariate Z, an
unmeasured confounder U, a binary treatment A and an outcome Y.  Z and U are
independent by construction; the treatment table gives Pr(A=1|Z,U) and the
outcome table gives E(Y|A,U) (optionally E(Y|A,Z,U) when a direct Z-to-Y
effect is modelled).  All downstream computation (estimands, condition
checks, Monte Carlo) consumes these types.

Types are frozen dataclasses validated at construction (worlds derived from a
validated one are built by ``_valid``, unchecked); every operation is a pure
function of its inputs, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from math import fsum
from operator import lt, mul

from .errors import InvariantViolation

# Exact-identity comparisons (convex combinations, round-trips, ties).
IDENTITY_TOL = 1e-12
# Input validation (pmf sums, model-fit residuals, law/mean agreement).
VALIDATION_TOL = 1e-9
# Instrument levels whose propensities agree within this merge when
# adjustment conditions on the propensity.
PROPENSITY_MERGE_TOL = 1e-9

# The ten parameters of a binary world, in the order of its file keys, its
# scatter CSV columns and its Monte Carlo draws.  pZU cells use z as the
# first digit (p10 = Pr(A=1 | Z=1, U=0)); rAU cells are E(Y | A=a, U=u).
_BINARY_KEYS = ("pZ", "pU", "p11", "p10", "p01", "p00", "r11", "r10", "r01", "r00")


def _as_float(value, name: str, finite: bool = False) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation("must be a number", field=name) from exc
    except OverflowError as exc:  # an int beyond the double range
        raise InvariantViolation("must be finite", field=name) from exc
    if math.isnan(out):
        raise InvariantViolation("must not be NaN", field=name)
    if finite and math.isinf(out):
        raise InvariantViolation("must be finite", field=name)
    return out


def _floats(values):
    """The floats of ``values`` as a list (faster to build from ``map`` than
    a tuple), in one pass, or None when a value does not convert or the sum
    is not finite (a NaN or infinity to name)."""
    try:
        out = [*map(float, values)]
    except (TypeError, ValueError, OverflowError):
        return None
    return out if math.isfinite(sum(out)) else None


def _float_tuple(values, name, finite: bool = False) -> tuple[float, ...]:
    """Floats of ``values`` by ``_floats``; on a fault each value is
    converted again so that the first bad one is named ``name`` (``name(k)``
    when callable)."""
    values = tuple(values)
    return tuple(_floats(values) or (
        _as_float(v, name(k) if callable(name) else name, finite) for k, v in enumerate(values)))


def _float_pairs(pairs, name, finite: bool) -> tuple[tuple[float, float], ...]:
    """Float pairs (x, y) of ``pairs`` by ``_floats``, x finite and y too
    when ``finite``; on a fault the pairs are walked again in order, naming
    the first bad value ``name`` (``name()`` when callable)."""
    pairs = tuple(pairs)
    flat = _floats(c for x, y in pairs for c in (x, y))
    if flat is not None:
        return tuple(zip(flat[::2], flat[1::2]))
    name = name() if callable(name) else name
    return tuple((_as_float(x, name, True), _as_float(y, name, finite)) for x, y in pairs)


def _valid(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields``, in declaration
    order (which ``vars`` follows), unchecked: values of the types its
    validator stores that follow from a world already checked."""
    out = object.__new__(cls)
    out.__dict__.update([(name, fields[name]) for name in cls.__dataclass_fields__])
    return out


def _total(terms) -> float:
    """``fsum`` of a sequence, or its plain float sum (an infinity or NaN)
    when a partial sum overflows or infinities of both signs meet."""
    try:
        return fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def _check_cells(row: tuple[float, ...], name, unit=False, finite=False) -> None:
    """One bulk test of a nonempty, NaN-free row: each cell finite (when
    ``finite``) and in [0, 1] (when ``unit``).  On a fault the row is walked
    to name the first bad cell ``name[k]`` (``name(k)`` when callable)."""
    if (not finite or math.isfinite(sum(row))) and (
            not unit or 0.0 <= min(row) <= max(row) <= 1.0):
        return
    for k, value in enumerate(row):
        field = name(k) if callable(name) else f"{name}[{k}]"
        if finite and not math.isfinite(value):
            raise InvariantViolation("must be finite", field=field)
        if unit and not 0.0 <= value <= 1.0:
            raise InvariantViolation(f"must lie in [0, 1], got {value!r}", field=field)


_SEQUENCES = {tuple, list}


def _runs(items, size: int):
    """Consecutive runs of ``size`` items, as tuples."""
    return zip(*[iter(items)] * size)


def _grids(tables, names, n_rows: int, n_cols: int, unit=False, finite=False, row_check=None):
    """``tables`` (table t named ``names[t]``) as ``n_rows`` rows of
    ``n_cols`` floats, each cell finite (when ``finite``) and in [0, 1]
    (when ``unit``); ``row_check(k, row)`` then runs on each table's row k.
    Tuple and list tables are converted in one pass when one test over every
    cell passes.  Otherwise every row is converted by ``_float_tuple`` and
    each table walked (row count, then per row its entry count, cells and
    ``row_check``) to name the first fault."""
    cells = None
    if (type(tables) in _SEQUENCES and {*map(type, tables)} <= _SEQUENCES
            and {*map(len, tables)} == {n_rows}):
        rows = list(chain.from_iterable(tables))
        if {*map(type, rows)} <= _SEQUENCES and {*map(len, rows)} == {n_cols}:
            cells = _floats(chain.from_iterable(rows))
    if cells is not None and (not unit or 0.0 <= min(cells) and max(cells) <= 1.0):
        grids = tuple(_runs(_runs(cells, n_cols), n_rows))
        if row_check is not None:  # no cell fault is left to come first
            for k, row in enumerate(chain.from_iterable(grids)):
                row_check(k % n_rows, row)
        return grids
    grids = tuple(tuple(_float_tuple(row, f"{name}[{k}]") for k, row in enumerate(table))
                  for name, table in zip(names, tables))
    for name, table in zip(names, grids):
        if len(table) != n_rows:
            raise InvariantViolation(f"expected {n_rows} rows", field=name)
        for k, row in enumerate(table):
            if len(row) != n_cols:
                raise InvariantViolation(f"expected {n_cols} entries", field=f"{name}[{k}]")
            _check_cells(row, f"{name}[{k}]", unit, finite)
            if row_check is not None:
                row_check(k, row)
    return grids


def _binary_table(table, head: str, **cells):
    """A 2x2 table as two rows of floats, cell (i, k) named ``{head}{i}{k}``."""
    if len(table) != 2 or any(len(row) != 2 for row in table):
        raise InvariantViolation("must be a 2x2 table", field=head)
    name = lambda k: f"{head}{k >> 1}{k & 1}"
    flat = _float_tuple((table[0][0], table[0][1], table[1][0], table[1][1]), name)
    _check_cells(flat, name, **cells)
    return flat[:2], flat[2:]


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
    total = _total(pmf)
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
        names = _BINARY_KEYS.__getitem__
        z_prob, u_prob = _float_tuple((self.z_prob, self.u_prob), names)
        object.__setattr__(self, "z_prob", z_prob)
        object.__setattr__(self, "u_prob", u_prob)
        _check_cells((z_prob, u_prob), names, unit=True)
        object.__setattr__(self, "treat", _binary_table(self.treat, "p", unit=True))
        mean = _binary_table(self.outcome_mean, "r", finite=True, unit=self.binary_outcome)
        object.__setattr__(self, "outcome_mean", mean)
        object.__setattr__(self, "binary_outcome", bool(self.binary_outcome))


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
        n_z, n_u = self.n_z, self.n_u
        _check_pmf(self.z_pmf, n_z, "z_pmf")
        _check_pmf(self.u_pmf, n_u, "u_pmf")

        # Each table is tested whole; only a failed test walks its rows.
        if len(self.treat) != n_z:  # counted before any row is converted
            raise InvariantViolation(f"expected {n_z} rows", field="treat")
        treat, = _grids((self.treat,), ("treat",), n_z, n_u, unit=True)
        object.__setattr__(self, "treat", treat)
        if len(self.outcome_mean) != 2:
            raise InvariantViolation("expected tables for a=0 and a=1", field="mean")
        mean = _grids(self.outcome_mean, ("mean[0]", "mean[1]"), n_z, n_u,
                      finite=True, unit=self.binary_outcome)
        object.__setattr__(self, "outcome_mean", mean)
        if self.outcome_law is not None:
            object.__setattr__(self, "outcome_law", self._checked_law())

    def _checked_law(self) -> OutcomeLaw:
        """The outcome law converted pair by pair and checked against the
        means by one test per cell; a cell that fails it is checked again,
        one condition at a time, so that the first fault is named."""
        law = tuple(
            tuple(_float_pairs(cell, lambda: f"law[{a}][{j}]", finite=False)
                  for j, cell in enumerate(arm))
            for a, arm in enumerate(self.outcome_law)
        )
        if len(law) != 2 or any(len(arm) != self.n_u for arm in law):
            raise InvariantViolation("expected one distribution per (a, u) cell", field="law")
        binary = self.binary_outcome
        for a in (0, 1):
            for j, (cell, column) in enumerate(zip(law[a], zip(*self.outcome_mean[a]))):
                values, probs = tuple(zip(*cell)) or ((), ())
                law_mean = _total(list(map(mul, values, probs)))
                # IEEE subtraction is monotone, so the column's extremes
                # bound every |law_mean - mean| exactly.
                if (values and all(map(lt, values, values[1:])) and min(probs) >= 0.0
                        and abs(_total(probs) - 1.0) <= VALIDATION_TOL
                        and (not binary or {0.0, 1.0}.issuperset(values))
                        and abs(law_mean - min(column)) <= VALIDATION_TOL
                        and abs(law_mean - max(column)) <= VALIDATION_TOL):
                    continue
                name = f"law[{a}][{j}]"
                _check_strictly_increasing(values, name)
                _check_pmf(probs, len(probs), name)
                if binary and not {0.0, 1.0}.issuperset(values):
                    raise InvariantViolation(
                        "binary outcome law must be supported on {0, 1}", field=name
                    )
                i = next(i for i, m in enumerate(column) if abs(law_mean - m) > VALIDATION_TOL)
                raise InvariantViolation(
                    f"law mean {law_mean!r} does not match mean[{a}][{i}][{j}] = {column[i]!r}",
                    field=name,
                )
        return law

    @property
    def n_z(self) -> int:
        return len(self.z_support)

    @property
    def n_u(self) -> int:
        return len(self.u_support)

    def outcome_mean_depends_on_z(self) -> bool:
        """True when some E(Y|A=a,Z=z,U=u) varies with z beyond ``IDENTITY_TOL``."""
        for a in (0, 1):
            arm = self.outcome_mean[a]
            base = arm[0]
            if arm.count(base) == len(arm):  # every row equals row 0: no gap at all
                continue
            for row in arm[1:]:
                if any(abs(x - y) > IDENTITY_TOL for x, y in zip(row, base)):
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
        pairs = _float_pairs(self.y_pairs, "y_pairs", finite=True)
        object.__setattr__(self, "y_pairs", pairs)
        object.__setattr__(self, "pair_pmf", _float_tuple(self.pair_pmf, "y_pairs"))
        _check_strictly_increasing(self.pi_support, "pi_support")
        _check_cells(self.pi_support, "pi_support", unit=True)
        _check_pmf(self.pi_pmf, len(self.pi_support), "pi_pmf")
        if not pairs:
            raise InvariantViolation("must be nonempty", field="y_pairs")
        if len(set(pairs)) != len(pairs):
            raise InvariantViolation("pairs must be distinct", field="y_pairs")
        _check_pmf(self.pair_pmf, len(pairs), "y_pairs")

        def implies_pi(k, row):
            implied = _treated_fraction(self.pair_pmf, row)
            if abs(implied - self.pi_support[k]) > VALIDATION_TOL:
                raise InvariantViolation(
                    f"Pr(A=1|pi)=pi must hold: treatment table implies {implied!r} "
                    f"at pi={self.pi_support[k]!r}",
                    field=f"treat[{k}]",
                )

        if len(self.treat) != self.n_pi:  # counted before any row is converted
            raise InvariantViolation(f"expected {self.n_pi} rows", field="treat")
        treat, = _grids((self.treat,), ("treat",), self.n_pi, len(pairs), unit=True,
                        row_check=implies_pi)
        object.__setattr__(self, "treat", treat)

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
        # A file writes the label as one word of its 'begin stratum' line.
        label = self.label
        if not isinstance(label, str) or label.split() != [label] or "#" in label:
            raise InvariantViolation(
                f"must be a nonempty string without whitespace or '#', got {label!r}",
                field="stratum label",
            )
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
        total = _total([st.weight for st in self.strata])
        if abs(total - 1.0) > VALIDATION_TOL:
            raise InvariantViolation(f"weights must sum to 1, got {total!r}", field="strata")


def _binary_params(s: BinaryScenario) -> tuple[float, ...]:
    """The ten parameters of ``s`` in ``_BINARY_KEYS`` order."""
    (p00, p01), (p10, p11) = s.treat
    (r00, r01), (r10, r11) = s.outcome_mean
    return s.z_prob, s.u_prob, p11, p10, p01, p00, r11, r10, r01, r00


def _binary_scenario(params, binary_outcome: bool = True) -> BinaryScenario:
    """The binary world of ten parameters in ``_BINARY_KEYS`` order."""
    p_z, p_u, p11, p10, p01, p00, r11, r10, r01, r00 = params
    return BinaryScenario(z_prob=p_z, u_prob=p_u, treat=((p00, p01), (p10, p11)),
                          outcome_mean=((r00, r01), (r10, r11)), binary_outcome=binary_outcome)


def _treated_fraction(pmf, treat) -> float:
    """Pr(A=1) of a law with masses ``pmf`` and treatment probabilities
    ``treat``: the compensated sum of their products."""
    return fsum(map(mul, pmf, treat))


def to_discrete(scenario: BinaryScenario) -> DiscreteScenario:
    """Embed a binary scenario into the general finite-support form.

    Supports become {0, 1}; the outcome table is constant in z.  When the
    outcome is binary a two-point outcome law is attached so distributional
    effects are available on the converted scenario.  It is valid, and not
    checked again: each pmf (1 - p, p) and law (0: 1 - r, 1: r) has mass
    within an ulp of 1, and the law has mean r.
    """
    law = None
    if scenario.binary_outcome:
        law = tuple(tuple(((0.0, 1.0 - r), (1.0, r)) for r in m) for m in scenario.outcome_mean)
    return _valid(
        DiscreteScenario,
        z_support=(0.0, 1.0),
        z_pmf=(1.0 - scenario.z_prob, scenario.z_prob),
        u_support=(0.0, 1.0),
        u_pmf=(1.0 - scenario.u_prob, scenario.u_prob),
        treat=scenario.treat,
        outcome_mean=tuple((row, row) for row in scenario.outcome_mean),
        outcome_law=law,
        binary_outcome=scenario.binary_outcome,
    )


def _propensity_values(scenario: DiscreteScenario) -> list[float]:
    return [_treated_fraction(scenario.u_pmf, row) for row in scenario.treat]


def propensity(scenario: DiscreteScenario) -> dict[float, float]:
    """Pr(A=1 | Z=z) for each instrument level, marginalising the confounder."""
    return dict(zip(scenario.z_support, _propensity_values(scenario)))


def _merged(weights, table, group, cap=True) -> tuple[float, ...]:
    """The ``weights``-average of the ``group`` rows of ``table``, summed
    column by column with ``_total``.  The weights can sum to 1 + 2^-52, so
    with ``cap`` an average above 1 is set to 1."""
    row = tuple(map(_total, zip(*[map(mul, repeat(w), table[i]) for w, i in zip(weights, group)])))
    return tuple(map(min, row, repeat(1.0))) if cap and max(row) > 1.0 else row


def collapse_by_propensity(
    scenario: DiscreteScenario, tol: float = PROPENSITY_MERGE_TOL
) -> DiscreteScenario:
    """Merge instrument levels whose propensities differ by at most ``tol``.

    Merged levels are relabelled by their propensity (the merged treatment
    row's own marginal), masses add, and treatment/outcome rows combine as
    mass-weighted averages.  The result has an injective propensity map, and
    collapsing an already collapsed scenario returns it unchanged.  It is
    not checked again unless a merge breaks an invariant: with ``tol = 0`` a
    new label can land an ulp from its neighbour's, and a merged mean can
    overflow; then ``replace`` validates it and names the fault.  The pmf
    sum and the law-mean gaps move only by the rounding of a convex
    combination.
    """
    tol = _as_float(tol, "tol")
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

    support, pmf, treat_rows, mean_rows, finite = [], [], [], [], True
    for group in groups:
        # Each level is labelled with its row's own propensity, so that the
        # collapsed scenario satisfies propensity(z) == z exactly.
        if len(group) == 1:
            i = group[0]
            label, mass, treat_row = pi[i], scenario.z_pmf[i], scenario.treat[i]
            means = (scenario.outcome_mean[0][i], scenario.outcome_mean[1][i])
        else:
            mass = fsum(scenario.z_pmf[i] for i in group)
            if mass > 0.0:
                weights = [scenario.z_pmf[i] / mass for i in group]
            else:
                weights = [1.0 / len(group)] * len(group)
            treat_row = _merged(weights, scenario.treat, group)
            label = _treated_fraction(scenario.u_pmf, treat_row)
            means = tuple(_merged(weights, arm, group, scenario.binary_outcome)
                          for arm in scenario.outcome_mean)
            finite = finite and all(map(math.isfinite, means[0] + means[1]))
        support.append(label)
        pmf.append(mass)
        treat_rows.append(treat_row)
        mean_rows.append(means)

    fields = dict(
        z_support=tuple(support),
        z_pmf=tuple(pmf),
        treat=tuple(treat_rows),
        outcome_mean=(tuple(m[0] for m in mean_rows), tuple(m[1] for m in mean_rows)),
    )
    if not (finite and all(map(lt, support, support[1:]))):
        return replace(scenario, **fields)
    return _valid(DiscreteScenario, **{**vars(scenario), **fields})
