"""Scenario file parsing and serialization.

Files are UTF-8 text with one ``key = value`` pair per line; ``#`` starts a
comment and blank lines are ignored.  The required ``kind`` key selects the
scenario type:

    kind = binary
        pZ, pU, p11, p10, p01, p00, r11, r10, r01, r00
        binary_outcome = true|false          (optional, default true)
        pZU keys use z as the first digit: p10 = Pr(A=1 | Z=1, U=0).

    kind = discrete
        z_support, z_pmf, u_support, u_pmf   (comma-separated numbers)
        treat[i][j]                          (i, j index the supports)
        mean[a][i][j]                        (a = 0 control, 1 treated)
        law[a][j] = v:p, v:p, ...            (optional outcome law per (a, u))
        binary_outcome = true|false          (optional, default false)

    kind = potential_outcomes
        pi_support, pi_pmf
        y_pairs = y1,y0:prob; y1,y0:prob; ...   (";" or whitespace separated)
        treat[k][j]                          (k over pi, j over y_pairs order)

    kind = covariate_family
        begin stratum <label> <weight>
            ...a discrete-kind body...
        end stratum

Parsing is locale-independent (dot decimal separator).  ``serialize_scenario``
emits this same format; parse . serialize is the identity on all fields.
"""

from __future__ import annotations

import re

from .errors import InvariantViolation, ScenarioFormatError
from .scenario import (
    BinaryScenario,
    CovariateFamily,
    DiscreteScenario,
    PotentialOutcomeScenario,
    Stratum,
)

Scenario = BinaryScenario | DiscreteScenario | PotentialOutcomeScenario | CovariateFamily

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\[\d+\])*$")

_BINARY_KEYS = ("pZ", "pU", "p11", "p10", "p01", "p00", "r11", "r10", "r01", "r00")


class _Entry:
    __slots__ = ("value", "line")

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line


def _parse_float(text: str, line: int, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioFormatError(f"{key}: not a number: {text!r}", line) from None


def _parse_float_list(text: str, line: int, key: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in text.split(",")]
    if items == [""]:
        raise ScenarioFormatError(f"{key}: empty list", line)
    return tuple(_parse_float(piece, line, key) for piece in items)


def _parse_bool(text: str, line: int, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ScenarioFormatError(f"{key}: expected true or false, got {text!r}", line)


def _scan(text: str):
    """Split file content into top-level entries and stratum blocks."""
    entries: dict[str, _Entry] = {}
    strata: list[tuple[str, float, dict[str, _Entry], int]] = []
    block: dict[str, _Entry] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("begin stratum"):
            if block is not None:
                raise ScenarioFormatError("nested stratum blocks are not allowed", lineno)
            parts = line.split()
            if len(parts) != 4:
                raise ScenarioFormatError(
                    "expected 'begin stratum <label> <weight>'", lineno
                )
            label = parts[2]
            weight = _parse_float(parts[3], lineno, "stratum weight")
            block = {}
            strata.append((label, weight, block, lineno))
            continue
        if line == "end stratum":
            if block is None:
                raise ScenarioFormatError("'end stratum' without matching begin", lineno)
            block = None
            continue
        if "=" not in line:
            raise ScenarioFormatError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ScenarioFormatError(f"malformed key {key!r}", lineno)
        target = block if block is not None else entries
        if key in target:
            raise ScenarioFormatError(f"duplicate key {key!r}", lineno)
        target[key] = _Entry(value, lineno)
    if block is not None:
        raise ScenarioFormatError("unterminated stratum block", strata[-1][3])
    return entries, strata


def _pop(entries: dict[str, _Entry], key: str) -> _Entry:
    if key not in entries:
        raise ScenarioFormatError(f"missing required key {key!r}")
    return entries.pop(key)


def _indexed(entries: dict[str, _Entry], base: str, depth: int):
    """Pull all 'base[i]...[k]' keys, returning {(i, ..., k): entry}."""
    # Every key matched _KEY_RE in _scan, so after the first '[' it is only
    # bracketed digit runs.
    prefix = base + "["
    found = {}
    for key in [k for k in entries if k.startswith(prefix)]:
        indices = tuple(map(int, key[len(prefix):-1].split("][")))
        if len(indices) != depth:
            raise ScenarioFormatError(
                f"{key}: expected {depth} indices", entries[key].line
            )
        found[indices] = entries.pop(key)
    return found


def _reject_unknown(entries: dict[str, _Entry]) -> None:
    if entries:
        key = min(entries, key=lambda k: entries[k].line)
        raise ScenarioFormatError(f"unknown key {key!r}", entries[key].line)


def _build_binary(entries: dict[str, _Entry]) -> BinaryScenario:
    values = {}
    for key in _BINARY_KEYS:
        entry = _pop(entries, key)
        values[key] = _parse_float(entry.value, entry.line, key)
    binary = True
    if "binary_outcome" in entries:
        entry = entries.pop("binary_outcome")
        binary = _parse_bool(entry.value, entry.line, "binary_outcome")
    _reject_unknown(entries)
    return BinaryScenario(
        z_prob=values["pZ"],
        u_prob=values["pU"],
        treat=((values["p00"], values["p01"]), (values["p10"], values["p11"])),
        outcome_mean=((values["r00"], values["r01"]), (values["r10"], values["r11"])),
        binary_outcome=binary,
    )


def _parse_law_entry(entry: _Entry, key: str):
    pairs = []
    for piece in entry.value.split(","):
        piece = piece.strip()
        if ":" not in piece:
            raise ScenarioFormatError(f"{key}: expected value:prob, got {piece!r}", entry.line)
        value, _, prob = piece.partition(":")
        pairs.append(
            (_parse_float(value.strip(), entry.line, key), _parse_float(prob.strip(), entry.line, key))
        )
    return tuple(pairs)


def _build_discrete(entries: dict[str, _Entry]) -> DiscreteScenario:
    lists = {}
    for key in ("z_support", "z_pmf", "u_support", "u_pmf"):
        entry = _pop(entries, key)
        lists[key] = _parse_float_list(entry.value, entry.line, key)
    n_z = len(lists["z_support"])
    n_u = len(lists["u_support"])

    treat_cells = _indexed(entries, "treat", 2)
    mean_cells = _indexed(entries, "mean", 3)
    law_cells = _indexed(entries, "law", 2)

    treat = []
    for i in range(n_z):
        row = []
        for j in range(n_u):
            if (i, j) not in treat_cells:
                raise ScenarioFormatError(f"missing required key 'treat[{i}][{j}]'")
            entry = treat_cells.pop((i, j))
            row.append(_parse_float(entry.value, entry.line, f"treat[{i}][{j}]"))
        treat.append(tuple(row))
    if treat_cells:
        indices = min(treat_cells, key=lambda k: treat_cells[k].line)
        raise ScenarioFormatError(
            "treat index out of range", treat_cells[indices].line
        )

    mean = []
    for a in (0, 1):
        arm = []
        for i in range(n_z):
            row = []
            for j in range(n_u):
                if (a, i, j) not in mean_cells:
                    raise ScenarioFormatError(f"missing required key 'mean[{a}][{i}][{j}]'")
                entry = mean_cells.pop((a, i, j))
                row.append(_parse_float(entry.value, entry.line, f"mean[{a}][{i}][{j}]"))
            arm.append(tuple(row))
        mean.append(tuple(arm))
    if mean_cells:
        indices = min(mean_cells, key=lambda k: mean_cells[k].line)
        raise ScenarioFormatError("mean index out of range", mean_cells[indices].line)

    law = None
    if law_cells:
        law_arms = []
        for a in (0, 1):
            arm = []
            for j in range(n_u):
                if (a, j) not in law_cells:
                    raise ScenarioFormatError(
                        f"missing required key 'law[{a}][{j}]' (outcome law must be complete)"
                    )
                arm.append(_parse_law_entry(law_cells.pop((a, j)), f"law[{a}][{j}]"))
            law_arms.append(tuple(arm))
        if law_cells:
            indices = min(law_cells, key=lambda k: law_cells[k].line)
            raise ScenarioFormatError("law index out of range", law_cells[indices].line)
        law = tuple(law_arms)

    binary = False
    if "binary_outcome" in entries:
        entry = entries.pop("binary_outcome")
        binary = _parse_bool(entry.value, entry.line, "binary_outcome")
    _reject_unknown(entries)
    return DiscreteScenario(
        z_support=lists["z_support"],
        z_pmf=lists["z_pmf"],
        u_support=lists["u_support"],
        u_pmf=lists["u_pmf"],
        treat=tuple(treat),
        outcome_mean=tuple(mean),
        outcome_law=law,
        binary_outcome=binary,
    )


def _build_potential_outcomes(entries: dict[str, _Entry]) -> PotentialOutcomeScenario:
    support_entry = _pop(entries, "pi_support")
    pi_support = _parse_float_list(support_entry.value, support_entry.line, "pi_support")
    pmf_entry = _pop(entries, "pi_pmf")
    pi_pmf = _parse_float_list(pmf_entry.value, pmf_entry.line, "pi_pmf")

    pairs_entry = _pop(entries, "y_pairs")
    text = pairs_entry.value
    pieces = [p.strip() for p in (text.split(";") if ";" in text else text.split())]
    pieces = [p for p in pieces if p]
    if not pieces:
        raise ScenarioFormatError("y_pairs: empty list", pairs_entry.line)
    y_pairs = []
    pair_pmf = []
    for piece in pieces:
        if ":" not in piece or "," not in piece.split(":", 1)[0]:
            raise ScenarioFormatError(
                f"y_pairs: expected 'y1,y0:prob', got {piece!r}", pairs_entry.line
            )
        coords, _, prob = piece.partition(":")
        y1_text, _, y0_text = coords.partition(",")
        y_pairs.append(
            (
                _parse_float(y1_text.strip(), pairs_entry.line, "y_pairs"),
                _parse_float(y0_text.strip(), pairs_entry.line, "y_pairs"),
            )
        )
        pair_pmf.append(_parse_float(prob.strip(), pairs_entry.line, "y_pairs"))

    treat_cells = _indexed(entries, "treat", 2)
    treat = []
    for k in range(len(pi_support)):
        row = []
        for j in range(len(y_pairs)):
            if (k, j) not in treat_cells:
                raise ScenarioFormatError(f"missing required key 'treat[{k}][{j}]'")
            entry = treat_cells.pop((k, j))
            row.append(_parse_float(entry.value, entry.line, f"treat[{k}][{j}]"))
        treat.append(tuple(row))
    if treat_cells:
        indices = min(treat_cells, key=lambda k: treat_cells[k].line)
        raise ScenarioFormatError("treat index out of range", treat_cells[indices].line)
    _reject_unknown(entries)
    return PotentialOutcomeScenario(
        pi_support=pi_support,
        pi_pmf=pi_pmf,
        y_pairs=tuple(y_pairs),
        pair_pmf=tuple(pair_pmf),
        treat=tuple(treat),
    )


def _build_family(entries, strata) -> CovariateFamily:
    _reject_unknown(entries)
    if not strata:
        raise ScenarioFormatError("covariate_family requires at least one stratum block")
    built = []
    for label, weight, block, lineno in strata:
        if "kind" in block:
            entry = block.pop("kind")
            if entry.value.strip() != "discrete":
                raise ScenarioFormatError(
                    f"stratum {label!r}: body must be discrete-kind", entry.line
                )
        try:
            scenario = _build_discrete(block)
        except ScenarioFormatError as exc:
            raise ScenarioFormatError(f"stratum {label!r}: {exc}", None) from None
        built.append(Stratum(label=label, weight=weight, scenario=scenario))
    return CovariateFamily(strata=tuple(built))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario file content into a validated scenario object.

    Raises ``ScenarioFormatError`` for syntax problems (with the offending
    line) and ``InvariantViolation`` when values break a type constraint.
    """
    entries, strata = _scan(text)
    if "kind" not in entries:
        raise ScenarioFormatError("missing required key 'kind'")
    kind_entry = entries.pop("kind")
    kind = kind_entry.value.strip()
    if strata and kind != "covariate_family":
        raise ScenarioFormatError(
            f"stratum blocks are only valid for kind=covariate_family", strata[0][3]
        )
    if kind == "binary":
        return _build_binary(entries)
    if kind == "discrete":
        return _build_discrete(entries)
    if kind == "potential_outcomes":
        return _build_potential_outcomes(entries)
    if kind == "covariate_family":
        return _build_family(entries, strata)
    raise ScenarioFormatError(f"unknown kind {kind!r}", kind_entry.line)


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def _format_list(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _serialize_discrete_body(s: DiscreteScenario, out: list[str], indent: str = "") -> None:
    out.append(f"{indent}z_support = {_format_list(s.z_support)}")
    out.append(f"{indent}z_pmf = {_format_list(s.z_pmf)}")
    out.append(f"{indent}u_support = {_format_list(s.u_support)}")
    out.append(f"{indent}u_pmf = {_format_list(s.u_pmf)}")
    out.append(f"{indent}binary_outcome = {'true' if s.binary_outcome else 'false'}")
    for i in range(s.n_z):
        for j in range(s.n_u):
            out.append(f"{indent}treat[{i}][{j}] = {s.treat[i][j]!r}")
    for a in (0, 1):
        for i in range(s.n_z):
            for j in range(s.n_u):
                out.append(f"{indent}mean[{a}][{i}][{j}] = {s.outcome_mean[a][i][j]!r}")
    if s.outcome_law is not None:
        for a in (0, 1):
            for j in range(s.n_u):
                pairs = ", ".join(f"{v!r}:{p!r}" for v, p in s.outcome_law[a][j])
                out.append(f"{indent}law[{a}][{j}] = {pairs}")


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario in the file format accepted by ``parse_scenario``."""
    out: list[str] = []
    if isinstance(scenario, BinaryScenario):
        out.append("kind = binary")
        out.append(f"pZ = {scenario.z_prob!r}")
        out.append(f"pU = {scenario.u_prob!r}")
        for z in (1, 0):
            for u in (1, 0):
                out.append(f"p{z}{u} = {scenario.treat[z][u]!r}")
        for a in (1, 0):
            for u in (1, 0):
                out.append(f"r{a}{u} = {scenario.outcome_mean[a][u]!r}")
        out.append(f"binary_outcome = {'true' if scenario.binary_outcome else 'false'}")
    elif isinstance(scenario, DiscreteScenario):
        out.append("kind = discrete")
        _serialize_discrete_body(scenario, out)
    elif isinstance(scenario, PotentialOutcomeScenario):
        out.append("kind = potential_outcomes")
        out.append(f"pi_support = {_format_list(scenario.pi_support)}")
        out.append(f"pi_pmf = {_format_list(scenario.pi_pmf)}")
        pairs = "; ".join(
            f"{y1!r},{y0!r}:{p!r}"
            for (y1, y0), p in zip(scenario.y_pairs, scenario.pair_pmf)
        )
        out.append(f"y_pairs = {pairs}")
        for k in range(scenario.n_pi):
            for j in range(scenario.n_pairs):
                out.append(f"treat[{k}][{j}] = {scenario.treat[k][j]!r}")
    elif isinstance(scenario, CovariateFamily):
        out.append("kind = covariate_family")
        for stratum in scenario.strata:
            out.append(f"begin stratum {stratum.label} {stratum.weight!r}")
            _serialize_discrete_body(stratum.scenario, out, indent="  ")
            out.append("end stratum")
    else:
        raise InvariantViolation(f"cannot serialize {type(scenario).__name__}")
    return "\n".join(out) + "\n"
