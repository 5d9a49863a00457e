"""The scenario parse path as it stood before the canonical-key rewrite,
kept verbatim as the reference for the differential parser test.

Only ``tests/test_scenario_io_differential.py`` uses it; it shares the
package's scenario constructors, so it pins parsing, not validation.
"""

from __future__ import annotations

import re

from zbias import (
    ScenarioFormatError,
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
