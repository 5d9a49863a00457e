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

Indices are read as integers, so leading zeros are accepted: ``treat[01][0]``
names ``treat[1][0]``, and when two spellings name one cell the later line
wins.  Parsing is locale-independent (dot decimal separator).
``serialize_scenario`` emits this same format; parse . serialize is the
identity on all fields.
"""

from __future__ import annotations

import re

from .errors import InvariantViolation, ScenarioFormatError
from .scenario import (
    _BINARY_KEYS,
    BinaryScenario,
    CovariateFamily,
    DiscreteScenario,
    PotentialOutcomeScenario,
    Stratum,
    _binary_params,
    _binary_scenario,
)

Scenario = BinaryScenario | DiscreteScenario | PotentialOutcomeScenario | CovariateFamily

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\[\d+\])*$")


_Entry = tuple[str, int]  # (value text, line number)


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None


def _parse_float(text: str, line: int, key: str) -> float:
    try:
        return _number(text)
    except ValueError as exc:
        raise ScenarioFormatError(f"{key}: {exc}", line) from None


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
    target = entries
    is_key = _KEY_RE.match
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.rstrip()
        if eq and is_key(key):
            if key in target:
                raise ScenarioFormatError(f"duplicate key {key!r}", lineno)
            target[key] = (value.strip(), lineno)
        elif line.startswith("begin stratum"):
            if block is not None:
                raise ScenarioFormatError("nested stratum blocks are not allowed", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "stratum":
                raise ScenarioFormatError("expected 'begin stratum <label> <weight>'", lineno)
            label = parts[2]
            weight = _parse_float(parts[3], lineno, "stratum weight")
            target = block = {}
            strata.append((label, weight, block, lineno))
        elif line == "end stratum":
            if block is None:
                raise ScenarioFormatError("'end stratum' without matching begin", lineno)
            target, block = entries, None
        elif not eq:
            raise ScenarioFormatError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        else:
            raise ScenarioFormatError(f"malformed key {key!r}", lineno)
    if block is not None:
        raise ScenarioFormatError("unterminated stratum block", strata[-1][3])
    return entries, strata


def _pop(entries: dict[str, _Entry], key: str) -> _Entry:
    if key not in entries:
        raise ScenarioFormatError(f"missing required key {key!r}")
    return entries.pop(key)


def _names(base: str, shape: tuple[int, ...]) -> list[str]:
    """Canonical key names of a table, row-major: treat[0][0], treat[0][1], ..."""
    names = [base]
    for size in shape:
        suffixes = [f"[{k}]" for k in range(size)]
        names = [name + suffix for name in names for suffix in suffixes]
    return names


def _pop_tables(entries: dict[str, _Entry], shapes: dict[str, tuple[int, ...]]):
    """Pop every table's keys: {base: (cells, stray)}, with cells keyed by
    canonical name in row-major order (None where missing) and stray holding
    the out-of-range cells by canonical name.

    Canonical keys are popped by name; only the keys left with a table's
    prefix (leading zeros, out of range, wrong depth) have their indices
    read.  When two spellings name one cell, the later line wins.
    """
    tables = {}
    for base, shape in shapes.items():
        tables[base] = ({name: entries.pop(name, None) for name in _names(base, shape)}, {})
    for base, shape in shapes.items():
        cells, stray = tables[base]
        prefix = base + "["
        for key in [k for k in entries if k.startswith(prefix)]:
            entry = entries.pop(key)
            # Every key matched _KEY_RE in _scan, so after the first '[' it
            # is only bracketed digit runs.  They are compared as digit strings
            # because int() refuses one of more than 4,300 digits.
            index = [k.lstrip("0") or "0" for k in key[len(prefix):-1].split("][")]
            if len(index) != len(shape):
                raise ScenarioFormatError(f"{key}: expected {len(shape)} indices", entry[1])
            name = base + "".join(f"[{k}]" for k in index)
            if name not in cells:
                stray[name] = entry
            elif cells[name] is None or cells[name][1] < entry[1]:
                cells[name] = entry
    return tables


def _table(cells, base: str, shape: tuple[int, ...], parse, note: str = ""):
    """Nested tuples of ``parse(value)`` over one table from ``_pop_tables``.

    ``parse`` raises ValueError with the reason for a bad value.  The first
    missing or bad cell in row-major order is reported, then stray cells.
    """
    found, stray = cells
    try:
        flat = list(map(parse, [entry[0] for entry in found.values()]))
    except (TypeError, ValueError):
        for name, entry in found.items():
            if entry is None:
                raise ScenarioFormatError(f"missing required key {name!r}{note}") from None
            try:
                parse(entry[0])
            except ValueError as exc:
                raise ScenarioFormatError(f"{name}: {exc}", entry[1]) from None
        raise  # unreached: the walk meets the same fault. Without it, `flat` is unbound
    if stray:
        raise ScenarioFormatError(f"{base} index out of range", min(e[1] for e in stray.values()))
    for size in reversed(shape[1:]):
        flat = [tuple(flat[k:k + size]) for k in range(0, len(flat), size)]
    return tuple(flat)


def _reject_unknown(entries: dict[str, _Entry]) -> None:
    if entries:
        key = min(entries, key=lambda k: entries[k][1])
        raise ScenarioFormatError(f"unknown key {key!r}", entries[key][1])


def _pop_bool(entries: dict[str, _Entry], key: str, default: bool) -> bool:
    if key not in entries:
        return default
    value, line = entries.pop(key)
    return _parse_bool(value, line, key)


def _build_binary(entries: dict[str, _Entry]) -> BinaryScenario:
    params = [_parse_float(*_pop(entries, key), key) for key in _BINARY_KEYS]
    binary = _pop_bool(entries, "binary_outcome", True)
    _reject_unknown(entries)
    return _binary_scenario(params, binary)


def _law(text: str):
    """One outcome law cell, ``v:p, v:p, ...``."""
    pairs = []
    for piece in text.split(","):
        piece = piece.strip()
        value, colon, prob = piece.partition(":")
        if not colon:
            raise ValueError(f"expected value:prob, got {piece!r}")
        pairs.append((_number(value.strip()), _number(prob.strip())))
    return tuple(pairs)


def _build_discrete(entries: dict[str, _Entry]) -> DiscreteScenario:
    lists = {key: _parse_float_list(*_pop(entries, key), key)
             for key in ("z_support", "z_pmf", "u_support", "u_pmf")}
    n_z = len(lists["z_support"])
    n_u = len(lists["u_support"])

    shapes = {"treat": (n_z, n_u), "mean": (2, n_z, n_u), "law": (2, n_u)}
    tables = _pop_tables(entries, shapes)
    treat = _table(tables["treat"], "treat", shapes["treat"], _number)
    mean = _table(tables["mean"], "mean", shapes["mean"], _number)
    law = None
    law_cells, law_stray = tables["law"]
    if law_stray or any(law_cells.values()):  # some law key, in range or not
        law = _table(tables["law"], "law", shapes["law"], _law, " (outcome law must be complete)")

    binary = _pop_bool(entries, "binary_outcome", False)
    _reject_unknown(entries)
    return DiscreteScenario(
        **lists, treat=treat, outcome_mean=mean, outcome_law=law, binary_outcome=binary
    )


def _build_potential_outcomes(entries: dict[str, _Entry]) -> PotentialOutcomeScenario:
    pi_support = _parse_float_list(*_pop(entries, "pi_support"), "pi_support")
    pi_pmf = _parse_float_list(*_pop(entries, "pi_pmf"), "pi_pmf")

    text, line = _pop(entries, "y_pairs")
    pieces = [p.strip() for p in (text.split(";") if ";" in text else text.split())]
    pieces = [p for p in pieces if p]
    if not pieces:
        raise ScenarioFormatError("y_pairs: empty list", line)
    y_pairs = []
    pair_pmf = []
    for piece in pieces:
        coords, colon, prob = piece.partition(":")
        y1, comma, y0 = coords.partition(",")
        if not (colon and comma):
            raise ScenarioFormatError(f"y_pairs: expected 'y1,y0:prob', got {piece!r}", line)
        y_pairs.append(tuple(_parse_float(y.strip(), line, "y_pairs") for y in (y1, y0)))
        pair_pmf.append(_parse_float(prob.strip(), line, "y_pairs"))

    shape = (len(pi_support), len(y_pairs))
    treat = _table(_pop_tables(entries, {"treat": shape})["treat"], "treat", shape, _number)
    _reject_unknown(entries)
    return PotentialOutcomeScenario(
        pi_support=pi_support,
        pi_pmf=pi_pmf,
        y_pairs=tuple(y_pairs),
        pair_pmf=tuple(pair_pmf),
        treat=treat,
    )


def _build_family(entries, strata) -> CovariateFamily:
    _reject_unknown(entries)
    if not strata:
        raise ScenarioFormatError("covariate_family requires at least one stratum block")
    built = []
    for label, weight, block, lineno in strata:
        if "kind" in block:
            value, line = block.pop("kind")
            if value.strip() != "discrete":
                raise ScenarioFormatError(
                    f"stratum {label!r}: body must be discrete-kind", line
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
    kind, kind_line = entries.pop("kind")
    kind = kind.strip()
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
    raise ScenarioFormatError(f"unknown kind {kind!r}", kind_line)


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file from disk; a file that is not UTF-8
    raises ``ScenarioFormatError`` naming the line of its first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are counted as parse_scenario splits them.
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ScenarioFormatError("not valid UTF-8 text", line) from None
    return parse_scenario(text)


def _format_list(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _serialize_discrete_body(s: DiscreteScenario, out: list[str], indent: str = "") -> None:
    out.append(f"{indent}z_support = {_format_list(s.z_support)}")
    out.append(f"{indent}z_pmf = {_format_list(s.z_pmf)}")
    out.append(f"{indent}u_support = {_format_list(s.u_support)}")
    out.append(f"{indent}u_pmf = {_format_list(s.u_pmf)}")
    out.append(f"{indent}binary_outcome = {'true' if s.binary_outcome else 'false'}")
    cells = [repr(t) for row in s.treat for t in row]
    cells += [repr(m) for arm in s.outcome_mean for row in arm for m in row]
    keys = _names("treat", (s.n_z, s.n_u)) + _names("mean", (2, s.n_z, s.n_u))
    if s.outcome_law is not None:
        laws = (law for arm in s.outcome_law for law in arm)
        cells += [", ".join(f"{v!r}:{p!r}" for v, p in law) for law in laws]
        keys += _names("law", (2, s.n_u))
    out += [f"{indent}{key} = {cell}" for key, cell in zip(keys, cells)]


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario in the file format accepted by ``parse_scenario``."""
    out: list[str] = []
    if isinstance(scenario, BinaryScenario):
        out.append("kind = binary")
        out += [f"{key} = {v!r}" for key, v in zip(_BINARY_KEYS, _binary_params(scenario))]
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
        keys = _names("treat", (scenario.n_pi, scenario.n_pairs))
        cells = (t for row in scenario.treat for t in row)
        out += [f"{key} = {t!r}" for key, t in zip(keys, cells)]
    elif isinstance(scenario, CovariateFamily):
        out.append("kind = covariate_family")
        for stratum in scenario.strata:
            out.append(f"begin stratum {stratum.label} {stratum.weight!r}")
            _serialize_discrete_body(stratum.scenario, out, indent="  ")
            out.append("end stratum")
    else:
        raise InvariantViolation(f"cannot serialize {type(scenario).__name__}")
    return "\n".join(out) + "\n"
