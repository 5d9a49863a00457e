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

A file is read in one of two ways, with the same result.  The bulk pass
takes a file whose every line is one ``key = value`` pair with a key of its
own, as ``serialize_scenario`` writes them: it splits, partitions and strips
all lines with C-level passes, pops each table's canonical keys by name and
converts a whole table with one ``map(float)``, so a 32x16 world costs a
few passes over the text instead of one interpreted step per line.  Any
file it does not take (a comment, blank line, stratum block, repeated key,
or a key it cannot pop by name) and any fault it meets goes to the line
walk, ``_scan``, which reads one line at a time and names the first fault
in line order.  The bulk pass never asks for a line number, so it records
none.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import itemgetter

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
    _runs,
)

Scenario = BinaryScenario | DiscreteScenario | PotentialOutcomeScenario | CovariateFamily

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\[\d+\])*$")


class _Walk(Exception):
    """The bulk pass cannot read a file; the line walk reads it instead."""


class _Entries(dict):
    """Value text by key.  ``lines`` maps each key to its line; the walk
    records them, the bulk pass does not (``None``)."""

    def __init__(self, pairs=(), lines=None):
        super().__init__(pairs)
        self.lines = lines

    def line(self, key: str) -> int:
        # Only a fault or a non-canonical key asks for a line, and the bulk
        # pass leaves both to the walk.
        if self.lines is None:
            raise _Walk
        return self.lines[key]


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None


def _float(entries: _Entries, key: str, text: str) -> float:
    """``float(text)`` of ``key``'s value or a piece of it; a bad number is
    named with the key's line."""
    try:
        return _number(text)
    except ValueError as exc:
        raise ScenarioFormatError(f"{key}: {exc}", entries.line(key)) from None


def _scan(text: str):
    """Walk the lines: top-level entries and stratum blocks."""
    entries = _Entries(lines={})
    strata: list[tuple[str, float, _Entries, int]] = []
    block: _Entries | None = None
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
            target[key] = value.strip()
            target.lines[key] = lineno
            continue
        words = line.split()
        if " ".join(words[:2]).startswith("begin stratum"):
            if block is not None:
                raise ScenarioFormatError("nested stratum blocks are not allowed", lineno)
            if len(words) != 4 or words[1] != "stratum":
                raise ScenarioFormatError("expected 'begin stratum <label> <weight>'", lineno)
            label = words[2]
            try:
                weight = _number(words[3])
            except ValueError as exc:
                raise ScenarioFormatError(f"stratum weight: {exc}", lineno) from None
            target = block = _Entries(lines={})
            strata.append((label, weight, block, lineno))
        elif words == ["end", "stratum"]:
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


def _bulk_entries(text: str) -> _Entries:
    """The entries of a file whose every line is one ``key = value`` pair
    with a key of its own, split and stripped in whole-file passes."""
    lines = text.splitlines()
    if not lines or "#" in text or text.count("=") < len(lines):
        raise _Walk
    parts = list(map(str.partition, lines, repeat("=")))
    if "" in map(itemgetter(1), parts):
        raise _Walk
    keys = map(str.strip, map(itemgetter(0), parts))
    entries = _Entries(zip(keys, map(str.strip, map(itemgetter(2), parts))))
    if len(entries) < len(lines):  # a repeated key
        raise _Walk
    return entries


def _pop(entries: _Entries, key: str) -> str:
    if key not in entries:
        raise ScenarioFormatError(f"missing required key {key!r}")
    return entries.pop(key)


def _pop_float_list(entries: _Entries, key: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in _pop(entries, key).split(",")]
    if items == [""]:
        raise ScenarioFormatError(f"{key}: empty list", entries.line(key))
    try:
        return tuple(map(float, items))
    except ValueError:
        return tuple(_float(entries, key, item) for item in items)


def _pop_bool(entries: _Entries, key: str, default: bool) -> bool:
    if key not in entries:
        return default
    text = entries.pop(key)
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ScenarioFormatError(f"{key}: expected true or false, got {text!r}", entries.line(key))


def _names(base: str, shape: tuple[int, ...]) -> list[str]:
    """Canonical key names of a table, row-major: treat[0][0], treat[0][1], ..."""
    names = [base]
    for size in shape:
        suffixes = [f"[{k}]" for k in range(size)]
        names = [name + suffix for name in names for suffix in suffixes]
    return names


def _pop_tables(entries: _Entries, shapes: dict[str, tuple[int, ...]]):
    """Pop every table's cells: {base: (names, cells, stray)}, with the
    canonical names and value texts in row-major order (None where missing)
    and stray holding the line of each out-of-range cell by canonical name.

    Canonical keys are popped by name; only the keys left with a table's
    prefix (leading zeros, out of range, wrong depth) have their indices
    read.  When two spellings name one cell, the later line wins.
    """
    tables = {}
    for base, shape in shapes.items():
        names = _names(base, shape)
        tables[base] = (names, list(map(entries.pop, names, repeat(None))), {})
    for base, shape in shapes.items():
        names, cells, stray = tables[base]
        prefix = base + "["
        leftover = [k for k in entries if k.startswith(prefix)]
        position = {name: k for k, name in enumerate(names)} if leftover else {}
        for key in leftover:
            line = entries.line(key)  # the bulk pass stops here
            value = entries.pop(key)
            # Every key the walk records matched _KEY_RE, so after the first
            # '[' it is only bracketed digit runs.  They are compared as digit
            # strings because int() refuses one of more than 4,300 digits.
            index = [k.lstrip("0") or "0" for k in key[len(prefix):-1].split("][")]
            if len(index) != len(shape):
                raise ScenarioFormatError(f"{key}: expected {len(shape)} indices", line)
            name = base + "".join(f"[{k}]" for k in index)
            at = position.get(name)
            if at is None:
                stray[name] = line
            elif cells[at] is None or entries.lines[name] < line:
                cells[at] = value
                entries.lines[name] = line  # the cell's line is now this spelling's
    return tables


def _table(entries: _Entries, table, base: str, shape: tuple[int, ...], parse,
           note: str = ""):
    """Nested tuples of ``parse(value)`` over one table from ``_pop_tables``.

    ``parse`` is ``float`` or raises ValueError with the reason for a bad
    value.  The first missing or bad cell in row-major order is reported,
    then stray cells.
    """
    names, cells, stray = table
    try:
        if None in cells:
            raise ValueError("a missing cell")
        flat = tuple(map(parse, cells))
    except ValueError:
        for name, value in zip(names, cells):
            if value is None:
                raise ScenarioFormatError(f"missing required key {name!r}{note}") from None
            try:
                (_number if parse is float else parse)(value)
            except ValueError as exc:
                raise ScenarioFormatError(f"{name}: {exc}", entries.line(name)) from None
        raise  # unreached: the walk meets the same fault. Without it, `flat` is unbound
    if stray:
        raise ScenarioFormatError(f"{base} index out of range", min(stray.values()))
    for size in reversed(shape[1:]):
        flat = tuple(_runs(flat, size))
    return flat


def _reject_unknown(entries: _Entries) -> None:
    if entries:
        key = min(entries, key=entries.line)
        raise ScenarioFormatError(f"unknown key {key!r}", entries.line(key))


def _build_binary(entries: _Entries) -> BinaryScenario:
    params = [_float(entries, key, _pop(entries, key)) for key in _BINARY_KEYS]
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


def _build_discrete(entries: _Entries) -> DiscreteScenario:
    lists = {key: _pop_float_list(entries, key)
             for key in ("z_support", "z_pmf", "u_support", "u_pmf")}
    n_z = len(lists["z_support"])
    n_u = len(lists["u_support"])

    shapes = {"treat": (n_z, n_u), "mean": (2, n_z, n_u), "law": (2, n_u)}
    tables = _pop_tables(entries, shapes)
    treat = _table(entries, tables["treat"], "treat", shapes["treat"], float)
    mean = _table(entries, tables["mean"], "mean", shapes["mean"], float)
    law = None
    _, law_cells, law_stray = tables["law"]
    if law_stray or law_cells.count(None) < len(law_cells):  # some law key, in range or not
        law = _table(entries, tables["law"], "law", shapes["law"], _law,
                     " (outcome law must be complete)")

    binary = _pop_bool(entries, "binary_outcome", False)
    _reject_unknown(entries)
    return DiscreteScenario(
        **lists, treat=treat, outcome_mean=mean, outcome_law=law, binary_outcome=binary
    )


def _build_potential_outcomes(entries: _Entries) -> PotentialOutcomeScenario:
    pi_support = _pop_float_list(entries, "pi_support")
    pi_pmf = _pop_float_list(entries, "pi_pmf")

    text = _pop(entries, "y_pairs")
    pieces = [p.strip() for p in (text.split(";") if ";" in text else text.split())]
    pieces = [p for p in pieces if p]
    if not pieces:
        raise ScenarioFormatError("y_pairs: empty list", entries.line("y_pairs"))
    y_pairs = []
    pair_pmf = []
    for piece in pieces:
        coords, colon, prob = piece.partition(":")
        y1, comma, y0 = coords.partition(",")
        if not (colon and comma):
            raise ScenarioFormatError(f"y_pairs: expected 'y1,y0:prob', got {piece!r}",
                                      entries.line("y_pairs"))
        y_pairs.append(tuple(_float(entries, "y_pairs", y.strip()) for y in (y1, y0)))
        pair_pmf.append(_float(entries, "y_pairs", prob.strip()))

    shape = (len(pi_support), len(y_pairs))
    treat = _table(entries, _pop_tables(entries, {"treat": shape})["treat"], "treat", shape,
                   float)
    _reject_unknown(entries)
    return PotentialOutcomeScenario(
        pi_support=pi_support,
        pi_pmf=pi_pmf,
        y_pairs=tuple(y_pairs),
        pair_pmf=tuple(pair_pmf),
        treat=treat,
    )


def _build_family(entries: _Entries, strata) -> CovariateFamily:
    _reject_unknown(entries)
    if not strata:
        raise ScenarioFormatError("covariate_family requires at least one stratum block")
    built = []
    for label, weight, block, lineno in strata:
        if "kind" in block and block.pop("kind") != "discrete":
            raise ScenarioFormatError(
                f"stratum {label!r}: body must be discrete-kind", block.line("kind")
            )
        try:
            scenario = _build_discrete(block)
        except ScenarioFormatError as exc:
            raise ScenarioFormatError(f"stratum {label!r}: {exc}", None) from None
        built.append(Stratum(label=label, weight=weight, scenario=scenario))
    return CovariateFamily(strata=tuple(built))


def _build(entries: _Entries, strata) -> Scenario:
    if "kind" not in entries:
        raise ScenarioFormatError("missing required key 'kind'")
    kind = entries.pop("kind")
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
    raise ScenarioFormatError(f"unknown kind {kind!r}", entries.line("kind"))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario file content into a validated scenario object.

    Raises ``ScenarioFormatError`` for syntax problems (with the offending
    line) and ``InvariantViolation`` when values break a type constraint.
    """
    try:
        return _build(_bulk_entries(text), ())
    except (_Walk, ScenarioFormatError):
        pass  # the walk reads the file, and names its first fault in line order
    return _build(*_scan(text))


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file from disk; one leading byte-order mark
    is dropped, and a file that is not UTF-8 raises ``ScenarioFormatError``
    naming the line of its first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are counted as parse_scenario splits them.
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ScenarioFormatError("not valid UTF-8 text", line) from None
    return parse_scenario(text.removeprefix("\ufeff"))


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
