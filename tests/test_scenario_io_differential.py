"""Differential test: ``parse_scenario`` against the frozen reference parser.

Generated worlds of all four kinds are written as scenario files, mangled
(shuffled lines, comments, CRLF line ends, leading-zero index spellings with
or without a canonical twin, missing, out-of-range and wrong-depth cells,
unknown keys, bad numbers, duplicate and malformed keys), and parsed by both
parsers.  They must return equal scenarios, or raise the same exception type
with the same message.
"""

import math
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_scenario_io as reference
from test_scenario_io import DISCRETE_TEXT, FAMILY_TEXT, PO_TEXT
from zbias import InvariantViolation, ScenarioFormatError, parse_scenario

_INDEXED = re.compile(r"^(\w+)((?:\[\d+\])+) = (.*)$")


def _pmf(rnd, n):
    weights = [rnd.uniform(0.1, 1.0) for _ in range(n)]
    total = math.fsum(weights)
    return [w / total for w in weights]


def _csv(values):
    return ", ".join(map(repr, values))


def _support(rnd, n):
    return sorted(rnd.sample(range(-20, 20), n))


def _discrete_body(rnd):
    n_z, n_u = rnd.randint(1, 8), rnd.randint(1, 8)
    binary = rnd.random() < 0.4
    lines = [
        f"z_support = {_csv(_support(rnd, n_z))}",
        f"z_pmf = {_csv(_pmf(rnd, n_z))}",
        f"u_support = {_csv(_support(rnd, n_u))}",
        f"u_pmf = {_csv(_pmf(rnd, n_u))}",
    ]
    if binary or rnd.random() < 0.5:
        lines.append(f"binary_outcome = {'true' if binary else 'false'}")
    for i in range(n_z):
        for j in range(n_u):
            lines.append(f"treat[{i}][{j}] = {rnd.random()!r}")
    with_law = rnd.random() < 0.5
    for a in (0, 1):
        for j in range(n_u):
            if with_law:
                values = (0.0, 1.0) if binary else (0.0, 1.0, 2.5)
                law = list(zip(values, _pmf(rnd, len(values))))
                lines.append(f"law[{a}][{j}] = " + ", ".join(f"{v!r}:{p!r}" for v, p in law))
                column = [math.fsum(v * p for v, p in law)] * n_z
            elif rnd.random() < 0.7:
                column = [rnd.random() if binary else rnd.uniform(-5, 5)] * n_z
            else:
                column = [rnd.random() for _ in range(n_z)]
            for i, mean in enumerate(column):
                lines.append(f"mean[{a}][{i}][{j}] = {mean!r}")
    return lines


def _binary_body(rnd):
    lines = [f"{key} = {rnd.random()!r}" for key in
             ("pZ", "pU", "p11", "p10", "p01", "p00", "r11", "r10", "r01", "r00")]
    if rnd.random() < 0.5:
        lines.append(f"binary_outcome = {rnd.choice(['true', 'false'])}")
    return lines


def _po_body(rnd):
    n_pi, n_pairs = rnd.randint(1, 8), rnd.randint(1, 8)
    grid = [(y1, y0) for y1 in range(-2, 3) for y0 in range(-2, 3)]
    pairs = rnd.sample(grid, n_pairs)
    pair_pmf = _pmf(rnd, n_pairs)
    rows = []
    for _ in range(n_pi):
        row = [rnd.random() for _ in range(n_pairs)]
        rows.append((math.fsum(t * p for t, p in zip(row, pair_pmf)), row))
    rows.sort()
    sep = "; " if rnd.random() < 0.7 else "  "
    lines = [
        f"pi_support = {_csv([pi for pi, _ in rows])}",
        f"pi_pmf = {_csv(_pmf(rnd, n_pi))}",
        "y_pairs = " + sep.join(f"{y1!r},{y0!r}:{p!r}" for (y1, y0), p in zip(pairs, pair_pmf)),
    ]
    for k, (_, row) in enumerate(rows):
        for j, t in enumerate(row):
            lines.append(f"treat[{k}][{j}] = {t!r}")
    return lines


def _leading_zero(rnd, body):
    indexed = [n for n, line in enumerate(body) if _INDEXED.match(line)]
    if not indexed:
        return
    n = rnd.choice(indexed)
    base, brackets, value = _INDEXED.match(body[n]).groups()
    index = brackets[1:-1].split("][")
    k = rnd.randrange(len(index))
    index[k] = "0" * rnd.randint(1, 2) + index[k]
    spelled = f"{base}[{']['.join(index)}] = "
    where = rnd.choice(["replace", "twin before", "twin after"])
    if where == "replace":
        body[n] = spelled + value
    else:
        twin = spelled + (value if base == "law" else repr(rnd.random()))
        body.insert(n if where == "twin before" else n + 1, twin)


def _extra_cell(rnd, body, change):
    indexed = [line for line in body if _INDEXED.match(line)]
    if not indexed:
        return
    base, brackets, value = _INDEXED.match(rnd.choice(indexed)).groups()
    index = [int(k) for k in brackets[1:-1].split("][")]
    if change == "out of range":
        k = rnd.randrange(len(index))
        same_table = [[int(k) for k in m.group(2)[1:-1].split("][")]
                      for m in map(_INDEXED.match, indexed) if m.group(1) == base]
        index[k] = max(other[k] for other in same_table
                       if len(other) == len(index)) + rnd.randint(1, 3)
    elif change == "too deep":
        index.append(0)
    elif len(index) > 1:
        index.pop()
    key = base + "".join(f"[{k}]" for k in index)
    body.insert(rnd.randrange(len(body) + 1), f"{key} = {value}")


def _mutate(rnd, body, mutation):
    if mutation == "shuffle":
        rnd.shuffle(body)
    elif mutation == "comment":
        body.insert(rnd.randrange(len(body) + 1), "# a note = with an equals sign")
        n = rnd.randrange(len(body))
        body[n] += "   # trailing"
    elif mutation == "leading zero":
        _leading_zero(rnd, body)
    elif mutation == "delete":
        indexed = [n for n, line in enumerate(body) if _INDEXED.match(line)]
        if indexed:
            del body[rnd.choice(indexed)]
        elif body:
            del body[rnd.randrange(len(body))]
    elif mutation in ("out of range", "too deep", "too shallow"):
        _extra_cell(rnd, body, mutation)
    elif mutation == "foo":
        body.insert(rnd.randrange(len(body) + 1), "foo[0] = 1")
    elif mutation == "non-number" and body:
        n = rnd.randrange(len(body))
        key = body[n].partition(" = ")[0]
        body[n] = f"{key} = {rnd.choice(['abc', '', '0.5x', '1,,2', '0:x', '0.5', '1e', '1,2', 'a,b:0.5'])}"
    elif mutation == "duplicate" and body:
        body.insert(rnd.randrange(len(body) + 1), rnd.choice(body))
    elif mutation == "malformed":
        bad = rnd.choice(["9lives = 1", "treat[1]x = 0.5", "mean[] = 0", "a-b = 1",
                          "treat [0][0] = 0.5", "treat[0][0] 0.5", "= 3"])
        body.insert(rnd.randrange(len(body) + 1), bad)


_BODIES = {"binary": _binary_body, "discrete": _discrete_body,
           "potential_outcomes": _po_body}

MUTATIONS = ("shuffle", "comment", "leading zero", "delete", "out of range", "too deep",
             "too shallow", "foo", "non-number", "duplicate", "malformed")


@st.composite
def scenario_texts(draw):
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["binary", "discrete", "potential_outcomes",
                                 "covariate_family"]))
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=4))
    if kind == "covariate_family":
        weights = _pmf(rnd, rnd.randint(1, 3))
        blocks = [_discrete_body(rnd) for _ in weights]
        if rnd.random() < 0.3:
            blocks[0].insert(0, "kind = discrete")
        for mutation in mutations:
            _mutate(rnd, rnd.choice(blocks), mutation)
        lines = ["kind = covariate_family"]
        for n, (weight, body) in enumerate(zip(weights, blocks)):
            lines += [f"begin stratum s{n} {weight!r}", *body, "end stratum"]
    else:
        lines = [f"kind = {kind}", *_BODIES[kind](rnd)]
        for mutation in mutations:
            _mutate(rnd, lines, mutation)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the comparison is the point, whatever is raised
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scenario_texts())
def test_parse_matches_reference(text):
    assert _outcome(parse_scenario, text) == _outcome(reference.parse_scenario, text)


def test_unmangled_worlds_parse():
    # Otherwise the differential test above would only compare errors.
    rnd = random.Random(5)
    for kind, body in _BODIES.items():
        for _ in range(30):
            text = "\n".join([f"kind = {kind}", *body(rnd)]) + "\n"
            assert _outcome(parse_scenario, text)[0] == "ok"


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new)


# Precedence between errors in one table, which random mangling rarely hits.
PRECEDENCE_CASES = {
    "missing before stray": _edit(DISCRETE_TEXT, "treat[1][1] = 0.8", "treat[2][0] = 0.5"),
    "stray spelled twice": _edit(DISCRETE_TEXT, "treat[1][1] = 0.8",
                                 "treat[1][1] = 0.8\ntreat[2][0] = 0.5\ntreat[02][0] = 0.5"),
    "bad number before missing": _edit(
        _edit(DISCRETE_TEXT, "treat[0][1] = 0.2", "treat[0][1] = x"), "treat[1][1] = 0.8\n", ""),
    "missing law before law stray": _edit(DISCRETE_TEXT, "law[0][1] = 0:0.98, 1:0.02",
                                          "law[0][9] = 0:1"),
    "stray law only": "\n".join(
        line for line in DISCRETE_TEXT.splitlines() if not line.startswith("law")
    ) + "\nlaw[3][0] = 0:1\n",
    "depth before missing": _edit(
        _edit(DISCRETE_TEXT, "mean[1][0][0] = 0.06", "mean[1][0] = 0.06"), "treat[0][0] = 0.1\n", ""),
    "bad later spelling": _edit(DISCRETE_TEXT, "mean[0][0][0] = 0.01",
                                "mean[0][0][0] = 0.01\ntreat[00][1] = x"),
    "two later spellings": _edit(DISCRETE_TEXT, "treat[1][0] = 0.6",
                                 "treat[01][0] = x\ntreat[001][0] = y"),
}


@pytest.mark.parametrize("text", PRECEDENCE_CASES.values(), ids=PRECEDENCE_CASES.keys())
def test_error_precedence_matches_reference(text):
    outcome = _outcome(parse_scenario, text)
    assert outcome[0] is ScenarioFormatError
    assert outcome == _outcome(reference.parse_scenario, text)


# Line shapes a whole-file pass can get wrong: every line boundary that
# str.splitlines knows besides "\n" and "\r\n", blank and whitespace-only
# lines, "=" where it does not belong, Unicode spaces around keys and
# values, a missing final newline, and a key that is malformed only after
# its canonical-looking prefix.
BOUNDARIES = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
BINARY_LINES = [f"{key} = {value}" for key, value in zip(
    ("kind", "pZ", "pU", "p11", "p10", "p01", "p00", "r11", "r10", "r01", "r00"),
    ("binary", 0.5, 0.5, 0.8, 0.6, 0.2, 0.1, 0.08, 0.06, 0.02, 0.01))]
BASES = {"binary": BINARY_LINES, "discrete": DISCRETE_TEXT.splitlines(),
         "potential_outcomes": PO_TEXT.splitlines()}


def _bench_shaped_world(rnd, n_z=32, n_u=16):
    """A discrete world as the benchmark writes them: tied treatment rows,
    outcome means constant in z and a binary outcome law."""
    treat = []
    for i in range(n_z):
        treat.append(treat[rnd.randrange(i)] if i and rnd.random() < 0.25
                     else [rnd.uniform(0.05, 0.95) for _ in range(n_u)])
    means = [[rnd.uniform(0.02, 0.98) for _ in range(n_u)] for _ in (0, 1)]
    lines = ["kind = discrete", f"z_support = {_csv(range(n_z))}",
             f"z_pmf = {_csv(_pmf(rnd, n_z))}", f"u_support = {_csv(range(n_u))}",
             f"u_pmf = {_csv(_pmf(rnd, n_u))}", "binary_outcome = true"]
    lines += [f"treat[{i}][{j}] = {treat[i][j]!r}" for i in range(n_z) for j in range(n_u)]
    lines += [f"mean[{a}][{i}][{j}] = {means[a][j]!r}"
              for a in (0, 1) for i in range(n_z) for j in range(n_u)]
    lines += [f"law[{a}][{j}] = 0.0:{1.0 - means[a][j]!r}, 1.0:{means[a][j]!r}"
              for a in (0, 1) for j in range(n_u)]
    return lines


def _line_shape_cases():
    cases = {}
    for name, lines in BASES.items():
        for end in BOUNDARIES:
            cases[f"{name} ends {end!r}"] = end.join(lines) + end
        mixed = "".join(line + BOUNDARIES[n % len(BOUNDARIES)] for n, line in enumerate(lines))
        cases[f"{name} mixed ends"] = mixed
        cases[f"{name} no final newline"] = "\n".join(lines)
        cases[f"{name} blank lines"] = "\n".join(
            [lines[0], "", *lines[1:3], "   \t", *lines[3:], "\u3000"]) + "\n"
        cases[f"{name} bare ="] = "\n".join([*lines[:2], "=", *lines[2:]]) + "\n"
        cases[f"{name} = in last value"] = "\n".join(lines) + "=0.5\n"
        cases[f"{name} = in kind"] = "\n".join([lines[0] + " = x", *lines[1:]]) + "\n"
        for space in ("\xa0", "\u3000", "\t", " \t "):
            cases[f"{name} {space!r} around"] = "\n".join(
                space + key + space + "=" + space + value + space
                for key, _, value in (line.partition(" = ") for line in lines)) + "\n"
    cases["empty text"] = ""
    cases["blank text"] = " \n\t\n"
    cases["discrete = in law"] = DISCRETE_TEXT.replace("1:0.01", "1=0.01")
    cases["malformed key treat[00][0x"] = DISCRETE_TEXT.replace(
        "treat[0][0] = 0.1", "treat[00][0x = 0.1")
    cases["malformed key and bad number"] = DISCRETE_TEXT.replace(
        "z_pmf = 0.5, 0.5", "z_pmf = 0.5, x") + "9lives = 1\n"
    cases["malformed key and missing cell"] = DISCRETE_TEXT.replace(
        "treat[1][1] = 0.8\n", "") + "9lives = 1\n"
    cases["law values empty"] = re.sub(r"(law\[\d\]\[\d\] =).*", r"\1", DISCRETE_TEXT)
    cases["key alone, then two ="] = "\n".join(BINARY_LINES[:-1]) + "\nbinary_outcome\ntrue = r00 = 0.01\n"
    rnd = random.Random(21)
    bench = _bench_shaped_world(rnd)
    cases["bench-shaped 32x16"] = "\n".join(bench) + "\n"
    cases["bench-shaped 32x16 shuffled"] = "\n".join(rnd.sample(bench, len(bench))) + "\n"
    cases["bench-shaped 32x16 law unordered"] = "\n".join(bench).replace(
        "law[1][15] = 0.0:", "law[1][15] = 0.0:0.5, 1.0:0.5, 2.0:") + "\n"
    cases["bench-shaped 32x16 law mean off"] = re.sub(
        r"law\[0\]\[7\] = .*", "law[0][7] = 0.0:0.995, 1.0:0.005", "\n".join(bench)) + "\n"
    return cases


LINE_SHAPE_CASES = _line_shape_cases()


@pytest.mark.parametrize("text", LINE_SHAPE_CASES.values(), ids=LINE_SHAPE_CASES.keys())
def test_line_shapes_match_reference(text):
    assert _outcome(parse_scenario, text) == _outcome(reference.parse_scenario, text)


def test_line_shape_cases_reach_both_outcomes():
    outcomes = [_outcome(parse_scenario, text)[0] for text in LINE_SHAPE_CASES.values()]
    assert outcomes.count("ok") >= 50
    assert outcomes.count(ScenarioFormatError) >= 15
    assert outcomes.count(InvariantViolation) >= 2


WALKED = {
    "comment": DISCRETE_TEXT + "# a note\n",
    "blank line": DISCRETE_TEXT + "\n\n",
    "duplicate key": DISCRETE_TEXT + "z_pmf = 0.5, 0.5\n",
    "leading zero": DISCRETE_TEXT.replace("treat[1][0]", "treat[01][0]"),
    "stratum blocks": FAMILY_TEXT,
    "bad number": DISCRETE_TEXT.replace("treat[0][1] = 0.2", "treat[0][1] = x"),
}


def test_files_as_serialized_skip_the_walk(monkeypatch):
    from zbias import scenario_io

    def no_walk(text):
        raise AssertionError("walked")

    monkeypatch.setattr(scenario_io, "_scan", no_walk)
    for lines in (*BASES.values(), _bench_shaped_world(random.Random(3))):
        parse_scenario("\n".join(lines) + "\n")


@pytest.mark.parametrize("text", WALKED.values(), ids=WALKED.keys())
def test_other_files_are_walked(monkeypatch, text):
    from zbias import scenario_io

    walked = []
    scan = scenario_io._scan
    monkeypatch.setattr(scenario_io, "_scan", lambda t: walked.append(t) or scan(t))
    assert _outcome(parse_scenario, text) == _outcome(reference.parse_scenario, text)
    assert walked == [text]
