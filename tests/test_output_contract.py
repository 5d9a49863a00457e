"""Property test of the CLI output contract.

Generated scenario files of all four kinds (single-level supports, zero-mass
levels, propensity ties, magnitudes near the largest double, overflowing
masses, non-UTF-8 bytes, dropped, repeated and unknown lines) go through
``main()`` for every exact command and all fourteen theorems.  Each run must
either exit 0 with strict JSON on stdout (no NaN or infinity) and nothing
on stderr, or exit 1, 2 or 3 with nothing on stdout and exactly one line on
stderr.
"""

import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zbias.cli import _THEOREMS, main

MAX = 1.7976931348623157e308
HUGE = (1e308, -1e308, MAX, -MAX, 1.79e308, 8.988465674311579e307)
TOKENS = ("1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308",
          "5e-324", "0", "-0.0", "1", "nan", "inf", "1e309", "0.5", "x")
BAD_BYTES = (b"\xff", b"\xc3", b"\x85", b"\xe2\x82", b"\xed\xa0\x80")


def _num(rnd, low=-3.0, high=3.0):
    r = rnd.random()
    if r < 0.2:
        return rnd.choice(HUGE)
    if r < 0.3:
        return float(rnd.randint(int(low), int(high)))
    return rnd.uniform(low, high)


def _prob(rnd):
    return rnd.choice((0.0, 1.0, 0.5, 0.25, rnd.random()))


def _pmf(rnd, n):
    if rnd.random() < 0.05:
        return [1e308] * n  # masses whose sum overflows
    weights = [rnd.choice((0.0, 1.0, rnd.uniform(0.1, 1.0))) for _ in range(n)]
    weights[rnd.randrange(n)] = 1.0
    total = math.fsum(weights)
    pmf = [w / total for w in weights]
    if rnd.random() < 0.2:
        pmf[rnd.randrange(n)] += 5e-10  # still sums to 1 within tolerance
    return pmf


def _mean(values, probs):
    terms = [v * p for v, p in zip(values, probs)]
    try:
        return math.fsum(terms)
    except OverflowError:
        return sum(terms)


def _csv(values):
    return ", ".join(map(repr, values))


def _support(rnd, n):
    return sorted(rnd.sample(range(-5, 6), n))


def _treat_cells(rnd):
    """(p11, p10, p01, p00): free, or free of additive or multiplicative
    interaction, as the lemmas assume."""
    flavour = rnd.randrange(3)
    if flavour == 0:
        return [_prob(rnd) for _ in range(4)]
    base, b, c = rnd.choice((0.1, 0.2)), rnd.choice((0.0, 0.1, 0.3)), rnd.choice((0.0, 0.2))
    if flavour == 1:
        return [base + b + c, base + c, base + b, base]
    b, c = 1 + 10 * b, 1 + 10 * c
    return [base * b * c, base * c, base * b, base]


def _binary_lines(rnd):
    binary = rnd.random() < 0.6
    lines = [f"{key} = {_prob(rnd)!r}" for key in ("pZ", "pU")]
    lines += [f"{key} = {p!r}" for key, p in zip(("p11", "p10", "p01", "p00"), _treat_cells(rnd))]
    lines += [f"{key} = {_prob(rnd) if binary else _num(rnd)!r}"
              for key in ("r11", "r10", "r01", "r00")]
    if not binary or rnd.random() < 0.3:
        lines.append(f"binary_outcome = {'true' if binary else 'false'}")
    return ["kind = binary"] + lines


def _discrete_body(rnd):
    n_z, n_u = rnd.randint(1, 4), rnd.randint(1, 3)
    binary = rnd.random() < 0.3
    lines = [f"z_support = {_csv(_support(rnd, n_z))}", f"z_pmf = {_csv(_pmf(rnd, n_z))}",
             f"u_support = {_csv(_support(rnd, n_u))}", f"u_pmf = {_csv(_pmf(rnd, n_u))}"]
    if binary or rnd.random() < 0.5:
        lines.append(f"binary_outcome = {'true' if binary else 'false'}")
    rows = [[_prob(rnd) for _ in range(n_u)] for _ in range(rnd.randint(1, 2))]
    for i in range(n_z):  # repeated rows give propensity ties
        for j, t in enumerate(rnd.choice(rows)):
            lines.append(f"treat[{i}][{j}] = {t!r}")
    with_law = rnd.random() < 0.4
    for a in (0, 1):
        for j in range(n_u):
            if with_law:
                values = rnd.choice(((0.0, 1.0), (0.0,), (1.0,))) if binary else (
                    rnd.choice(((1.79e308, MAX), (-MAX, 0.0), (-1.0, 2.0, 7.5))))
                probs = _pmf(rnd, len(values))
                lines.append(f"law[{a}][{j}] = " + ", ".join(
                    f"{v!r}:{p!r}" for v, p in zip(values, probs)))
                column = [_mean(values, probs)] * n_z
            elif rnd.random() < 0.7:
                column = [_prob(rnd) if binary else _num(rnd)] * n_z
            else:
                column = [_prob(rnd) if binary else _num(rnd) for _ in range(n_z)]
            for i, mean in enumerate(column):
                lines.append(f"mean[{a}][{i}][{j}] = {mean!r}")
    return lines


def _po_lines(rnd):
    low = rnd.choice((0, -1))  # binary potential outcomes when 0
    pool = [(float(y1), float(y0)) for y1 in range(low, 2) for y0 in range(low, 2)]
    n_pairs = 4 if low == 0 and rnd.random() < 0.7 else rnd.randint(1, 4)
    pairs = rnd.sample(pool, n_pairs)
    flat = rnd.random() < 0.3  # selection free of the outcomes
    if rnd.random() < 0.2:
        pairs[0] = (rnd.choice(HUGE), rnd.choice(HUGE))
    pair_pmf = _pmf(rnd, n_pairs)
    by_pi = {}
    for _ in range(rnd.randint(1, 4)):
        row = [_prob(rnd)] * n_pairs if flat else [_prob(rnd) for _ in range(n_pairs)]
        by_pi.setdefault(min(sum(t * p for t, p in zip(row, pair_pmf)), 1.0), row)
    levels = sorted(by_pi)
    lines = ["kind = potential_outcomes", f"pi_support = {_csv(levels)}",
             f"pi_pmf = {_csv(_pmf(rnd, len(levels)))}",
             "y_pairs = " + "; ".join(f"{y1!r},{y0!r}:{p!r}" for (y1, y0), p in zip(pairs, pair_pmf))]
    for k, pi in enumerate(levels):
        lines += [f"treat[{k}][{j}] = {t!r}" for j, t in enumerate(by_pi[pi])]
    return lines


def _family_lines(rnd):
    n = rnd.randint(1, 3)
    weights = [1e308] * n if rnd.random() < 0.1 else _pmf(rnd, n)
    lines = ["kind = covariate_family"]
    for k, weight in enumerate(weights):
        lines += [f"begin stratum s{k} {weight!r}"] + _discrete_body(rnd) + ["end stratum"]
    return lines


def _file(rnd):
    """Scenario file bytes, possibly mangled."""
    kind = rnd.choice(("binary", "discrete", "po", "family"))
    lines = {"binary": _binary_lines, "discrete": lambda r: ["kind = discrete"] + _discrete_body(r),
             "po": _po_lines, "family": _family_lines}[kind](rnd)
    for _ in range(rnd.choice((0, 0, 0, 1, 2))):
        k = rnd.randrange(len(lines))
        key, eq, value = lines[k].partition(" = ")
        fault = rnd.randrange(4)
        if fault == 0 and eq:  # one number replaced
            pieces = value.split(", ")
            pieces[rnd.randrange(len(pieces))] = rnd.choice(TOKENS)
            lines[k] = f"{key} = {', '.join(pieces)}"
        elif fault == 1:
            del lines[k]
        elif fault == 2:
            lines.insert(k, lines[k])
        else:
            lines.insert(k, "bogus = 1")
    data = ("\n".join(lines) + "\n").encode()
    if rnd.random() < 0.05:
        at = rnd.randrange(len(data))
        data = data[:at] + rnd.choice(BAD_BYTES) + data[at:]
    return kind, data


def _commands(kind, path, rnd):
    threshold = f"--threshold={rnd.choice((0.0, 0.5, -1.0, 2.0, 1e308))!r}"
    if kind == "family":
        return [["average", path], ["average", path, "--conditioning", "on_propensity"],
                ["average", path, "--allow-direct-effect"]]
    commands = [["eval", path], ["eval", path, "--conditioning", "on_propensity"],
                ["eval", path, "--allow-direct-effect"]]
    commands += [["check", path, "--theorem", name] for name in _THEOREMS]
    if kind != "po":
        commands += [["dce", path, threshold], ["dce", path, threshold, "--conditioning",
                                                "on_propensity"],
                     ["rr", path], ["rr", path, "--conditioning", "on_propensity"]]
    return commands


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv):
    code, out, err = _run(argv)
    if code == 0:
        assert err == "", (argv, err)
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert code in (1, 2, 3), (argv, code, err)
        assert out == "", (argv, out)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    return code


@pytest.fixture(scope="module")
def scenario_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield str(Path(tmp) / "world.scn")


@settings(derandomize=True, max_examples=1200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32))
def test_every_run_is_json_or_one_error_line(scenario_path, seed):
    # A seed, not st.randoms(): the file is built with plain random calls.
    rnd = random.Random(seed)
    kind, data = _file(rnd)
    Path(scenario_path).write_bytes(data)
    for argv in _commands(kind, scenario_path, rnd):
        _check_contract(argv)


def test_generated_files_reach_every_outcome(scenario_path):
    # Otherwise the property above could hold on errors alone.
    rnd = random.Random(1414)
    codes = {kind: set() for kind in ("binary", "discrete", "po", "family")}
    theorems_ok = set()
    for _ in range(300):
        kind, data = _file(rnd)
        Path(scenario_path).write_bytes(data)
        for argv in _commands(kind, scenario_path, rnd):
            code = _check_contract(argv)
            codes[kind].add(code)
            if code == 0 and argv[0] == "check":
                theorems_ok.add(argv[3])
    for kind, seen in codes.items():
        assert {0, 1} <= seen, (kind, seen)
    assert 3 in codes["binary"] | codes["discrete"]
    assert theorems_ok == set(_THEOREMS)
