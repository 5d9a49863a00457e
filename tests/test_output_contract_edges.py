"""The CLI output contract on tolerance-edge inputs.

The runner, commands and file kinds are those of ``test_output_contract.py``;
only the numbers change.  They sit on the edges of the package's tolerances
and of the double format, derived by name so that a new tolerance value
moves its edges with it:

- probabilities at 0, the least subnormal, 2^-52, half, one and two times
  each tolerance, one minus them and 1, and 1/4, 1/2, 3/4 moved by 2^-52 or
  0.9, 1 and 1.1 times ``IDENTITY_TOL`` or ``VALIDATION_TOL``;
- masses with subnormal weights, one nudged by +-2^-52, 2 * 2^-52 or
  +-0.99 and +-1.01 times ``VALIDATION_TOL``;
- treatment rows whose propensities lie within ``PROPENSITY_MERGE_TOL`` times
  0.99 or 1.01 of another row's;
- treatment tables whose cells are all the least subnormal, so that Pr(A=1)
  underflows to 0.0 while every cell is positive;
- additive or multiplicative interaction-free treatment tables with one cell
  scaled by 1 + 1e-12 up to 1 + 5e-9, inside and outside the fit tolerance.
"""

import random
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_output_contract import (  # noqa: F401  (scenario_path is a fixture)
    _check_contract,
    _commands,
    _csv,
    _mean,
    _num,
    _support,
    scenario_path,
)

from zbias.errors import ZbiasError
from zbias.scenario import IDENTITY_TOL, PROPENSITY_MERGE_TOL, VALIDATION_TOL
from zbias.scenario_io import parse_scenario

EPS = 2.0 ** -52  # the spacing of doubles just above 1
TINY = 5e-324  # the least subnormal double
TOLS = (IDENTITY_TOL, VALIDATION_TOL, PROPENSITY_MERGE_TOL)
EDGE_PROBS = tuple(sorted({0.0, TINY, 1e-300, EPS, 0.5, 1.0 - EPS / 2, 1.0,
                           *(f * tol for tol in TOLS for f in (0.5, 1.0, 2.0)),
                           *(1.0 - f * tol for tol in TOLS for f in (1.0, 2.0))}))
OFFSETS = (EPS, *(f * tol for tol in (IDENTITY_TOL, VALIDATION_TOL) for f in (0.9, 1.0, 1.1)))
MASS_NUDGES = (EPS, -EPS, 2 * EPS, *(f * VALIDATION_TOL for f in (0.99, -0.99, 1.01, -1.01)))
TIES = (0.0, *(f * PROPENSITY_MERGE_TOL for f in (0.99, 1.01)))
SCALES = (IDENTITY_TOL, 0.1 * VALIDATION_TOL, VALIDATION_TOL, 5 * VALIDATION_TOL,
          -0.5 * VALIDATION_TOL)


def _prob(rnd):
    r = rnd.random()
    if r < 0.5:
        return rnd.choice(EDGE_PROBS)
    if r < 0.7:
        return rnd.random()
    return rnd.choice((0.25, 0.5, 0.75)) + rnd.choice((-1, 1)) * rnd.choice(OFFSETS)


def _pmf(rnd, n):
    weights = [rnd.choice((0.0, TINY, 1e-300, 1.0, rnd.uniform(0.1, 1.0))) for _ in range(n)]
    weights[rnd.randrange(n)] = 1.0
    total = sum(weights)
    pmf = [w / total for w in weights]
    if rnd.random() < 0.5:
        pmf[pmf.index(max(pmf))] += rnd.choice(MASS_NUDGES)
    return pmf


def _treat_table(rnd, n_z, n_u):
    """Pr(A=1 | z_i, u_j): edge cells with near-tied rows, every cell the
    least subnormal, or interaction-free with one cell scaled."""
    flavour = rnd.randrange(4)
    if flavour == 0:
        rows = [[_prob(rnd) for _ in range(n_u)] for _ in range(rnd.randint(1, 2))]
        table = []
        for _ in range(n_z):
            tie = rnd.choice(TIES)
            table.append([t + tie if t + tie <= 1.0 else t for t in rnd.choice(rows)])
        return table
    if flavour == 1:
        return [[TINY] * n_u for _ in range(n_z)]
    z = sorted(rnd.choice((0.0, 0.1, 0.2)) for _ in range(n_z))
    u = sorted(rnd.choice((0.0, 0.1, 0.3)) for _ in range(n_u))
    base = rnd.choice((0.05, 0.1, 0.2))
    if flavour == 2:
        table = [[base + a + b for b in u] for a in z]
    else:
        table = [[base * (1 + 3 * a) * (1 + 2 * b) for b in u] for a in z]
    i, j = rnd.randrange(n_z), rnd.randrange(n_u)
    table[i][j] *= 1.0 + rnd.choice(SCALES)
    return table


def _binary_lines(rnd):
    binary = rnd.random() < 0.6
    (p00, p01), (p10, p11) = _treat_table(rnd, 2, 2)
    lines = [f"{key} = {_prob(rnd)!r}" for key in ("pZ", "pU")]
    lines += [f"{key} = {p!r}" for key, p in zip(("p11", "p10", "p01", "p00"),
                                                (p11, p10, p01, p00))]
    lines += [f"{key} = {_prob(rnd) if binary else _num(rnd)!r}"
              for key in ("r11", "r10", "r01", "r00")]
    lines.append(f"binary_outcome = {'true' if binary else 'false'}")
    return ["kind = binary"] + lines


def _discrete_body(rnd):
    n_z, n_u = rnd.randint(1, 4), rnd.randint(1, 3)
    binary = rnd.random() < 0.4
    lines = [f"z_support = {_csv(_support(rnd, n_z))}", f"z_pmf = {_csv(_pmf(rnd, n_z))}",
             f"u_support = {_csv(_support(rnd, n_u))}", f"u_pmf = {_csv(_pmf(rnd, n_u))}",
             f"binary_outcome = {'true' if binary else 'false'}"]
    for i, row in enumerate(_treat_table(rnd, n_z, n_u)):
        lines += [f"treat[{i}][{j}] = {t!r}" for j, t in enumerate(row)]
    with_law = binary and rnd.random() < 0.5
    for a in (0, 1):
        for j in range(n_u):
            if with_law:
                values = (0.0, 1.0)
                probs = _pmf(rnd, 2)
                lines.append(f"law[{a}][{j}] = " + ", ".join(
                    f"{v!r}:{p!r}" for v, p in zip(values, probs)))
                column = [_mean(values, probs)] * n_z
            else:
                column = [_prob(rnd) if binary else _num(rnd)] * n_z
            lines += [f"mean[{a}][{i}][{j}] = {m!r}" for i, m in enumerate(column)]
    return lines


def _po_lines(rnd):
    pool = [(float(y1), float(y0)) for y1 in (0, 1) for y0 in (0, 1)]
    pairs = rnd.sample(pool, rnd.randint(1, 4))
    pair_pmf = _pmf(rnd, len(pairs))
    by_pi = {}
    for row in _treat_table(rnd, rnd.randint(1, 4), len(pairs)):
        by_pi.setdefault(min(sum(t * p for t, p in zip(row, pair_pmf)), 1.0), row)
    levels = sorted(by_pi)
    lines = ["kind = potential_outcomes", f"pi_support = {_csv(levels)}",
             f"pi_pmf = {_csv(_pmf(rnd, len(levels)))}",
             "y_pairs = " + "; ".join(f"{y1!r},{y0!r}:{p!r}" for (y1, y0), p in zip(pairs, pair_pmf))]
    for k, pi in enumerate(levels):
        lines += [f"treat[{k}][{j}] = {t!r}" for j, t in enumerate(by_pi[pi])]
    return lines


def _family_lines(rnd):
    lines = ["kind = covariate_family"]
    for k, weight in enumerate(_pmf(rnd, rnd.randint(1, 3))):
        lines += [f"begin stratum s{k} {weight!r}"] + _discrete_body(rnd) + ["end stratum"]
    return lines


def _file(rnd):
    kind = rnd.choice(("binary", "discrete", "discrete", "po", "family"))
    lines = {"binary": _binary_lines, "discrete": lambda r: ["kind = discrete"] + _discrete_body(r),
             "po": _po_lines, "family": _family_lines}[kind](rnd)
    return kind, ("\n".join(lines) + "\n").encode()


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32))
def test_every_run_on_an_edge_file_is_json_or_one_error_line(scenario_path, seed):
    rnd = random.Random(seed)
    kind, data = _file(rnd)
    Path(scenario_path).write_bytes(data)
    for argv in _commands(kind, scenario_path, rnd):
        _check_contract(argv)


def test_edge_files_load_and_reach_their_edges():
    # Otherwise the property above could hold on validation errors alone.
    rnd = random.Random(2718)
    loaded, underflowed = {}, 0
    for _ in range(400):
        kind, data = _file(rnd)
        try:
            world = parse_scenario(data.decode())
        except ZbiasError:
            continue
        loaded[kind] = loaded.get(kind, 0) + 1
        if kind == "discrete" and world.treat[0][0] == TINY and max(map(max, world.treat)) == TINY:
            underflowed += 1
    assert min(loaded.get(kind, 0) for kind in ("binary", "discrete", "po", "family")) >= 20, loaded
    assert underflowed >= 5
