"""The four benchmark workloads: seeded op sequences and their output checks.

An op is one in-process ``zbias.cli.main(argv)`` call.  The sequences yield
groups of ops (a sequential/threaded pair, a cor1/cor2 pair, or a single
exact op) and a run always ends on a group boundary, so every pair the
checks compare is complete.  Every input is derived from the benchmark
seed: Monte Carlo draw seeds by hashing (workload, seed, group), the
exact-engine scenario files from a ``random.Random`` seeded with the
workload name and seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

# Calls are kept shorter than the host's 0.1-1 s speed modes (see
# run.REFERENCE_S) while still crossing the 32768-draw chunk size, so the
# 2-thread calls really use the pool: 8 chunks for mc, 2 for scatter.
MC_DRAWS = 2**18
COR1_DRAWS = 20_000
COR2_DRAWS = 200_000
SCATTER_DRAWS = 2**16
WARMUP_DRAWS = 1000

# Centre of the acceptance band for the unfiltered amplification volume.
VOLUME_CENTRE = 0.6805
VOLUME_SIGMAS = 5.0
GAP_TOL = 1e-12

# Instrument x confounder support of the large exact-engine worlds.
LARGE_NZ, LARGE_NU = 32, 16

BINARY_THEOREMS = ("thm1", "thm2", "thm3", "thm7", "collider", "cor1", "cor2", "weaker")
DISCRETE_THEOREMS = ("thm1", "thm2", "thm3", "thm7", "collider")
CONDITIONINGS = ("on_z", "on_propensity")


@dataclass
class Op:
    argv: list[str]
    threads: str | None = None      # ZBIAS_THREADS for the call; None = unset
    units: int = 1                  # draws, rows or 1 op
    primary: bool = True            # counts toward units_per_s and the latencies
    alt: bool = False               # counts toward alt_units_per_s
    group: int = 0
    expect: dict = field(default_factory=dict)


class BadOutput(Exception):
    pass


def _reject_constant(name):
    raise BadOutput(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse stdout as JSON, refusing Infinity and NaN."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise BadOutput(f"stdout is not JSON: {exc}") from None


def draw_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------- Monte Carlo


def mc_uniform_groups(seed: int, warmup: bool = False):
    draws = WARMUP_DRAWS if warmup else MC_DRAWS
    tag = "mc_uniform" + ("/warmup" if warmup else "")
    for group in itertools.count():
        s = draw_seed(tag, seed, group)
        argv = ["mc", "--draws", str(draws), "--seed", str(s)]
        expect = {"seed": s, "draws": draws}
        yield [Op(argv, None, draws, True, False, group, expect),
               Op(argv, "2", draws, False, True, group, expect)]


def mc_filtered_groups(seed: int, warmup: bool = False):
    for group in itertools.count():
        pair = []
        for name, draws, primary in (("cor1", COR1_DRAWS, True), ("cor2", COR2_DRAWS, False)):
            if warmup:
                draws = WARMUP_DRAWS
            s = draw_seed(f"mc_filtered/{name}" + ("/warmup" if warmup else ""), seed, group)
            argv = ["mc", "--draws", str(draws), "--seed", str(s), "--filter", name]
            pair.append(Op(argv, None, draws, primary, not primary, group,
                           {"seed": s, "draws": draws, "filter": name}))
        yield pair


def scatter_groups(seed: int, out_dir: str, warmup: bool = False):
    draws = WARMUP_DRAWS if warmup else SCATTER_DRAWS
    tag = "scatter_export" + ("/warmup" if warmup else "")
    for group in itertools.count():
        s = draw_seed(tag, seed, group)
        pair = []
        for threads, name in ((None, "t1"), ("2", "t2")):
            out = f"{out_dir}/{'w' if warmup else 'g'}{group}-{name}.csv"
            argv = ["scatter", "--draws", str(draws), "--seed", str(s), "--out", out]
            pair.append(Op(argv, threads, draws, threads is None, threads is not None, group,
                           {"seed": s, "draws": draws, "csv": out}))
        yield pair


# ------------------------------------------------------------- exact corpus

# Each successive block of 20 ops holds exactly these scenario kinds, and
# every command deck below is dealt in full before it is reshuffled, so the
# mix of kinds and commands is the same for every seed; only the worlds vary.
KIND_DECK = ("large",) * 2 + ("binary",) * 12 + ("po",) * 3 + ("family",) * 3
_EVALS = tuple(("eval", c) for c in CONDITIONINGS for _ in range(4))
_RR_DCE = tuple((cmd, c) for cmd in ("rr", "dce") for c in CONDITIONINGS)
COMMAND_DECKS = {
    "large": _EVALS + tuple(("check", t) for t in DISCRETE_THEOREMS) + _RR_DCE,
    "binary": _EVALS + tuple(("check", t) for t in BINARY_THEOREMS) + _RR_DCE,
    "po": (("eval", None),) * 3 + (("check", "thm4"),) * 2,
    "family": tuple(("average", c) for c in CONDITIONINGS),
}


class _Gen:
    def __init__(self, tag: str):
        self.r = random.Random(tag)
        self.decks: dict[str, list] = {}

    def u(self, lo=0.0, hi=1.0) -> float:
        return lo + (hi - lo) * self.r.random()

    def prob(self) -> float:
        return self.u(0.05, 0.95)

    def below(self, n: int) -> int:
        return min(int(self.r.random() * n), n - 1)

    def deal(self, name: str, cards):
        """Next card of a deck reshuffled (Fisher-Yates) whenever it runs out."""
        deck = self.decks.get(name)
        if not deck:
            deck = list(cards)
            for i in range(len(deck) - 1, 0, -1):
                j = self.below(i + 1)
                deck[i], deck[j] = deck[j], deck[i]
            self.decks[name] = deck
        return deck.pop()

    def pmf(self, n: int) -> list[float]:
        raw = [self.u(0.2, 1.2) for _ in range(n)]
        total = math.fsum(raw)
        return [x / total for x in raw]


def _csv(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _discrete_body(g: _Gen, n_z: int, n_u: int, tie_share: float):
    """A discrete world with outcome means constant in z and a binary
    outcome law; ``tie_share`` of the instrument levels copy an earlier
    treatment row so propensity conditioning merges levels."""
    z_pmf = g.pmf(n_z)
    u_pmf = g.pmf(n_u)
    treat = []
    for i in range(n_z):
        if i and g.r.random() < tie_share:
            treat.append(treat[g.below(i)])
        else:
            treat.append([g.prob() for _ in range(n_u)])
    means = [[g.u(0.02, 0.98) for _ in range(n_u)] for _ in (0, 1)]
    mean_text = [[repr(m) for m in arm] for arm in means]
    lines = [
        f"z_support = {_csv(range(n_z))}",
        f"z_pmf = {_csv(z_pmf)}",
        f"u_support = {_csv(range(n_u))}",
        f"u_pmf = {_csv(u_pmf)}",
        "binary_outcome = true",
    ]
    lines += [f"treat[{i}][{j}] = {treat[i][j]!r}" for i in range(n_z) for j in range(n_u)]
    lines += [f"mean[{a}][{i}][{j}] = {mean_text[a][j]}"
              for a in (0, 1) for i in range(n_z) for j in range(n_u)]
    lines += [f"law[{a}][{j}] = 0.0:{1.0 - means[a][j]!r}, 1.0:{mean_text[a][j]}"
              for a in (0, 1) for j in range(n_u)]
    values = dict(z_pmf=z_pmf, u_pmf=u_pmf, treat=treat, means=means)
    return lines, values


def _discrete_object(zbias, values, n_z, n_u):
    means = values["means"]
    return zbias.DiscreteScenario(
        z_support=tuple(float(i) for i in range(n_z)),
        z_pmf=values["z_pmf"],
        u_support=tuple(float(j) for j in range(n_u)),
        u_pmf=values["u_pmf"],
        treat=values["treat"],
        outcome_mean=[[means[a]] * n_z for a in (0, 1)],
        outcome_law=[
            [((0.0, 1.0 - means[a][j]), (1.0, means[a][j])) for j in range(n_u)]
            for a in (0, 1)
        ],
        binary_outcome=True,
    )


def _binary(g: _Gen):
    keys = ("pZ", "pU", "p11", "p10", "p01", "p00", "r11", "r10", "r01", "r00")
    vals = {k: g.prob() if k[0] == "p" else g.u(0.02, 0.98) for k in keys}
    text = "kind = binary\n" + "".join(f"{k} = {vals[k]!r}\n" for k in keys)
    return text, vals


def _binary_object(zbias, v):
    return zbias.to_discrete(zbias.BinaryScenario(
        z_prob=v["pZ"], u_prob=v["pU"],
        treat=((v["p00"], v["p01"]), (v["p10"], v["p11"])),
        outcome_mean=((v["r00"], v["r01"]), (v["r10"], v["r11"])),
    ))


def _potential_outcomes(g: _Gen) -> str:
    pair_pmf = g.pmf(4)
    pairs = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    while True:
        rows = [[g.prob() for _ in pairs] for _ in range(2)]
        pis = [math.fsum(t * p for t, p in zip(row, pair_pmf)) for row in rows]
        if pis[0] != pis[1]:
            break
    order = sorted(range(2), key=lambda k: pis[k])
    w = g.u(0.2, 0.8)
    lines = [
        "kind = potential_outcomes",
        f"pi_support = {_csv(pis[k] for k in order)}",
        f"pi_pmf = {_csv((w, 1.0 - w))}",
        "y_pairs = " + "; ".join(
            f"{y1!r},{y0!r}:{p!r}" for (y1, y0), p in zip(pairs, pair_pmf)
        ),
    ]
    for k, src in enumerate(order):
        for j in range(len(pairs)):
            lines.append(f"treat[{k}][{j}] = {rows[src][j]!r}")
    return "\n".join(lines) + "\n"


def _family(g: _Gen) -> str:
    w = g.u(0.2, 0.8)
    lines = ["kind = covariate_family"]
    for label, weight in (("s0", w), ("s1", 1.0 - w)):
        body, _ = _discrete_body(g, 2, 2, 0.0)
        lines.append(f"begin stratum {label} {weight!r}")
        lines.extend("  " + line for line in body)
        lines.append("end stratum")
    return "\n".join(lines) + "\n"


def _exact_op(zbias, g: _Gen, path: str, group: int) -> tuple[str, Op]:
    """Scenario text and the op that runs on it; eval ops on binary and
    discrete worlds carry the covariance-route gaps to compare against."""
    kind = g.deal("kinds", KIND_DECK)
    command, option = g.deal(kind, COMMAND_DECKS[kind])
    if kind == "po":
        argv = [command, path] + (["--theorem", option] if option else [])
        return _potential_outcomes(g), Op(argv, group=group)
    if kind == "family":
        return _family(g), Op([command, path, "--conditioning", option], group=group)
    if kind == "large":
        body, values = _discrete_body(g, LARGE_NZ, LARGE_NU, 0.25)
        text = "kind = discrete\n" + "\n".join(body) + "\n"
        make = lambda: _discrete_object(zbias, values, LARGE_NZ, LARGE_NU)  # noqa: E731
    else:
        text, values = _binary(g)
        make = lambda: _binary_object(zbias, values)  # noqa: E731

    expect = {}
    if command == "check":
        argv = ["check", path, "--theorem", option]
    else:
        argv = [command, path, "--conditioning", option]
    if command == "dce":
        argv[2:2] = ["--threshold", repr(g.u())]
    if command == "eval":
        s = make()
        if option == "on_propensity":
            s = zbias.collapse_by_propensity(s)
        expect["gaps"] = zbias.adjusted_minus_unadjusted_via_covariance(s)
    return text, Op(argv, alt=kind == "large", group=group, expect=expect)


def exact_groups(zbias, seed: int, corpus_dir: str, warmup: bool = False):
    """Exact-engine ops, each on a freshly written scenario file.  Files are
    written as the ops are dealt, outside the timed calls."""
    os.makedirs(corpus_dir, exist_ok=True)
    g = _Gen(f"exact_mix{'/warmup' if warmup else ''}:{seed}")
    for group in itertools.count():
        path = f"{corpus_dir}/{'w' if warmup else 'g'}{group}.scn"
        text, op = _exact_op(zbias, g, path, group)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        yield [op]


# ------------------------------------------------------------------ checks


def check_op(op: Op, stdout: str) -> None:
    """Per-op output checks that need only the op's own stdout."""
    doc = strict_json(stdout)
    if op.argv[0] == "mc":
        count = round(doc["volume"] * doc["draws"])
        if doc["draws"] != op.expect["draws"] or doc["seed"] != op.expect["seed"]:
            raise BadOutput("mc echoed the wrong draws or seed")
        name = op.expect.get("filter")
        if name is None:
            if abs(doc["volume"] - VOLUME_CENTRE) > VOLUME_SIGMAS * doc["stderr"]:
                raise BadOutput(
                    f"volume {doc['volume']!r} is more than {VOLUME_SIGMAS} stderr "
                    f"from {VOLUME_CENTRE}"
                )
        elif count + doc["tie_count"] != doc["draws"]:
            raise BadOutput(f"{name}: amplified + ties = {count + doc['tie_count']} "
                            f"!= draws {doc['draws']}")
    elif op.argv[0] == "scatter":
        if doc != {"rows": op.expect["draws"], "out": op.expect["csv"]}:
            raise BadOutput("scatter reported the wrong rows or path")
    elif "gaps" in op.expect:
        direct = (doc["adj_treated"] - doc["unadj"], doc["adj_control"] - doc["unadj"],
                  doc["adj_all"] - doc["unadj"])
        for slot, d, c in zip(("treated", "control", "all"), direct, op.expect["gaps"]):
            if not abs(d - c) <= GAP_TOL:
                raise BadOutput(f"{slot} gap {d!r} != covariance route {c!r}")
