"""Differential test: the scenario constructors against their frozen reference.

Valid binary, discrete and potential-outcome inputs are generated and then
mangled with several faults at once: NaN, infinities, non-numbers, ``None``,
out-of-range values, ``-0.0``, dropped and repeated rows, cells, pairs and
support points, empty and short outcome-law cells, law means that miss the
outcome means, and treatment rows whose implied propensity misses its level.
``zbias.scenario`` and ``reference_scenario`` must build equal objects (equal
``repr``) or raise the same exception type with the same message, so the
first fault reported is the same.

The one intended difference is an overflowing validation sum: where the
reference lets ``OverflowError`` out of ``math.fsum``, the package raises
``InvariantViolation`` naming the field.
"""

import math
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_scenario as reference
from zbias import InvariantViolation, scenario

MAX = 1.7976931348623157e308
FAULTS = (math.nan, math.inf, -math.inf, "x", None, 1.5, -0.25, -0.0, "0.5", True,
          1e308, -1e308, MAX, (0.5,))
KINDS = ("BinaryScenario", "DiscreteScenario", "PotentialOutcomeScenario")
OVERFLOW = re.compile(
    r"^(z_pmf|u_pmf|pi_pmf|y_pairs|law\[\d\]\[\d+\]): must sum to 1, got inf$"
    r"|^law\[\d\]\[\d+\]: law mean -?inf does not match mean\[\d\]\[\d+\]\[\d+\] = ")


def _pmf(rnd, n):
    weights = [rnd.choice((0.0, 1.0, rnd.uniform(0.1, 1.0))) for _ in range(n)]
    weights[rnd.randrange(n)] = 1.0
    total = math.fsum(weights)
    return [w / total for w in weights]


def _prob(rnd):
    return rnd.choice((0.0, 1.0, 0.5, rnd.random()))


def _binary_input(rnd):
    mean = [[_prob(rnd) for _ in range(2)] for _ in range(2)]
    binary = rnd.random() < 0.7
    if not binary and rnd.random() < 0.3:
        mean = [[rnd.choice((-MAX, MAX, rnd.uniform(-5, 5))) for _ in range(2)]
                for _ in range(2)]
    return dict(z_prob=_prob(rnd), u_prob=_prob(rnd),
                treat=[[_prob(rnd) for _ in range(2)] for _ in range(2)],
                outcome_mean=mean, binary_outcome=binary)


def _discrete_input(rnd):
    n_z, n_u = rnd.randint(1, 4), rnd.randint(1, 4)
    binary = rnd.random() < 0.4
    laws, columns = [], []
    for _a in (0, 1):
        arm = []
        for _j in range(n_u):
            if binary:
                values = rnd.choice(((0.0,), (1.0,), (0.0, 1.0)))
            elif rnd.random() < 0.1:
                values = (1.79e308, MAX)  # law means near the largest double
            else:
                values = tuple(sorted(rnd.sample(range(-9, 9), rnd.randint(1, 3))))
            arm.append(list(zip(values, _pmf(rnd, len(values)))))
        laws.append(arm)
        columns.append([math.fsum(v * p for v, p in law) for law in arm])
    with_law = rnd.random() < 0.5
    if not with_law and rnd.random() < 0.5:  # means free to vary with z
        mean = [[[_prob(rnd) if binary else rnd.uniform(-9, 9) for _ in range(n_u)]
                 for _ in range(n_z)] for _a in (0, 1)]
    else:
        mean = [[list(columns[a]) for _ in range(n_z)] for a in (0, 1)]
    return dict(
        z_support=sorted(rnd.sample(range(-9, 9), n_z)), z_pmf=_pmf(rnd, n_z),
        u_support=sorted(rnd.sample(range(-9, 9), n_u)), u_pmf=_pmf(rnd, n_u),
        treat=[[_prob(rnd) for _ in range(n_u)] for _ in range(n_z)],
        outcome_mean=mean, outcome_law=laws if with_law else None, binary_outcome=binary,
    )


def _po_input(rnd):
    n_pairs = rnd.randint(1, 4)
    pool = [(y1, y0) for y1 in range(-2, 3) for y0 in range(-2, 3)]
    pairs = [list(p) for p in rnd.sample(pool, n_pairs)]
    if rnd.random() < 0.1:
        pairs[0] = [1e308, -1e308]
    pair_pmf = _pmf(rnd, n_pairs)
    by_pi = {}
    for _ in range(rnd.randint(1, 4)):
        row = [_prob(rnd) for _ in range(n_pairs)]
        by_pi.setdefault(min(math.fsum(t * p for t, p in zip(row, pair_pmf)), 1.0), row)
    levels = sorted(by_pi)
    return dict(pi_support=levels, pi_pmf=_pmf(rnd, len(levels)), y_pairs=pairs,
                pair_pmf=pair_pmf, treat=[by_pi[pi] for pi in levels])


def _nudge(rnd, kwargs):
    """One semantic fault that leaves every cell a valid number."""
    table = rnd.choice([k for k in ("treat", "outcome_mean", "z_pmf", "pi_pmf", "pair_pmf")
                        if k in kwargs])
    leaf = kwargs[table]
    while isinstance(leaf[0], list):
        leaf = rnd.choice(leaf)
    k = rnd.randrange(len(leaf))
    leaf[k] += rnd.choice((1e-6, -1e-6, 3e-9, -7e-10, 1e-12))  # some near the tolerance


def _mangle(rnd, value, rate):
    """``value`` with leaves replaced by faults and sequences shortened or
    given a repeated element, each with probability ``rate``; sequences come
    back as lists or tuples."""
    if isinstance(value, (list, tuple)):
        items = [_mangle(rnd, v, rate) for v in value]
        r = rnd.random()
        if r < rate / 2 and items:
            items.pop(rnd.randrange(len(items)))
        elif r < rate and items:
            items.insert(rnd.randrange(len(items) + 1), rnd.choice(items))
        return tuple(items) if rnd.random() < 0.5 else items
    if not isinstance(value, bool) and rnd.random() < rate:
        return rnd.choice(FAULTS)
    return value


def _overflow_input(rnd):
    """An input whose validation sum overflows in ``math.fsum``."""
    flavour = rnd.randrange(3)
    if flavour == 0:
        kwargs = _discrete_input(rnd)
        kwargs["z_support"], kwargs["z_pmf"] = [0, 1], [1e308, 1e308]
        kwargs["treat"] = [kwargs["treat"][0]] * 2
        kwargs["outcome_mean"] = [[arm[0]] * 2 for arm in kwargs["outcome_mean"]]
        return "DiscreteScenario", kwargs
    if flavour == 1:
        kwargs = _po_input(rnd)
        kwargs["y_pairs"], kwargs["pair_pmf"] = [[1, 0], [0, 1]], [1e308, 1e308]
        kwargs["treat"] = [[0.5, 0.5]] * len(kwargs["pi_support"])
        return "PotentialOutcomeScenario", kwargs
    kwargs = _discrete_input(rnd)
    kwargs["binary_outcome"] = False
    law = [[[(0.0, 1.0)] for _ in kwargs["u_support"]] for _a in (0, 1)]
    law[0][0] = rnd.choice(([(0.0, 1e308), (1.0, 1e308)], [(1.79e308, 1e-10), (MAX, 1.0)]))
    kwargs["outcome_law"] = law
    kwargs["outcome_mean"] = [[[MAX if (a, j) == (0, 0) else 0.0 for j in kwargs["u_support"]]
                               for _ in kwargs["z_support"]] for a in (0, 1)]
    return "DiscreteScenario", kwargs


def _input(rnd):
    if rnd.random() < 0.05:
        return _overflow_input(rnd)
    kind = rnd.choice(KINDS)
    kwargs = {"BinaryScenario": _binary_input, "DiscreteScenario": _discrete_input,
              "PotentialOutcomeScenario": _po_input}[kind](rnd)
    for _ in range(rnd.choice((0, 0, 1, 2))):
        _nudge(rnd, kwargs)
    rate = rnd.choice((0.0, 0.02, 0.05, 0.1, 0.2))
    return kind, {key: _mangle(rnd, value, rate) for key, value in kwargs.items()}


def _outcome(module, kind, kwargs):
    try:
        return "ok", repr(getattr(module, kind)(**kwargs))
    except Exception as exc:  # the comparison is the point, whatever is raised
        return type(exc), str(exc)


def _matches(kind, kwargs):
    got = _outcome(scenario, kind, kwargs)
    expected = _outcome(reference, kind, kwargs)
    if expected[0] is OverflowError:
        return got[0] is InvariantViolation and OVERFLOW.match(got[1]) is not None
    return got == expected


@settings(derandomize=True, max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32))
def test_constructors_match_reference(seed):
    # A seed, not st.randoms(): one input costs microseconds, not milliseconds.
    kind, kwargs = _input(random.Random(seed))
    assert _matches(kind, kwargs), (kind, kwargs)


def test_generated_inputs_reach_many_outcomes():
    # Otherwise the comparison above could pass on a few errors alone.
    rnd = random.Random(14)
    seen = {}
    for _ in range(4000):
        kind, kwargs = _input(rnd)
        outcome = _outcome(reference, kind, kwargs)
        shape = outcome[0] if outcome[0] == "ok" else (
            outcome[0].__name__, re.sub(r"-?\d[\w.+-]*|-?inf|nan", "#", outcome[1]))
        seen.setdefault(kind, set()).add(shape)
    for kind in KINDS:
        assert "ok" in seen[kind], kind
    shapes = set().union(*seen.values())
    assert ("OverflowError", "intermediate overflow in fsum") in shapes
    assert len(shapes) >= 60, sorted(map(str, shapes))


def test_overflowing_sums_name_their_field():
    big = dict(z_support=(0, 1), z_pmf=(1e308, 1e308), u_support=(0,), u_pmf=(1,),
               treat=((0.5,), (0.5,)), outcome_mean=(((0.0,),) * 2,) * 2)
    with pytest.raises(OverflowError):
        reference.DiscreteScenario(**big)
    with pytest.raises(InvariantViolation, match=r"^z_pmf: must sum to 1, got inf$"):
        scenario.DiscreteScenario(**big)


# Mean tables whose row sums and whole-table sum disagree about overflow, so
# that a one-pass finiteness test over every cell and one over row sums would
# send them down different paths; each path must build the reference world.
_ZERO_ARM = ((0.0, 0.0), (0.0, 0.0))
SUM_ORDER_MEANS = {
    "rows finite, table overflows": (((1e308, 1.0), (1e308, -1e308)), _ZERO_ARM),
    "a row overflows, table finite": (((-1e308, 0.0), (1e308, 1e308)), _ZERO_ARM),
    "table overflows across arms": (((0.0, 0.0), (0.0, 1e308)), ((1e308, -1e308), (0.0, 0.0))),
    "both overflow": (((MAX, MAX), (-MAX, -MAX)), _ZERO_ARM),
}


@pytest.mark.parametrize("mean", SUM_ORDER_MEANS.values(), ids=SUM_ORDER_MEANS.keys())
def test_sums_that_overflow_in_one_grouping_only(mean):
    kwargs = dict(z_support=(0, 1), z_pmf=(0.5, 0.5), u_support=(0, 1), u_pmf=(0.4, 0.6),
                  treat=((0.1, 0.2), (0.6, 0.8)), outcome_mean=mean)
    assert _outcome(scenario, "DiscreteScenario", kwargs)[0] == "ok"
    assert _matches("DiscreteScenario", kwargs)
    # Rows given as iterators are never tested in one pass, only walked.
    walked = dict(kwargs, outcome_mean=[[iter(row) for row in arm] for arm in mean])
    assert _outcome(scenario, "DiscreteScenario", walked) == _outcome(
        scenario, "DiscreteScenario", kwargs)


# Treatment tables with list rows take the one-pass test; the same rows as
# iterators are walked.  Both builds must give the reference world or fault.
_PO = dict(pi_support=(0.3, 0.6), pi_pmf=(0.5, 0.5), y_pairs=((1, 0), (0, 0)),
           pair_pmf=(0.5, 0.5))
_DISCRETE = dict(z_support=(0, 1), z_pmf=(0.5, 0.5), u_support=(0, 1), u_pmf=(0.4, 0.6),
                 outcome_mean=(((0.0, 0.0),) * 2,) * 2)
TREATMENT_WORLDS = {
    "potential outcomes": ("PotentialOutcomeScenario", dict(_PO, treat=[[0.4, 0.2], [0.7, 0.5]])),
    "row 0 implies the wrong pi": ("PotentialOutcomeScenario",
                                   dict(_PO, treat=[[0.5, 0.2], [0.7, 0.5]])),
    "discrete": ("DiscreteScenario", dict(_DISCRETE, treat=[[0.1, 0.2], [0.6, 0.8]])),
    "an infinite cell": ("DiscreteScenario", dict(_DISCRETE, treat=[[0.1, math.inf], [0.6, 0.8]])),
    "a missing row and a non-number": ("PotentialOutcomeScenario", dict(_PO, treat=[["x", 0.2]])),
}


@pytest.mark.parametrize("kind, kwargs", TREATMENT_WORLDS.values(), ids=TREATMENT_WORLDS.keys())
def test_one_pass_and_walked_treatment_tables_agree(kind, kwargs):
    walked = dict(kwargs, treat=[iter(row) for row in kwargs["treat"]])
    one_pass = _outcome(scenario, kind, kwargs)
    assert _outcome(scenario, kind, walked) == one_pass
    assert one_pass == _outcome(reference, kind, kwargs)
