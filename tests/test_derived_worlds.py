"""Worlds the package derives from a checked world are not checked again.

``to_discrete``, ``collapse_by_propensity`` and ``dce`` build their worlds
from values that follow from an already validated world.  Each derived
world must equal, by ``==`` and by ``repr``, with its fields in the same
order, the world that ``DiscreteScenario`` validation builds from the same
values written out independently here; where that validation refuses a
merged world, the collapse must refuse it with the same message.  A spy on
``DiscreteScenario.__post_init__`` pins that a command validates a world
only where it enters the package.
"""

import random
from dataclasses import replace
from math import fsum

import pytest
from test_collapse_reference import ROUNDING_Z_PMF, _worlds, ref_collapse
from test_output_contract_edges import _binary_lines
from test_scenario_io import CASE1_TEXT, DISCRETE_TEXT

import zbias.estimators as estimators_module
from zbias import DiscreteScenario, collapse_by_propensity, dce, to_discrete
from zbias.cli import main
from zbias.errors import ZbiasError
from zbias.estimators import DceSet, estimates
from zbias.scenario import PROPENSITY_MERGE_TOL, _binary_scenario
from zbias.scenario_io import parse_scenario

MAX = 1.7976931348623157e308


def _assert_same(derived, validated):
    assert derived == validated
    assert repr(derived) == repr(validated)
    assert list(vars(derived)) == list(vars(validated))


def _outcome(build, *args, **kwargs):
    """What ``build`` returns, or the type and text of its refusal."""
    try:
        return build(*args, **kwargs)
    except ZbiasError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# to_discrete

def validated_widening(b):
    """The widening of a binary world, through the validating constructor;
    supports and law are written as int lists for it to convert."""
    law = None
    if b.binary_outcome:
        law = [[[[0, 1.0 - r], [1, r]] for r in arm] for arm in b.outcome_mean]
    return DiscreteScenario(
        z_support=[0, 1], z_pmf=[1.0 - b.z_prob, b.z_prob],
        u_support=[0, 1], u_pmf=[1.0 - b.u_prob, b.u_prob],
        treat=[list(row) for row in b.treat],
        outcome_mean=[[list(row), list(row)] for row in b.outcome_mean],
        outcome_law=law, binary_outcome=int(b.binary_outcome),
    )


def _seeded_binary_worlds():
    rnd = random.Random(3217)
    edge = (0.0, 1.0, 2.0 ** -1074, 1.0 - 2.0 ** -53, 0.5)
    for k in range(1500):
        binary = k % 3 != 0
        prob = (lambda: rnd.choice(edge)) if k % 4 == 0 else rnd.random
        params = [prob() for _ in range(6)]
        if binary:
            params += [prob() for _ in range(4)]
        else:
            params += [rnd.choice((-MAX, MAX, -1e-300, rnd.uniform(-1e6, 1e6))) for _ in range(4)]
        yield _binary_scenario(params, binary)


def _edge_file_binary_worlds():
    rnd, worlds = random.Random(2718), []
    while len(worlds) < 300:
        try:
            worlds.append(parse_scenario("\n".join(_binary_lines(rnd)) + "\n"))
        except ZbiasError:
            continue
    return worlds


def test_widening_equals_the_validated_world():
    worlds = [*_seeded_binary_worlds(), *_edge_file_binary_worlds()]
    assert {b.binary_outcome for b in worlds} == {False, True}
    for b in worlds:
        _assert_same(to_discrete(b), validated_widening(b))


# ---------------------------------------------------------------------------
# collapse_by_propensity

def validated_collapse(s, tol=PROPENSITY_MERGE_TOL):
    """The merged levels of the per-cell transcription, put into ``s`` by
    ``replace``, which validates them."""
    levels = ref_collapse(s, tol)
    fields = dict(
        z_support=[label for label, _mass, _row, _means in levels],
        z_pmf=[mass for _label, mass, _row, _means in levels],
        treat=[list(row) for _label, _mass, row, _means in levels],
        outcome_mean=[[list(means[a]) for *_, means in levels] for a in (0, 1)],
    )
    return replace(s, **fields)


def overflow_world():
    """Three tied levels whose merge weights sum to 1 + 2^-52 under a mean at
    the largest double: the merged mean overflows."""
    return DiscreteScenario(
        z_support=(0, 1, 2, 3), z_pmf=ROUNDING_Z_PMF, u_support=(0, 1), u_pmf=(0.5, 0.5),
        treat=[(0.2, 0.9)] * 3 + [(0.1, 0.3)],
        outcome_mean=[[(MAX, 0.5)] * 4, [(0.5, 1.0)] * 4],
    )


def ulp_world():
    """Two levels of equal propensity whose merged row's propensity rounds up
    onto the third level's, one ulp above the tie: with ``tol = 0`` the
    recomputed labels are not strictly increasing."""
    a, b = 0.13436424411240122, 0.8474337369372327
    top = 0.4908989905248169
    return DiscreteScenario(
        z_support=(0, 1, 2), z_pmf=(0.763774618976614, 0.11811269051169299, 0.11811269051169299),
        u_support=(0, 1), u_pmf=(0.5, 0.5), treat=[(a, b), (b, a), (top, top)],
        outcome_mean=[[(0.0, 0.0)] * 3] * 2,
    )


def _collapse_cases():
    for name, world in _worlds():
        yield name, world, PROPENSITY_MERGE_TOL
        yield name, world, 0.0
    yield "overflow", overflow_world(), PROPENSITY_MERGE_TOL
    yield "ulp", ulp_world(), 0.0


@pytest.mark.parametrize("name, world, tol", list(_collapse_cases()))
def test_collapse_equals_the_validated_world(name, world, tol):
    derived = _outcome(collapse_by_propensity, world, tol)
    validated = _outcome(validated_collapse, world, tol)
    if isinstance(validated, tuple):
        assert derived == validated, name
    else:
        _assert_same(derived, validated)


def test_merges_that_break_an_invariant_are_refused():
    # Otherwise the cases above could pass without reaching the fallback.
    refusals = {name: validated for name, world, tol in _collapse_cases()
                if isinstance(validated := _outcome(validated_collapse, world, tol), tuple)}
    assert sorted(refusals) == ["overflow", "ulp"]
    assert refusals["overflow"][1] == "mean[0][1][0]: must be finite"
    assert "z_support: must be strictly increasing" in refusals["ulp"][1]


# ---------------------------------------------------------------------------
# dce

def _law_worlds():
    rnd = random.Random(4409)
    for _ in range(150):
        n_z, n_u, m = rnd.randint(1, 4), rnd.randint(1, 3), rnd.randint(1, 4)
        binary = rnd.random() < 0.3
        law = []
        for _a in (0, 1):
            arm = []
            for _j in range(n_u):
                values = (0.0, 1.0)[:m] if binary else sorted(rnd.sample(range(-20, 20), m))
                probs = [rnd.random() + 0.01 for _ in values]
                arm.append([(v, p / fsum(probs)) for v, p in zip(values, probs)])
            law.append(arm)
        means = [[[fsum(v * p for v, p in cell) for cell in arm]] * n_z for arm in law]
        yield DiscreteScenario(
            z_support=range(n_z), z_pmf=[1.0 / n_z] * n_z,
            u_support=range(n_u), u_pmf=[1.0 / n_u] * n_u,
            treat=[[rnd.uniform(0.05, 0.95) for _ in range(n_u)] for _ in range(n_z)],
            outcome_mean=means, outcome_law=law, binary_outcome=binary,
        )
    for b in _seeded_binary_worlds():
        if b.binary_outcome and 0.0 < b.z_prob < 1.0 and 0.0 < b.u_prob < 1.0 \
                and 0.0 < min(map(min, b.treat)) <= max(map(max, b.treat)) < 1.0:
            yield to_discrete(b)


def validated_dichotomy(s, threshold):
    tail = [[min(fsum(p for v, p in cell if v > threshold), 1.0) for cell in arm]
            for arm in s.outcome_law]
    return replace(s, outcome_mean=[[list(tail[a])] * s.n_z for a in (0, 1)],
                   outcome_law=None, binary_outcome=True)


def test_dce_world_and_result_equal_the_validated_ones(monkeypatch):
    seen = []

    def spy(world, *args):
        seen.append(world)
        return estimates(world, *args)

    monkeypatch.setattr(estimators_module, "estimates", spy)
    checked = 0
    for s in _law_worlds():
        for threshold in (-25.0, 0.0, 0.5, 3.0, 25.0):
            for conditioning in ("on_z", "on_propensity"):
                result = _outcome(dce, s, threshold, conditioning)
                world = validated_dichotomy(s, threshold)
                _assert_same(seen.pop(), world)
                validated = _outcome(estimates, world, conditioning)
                if isinstance(validated, tuple):
                    assert result == validated
                    continue
                validated = DceSet(**vars(validated), threshold=threshold)
                _assert_same(result, validated)
                assert result.to_json() == validated.to_json()
                checked += 1
    assert checked >= 1000


# ---------------------------------------------------------------------------
# one validation per world, through the CLI

@pytest.mark.parametrize("text, argv, expected", [
    (CASE1_TEXT, ["eval"], 0),
    (CASE1_TEXT, ["eval", "--conditioning", "on_propensity"], 0),
    (CASE1_TEXT, ["dce", "--threshold", "0.5", "--conditioning", "on_propensity"], 0),
    (CASE1_TEXT, ["check", "--theorem", "thm1"], 0),
    (DISCRETE_TEXT, ["eval", "--conditioning", "on_propensity"], 1),
])
def test_each_world_is_validated_once(monkeypatch, capsys, tmp_path, text, argv, expected):
    calls = []
    validate = DiscreteScenario.__post_init__

    def spy(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(DiscreteScenario, "__post_init__", spy)
    path = tmp_path / "world.scn"
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == expected
