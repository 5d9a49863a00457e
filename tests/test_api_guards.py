"""Guards that only a Python caller can reach: the file format and the CLI
never build these values."""

import math

import pytest

from conftest import worked_case
from zbias import (
    CovariateFamily,
    InvariantViolation,
    McConfig,
    PotentialOutcomeScenario,
    RrSet,
    collapse_by_propensity,
    dce,
    serialize_scenario,
    to_discrete,
)


def _case1():
    return to_discrete(worked_case("case1"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PotentialOutcomeScenario(
            pi_support=(0.5,), pi_pmf=(1.0,), y_pairs=(), pair_pmf=(), treat=((),)),
         "y_pairs: must be nonempty"),
        (lambda: CovariateFamily(()), "strata: must contain at least one stratum"),
        (lambda: dce(_case1(), math.inf), "threshold: must be finite"),
        (lambda: dce(_case1(), math.nan), "threshold: must be finite"),
        (lambda: collapse_by_propensity(_case1(), math.nan), "tol: must not be NaN"),
        (lambda: collapse_by_propensity(_case1(), "x"), "tol: must be a number"),
        (lambda: McConfig(draws=1, seed=2**64), "seed: must fit in 64 bits"),
        (lambda: McConfig(draws=1, seed=-1), "seed: must fit in 64 bits"),
        (lambda: serialize_scenario(object()), "cannot serialize object"),
        # A whole-population ratio outside [treated, control] is not a mediant.
        (lambda: RrSet(1.0, 2.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.5, "on_z"),
         "true_all: whole-population ratio must lie between the treated and control ratios"),
    ],
    ids=["empty y_pairs", "empty family", "dce inf", "dce nan", "collapse tol nan",
         "collapse tol str", "seed 2**64", "seed -1",
         "serialize object", "rr mediant"],
)
def test_api_only_guards(build, message):
    with pytest.raises(InvariantViolation) as info:
        build()
    assert str(info.value) == message
