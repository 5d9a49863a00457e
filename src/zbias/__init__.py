"""Exact estimand engine for bias amplification by instrument-like covariates.

Given a fully specified discrete data-generating process with a treatment,
an outcome, an unmeasured confounder and an instrument-like covariate, this
package computes the true, unadjusted and adjusted average causal effects
exactly, checks the monotonicity and no-interaction conditions under which
adjustment is guaranteed to amplify confounding bias, and explores the
binary parameter space with a seeded, shardable Monte Carlo.
"""

from .conditions import (
    AdditiveDecomposition,
    ConditionReport,
    Cor3Model,
    Cor4Model,
    MultiplicativeDecomposition,
    SlotOrdering,
    Witness,
    ZbiasVerdict,
    check_collider_association,
    check_cor1,
    check_cor2,
    check_cor3,
    check_cor4,
    check_lemma_s5,
    check_lemma_s7,
    check_thm1,
    check_thm2,
    check_thm3,
    check_thm4,
    check_thm5_binary,
    check_thm7,
    check_weaker_condition,
    fit_additive,
    fit_cor3_model,
    fit_cor4_model,
    fit_multiplicative,
    outcome_odds_ratio,
    reports_to_json,
    zbias_verdict,
)
from .errors import (
    DegeneratePopulationError,
    InvariantViolation,
    MissingOutcomeLawError,
    NonBinaryOutcomeError,
    NonpositiveCellError,
    PremiseViolationError,
    ScenarioFormatError,
    UndefinedConditionalError,
    UndefinedStratumError,
    ZbiasError,
    ZeroDenominatorError,
)
from .estimators import (
    DceSet,
    EstimateSet,
    RrSet,
    adjusted_ace,
    adjusted_minus_unadjusted_via_covariance,
    covariate_average,
    dce,
    estimates,
    po_estimates,
    rr,
    true_ace,
    unadjusted_ace,
)
from .scenario import (
    IDENTITY_TOL,
    PROPENSITY_MERGE_TOL,
    VALIDATION_TOL,
    BinaryScenario,
    CovariateFamily,
    DiscreteScenario,
    PotentialOutcomeScenario,
    Stratum,
    collapse_by_propensity,
    propensity,
    to_discrete,
)
from .scenario_io import load_scenario, parse_scenario, serialize_scenario

__version__ = "0.1.0"

# The Monte Carlo explorer is the only part that needs numpy; its names are
# served on first use (PEP 562), so the exact engine starts without it.
_MONTE_CARLO = ("McConfig", "McResult", "ScenarioStream", "draw_scenario",
                "estimate_volume", "export_scatter", "population_biases")


def __getattr__(name):
    if name in _MONTE_CARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MONTE_CARLO})
