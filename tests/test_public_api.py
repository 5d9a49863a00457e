"""Snapshot of the package's public names.

A refactor must not drop or rename an exported name or a field of the
fitted-model types, nor change a public function's parameters; changing
this snapshot is a deliberate API change.
"""

import dataclasses
import inspect
import types

import zbias

PUBLIC_NAMES = [
    "AdditiveDecomposition", "BinaryScenario", "ConditionReport", "Cor3Model", "Cor4Model",
    "CovariateFamily", "DceSet", "DegeneratePopulationError", "DiscreteScenario",
    "EstimateSet", "IDENTITY_TOL", "InvariantViolation", "McConfig", "McResult",
    "MissingOutcomeLawError", "MultiplicativeDecomposition", "NonBinaryOutcomeError",
    "NonpositiveCellError", "PROPENSITY_MERGE_TOL", "PotentialOutcomeScenario",
    "PremiseViolationError", "RrSet", "ScenarioFormatError", "ScenarioStream",
    "SlotOrdering", "Stratum", "UndefinedConditionalError", "UndefinedStratumError",
    "VALIDATION_TOL", "Witness", "ZbiasError", "ZbiasVerdict", "ZeroDenominatorError",
    "adjusted_ace", "adjusted_minus_unadjusted_via_covariance",
    "check_collider_association", "check_cor1", "check_cor2", "check_cor3", "check_cor4",
    "check_lemma_s5", "check_lemma_s7", "check_thm1", "check_thm2", "check_thm3",
    "check_thm4", "check_thm5_binary", "check_thm7", "check_weaker_condition",
    "collapse_by_propensity", "covariate_average", "dce", "draw_scenario",
    "estimate_volume", "estimates", "export_scatter", "fit_additive", "fit_cor3_model",
    "fit_cor4_model", "fit_multiplicative", "load_scenario", "outcome_odds_ratio",
    "parse_scenario", "po_estimates", "population_biases", "propensity",
    "reports_to_json", "rr", "serialize_scenario", "to_discrete", "true_ace",
    "unadjusted_ace", "zbias_verdict",
]

# Parameter names of every public function: a knob added back is a
# deliberate snapshot change.
PUBLIC_SIGNATURES = {
    "adjusted_ace": ["s", "conditioning"],
    "adjusted_minus_unadjusted_via_covariance": ["s"],
    "check_collider_association": ["s", "arm"],
    "check_cor1": ["s"],
    "check_cor2": ["s"],
    "check_cor3": ["s"],
    "check_cor4": ["s"],
    "check_lemma_s5": ["p11", "p10", "p01", "p00"],
    "check_lemma_s7": ["p11", "p10", "p01", "p00"],
    "check_thm1": ["s"],
    "check_thm2": ["s"],
    "check_thm3": ["s"],
    "check_thm4": ["s"],
    "check_thm5_binary": ["s"],
    "check_thm7": ["s"],
    "check_weaker_condition": ["s"],
    "collapse_by_propensity": ["scenario", "tol"],
    "covariate_average": ["family", "conditioning", "allow_direct_effect"],
    "dce": ["s", "threshold", "conditioning"],
    "draw_scenario": ["stream"],
    "estimate_volume": ["cfg"],
    "estimates": ["scenario", "conditioning", "allow_direct_effect"],
    "export_scatter": ["cfg", "path"],
    "fit_additive": ["s"],
    "fit_cor3_model": ["s"],
    "fit_cor4_model": ["s"],
    "fit_multiplicative": ["s"],
    "load_scenario": ["path"],
    "outcome_odds_ratio": ["s"],
    "parse_scenario": ["text"],
    "po_estimates": ["s"],
    "population_biases": ["params"],
    "propensity": ["scenario"],
    "reports_to_json": ["reports"],
    "rr": ["s", "conditioning"],
    "serialize_scenario": ["scenario"],
    "to_discrete": ["scenario"],
    "true_ace": ["s", "allow_direct_effect"],
    "unadjusted_ace": ["s"],
    "zbias_verdict": ["e"],
    "DiscreteScenario.outcome_mean_depends_on_z": ["self"],
}

DECOMPOSITION_FIELDS = ["z_levels", "z_effect", "u_levels", "u_effect", "residual_max"]
SELECTION_FIELDS = ["alpha", "delta", "eta", "theta", "residual_max"]


def test_public_names():
    # Submodules are left out: which ones are attributes depends on what
    # else the process has imported.  ``dir`` also lists the names the
    # package serves on first use.
    names = sorted(
        name for name in dir(zbias)
        if not name.startswith("_") and not isinstance(getattr(zbias, name), types.ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)


def test_fitted_model_fields():
    for cls, fields in (
        (zbias.AdditiveDecomposition, DECOMPOSITION_FIELDS),
        (zbias.MultiplicativeDecomposition, DECOMPOSITION_FIELDS),
        (zbias.Cor3Model, SELECTION_FIELDS),
        (zbias.Cor4Model, SELECTION_FIELDS),
    ):
        assert [f.name for f in dataclasses.fields(cls)] == fields, cls.__name__


def test_public_signatures():
    functions = {
        name: getattr(zbias, name) for name in dir(zbias)
        if not name.startswith("_") and inspect.isfunction(getattr(zbias, name))
    }
    functions["DiscreteScenario.outcome_mean_depends_on_z"] = (
        zbias.DiscreteScenario.outcome_mean_depends_on_z
    )
    signatures = {
        name: list(inspect.signature(fn).parameters) for name, fn in functions.items()
    }
    assert signatures == PUBLIC_SIGNATURES
