"""Snapshot of the package's public names.

A refactor must not drop or rename an exported name or a field of the
fitted-model types; changing this snapshot is a deliberate API change.
"""

import dataclasses
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
