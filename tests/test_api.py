"""The public surface: ``ksdiff.__all__`` is pinned, so adding or removing a
public name is a deliberate edit here, and every listed name resolves. A few
signatures are pinned too, so that an option dropped as unused is not added
back unnoticed."""

import inspect

import pytest

import ksdiff

PUBLIC_NAMES = [
    "ConsistencyReport",
    "DataValidationError",
    "Dataset",
    "EmpiricalKsMatrix",
    "ExperimentConfig",
    "ExperimentRecord",
    "ExperimentReport",
    "GroundTruth",
    "KlBoundCheck",
    "KsdiffError",
    "PerturbationSpec",
    "RecoveryTrialResult",
    "SampleBound",
    "SolverLimitError",
    "SolverResult",
    "auroc",
    "build_ks_matrix",
    "check_conditions",
    "complement_objective",
    "dataset_from_array",
    "default_names",
    "edf_eval",
    "estimate_precision_cv",
    "exact_min",
    "example1_population",
    "gen_example1",
    "gen_example2",
    "greedy_k",
    "greedy_score",
    "hara15_matrix",
    "hara15_score",
    "ide09_score",
    "kl_lower_bound_check",
    "ks_empirical",
    "ks_empirical_columns",
    "load_dataset_csv",
    "load_matrix",
    "lower_quartile",
    "mt_score",
    "optimality_margin",
    "pair_angles",
    "perturb",
    "projected_ks",
    "projected_ks_grid",
    "recovery_trial",
    "repetition_seed",
    "run_experiment",
    "sample_bound",
    "save_dataset_csv",
    "save_matrix",
    "standardize",
]


def test_public_names_are_pinned():
    assert sorted(ksdiff.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 51


def test_every_public_name_resolves():
    namespace = {}
    exec("from ksdiff import *", namespace)
    for name in PUBLIC_NAMES:
        assert getattr(ksdiff, name) is namespace[name]


@pytest.mark.parametrize(
    "name, parameters",
    [
        ("check_conditions", ["h", "s_star", "tol"]),
        ("recovery_trial", ["h", "s_star", "magnitude", "trials", "seed"]),
        ("hara15_matrix", ["p", "q"]),
        ("hara15_score", ["p", "q"]),
    ],
)
def test_parameters_are_pinned(name, parameters):
    assert list(inspect.signature(getattr(ksdiff, name)).parameters) == parameters
