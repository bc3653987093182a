"""Nonparametric localization of distribution differences between two samples.

Build a pairwise KS matrix over feature pairs (1-D statistics on the
diagonal, random-projection averages off it), then minimize the induced
sparsest-subgraph objective to find the features whose distributions differ.
Includes Gaussian baselines, synthetic generators, perturbation injectors,
an AUROC experiment runner, and executable identifiability checks.
"""

from .baselines import (
    estimate_precision_cv,
    hara15_matrix,
    hara15_score,
    ide09_score,
    mt_score,
)
from .data import (
    Dataset,
    dataset_from_array,
    default_names,
    load_dataset_csv,
    save_dataset_csv,
    standardize,
)
from .errors import DataValidationError, KsdiffError, SolverLimitError
from .evaluate import (
    ExperimentConfig,
    ExperimentRecord,
    ExperimentReport,
    auroc,
    repetition_seed,
    run_experiment,
)
from .ks import edf_eval, ks_empirical, ks_empirical_columns
from .matrix import (
    EmpiricalKsMatrix,
    build_ks_matrix,
    load_matrix,
    pair_angles,
    projected_ks,
    projected_ks_grid,
    save_matrix,
)
from .solvers import (
    SolverResult,
    complement_objective,
    exact_min,
    greedy_k,
    greedy_score,
    optimality_margin,
)
from .synth import (
    GroundTruth,
    PerturbationSpec,
    example1_population,
    gen_example1,
    gen_example2,
    lower_quartile,
    perturb,
)
from .theory import (
    ConsistencyReport,
    KlBoundCheck,
    RecoveryTrialResult,
    SampleBound,
    check_conditions,
    kl_lower_bound_check,
    recovery_trial,
    sample_bound,
)

__version__ = "0.1.0"

__all__ = [
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
