"""Finite-sum optimization with shuffling-type gradient methods.

Implements epoch-based shuffling gradient descent together with the
supporting machinery needed to study it under generalized smoothness:
benchmark problems, permutation schemes, stepsize/epoch planning from
declared smoothness moduli, assumption diagnostics, dataset ingest and
a config-driven experiment runner.
"""

from .shuffling import (
    Scheme,
    permutation_for_epoch,
    without_replacement_variance_factor,
)
from .problems import (
    FiniteSumProblem,
    QuarticProblem,
    ExpStrongProblem,
    PhaseRetrievalProblem,
    DROProblem,
    TinyQuadraticProblem,
    build_problem,
)
from .smoothness import (
    EllFunction,
    ConstantsBundle,
    StepsizePlan,
    solve_gradient_bound,
    component_gradient_bound,
    constants_for_recipe,
    stepsize_plan,
    reevaluate_plan,
    estimate_sublevel_gradient_bound,
)
from .optimize import (
    RunConfig,
    TrajectoryRecord,
    DivergenceError,
    run_shuffling,
    run_sgd,
    averaged_iterate,
)
from .diagnostics import (
    VarianceFit,
    estimate_variance_constants,
    probe_ell_envelope,
    brute_force_partial_average_variance,
)
from .ingest import RegressionDataset, load_csv, synthesize
from .experiment import ExperimentConfig, AggregateSeries, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Scheme",
    "permutation_for_epoch",
    "without_replacement_variance_factor",
    "FiniteSumProblem",
    "QuarticProblem",
    "ExpStrongProblem",
    "PhaseRetrievalProblem",
    "DROProblem",
    "TinyQuadraticProblem",
    "build_problem",
    "EllFunction",
    "ConstantsBundle",
    "StepsizePlan",
    "solve_gradient_bound",
    "component_gradient_bound",
    "constants_for_recipe",
    "stepsize_plan",
    "reevaluate_plan",
    "estimate_sublevel_gradient_bound",
    "RunConfig",
    "TrajectoryRecord",
    "DivergenceError",
    "run_shuffling",
    "run_sgd",
    "averaged_iterate",
    "VarianceFit",
    "estimate_variance_constants",
    "probe_ell_envelope",
    "brute_force_partial_average_variance",
    "RegressionDataset",
    "load_csv",
    "synthesize",
    "ExperimentConfig",
    "AggregateSeries",
    "run_experiment",
]
