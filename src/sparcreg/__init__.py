"""Sparsity-and-clustering regularized least squares.

Exact proximity operators for four penalties (soft thresholding, elastic
net, a pairwise-max clustering penalty, and its k-sparse variant), a
Barzilai-Borwein proximal-gradient solver, synthetic benchmark
generators, evaluation metrics, and grid-search benchmark pipelines.
"""

from .prox import (
    isotonic_decreasing,
    owl_weights,
    project_k_sparse,
    prox_elastic_net,
    prox_oscar,
    prox_sparc,
    soft_threshold,
    top_k_support,
)
from .regularizers import (
    ElasticNet,
    Lasso,
    Oscar,
    Regularizer,
    Sparc,
    penalty_value,
    prox,
    prox_objective,
)
from .solver import (
    Objective,
    SolverConfig,
    SolverDivergenceError,
    SolverResult,
    SolverStats,
    bb_step,
    gradient_smooth,
    objective_value,
    sparsa_solve,
)
from .data import (
    ClassificationSpec,
    DataError,
    Dataset,
    SyntheticSpec,
    generate_grouped_classification,
    generate_synthetic,
    load_csv,
    normalize_columns,
    normalize_dataset,
    split_dataset,
    top_correlation_screen,
    write_csv,
)
from .metrics import (
    MetricsReport,
    MetricUnavailableError,
    cla,
    compute_report,
    dof,
    mae,
    mse,
    nnz,
    ser,
)
from .experiment import (
    BenchmarkReport,
    GridSpec,
    default_grids,
    emit_table,
    format_table,
    grid_search,
    load_report,
    run_repetitions,
)

__version__ = "0.1.0"

__all__ = [
    "isotonic_decreasing", "owl_weights", "project_k_sparse",
    "prox_elastic_net", "prox_oscar", "prox_sparc", "soft_threshold",
    "top_k_support",
    "ElasticNet", "Lasso", "Oscar", "Regularizer", "Sparc",
    "penalty_value", "prox", "prox_objective",
    "Objective", "SolverConfig", "SolverDivergenceError", "SolverResult",
    "SolverStats", "bb_step", "gradient_smooth", "objective_value", "sparsa_solve",
    "ClassificationSpec", "DataError", "Dataset", "SyntheticSpec",
    "generate_grouped_classification", "generate_synthetic", "load_csv",
    "normalize_columns", "normalize_dataset", "split_dataset",
    "top_correlation_screen", "write_csv",
    "MetricsReport", "MetricUnavailableError", "cla", "compute_report",
    "dof", "mae", "mse", "nnz", "ser",
    "BenchmarkReport", "GridSpec", "default_grids", "emit_table",
    "format_table", "grid_search", "load_report", "run_repetitions",
    "__version__",
]
