"""dagonion: random DAGs, uniform Markov correlation matrices, SEM data, and metrics."""

__version__ = "0.1.0"

from .baselines import r2_sort_regress, var_sort_regress
from .errors import (
    CholeskyFailure,
    CyclicGraphError,
    DagonionError,
    NonPositiveVarianceError,
    NumericalError,
    RankDeficientDataError,
    SchemaError,
    SingularMatrixError,
    SingularParentBlockError,
    ZeroVarianceColumnError,
)
from .graph import Dag, Pdag, er_dag, sfi_rewire, sfo_rewire, shuffle_labels, source_first_order
from .metrics import (
    ConfusionCounts,
    PairCounts,
    PrecisionRecall,
    compare_graphs,
    population_r2,
    precision_recall,
    sample_r2,
    sortability_rank_corr,
    varsortability_scores,
)
from .onion import dao_sample, sample_mpii
from .sem import (
    SemParameters,
    cov_to_corr,
    cov_to_dag,
    implied_covariance,
    standardize,
    tetrad_params,
    zarx_params,
)
from .simdata import Dataset, simulate, standardize_data

__all__ = [
    "__version__",
    "Dag",
    "er_dag",
    "sfi_rewire",
    "sfo_rewire",
    "shuffle_labels",
    "source_first_order",
    "sample_mpii",
    "dao_sample",
    "SemParameters",
    "zarx_params",
    "tetrad_params",
    "implied_covariance",
    "cov_to_corr",
    "cov_to_dag",
    "standardize",
    "Dataset",
    "simulate",
    "standardize_data",
    "Pdag",
    "PairCounts",
    "ConfusionCounts",
    "PrecisionRecall",
    "compare_graphs",
    "precision_recall",
    "population_r2",
    "sample_r2",
    "sortability_rank_corr",
    "varsortability_scores",
    "var_sort_regress",
    "r2_sort_regress",
    "DagonionError",
    "CyclicGraphError",
    "SchemaError",
    "NumericalError",
    "CholeskyFailure",
    "SingularMatrixError",
    "SingularParentBlockError",
    "RankDeficientDataError",
    "ZeroVarianceColumnError",
    "NonPositiveVarianceError",
]
