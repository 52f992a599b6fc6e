"""Adaptive sample splitting for valid, powerful randomization tests of
subgroup treatment effects, with an imputation-based CATE estimator,
closed-testing multiplicity control, and a synthetic experiment lab."""

from .data import (
    AdaSplitConfig,
    AnalysisReport,
    Dataset,
    FoldSnapshot,
    SubgroupPartition,
    partition_by_quantiles,
    read_dataset_csv,
    write_dataset_csv,
)
from .engine import run, run_method, split_init, write_trace_csv
from .errors import AdaSplitError, ConfigError, ValidationError
from .linmodel import LinearModel, diversity_scores, fit_wls
from .multtest import closed_testing
from .nuisance import (
    certainty,
    expected_beta_distance,
    one_minus_c2_series,
    posterior_e,
    scaled_residual,
)
from .randtest import exact_pvalue, mc_pvalue
from .simlab import generate, reproduce_table

__version__ = "0.1.0"

__all__ = [
    "AdaSplitConfig", "AnalysisReport", "Dataset", "FoldSnapshot",
    "SubgroupPartition", "partition_by_quantiles", "read_dataset_csv",
    "write_dataset_csv",
    "run", "run_method", "split_init", "write_trace_csv",
    "AdaSplitError", "ConfigError", "ValidationError",
    "LinearModel", "diversity_scores", "fit_wls",
    "closed_testing",
    "certainty", "expected_beta_distance", "one_minus_c2_series",
    "posterior_e", "scaled_residual",
    "exact_pvalue", "mc_pvalue",
    "generate", "reproduce_table",
    "__version__",
]
