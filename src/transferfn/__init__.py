"""Nonparametric inference for a strictly increasing transfer function.

Model: Y_i = g(Z_i) with the law of Z fully known and g unknown but
strictly increasing.  The package estimates g by the quantile plug-in
ghat(x) = xi_n^Y(F_Z(x)) and provides pointwise confidence intervals,
uniform confidence bands, a goodness-of-fit test for g = h (asymptotic and
parametric-bootstrap p-values), and subsampling intervals for short-range
dependent inputs, plus a seeded simulation harness.
"""

from .density_band import BandResult, confidence_band, kde
from .distributions import (
    FAMILIES,
    Gamma,
    KnownDistribution,
    Normal,
    Uniform,
    fit_gamma_mle,
    fit_normal,
    fit_uniform,
)
from .empirical import Sample, block_quantiles, ecdf, sample_quantile
from .errors import ArgumentError, ConfigError, ConvergenceError, DomainError
from .estimator import (
    EstimateResult,
    default_grid,
    estimate,
    estimate_with_ci,
)
from .gof_test import (
    HypothesisFunction,
    TestResult,
    monte_carlo_p_value,
    test,
    test_statistic,
    trimming_fraction,
)
from .ks_distribution import ks_sup_cdf, ks_sup_quantile, ks_sup_tail
from .simulate import (
    DGPConfig,
    ExperimentReport,
    PERTURBATIONS,
    TRANSFERS,
    generate,
    get_transfer,
    perturbed,
    replication_rng,
    run_coverage_study,
    run_test_table,
)
from .subsampling import (
    SubsampleResult,
    default_block_length,
    subsample_ci,
    subsample_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BandResult",
    "ConfigError",
    "ConvergenceError",
    "DGPConfig",
    "DomainError",
    "EstimateResult",
    "ExperimentReport",
    "FAMILIES",
    "Gamma",
    "HypothesisFunction",
    "KnownDistribution",
    "Normal",
    "PERTURBATIONS",
    "Sample",
    "SubsampleResult",
    "TRANSFERS",
    "TestResult",
    "Uniform",
    "block_quantiles",
    "confidence_band",
    "default_block_length",
    "default_grid",
    "ecdf",
    "estimate",
    "estimate_with_ci",
    "fit_gamma_mle",
    "fit_normal",
    "fit_uniform",
    "generate",
    "get_transfer",
    "kde",
    "ks_sup_cdf",
    "ks_sup_quantile",
    "ks_sup_tail",
    "monte_carlo_p_value",
    "perturbed",
    "replication_rng",
    "run_coverage_study",
    "run_test_table",
    "sample_quantile",
    "subsample_ci",
    "subsample_distribution",
    "test",
    "test_statistic",
    "trimming_fraction",
]
