"""Kernel hypothesis testing: MMD, HSIC and KSD tests with permutation and
wild-bootstrap calibration, kernel adaptivity (aggregation and pooling), and
computationally efficient, differentially private and corruption-robust
variants."""

from .adaptive import AggregatedTestResult, KernelCollection, PoolConfig, harmonic_weights, pool
from .constrained import PrivacyParams, RobustParams, Sensitivity, global_sensitivity, laplace_inverse_cdf
from .errors import ConfigError, DataError, KerntestError
from .kernels import (
    KernelSpec,
    ScoreField,
    bandwidth_grid,
    gaussian_kernel,
    gram_matrix,
    imq_kernel,
    kernel_bound,
    laplace_kernel,
    median_heuristic,
    standard_gaussian_score,
    student_t_score,
)
from .resampling import (
    ReplicateSpec,
    TestResult,
    min_replicates,
    test_decision,
)
from .statistics import (
    CoreMatrix,
    DesignSet,
    ModelSampleData,
    PairedData,
    TwoSampleData,
    block_statistic,
    core_matrix_hsic,
    core_matrix_hsic_wild,
    core_matrix_ksd,
    core_matrix_mmd,
    incomplete_statistic,
    u_statistic,
    v_statistic,
)
from .testing import (
    aggregated_test, dp_test, goodness_of_fit_test, independence_test, pooled_test, robust_test, two_sample_test,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatedTestResult",
    "ConfigError",
    "CoreMatrix",
    "DataError",
    "DesignSet",
    "KernelCollection",
    "KernelSpec",
    "KerntestError",
    "ModelSampleData",
    "PairedData",
    "PoolConfig",
    "PrivacyParams",
    "ReplicateSpec",
    "RobustParams",
    "ScoreField",
    "Sensitivity",
    "TestResult",
    "TwoSampleData",
    "aggregated_test",
    "bandwidth_grid",
    "block_statistic",
    "core_matrix_hsic",
    "core_matrix_hsic_wild",
    "core_matrix_ksd",
    "core_matrix_mmd",
    "dp_test",
    "gaussian_kernel",
    "global_sensitivity",
    "goodness_of_fit_test",
    "gram_matrix",
    "harmonic_weights",
    "imq_kernel",
    "incomplete_statistic",
    "independence_test",
    "kernel_bound",
    "laplace_inverse_cdf",
    "laplace_kernel",
    "median_heuristic",
    "min_replicates",
    "pool",
    "pooled_test",
    "robust_test",
    "standard_gaussian_score",
    "student_t_score",
    "test_decision",
    "two_sample_test",
    "u_statistic",
    "v_statistic",
]
