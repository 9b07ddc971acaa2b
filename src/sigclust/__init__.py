"""Statistical significance testing for 2-means clusters.

The test asks whether a data set's best binary split is stronger than what
a single Gaussian would produce. The null Gaussian is pinned down by its
covariance eigenvalues, estimated here by a sample, hard-thresholded,
soft-thresholded, or combined scheme; the null distribution of the cluster
index is then simulated by Monte Carlo and the observed index converted to
empirical and Gaussian p-values. A scenario harness reruns the calibration
and power studies on spiked-covariance populations at desk scale.
"""

__version__ = "0.1.0"

from .cluster import (
    ClusterSplit,
    cluster_index_for_labels,
    theoretical_ci,
    two_means_ci,
    two_means_exhaustive,
)
from .engine import (
    TestConfig,
    TestReport,
    empirical_p,
    gaussian_p,
    run_test,
    run_tests,
    simulate_null_cis,
)
from .errors import (
    DegenerateDataError,
    DegenerateNoiseError,
    InvalidConfigError,
    InvalidDataError,
    InvalidLabelsError,
    InvalidSpectraError,
    NoTraceSolutionError,
    ParseError,
    SigClustError,
    SpikeBelowBulkError,
    TooLargeError,
)
from .harness import (
    CellSummary,
    GridSummary,
    ScenarioSpec,
    generate_scenario_sample,
    load_scenario_file,
    run_grid,
    true_null_eigenvalues,
)
from .io import RunManifest, emit_report, filter_variables, load_matrix
from .linalg import DataMatrix, EigenSpectrum, sample_spectrum
from .spectrum import (
    MAD_STD_NORMAL,
    NoiseEstimate,
    NullSpectrum,
    estimate_noise,
    hard_threshold,
    rmt_predicted_spectrum,
    soft_threshold,
)

__all__ = [
    "__version__",
    "ClusterSplit",
    "cluster_index_for_labels",
    "theoretical_ci",
    "two_means_ci",
    "two_means_exhaustive",
    "TestConfig",
    "TestReport",
    "empirical_p",
    "gaussian_p",
    "run_test",
    "run_tests",
    "simulate_null_cis",
    "DegenerateDataError",
    "DegenerateNoiseError",
    "InvalidConfigError",
    "InvalidDataError",
    "InvalidLabelsError",
    "InvalidSpectraError",
    "NoTraceSolutionError",
    "ParseError",
    "SigClustError",
    "SpikeBelowBulkError",
    "TooLargeError",
    "CellSummary",
    "GridSummary",
    "ScenarioSpec",
    "generate_scenario_sample",
    "load_scenario_file",
    "run_grid",
    "true_null_eigenvalues",
    "RunManifest",
    "emit_report",
    "filter_variables",
    "load_matrix",
    "DataMatrix",
    "EigenSpectrum",
    "sample_spectrum",
    "MAD_STD_NORMAL",
    "NoiseEstimate",
    "NullSpectrum",
    "estimate_noise",
    "hard_threshold",
    "rmt_predicted_spectrum",
    "soft_threshold",
]
