"""supdens: kernel density and CDF estimation on an unknown bounded support.

The package estimates a density, its distribution function, and the support
endpoints simultaneously: boundary-corrected kernel estimators (reflection
and boundary-kernel), an order-statistic matching solve for the endpoints,
least-squares cross-validated bandwidths, a product-form multivariate
extension, and a Monte Carlo harness comparing estimators by their
boundary-region integrated squared error.
"""

from .bandwidth import BandwidthGrid, lscv_bandwidth, lscv_objective
from .errors import ConfigError, DataError, NumericError
from .estimators import (
    BOUNDARY_KERNEL,
    NAIVE,
    REFLECTION,
    FittedEstimator,
    Sample,
    SupportInterval,
    evaluate_grid,
)
from .joint import JointEstimator, MultiSample, fit_joint, joint_cdf, joint_pdf
from .kernels import EPANECHNIKOV, GAUSSIAN, KernelSpec, eval_K, eval_W, get_kernel
from .simulate import (
    CellResult,
    ExperimentResult,
    ExperimentSpec,
    MethodSpec,
    TABLE_METHODS,
    beta_pdf,
    boundary_ise,
    run_experiment,
    sample_beta,
)
from .solver import SolveReport, SupportMode, fit, solve_support

__version__ = "0.1.0"

__all__ = [
    "BandwidthGrid",
    "lscv_bandwidth",
    "lscv_objective",
    "ConfigError",
    "DataError",
    "NumericError",
    "BOUNDARY_KERNEL",
    "NAIVE",
    "REFLECTION",
    "FittedEstimator",
    "Sample",
    "SupportInterval",
    "evaluate_grid",
    "JointEstimator",
    "MultiSample",
    "fit_joint",
    "joint_cdf",
    "joint_pdf",
    "EPANECHNIKOV",
    "GAUSSIAN",
    "KernelSpec",
    "eval_K",
    "eval_W",
    "get_kernel",
    "CellResult",
    "ExperimentResult",
    "ExperimentSpec",
    "MethodSpec",
    "TABLE_METHODS",
    "beta_pdf",
    "boundary_ise",
    "run_experiment",
    "sample_beta",
    "SolveReport",
    "SupportMode",
    "fit",
    "solve_support",
    "__version__",
]
