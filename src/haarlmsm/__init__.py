"""Sample-path synthesis for linear (multi)fractional stable motion.

The process is built from a Haar-type series in two halves: a
high-frequency half driven by dyadic cells inside [0, 1] and a
low-frequency half collecting the coarse and far-past cells.  Both are
evaluated either term by term or through a summation-by-parts
rearrangement that consumes coefficient prefix sums.  On top of the
synthesis sit validation tools: closed-form and quadrature marginal
scales and truncation-error rate measurement.
"""

__version__ = "0.1.0"

from .analysis import (
    ConvergenceReport,
    convergence_study,
    estimate_scale,
    first_abs_moment,
    mc_x1_samples,
    mc_x2_samples,
    truncated_scale_hf,
    truncated_scale_lf,
    x1_theoretical_scale,
    x2_theoretical_scale,
)
from .errors import (
    ComputeError,
    ConfigError,
    DepthError,
    HaarLmsmError,
    ParameterError,
    StatisticsError,
)
from .kernels import KernelParams, big_theta, theta
from .lmsm import (
    HurstFunction,
    PathSample,
    clamp_hurst,
    hurst_preset,
    path_to_csv,
    read_path_csv,
    synthesize_path,
    validate_params,
    write_path_csv,
)
from .series import (
    evaluate_field,
    x1_partial,
    x2_minus_partial,
    x2_partial,
    x2_plus_partial,
)
from .stable_rng import (
    CoefficientPyramid,
    PrefixSums,
    StableLaw,
    generate_coefficients,
    make_rng,
    prefix_sums,
    sample_sas,
)

__all__ = [
    "ComputeError",
    "ConfigError",
    "DepthError",
    "HaarLmsmError",
    "ParameterError",
    "StatisticsError",
    "KernelParams",
    "theta",
    "big_theta",
    "StableLaw",
    "CoefficientPyramid",
    "PrefixSums",
    "make_rng",
    "sample_sas",
    "generate_coefficients",
    "prefix_sums",
    "x1_partial",
    "x2_plus_partial",
    "x2_minus_partial",
    "x2_partial",
    "evaluate_field",
    "HurstFunction",
    "PathSample",
    "hurst_preset",
    "validate_params",
    "clamp_hurst",
    "synthesize_path",
    "path_to_csv",
    "write_path_csv",
    "read_path_csv",
    "first_abs_moment",
    "estimate_scale",
    "x1_theoretical_scale",
    "x2_theoretical_scale",
    "truncated_scale_hf",
    "truncated_scale_lf",
    "mc_x1_samples",
    "mc_x2_samples",
    "ConvergenceReport",
    "convergence_study",
    "__version__",
]
