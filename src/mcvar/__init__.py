"""Long-run variance estimation and output analysis for MCMC simulations.

Estimate the asymptotic covariance of correlated chain output with batch
means, spectral variance, or initial-sequence estimators (with optional
lugsail bias correction), then build on it: Monte Carlo standard errors,
multivariate effective sample size, sequential stopping decisions, and
simultaneous confidence regions for means and quantiles.
"""

from .batch import (
    batch_means,
    bm_exact_bias_ar1,
    default_batch_size,
    lag1_autocorrelation,
    lugsail_batch_means,
    lugsail_combine,
    lugsail_exact_bias_ar1,
    lugsail_overlapping_batch_means,
    lugsail_policy,
    overlapping_batch_means,
)
from .chain import LagCovariance, SampleMatrix, lag_covariance, lag_covariances_fft, mean_vector, sample_covariance
from .diagnostics import (
    StoppingConfig,
    StoppingDecision,
    chi2_quantile,
    ess,
    fixed_volume_check,
    mcse,
    min_ess,
    region_contains,
    region_volume,
)
from .initseq import InitSeqResult, adjusted_initial_sequence, initial_sequence
from .lrv import LrvEstimate, LugsailConfig, NotPositiveDefinite, adaptive_c
from .quantiles import (
    JointEstimate,
    SimultaneousRegion,
    TargetSpec,
    estimate_omega,
    joint_transformed_chain,
    kde_density_at,
    mvn_rect_prob,
    quantile_estimate,
    solve_z_star,
)
from .spectral import (
    BARTLETT,
    BARTLETT_FLATTOP,
    QUADRATIC_SPECTRAL,
    TUKEY_HANNING,
    WINDOWS,
    LagWindow,
    get_window,
    lugsail_spectral_variance,
    lugsail_window,
    spectral_variance,
)

__version__ = "0.1.0"

__all__ = [
    "BARTLETT",
    "BARTLETT_FLATTOP",
    "InitSeqResult",
    "JointEstimate",
    "LagCovariance",
    "LagWindow",
    "LrvEstimate",
    "LugsailConfig",
    "NotPositiveDefinite",
    "QUADRATIC_SPECTRAL",
    "SampleMatrix",
    "SimultaneousRegion",
    "StoppingConfig",
    "StoppingDecision",
    "TUKEY_HANNING",
    "TargetSpec",
    "WINDOWS",
    "adaptive_c",
    "adjusted_initial_sequence",
    "batch_means",
    "bm_exact_bias_ar1",
    "chi2_quantile",
    "default_batch_size",
    "ess",
    "estimate_omega",
    "fixed_volume_check",
    "get_window",
    "initial_sequence",
    "joint_transformed_chain",
    "kde_density_at",
    "lag1_autocorrelation",
    "lag_covariance",
    "lag_covariances_fft",
    "lugsail_batch_means",
    "lugsail_combine",
    "lugsail_exact_bias_ar1",
    "lugsail_overlapping_batch_means",
    "lugsail_policy",
    "lugsail_spectral_variance",
    "lugsail_window",
    "mcse",
    "mean_vector",
    "min_ess",
    "mvn_rect_prob",
    "overlapping_batch_means",
    "quantile_estimate",
    "region_contains",
    "region_volume",
    "sample_covariance",
    "solve_z_star",
    "spectral_variance",
]
