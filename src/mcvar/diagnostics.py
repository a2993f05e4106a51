"""Output-analysis diagnostics built on a long-run variance estimate.

Monte Carlo standard errors, ellipsoidal confidence regions and their
volume, multivariate effective sample size, the pre-computable ESS
threshold, and the relative fixed-volume sequential stopping rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import SampleMatrix, sample_covariance
from .lrv import LrvEstimate, NotPositiveDefinite, matrix_of, pd_logdet


@dataclass(frozen=True)
class StoppingConfig:
    """Tolerances for the relative fixed-volume rule.

    n_star is the minimum simulation size before termination is allowed;
    None defers to the ESS threshold min_ess(alpha, epsilon, p), which is a
    reasonable stabilization floor.
    """

    alpha: float = 0.05
    epsilon: float = 0.05
    n_star: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.n_star is not None and self.n_star < 1:
            raise ValueError(f"n_star must be >= 1, got {self.n_star}")


@dataclass(frozen=True)
class StoppingDecision:
    terminate: bool
    lhs: float  # Vol(C_alpha)^(1/p) + 1/n
    rhs: float  # epsilon * |Lambda_n|^(1/2p)
    ess: float
    min_ess: int
    n: int
    n_star: int


def mcse(sigma: LrvEstimate | np.ndarray, n: int) -> np.ndarray:
    """Monte Carlo standard errors of the componentwise averages, read from
    the marginal CLT for each component: sqrt(diag/n)."""
    m = matrix_of(sigma)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = np.diag(m)
    bad = np.where(d < 0)[0]
    if bad.size:
        raise NotPositiveDefinite(
            f"negative long-run variance estimate for component {bad[0]}; "
            "use a zero-lugsail or base estimator"
        )
    return np.sqrt(d / n)


def chi2_quantile(prob: float, df: int) -> float:
    """Inverse chi-square CDF via the regularized incomplete gamma inverse."""
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {prob}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(df / 2.0, prob))


def _log_radius(p: int, alpha: float) -> float:
    """Log of the p-th root of the volume of the chi2(1-alpha, p) ball in R^p."""
    from scipy.special import gammaln

    log_ball = math.log(2.0) + (p / 2.0) * math.log(math.pi) - math.log(p) - gammaln(p / 2.0)
    return log_ball / p + 0.5 * math.log(chi2_quantile(1.0 - alpha, p))


def region_volume(sigma: LrvEstimate | np.ndarray, n: int, alpha: float) -> float:
    """Volume of the 100(1-alpha)% confidence ellipsoid for the mean vector."""
    m = matrix_of(sigma)
    p, logdet = m.shape[0], pd_logdet(m, "the long-run variance estimate")[0]
    return math.exp(p * (_log_radius(p, alpha) - 0.5 * math.log(n)) + 0.5 * logdet)


def region_contains(theta0, theta_bar, sigma: LrvEstimate | np.ndarray, n: int, alpha: float) -> bool:
    """Whether theta0 lies inside the confidence ellipsoid centered at theta_bar."""
    m = matrix_of(sigma)
    factor = pd_logdet(m, "the long-run variance estimate")[1]
    from scipy.linalg import cho_solve

    d = np.atleast_1d(np.asarray(theta_bar, float)) - np.atleast_1d(np.asarray(theta0, float))
    stat = n * float(d @ cho_solve((factor, True), d))
    return stat < chi2_quantile(1.0 - alpha, m.shape[0])


def _ess_terms(chain: SampleMatrix, sigma: LrvEstimate | np.ndarray) -> tuple[float, float, float]:
    """log|Sigma_n|, log|Lambda_n| and the ESS they give; Sigma_n must be
    p x p for the chain's p and is checked first."""
    m = matrix_of(sigma)
    if m.shape[0] != chain.p:
        raise ValueError(f"estimate has dimension {m.shape[0]}, chain has {chain.p}")
    logdet_sigma = pd_logdet(m, "the long-run variance estimate")[0]
    logdet_lambda = pd_logdet(sample_covariance(chain), "the sample covariance")[0]
    return logdet_sigma, logdet_lambda, chain.n * math.exp((logdet_lambda - logdet_sigma) / chain.p)


def ess(chain: SampleMatrix, sigma: LrvEstimate | np.ndarray) -> float:
    """Multivariate effective sample size n * (|Lambda_n| / |Sigma_n|)^(1/p)."""
    return _ess_terms(chain, sigma)[2]


def min_ess(alpha: float, epsilon: float, p: int) -> int:
    """Effective-sample-size threshold equivalent to the fixed-volume rule.

    Depends only on the confidence level, relative precision, and dimension,
    so it can be computed before any simulation.  Rounded to the nearest
    integer.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    try:
        return int(round(math.exp(2.0 * (_log_radius(p, alpha) - math.log(epsilon)))))
    except OverflowError:
        raise ValueError(f"epsilon {epsilon} needs a minimum ESS beyond the float range") from None


def fixed_volume_check(chain: SampleMatrix, sigma: LrvEstimate | np.ndarray,
                       config: StoppingConfig) -> StoppingDecision:
    """Relative fixed-volume stopping decision for the current chain.

    Terminates once n exceeds n_star and the p-th root of the confidence
    region volume, padded by 1/n, drops below epsilon times the scale
    |Lambda_n|^(1/2p) of the target distribution.
    """
    n, p = chain.n, chain.p
    threshold = min_ess(config.alpha, config.epsilon, p)
    n_star = config.n_star if config.n_star is not None else threshold
    logdet_sigma, logdet_lambda, ess_n = _ess_terms(chain, sigma)
    lhs = math.exp(_log_radius(p, config.alpha) + 0.5 * (logdet_sigma / p - math.log(n))) + 1.0 / n
    rhs = config.epsilon * math.exp(logdet_lambda / (2.0 * p))
    return StoppingDecision(
        terminate=bool(n > n_star and lhs < rhs),
        lhs=lhs,
        rhs=rhs,
        ess=ess_n,
        min_ess=threshold,
        n=n,
        n_star=n_star,
    )


__all__ = [
    "StoppingConfig",
    "StoppingDecision",
    "chi2_quantile",
    "ess",
    "fixed_volume_check",
    "mcse",
    "min_ess",
    "region_contains",
    "region_volume",
]
