"""Batch-means estimators: non-overlapping, overlapping, and lugsail variants.

The lugsail correction mixes estimates at batch sizes b and floor(b/r) to
cancel (zero lugsail) or overshoot (over lugsail) the negative first-order
bias that batch means exhibit on positively correlated chains.
"""
from __future__ import annotations

import math

import numpy as np

from .chain import SampleMatrix, mean_vector
from .lrv import LrvEstimate, LugsailConfig


def batch_means(chain: SampleMatrix, b: int) -> LrvEstimate:
    """Non-overlapping batch-means estimate with batch size b.

    Uses the first a*b rows (a = floor(n/b) batches) but centers on the
    full-chain mean; scaled by b/(a-1).  With b=1 this is exactly the sample
    covariance.
    """
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    a = chain.n // b
    if a < 2:
        raise ValueError(f"need at least 2 batches, got {a}")
    means = chain.values[: a * b].reshape(a, b, chain.p).mean(axis=1)
    dev = means - mean_vector(chain)
    # multiply by b before dividing so that b=1 reduces bitwise to the
    # sample covariance
    return LrvEstimate(dev.T @ dev * b / (a - 1), family="bm", b=b)


def overlapping_batch_means(chain: SampleMatrix, b: int) -> LrvEstimate:
    """Overlapping batch means: all n-b+1 sliding windows of length b."""
    n = chain.n
    if not 1 <= b <= n - 1:
        raise ValueError(f"overlapping batch size must satisfy 1 <= b <= n-1, got b={b}, n={n}")
    yc = chain._centered
    csum = np.vstack([np.zeros((1, chain.p)), np.cumsum(yc, axis=0)])
    dev = (csum[b:] - csum[:-b]) / b  # sliding means of centered rows
    coef = n * b / ((n - b) * (n - b + 1))
    return LrvEstimate(dev.T @ dev * coef, family="obm", b=b)


def lugsail_combine(big: LrvEstimate, small: LrvEstimate, c: float) -> LrvEstimate:
    """Mix estimates at batch sizes b and floor(b/r): big/(1-c) - small*c/(1-c).

    Both inputs must come from the same chain and estimator family and carry
    their batch sizes (r = big.b / small.b).  The result is symmetric but can
    fail positive semidefiniteness; its psd flag records the check.
    """
    if big.family != small.family:
        raise ValueError(f"cannot mix estimator families {big.family!r} and {small.family!r}")
    if not (big.b and small.b):
        raise ValueError("lugsail mixing needs the batch sizes of both estimates")
    config = LugsailConfig(r=float(big.b) / float(small.b), c=c, regime="custom")
    m = config.mix(big.matrix, small.matrix)
    return big if m is big.matrix else LrvEstimate(m, family=big.family, b=big.b, window=big.window, lugsail=config)


def lugsail_policy(rho: float) -> LugsailConfig:
    """Pick lugsail parameters from an estimated lag-1 autocorrelation.

    Low correlation gets the zero lugsail (r=2, c=1/2), moderate correlation
    the adaptive weight at r=2, and very high correlation the over lugsail
    (r=3, c=1/2), which deliberately overshoots to absorb higher-order bias.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"autocorrelation must lie in [-1, 1], got {rho}")
    if rho < 0.7:
        return LugsailConfig.named("zero")
    if rho < 0.95:
        return LugsailConfig.named("adaptive")
    return LugsailConfig.named("over")


def lag1_autocorrelation(chain: SampleMatrix) -> float:
    """Largest componentwise lag-1 autocorrelation.

    The maximum is a conservative aggregate: the most correlated component
    dominates finite-sample bias, so it should drive regime selection.
    Zero-variance components are skipped; an all-constant chain returns 0.
    """
    if chain.n < 3:
        raise ValueError(f"need at least 3 iterations, got {chain.n}")
    yc = chain._centered
    r0 = np.einsum("ij,ij->j", yc, yc)
    r1 = np.einsum("ij,ij->j", yc[:-1], yc[1:])
    keep = r0 > 0
    if not keep.any():
        return 0.0
    return float((r1[keep] / r0[keep]).max())


def default_batch_size(n: int, rule: str = "sqrt", r: float = 1.0) -> int:
    """floor(n^(1/2)) or floor(n^(1/3)), clamped to keep >=2 batches and
    a non-degenerate small batch floor(b/r) >= 1."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if rule == "sqrt":
        b = math.isqrt(n)
    elif rule == "cuberoot":
        b = round(n ** (1.0 / 3.0))
        while b**3 > n:
            b -= 1
        while (b + 1) ** 3 <= n:
            b += 1
    else:
        raise ValueError(f"unknown batch size rule {rule!r}")
    return max(1, min(max(b, math.ceil(r)), n // 2))


def _lugsail_of(base, chain: SampleMatrix, b: int, config: LugsailConfig) -> LrvEstimate:
    big = base(chain, b)
    applied = config.resolve(chain.n, b)
    if applied is None:
        return big
    m = applied.mix(big.matrix, base(chain, int(b // applied.r)).matrix)
    return LrvEstimate(m, family=big.family, b=b, window=big.window, lugsail=applied)


def lugsail_batch_means(chain: SampleMatrix, b: int, config: LugsailConfig) -> LrvEstimate:
    """Batch means with the lugsail correction applied at batch size b."""
    return _lugsail_of(batch_means, chain, b, config)


def lugsail_overlapping_batch_means(chain: SampleMatrix, b: int, config: LugsailConfig) -> LrvEstimate:
    """Overlapping batch means with the lugsail correction applied at b."""
    return _lugsail_of(overlapping_batch_means, chain, b, config)


def bm_exact_bias_ar1(phi: float, n: int, b: int) -> float:
    """Exact bias of the univariate batch-means estimate on a stationary
    normal AR(1) chain with coefficient phi, length n = a*b.

    Evaluates the three-term finite-sample expression with autocovariance
    R(s) = phi^s / (1 - phi^2); the infinite tail is summed in closed form.
    """
    if not abs(phi) < 1:
        raise ValueError(f"need |phi| < 1, got {phi}")
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    a = n // b
    if a * b != n:
        raise ValueError(f"exact bias needs n to be a multiple of b, got n={n}, b={b}")
    if a < 2:
        raise ValueError(f"need at least 2 batches, got {a}")
    if phi == 0.0:
        return 0.0
    v = 1.0 / (1.0 - phi * phi)
    s_head = np.arange(1, b)
    head = -2.0 * (a + 1) / (a * b) * v * float(np.sum(s_head * phi**s_head))
    tail = -2.0 * v * phi**b / (1.0 - phi)
    s_mid = np.arange(b, n)
    mid = -2.0 / (a - 1) * v * float(np.sum((1.0 - s_mid / n) * phi**s_mid))
    return head + tail + mid


def lugsail_exact_bias_ar1(phi: float, n: int, b: int, r: float, c: float) -> float:
    """Exact lugsail bias on the AR(1) chain, by linearity of the mixing."""
    config = LugsailConfig(r=r, c=c, regime="custom")
    big = bm_exact_bias_ar1(phi, n, b)
    applied = config.resolve(n, b)
    if applied is None:
        return big
    return applied.mix(big, bm_exact_bias_ar1(phi, n, int(b // r)))


__all__ = [
    "batch_means",
    "bm_exact_bias_ar1",
    "default_batch_size",
    "lag1_autocorrelation",
    "lugsail_batch_means",
    "lugsail_combine",
    "lugsail_exact_bias_ar1",
    "lugsail_overlapping_batch_means",
    "lugsail_policy",
    "overlapping_batch_means",
]
