"""Lag windows and the multivariate spectral-variance estimator.

The estimator is the windowed sum of sample lag covariances over all lags
|s| <= n-1.  It is accumulated in the frequency domain: with W the transform
of the symmetric weight sequence and G the transform of the zero-padded
centered chain, the windowed lag sum equals Re(G* diag(W) G) / (n * nfft).
That keeps the cost at one FFT plus one weighted Gram product for any
window, any truncation point, and any dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import SampleMatrix
from .lrv import LrvEstimate, LugsailConfig


@dataclass(frozen=True, eq=False)
class LagWindow:
    """A symmetric lag-weighting kernel with kappa(0) = 1.

    support is the largest |x| where the kernel is nonzero (inf for the
    quadratic spectral window).  q and k_q describe smoothness at the
    origin: k_q = lim (1 - kappa(x)) / |x|^q, which controls the order and
    constant of the estimator's first-order bias.  Flat-top style windows
    report k_q = 0 at the q of their parent family.
    """

    name: str
    support: float
    q: int
    k_q: float
    fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not self.support >= 0.0:
            raise ValueError(f"lag window support must be >= 0 (inf for unbounded), got {self.support}")
        if not abs(self(0.0) - 1.0) <= 1e-12:
            raise ValueError(f"lag window {self.name!r} needs kappa(0) = 1, got {self(0.0)}")

    def __call__(self, x):
        """Evaluate the kernel at x: a float for scalar x, else an array."""
        out = self.fn(np.abs(np.asarray(x, float)))
        return float(out) if np.ndim(x) == 0 else out


def _bartlett(ax: np.ndarray) -> np.ndarray:
    return np.where(ax <= 1.0, 1.0 - ax, 0.0)


def _bartlett_flattop(ax: np.ndarray) -> np.ndarray:
    return np.where(ax <= 0.5, 1.0, np.where(ax <= 1.0, 2.0 * (1.0 - ax), 0.0))


def _tukey_hanning(ax: np.ndarray) -> np.ndarray:
    return np.where(ax <= 1.0, 0.5 + 0.5 * np.cos(np.pi * ax), 0.0)


def _quadratic_spectral(ax: np.ndarray) -> np.ndarray:
    u = 1.2 * np.pi * ax
    # The closed form cancels catastrophically near 0 (it can even exceed 1
    # in float64), so switch to the series 1 - u^2/10 + u^4/280 - u^6/15120.
    small = ax < 1e-2
    us = np.where(small, u, 1.0)
    series = 1.0 - us**2 / 10.0 + us**4 / 280.0 - us**6 / 15120.0
    ub = np.where(small, 1.0, u)
    closed = 25.0 / (12.0 * np.pi**2 * np.where(small, 1.0, ax) ** 2) * (np.sin(ub) / ub - np.cos(ub))
    return np.where(small, series, closed)


BARTLETT = LagWindow("bartlett", support=1.0, q=1, k_q=1.0, fn=_bartlett)
BARTLETT_FLATTOP = LagWindow("bartlett-flattop", support=1.0, q=1, k_q=0.0, fn=_bartlett_flattop)
TUKEY_HANNING = LagWindow("tukey-hanning", support=1.0, q=2, k_q=math.pi**2 / 4.0, fn=_tukey_hanning)
QUADRATIC_SPECTRAL = LagWindow(
    "quadratic-spectral", support=math.inf, q=2, k_q=18.0 * math.pi**2 / 125.0, fn=_quadratic_spectral
)

WINDOWS: dict[str, LagWindow] = {
    w.name: w for w in (BARTLETT, BARTLETT_FLATTOP, TUKEY_HANNING, QUADRATIC_SPECTRAL)
}


def get_window(name: str) -> LagWindow:
    key = name.lower().replace("_", "-")
    if key not in WINDOWS:
        raise ValueError(f"unknown lag window {name!r}; choose from {sorted(WINDOWS)}")
    return WINDOWS[key]


def lugsail_window(base: LagWindow, r: float, c: float) -> LagWindow:
    """Two-scale transform of a lag window: kappa(x)/(1-c) - c*kappa(r*x)/(1-c).

    A no-op correction (c=0 or r=1) returns the base window itself.
    Over-lugsail settings (r > 1/c) lift the weights above 1 near the
    origin, which flips the first-order bias positive.
    """
    config = LugsailConfig(r=r, c=c, regime="custom")
    if config.noop:
        return base
    return LagWindow(f"lugsail({base.name}, r={r:g}, c={c:g})", support=base.support, q=base.q,
                     k_q=config.mix(base.k_q, base.k_q * r**base.q),
                     fn=lambda ax: config.mix(base.fn(ax), base.fn(r * ax)))


def _weight_spectrum(window: LagWindow, b: int, n: int, nfft: int) -> np.ndarray:
    """rfft of the symmetric padded weight sequence kappa(s/b), |s| <= n-1."""
    if math.isfinite(window.support):
        smax = min(n - 1, math.ceil(window.support * b))
    else:
        smax = n - 1
    w = np.zeros(nfft)
    s = np.arange(smax + 1)
    vals = window(s / b)
    w[: smax + 1] = vals
    if smax >= 1:
        w[nfft - smax:] = vals[1:][::-1]
    return np.fft.rfft(w).real


_GRAM_BLOCK = 2048  # real columns (1024 bins) per block of the Gram product


def _check_truncation(n: int, b: int) -> None:
    if not 1 <= b <= n - 1:
        raise ValueError(f"truncation point must satisfy 1 <= b <= n-1, got b={b}, n={n}")


def spectral_variance(chain: SampleMatrix, window: LagWindow, b: int) -> LrvEstimate:
    """Windowed lag-covariance sum with truncation point b.

    Exactly symmetric by construction; the plain Bartlett window yields a
    positive semidefinite estimate, lugsail windows may not (see the psd
    flag on the result).
    """
    n = chain.n
    _check_truncation(n, b)
    spec, nfft = chain._spectrum  # G transposed: one row per component
    weights = _weight_spectrum(window, b, n, nfft)
    # Fold the one-sided spectrum (interior bins twice, DC and Nyquist once) and
    # 1/(n nfft) into the weights, so the sum overflows only where the estimate does.
    fold = np.full(spec.shape[1], 2.0)
    fold[0] = 1.0
    if nfft % 2 == 0:
        fold[-1] = 1.0
    # Re(G* diag(w) G) in real arithmetic: on the view of each row as
    # [Re, Im, Re, Im, ...] it is R diag(w, w) R^T.  Blocks keep temporaries
    # small, and products this thin ran faster on one BLAS thread than two.
    real, fw = spec.view(np.float64), np.repeat(fold * weights / (n * nfft), 2)
    acc = np.zeros((chain.p, chain.p))
    for lo in range(0, real.shape[1], _GRAM_BLOCK):
        block = real[:, lo:lo + _GRAM_BLOCK]
        acc += (block * fw[lo:lo + _GRAM_BLOCK]) @ block.T
    return LrvEstimate(acc, family="sv", b=b, window=window.name)


def lugsail_spectral_variance(chain: SampleMatrix, base: LagWindow, b: int,
                              r: float, c: float | None) -> LrvEstimate:
    """Spectral variance under the lugsail transform of a base window.

    Implemented through the transformed window (rather than mixing two
    estimates at b and floor(b/r)) so non-integer b/r needs no special
    casing; the two forms coincide when r divides b exactly.  c=None uses
    the adaptive weight, at any r; the result carries the regime LugsailConfig(r, c) names.
    """
    config = LugsailConfig(r, c)
    _check_truncation(chain.n, b)
    applied = config.resolve(chain.n, b)
    if applied is None:
        return spectral_variance(chain, base, b)
    est = spectral_variance(chain, lugsail_window(base, applied.r, applied.c), b)
    return LrvEstimate(est.matrix, family="sv", b=b, window=base.name, lugsail=applied)


__all__ = [
    "BARTLETT",
    "BARTLETT_FLATTOP",
    "QUADRATIC_SPECTRAL",
    "TUKEY_HANNING",
    "WINDOWS",
    "LagWindow",
    "get_window",
    "lugsail_spectral_variance",
    "lugsail_window",
    "spectral_variance",
]
