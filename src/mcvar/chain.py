"""Chain data model, summary statistics, and lag-covariance kernels.

Everything downstream (batch means, spectral variance, initial sequence
estimators) consumes the immutable SampleMatrix defined here.  Lag
covariances use the 1/n normalization so that spectral sums keep their
positive-definiteness structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lrv import symmetrize


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """n x p matrix of chain output: rows are iterations, columns components.

    The wrapped array is a read-only copy, and so are the cached centering
    and spectrum, so instances can be shared freely across threads.  A 1-D
    input is treated as a single-component chain.
    """

    values: np.ndarray

    def __post_init__(self):
        a = np.array(self.values, dtype=float)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        if a.ndim != 2:
            raise ValueError(f"chain values must be 1- or 2-dimensional, got ndim={a.ndim}")
        if a.shape[0] < 2:
            raise ValueError(f"need at least 2 iterations, got {a.shape[0]}")
        if a.shape[1] < 1:
            raise ValueError("need at least 1 component")
        if not np.isfinite(a).all():
            raise ValueError("chain contains non-finite entries")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    @cached_property
    def _centered(self) -> np.ndarray:
        yc = self.values - self.values.mean(axis=0)
        yc.setflags(write=False)
        return yc

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, int]:
        """rfft of the zero-padded centered columns, with the fft length.

        The padding (smallest power of two >= 2n) makes circular correlation
        linear for every lag up to n-1.
        """
        nfft = 1 << (2 * self.n - 1).bit_length()
        spec = np.fft.rfft(self._centered, n=nfft, axis=0)
        spec.setflags(write=False)
        return spec, nfft


@dataclass(frozen=True, eq=False)
class LagCovariance:
    """Sample lag-k covariance matrix; use the transpose for negative lags."""

    k: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"lag must be non-negative, got {self.k}")
        m = np.atleast_2d(np.asarray(self.matrix, float))
        if not np.isfinite(m).all():
            raise ValueError("lag covariance contains non-finite entries")
        if self.k == 0:
            m = symmetrize(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def mean_vector(chain: SampleMatrix) -> np.ndarray:
    """Componentwise ergodic averages."""
    return chain.values.mean(axis=0)


def sample_covariance(chain: SampleMatrix) -> np.ndarray:
    """Unbiased (divisor n-1) sample covariance of the rows."""
    yc = chain._centered
    return symmetrize(yc.T @ yc / (chain.n - 1))


def _check_lag(chain: SampleMatrix, k: int) -> None:
    if not 0 <= k <= chain.n - 1:
        raise ValueError(f"lag {k} out of range for a chain of length {chain.n}")


def lag_covariance(chain: SampleMatrix, k: int) -> LagCovariance:
    """Sample lag-k covariance: (1/n) sum of outer(y_i - m, y_{i+k} - m)."""
    _check_lag(chain, k)
    yc = chain._centered
    n = chain.n
    m = yc[: n - k].T @ yc[k:] / n
    return LagCovariance(k, m)


def _lag_cov_block(chain: SampleMatrix, k0: int, k1: int) -> np.ndarray:
    """Lag covariances for k0 <= k < k1 as a (k1-k0, p, p) array, via FFT.

    One inverse transform per leading component; peak memory stays at
    O(nfft * p) regardless of how many lags are requested.
    """
    spec, nfft = chain._spectrum
    n, p = chain.n, chain.p
    out = np.empty((k1 - k0, p, p))
    for j in range(p):
        cross = np.conj(spec[:, j])[:, None] * spec
        out[:, j, :] = np.fft.irfft(cross, n=nfft, axis=0)[k0:k1] / n
    return out


def lag_covariances_fft(chain: SampleMatrix, kmax: int) -> list[LagCovariance]:
    """All lag covariances for k = 0..kmax in one FFT pass.

    Agrees with repeated lag_covariance to ~1e-10 per entry but costs
    O(p^2 n log n) instead of O(p^2 n kmax).
    """
    _check_lag(chain, kmax)
    block = _lag_cov_block(chain, 0, kmax + 1)
    return [LagCovariance(k, block[k]) for k in range(kmax + 1)]
