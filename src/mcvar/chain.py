"""Chain data model, summary statistics, and lag-covariance kernels.

Everything downstream (batch means, spectral variance, initial sequence
estimators) consumes the immutable SampleMatrix defined here.  Lag
covariances use the 1/n normalization so that spectral sums keep their
positive-definiteness structure.

Every FFT is sized to the lags asked of it: lags 0..K of n rows need a
zero-padded length of at least n + K to avoid circular wrap, so a lag block
has length scipy.fft.next_fast_len(n + K, real=True) and returns all lags
it holds wrap-free, and the full spectrum next_fast_len(2n - 1, real=True).
A block of p components runs p forward and p(p+1)/2 inverse transforms: one
per unordered pair of components gives both C(k)[i, j] and C(k)[j, i].
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .lrv import symmetrize


@cache
def _sp_fft():
    """scipy.fft, imported on first use: only sv and initseq transform, and
    loading it costs more than most commands compute."""
    import scipy.fft

    return scipy.fft


def _fft_workers() -> int:
    """Workers for the lag-block irffts: OMP_NUM_THREADS, else the usable CPUs."""
    cap = os.environ.get("OMP_NUM_THREADS", "")
    if cap.isdigit() and int(cap) >= 1:
        return int(cap)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _rfft_rows(centered: np.ndarray, nfft: int) -> np.ndarray:
    """(p, nfft//2 + 1) rfft of the zero-padded columns of an n x p array, a
    column at a time through one reused row buffer: contiguous rows transform
    faster, and no chain-sized temporary slows the first calls in a process."""
    spec = np.empty((centered.shape[1], nfft // 2 + 1), complex)
    row = np.zeros(nfft)
    rfft = _sp_fft().rfft
    for j, column in enumerate(centered.T):
        row[: len(column)] = column
        spec[j] = rfft(row)
    return spec


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
        """The columns minus their means, and exactly zero on a constant column:
        the mean of n equal floats need not equal them, and its residue would
        pass for signal.  Only columns equal at the first, middle and last rows
        are checked in full."""
        v = self.values
        yc = v - v.mean(axis=0)
        maybe = np.flatnonzero((v[0] == v[-1]) & (v[0] == v[self.n // 2]))
        yc[:, maybe[(v[:, maybe] == v[0, maybe]).all(axis=0)]] = 0.0
        yc.setflags(write=False)
        return yc

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, int]:
        """rfft of the zero-padded centered columns, one row per component,
        with the fft length.

        The length next_fast_len(2n - 1, real=True) makes circular
        correlation linear for every lag up to n-1; it may be odd.
        """
        nfft = _sp_fft().next_fast_len(2 * self.n - 1, real=True)
        spec = _rfft_rows(self._centered, nfft)
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


def _lag_cov_block(chain: SampleMatrix, kmax: int) -> np.ndarray:
    """Lag covariances for k = 0..K as a (K+1, p, p) array, via FFT.

    The centered columns are transformed at length next_fast_len(n + kmax),
    the shortest that keeps lags 0..kmax free of circular wrap; all lags up
    to K = min(n - 1, nfft - n) >= kmax are then wrap-free, and returned.  The
    inverse transform of conj(S_j) * S_i holds C(k)[j, i] at index k and
    C(k)[i, j] = C(-k)[j, i] at index nfft - k (wrap-free too, as nfft >= n + K),
    so only the p(p+1)/2 rows i >= j are transformed, one leading component j
    at a time to keep peak memory at O(nfft * p).  Lag 0 is filled by symmetry.
    """
    n, p = chain.n, chain.p
    sp_fft = _sp_fft()
    nfft = sp_fft.next_fast_len(n + kmax, real=True)
    kmax = min(n - 1, nfft - n)  # K
    spec = _rfft_rows(chain._centered, nfft)
    out = np.empty((kmax + 1, p, p))
    for j in range(p):
        corr = sp_fft.irfft(np.conj(spec[j]) * spec[j:], n=nfft, axis=1, workers=_fft_workers())
        out[:, j, j:] = corr[:, : kmax + 1].T / n
        out[1:, j + 1 :, j] = corr[1:, : nfft - kmax - 1 : -1].T / n
        del corr
    lower = np.tril_indices(p, -1)
    out[0][lower] = out[0].T[lower]
    return out


def lag_covariances_fft(chain: SampleMatrix, kmax: int) -> list[LagCovariance]:
    """All lag covariances for k = 0..kmax in one FFT pass.

    Agrees with repeated lag_covariance to ~1e-10 per entry.  It costs p
    forward and p(p+1)/2 inverse real transforms of length
    next_fast_len(n + kmax), O(p^2 (n + kmax) log(n + kmax)) in all, instead
    of the O(p^2 n kmax) of repeated lag_covariance.
    """
    _check_lag(chain, kmax)
    block = _lag_cov_block(chain, kmax)
    return [LagCovariance(k, block[k]) for k in range(kmax + 1)]


__all__ = ["LagCovariance", "SampleMatrix", "lag_covariance", "lag_covariances_fft", "mean_vector",
           "sample_covariance"]
