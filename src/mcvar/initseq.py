"""Multivariate initial-sequence estimators for reversible chains.

Pairs of adjacent lag covariances are accumulated while the running partial
sum stays positive definite with strictly increasing determinant; the scan
stops at the first violation.  This yields a conservative estimate whose
generalized variance asymptotically dominates the truth.  Reversibility of
the input chain cannot be verified here and is a documented precondition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import SampleMatrix, _lag_cov_block
from .lrv import NotPositiveDefinite, chol_logdet, symmetrize

_FIRST_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class InitSeqResult:
    """Estimate plus the truncation bookkeeping of the determinant scan.

    s_n is the first pair index with a positive definite partial sum, t_n
    the last index of the strictly-increasing determinant run, and
    logdet_path the log-determinants for m = s_n .. t_n.
    """

    sigma: np.ndarray
    s_n: int
    t_n: int
    logdet_path: np.ndarray
    adjusted: bool = False

    def scalar(self) -> float:
        if self.sigma.shape != (1, 1):
            raise ValueError(f"estimate has shape {self.sigma.shape}, not (1, 1)")
        return float(self.sigma[0, 0])


def _scan(chain: SampleMatrix):
    """Shared truncation scan: returns (s_n, t_n, partials, pair sums used)."""
    if chain.n < 4:
        raise ValueError(f"need n >= 4, got {chain.n}")
    limit = chain.n // 2 - 1
    # A pass costs transforms of length n + K whatever K is, so fetch many
    # lags at once and double the block whenever the scan outruns it.  Each
    # lag is symmetrized, as the population matrices of a reversible chain
    # are, which keeps the sample asymmetry out of the eigenvalue logic.
    lags = _lag_cov_block(chain, min(chain.n, _FIRST_BLOCK) - 1)
    running = -symmetrize(lags[0])
    used: list[np.ndarray] = []
    s_n = None
    logdets: list[float] = []
    snapshots: list[np.ndarray] = []
    for m in range(limit + 1):
        if 2 * m + 1 >= len(lags):
            lags = _lag_cov_block(chain, min(chain.n, 2 * len(lags)) - 1)
        a_m = symmetrize(lags[2 * m]) + symmetrize(lags[2 * m + 1])
        used.append(a_m)
        running = running + 2.0 * a_m
        pd, logdet, _ = chol_logdet(running)
        if s_n is None:
            if pd:
                s_n = m
                logdets.append(logdet)
                snapshots.append(running.copy())
            continue
        if not pd or logdet <= logdets[-1]:
            break
        logdets.append(logdet)
        snapshots.append(running.copy())
    if s_n is None:
        raise NotPositiveDefinite(
            f"no positive definite partial sum up to pair index {limit}; "
            "the chain is too short or too degenerate for an initial-sequence estimate"
        )
    t_n = s_n + len(logdets) - 1
    return s_n, t_n, snapshots, logdets, used


def initial_sequence(chain: SampleMatrix) -> InitSeqResult:
    """Initial-sequence estimate truncated at the determinant-monotone index."""
    s_n, t_n, snapshots, logdets, _ = _scan(chain)
    return InitSeqResult(sigma=snapshots[-1], s_n=s_n, t_n=t_n, logdet_path=np.array(logdets))


def adjusted_initial_sequence(chain: SampleMatrix) -> InitSeqResult:
    """Eigenvalue-adjusted variant: beyond s_n, each pair-sum increment has
    its negative eigenvalues clipped to zero before accumulation.

    Reuses the s_n / t_n search of the unadjusted scan; the result dominates
    the unadjusted estimate in the Loewner order.
    """
    s_n, t_n, snapshots, _, used = _scan(chain)
    sigma = snapshots[0].copy()
    logdets = [chol_logdet(sigma)[1]]
    for m in range(s_n + 1, t_n + 1):
        sigma = sigma + 2.0 * _clip_negative_eigenvalues(used[m])
        logdets.append(chol_logdet(sigma)[1])
    return InitSeqResult(sigma=sigma, s_n=s_n, t_n=t_n, logdet_path=np.array(logdets), adjusted=True)


def _clip_negative_eigenvalues(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    if vals[0] >= 0.0:
        return m
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


__all__ = ["InitSeqResult", "adjusted_initial_sequence", "initial_sequence"]
