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
from .lrv import LrvEstimate, NotPositiveDefinite, chol_logdet, symmetrize

_FIRST_BLOCK = 1024


@dataclass(frozen=True, eq=False, kw_only=True)
class InitSeqResult(LrvEstimate):
    """Estimate plus the truncation bookkeeping of the determinant scan.

    family is "initseq", or "initseq-adj" for the eigenvalue-adjusted
    variant.  s_n is the first pair index with a positive definite partial
    sum, t_n the last index of the strictly-increasing determinant run, and
    logdet_path the log-determinants of the estimate for m = s_n .. t_n.
    """

    s_n: int
    t_n: int
    logdet_path: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        return self.matrix

    @property
    def adjusted(self) -> bool:
        return self.family == "initseq-adj"


def _scan(chain: SampleMatrix, adjusted: bool) -> InitSeqResult:
    """The truncation scan.  Beyond s_n the adjusted variant accumulates each
    pair sum with its negative eigenvalues clipped, at the unadjusted s_n and
    t_n; its logdet_path follows its own partial sums."""
    if chain.n < 4:
        raise ValueError(f"need n >= 4, got {chain.n}")
    limit = chain.n // 2 - 1
    # A pass costs transforms of length n + K whatever K is, so fetch many
    # lags at once and double the block whenever the scan outruns it.  Each
    # lag is symmetrized, as the population matrices of a reversible chain
    # are, which keeps the sample asymmetry out of the eigenvalue logic.
    lags = _lag_cov_block(chain, min(chain.n, _FIRST_BLOCK) - 1)
    # No partial sum can pass when lag 0 is not finite or has a zero variance.
    # Only these exact causes stop the scan early: a near-collinear lag 0 can
    # fail the pivot test while a later partial sum passes it.
    if not np.isfinite(lags[0]).all():
        raise NotPositiveDefinite("the lag covariances overflow, so no partial sum is finite")
    constant = np.flatnonzero(np.diag(lags[0]) == 0.0)
    if constant.size:
        raise NotPositiveDefinite(
            f"columns {constant.tolist()} are constant, so no positive definite partial sum exists")
    running = -symmetrize(lags[0])
    s_n = None
    for m in range(limit + 1):
        if 2 * m + 1 >= len(lags):
            lags = _lag_cov_block(chain, min(chain.n, 2 * len(lags)) - 1)
        a_m = symmetrize(lags[2 * m]) + symmetrize(lags[2 * m + 1])
        running = running + 2.0 * a_m
        pd, logdet, _ = chol_logdet(running)
        if s_n is None:
            if pd:
                s_n, last, sigma, path = m, logdet, running, [logdet]
            continue
        if not pd or logdet <= last:
            break
        last = logdet
        if adjusted:
            sigma = sigma + 2.0 * _clip_negative_eigenvalues(a_m)
            logdet = chol_logdet(sigma)[1]
        else:
            sigma = running
        path.append(logdet)
    if s_n is None:
        raise NotPositiveDefinite(
            f"no positive definite partial sum up to pair index {limit}; "
            "the chain is too short or too degenerate for an initial-sequence estimate"
        )
    return InitSeqResult(matrix=sigma, family="initseq-adj" if adjusted else "initseq",
                         s_n=s_n, t_n=s_n + len(path) - 1, logdet_path=np.array(path))


def initial_sequence(chain: SampleMatrix) -> InitSeqResult:
    """Initial-sequence estimate truncated at the determinant-monotone index."""
    return _scan(chain, adjusted=False)


def adjusted_initial_sequence(chain: SampleMatrix) -> InitSeqResult:
    """Eigenvalue-adjusted variant: beyond s_n, each pair-sum increment has
    its negative eigenvalues clipped to zero before accumulation.

    Keeps the s_n / t_n of the unadjusted scan; the result dominates the
    unadjusted estimate in the Loewner order.
    """
    return _scan(chain, adjusted=True)


def _clip_negative_eigenvalues(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    if vals[0] >= 0.0:
        return m
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


__all__ = ["InitSeqResult", "adjusted_initial_sequence", "initial_sequence"]
