"""Joint inference for mixed mean/quantile targets.

Quantile point estimates are order statistics; their contribution to the
joint long-run covariance comes from the delta-method transformation
(q - 1{V <= xi_hat}) / f_hat(xi_hat) applied columnwise, after which any
multivariate LRV estimator applies to the stacked transformed chain.
Simultaneous hyperrectangular regions are calibrated by a bisection over the
common half-width multiplier z inside Sidak's bracket, with the rectangle
probabilities evaluated by sequential conditioning (Genz 1992) integrated
with a randomly shifted Richtmyer lattice rule (Genz and Bretz 2009).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import SampleMatrix
from .experiments import make_estimator
from .lrv import matrix_of, pd_logdet

_NDTRI_CLIP = 1e-15


@dataclass(frozen=True)
class TargetSpec:
    """One estimand: the mean of a component, or a q-quantile of it."""

    kind: str
    component: int
    q: float | None = None

    def __post_init__(self):
        if self.kind not in ("mean", "quantile"):
            raise ValueError(f"target kind must be 'mean' or 'quantile', got {self.kind!r}")
        if self.component < 0:
            raise ValueError(f"component index must be non-negative, got {self.component}")
        if self.kind == "quantile":
            if self.q is None or not 0.0 < self.q < 1.0:
                raise ValueError(f"quantile probability must lie in (0, 1), got {self.q}")
        elif self.q is not None:
            raise ValueError("mean targets take no probability")

    def label(self) -> str:
        if self.kind == "mean":
            return f"mean[{self.component}]"
        return f"q{self.q:g}[{self.component}]"


@dataclass(frozen=True, eq=False)
class JointEstimate:
    """Point estimates nu_hat with their joint long-run covariance omega."""

    nu_hat: np.ndarray
    omega: np.ndarray
    n: int

    def __post_init__(self):
        if np.ndim(self.nu_hat) != 1:
            raise ValueError(f"nu_hat must be 1-D, got shape {np.shape(self.nu_hat)}")
        if np.shape(self.omega) != (self.p, self.p):
            raise ValueError(f"omega must be {self.p} x {self.p}, one row per target, got shape {np.shape(self.omega)}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")

    @property
    def p(self) -> int:
        return self.nu_hat.shape[0]


@dataclass(frozen=True, eq=False)
class SimultaneousRegion:
    """Hyperrectangle nu_hat +- z_star * sqrt(omega_ii / n) with joint coverage."""

    z_star: float
    intervals: np.ndarray  # (p, 2) rows [lo, hi]


def quantile_estimate(values, q: float) -> float:
    """The ceil(n*q)-th order statistic of the sample."""
    v = np.asarray(values, float).ravel()
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile probability must lie in (0, 1), got {q}")
    m = v.size * q
    # ceil, but robust to n*q landing a hair above an integer in floats.
    k = round(m) if math.isclose(m, round(m), rel_tol=0.0, abs_tol=1e-9) else math.ceil(m)
    k = min(max(k, 1), v.size)
    return float(np.partition(v, k - 1)[k - 1])


def kde_density_at(values, x: float) -> float:
    """Gaussian-kernel density estimate at x with the Silverman bandwidth
    0.9 * min(sd, IQR/1.34) * n^(-1/5)."""
    v = np.asarray(values, float).ravel()
    if v.size < 2:
        raise ValueError("need at least 2 observations for a density estimate")
    return _gaussian_kde(v, x, _silverman_bandwidth(v))


def _silverman_bandwidth(v: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5) of a 1-D sample of size >= 2."""
    sd = v.std(ddof=1)
    if sd == 0.0:
        raise ValueError("sample has zero spread")
    q25, q75 = np.percentile(v, [25, 75])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * v.size ** (-0.2)


def _gaussian_kde(v: np.ndarray, x: float, h: float) -> float:
    z = (x - v) / h
    return float(np.exp(-0.5 * z * z).mean() / (h * math.sqrt(2.0 * math.pi)))


def joint_transformed_chain(chain: SampleMatrix, targets: list[TargetSpec]) -> SampleMatrix:
    """Per-target columns whose LRV estimates the joint covariance omega.

    Mean targets keep the raw component; a quantile target becomes the
    centered indicator (q - 1{V_i <= xi_hat}) scaled by the reciprocal of
    the density estimate at the sample quantile.
    """
    return _estimates_and_transform(chain, targets)[1]


def _estimates_and_transform(chain: SampleMatrix, targets: list[TargetSpec]) -> tuple[np.ndarray, SampleMatrix]:
    """The targets' point estimates (sample mean or quantile) and
    joint_transformed_chain, each sample quantile taken once.

    Every component is checked before any work. Each distinct component is
    copied once into a contiguous column, and its KDE bandwidth computed once
    for all of its quantile targets."""
    if not targets:
        raise ValueError("need at least one target")
    for t in targets:
        if t.component >= chain.p:
            raise ValueError(f"component {t.component} out of range for dimension {chain.p}")
    nu = np.empty(len(targets))
    out = np.empty((chain.n, len(targets)))
    for j in dict.fromkeys(t.component for t in targets):
        v = np.ascontiguousarray(chain.column(j))
        h = None
        for i, t in enumerate(targets):
            if t.component != j:
                continue
            if t.kind == "mean":
                nu[i] = v.mean()
                out[:, i] = v
                continue
            if h is None:
                h = _silverman_bandwidth(v)
            xi = quantile_estimate(v, t.q)
            dens = _gaussian_kde(v, xi, h)
            if dens <= 0.0:
                raise ValueError(f"density estimate at the {t.q}-quantile of component {t.component} is not positive")
            nu[i] = xi
            out[:, i] = (t.q - (v <= xi)) / dens
    return nu, SampleMatrix(out)


def estimate_omega(chain: SampleMatrix, targets: list[TargetSpec],
                   estimator=make_estimator("bm", lugsail="zero")) -> JointEstimate:
    """Point estimates and joint LRV for a list of mean/quantile targets.

    estimator maps a SampleMatrix to an LrvEstimate; the default is
    zero-lugsail batch means at the square-root batch size.
    """
    nu, transformed = _estimates_and_transform(chain, targets)
    return JointEstimate(nu_hat=nu, omega=estimator(transformed).matrix, n=chain.n)


def _genz_batch(lower, upper, factor, points) -> np.ndarray:
    """Sequentially conditioned rectangle integrand on a block of QMC points."""
    from scipy.special import ndtr, ndtri

    p = lower.shape[0]
    m = points.shape[0]
    d = ndtr(lower[0] / factor[0, 0])
    e = ndtr(upper[0] / factor[0, 0])
    f = np.full(m, e - d)
    y = np.empty((m, p - 1))
    dcur = np.full(m, d)
    ecur = np.full(m, e)
    for i in range(1, p):
        arg = np.clip(dcur + points[:, i - 1] * (ecur - dcur), _NDTRI_CLIP, 1.0 - _NDTRI_CLIP)
        y[:, i - 1] = ndtri(arg)
        shift = y[:, :i] @ factor[i, :i]
        dcur = ndtr((lower[i] - shift) / factor[i, i])
        ecur = ndtr((upper[i] - shift) / factor[i, i])
        f *= ecur - dcur
    return f


def _first_primes(k: int) -> np.ndarray:
    """The first k primes, from a sieve whose bound doubles until it holds k."""
    bound = 16
    while True:
        sieve = np.ones(bound, bool)
        sieve[:2] = False
        for i in range(2, math.isqrt(bound - 1) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        primes = np.flatnonzero(sieve)
        if primes.size >= k:
            return primes[:k]
        bound *= 2


def mvn_rect_prob(center, covariance, rect, tol: float = 1e-3, seed=0) -> float:
    """P(U in rect) for U ~ Normal(center, covariance).

    Uses the sequential-conditioning representation integrated with a
    randomized Richtmyer lattice rule (Genz and Bretz 2009): the points
    frac(i * g) for i < N, with generators g_j = frac(sqrt(prime_j)), each
    set moved by a uniform random shift mod 1 and folded by the baker's
    transform 1 - |2x - 1|.  Variables are reordered by standardized
    interval width, the integrand is averaged over independent shifts, and
    the point count N grows from 2^7 until the standard-error estimate of
    the average is at most tol, with a warning if the budget runs out first.
    Univariate input has a constant integrand, so the first pass returns it to
    rounding.  Deterministic for a fixed seed.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    c = np.atleast_1d(np.asarray(center, float))
    cov = matrix_of(covariance)
    p = c.shape[0]
    r = np.asarray(rect, float).reshape(p, 2)
    lower = r[:, 0] - c
    upper = r[:, 1] - c
    if np.any(upper < lower):
        raise ValueError("rectangle has inverted bounds")
    # Narrow (standardized) intervals constrain the integrand most, so
    # condition on them first; a variance <= 0 then fails the factorization.
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.argsort((upper - lower) / np.sqrt(np.diag(cov)), kind="stable")
    lower, upper = lower[order], upper[order]
    factor = pd_logdet(cov[np.ix_(order, order)], "covariance")[1]

    generators = np.sqrt(_first_primes(p - 1)) % 1.0
    ss = np.random.SeedSequence(seed)
    n_shifts = 10
    log2_points = 7
    while True:
        lattice = np.outer(np.arange(1 << log2_points), generators) % 1.0
        means = np.empty(n_shifts)
        for k, child in enumerate(ss.spawn(n_shifts)):
            shifted = (lattice + np.random.default_rng(child).random(p - 1)) % 1.0
            pts = 1.0 - np.abs(2.0 * shifted - 1.0)
            means[k] = _genz_batch(lower, upper, factor, pts).mean()
        se = means.std(ddof=1) / math.sqrt(n_shifts)
        if se <= tol:
            return float(np.clip(means.mean(), 0.0, 1.0))
        if log2_points >= 16:
            warnings.warn(
                f"rectangle probability reached the point budget with standard error {se:.2e} > tol {tol:.2e}"
            )
            return float(np.clip(means.mean(), 0.0, 1.0))
        log2_points += 2
        ss = np.random.SeedSequence(seed, spawn_key=(log2_points,))


def _check_z_star_settings(alpha: float, seed) -> None:
    """solve_z_star's refusals of its settings, which can be checked before any chain is read."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def solve_z_star(joint: JointEstimate, alpha: float, seed=0) -> SimultaneousRegion:
    """Common half-width multiplier giving joint coverage 1 - alpha.

    The rectangle probability is strictly increasing in z, so a bisection
    over z (with common random numbers across evaluations) converges to the
    multiplier whose simultaneous coverage matches the target within the
    default tolerance of mvn_rect_prob.  The search starts from Sidak's
    bracket (1967), known before any rectangle probability is computed: the
    joint coverage is at most each marginal's 2 Phi(z) - 1, and at least
    their product (2 Phi(z) - 1)^p because the rectangle is centred and
    symmetric.  So z* lies between the marginal quantile
    -Phi^-1(alpha / 2) and the Sidak quantile -Phi^-1((1 - (1 - alpha)^(1/p)) / 2),
    which coincide when p = 1.  The bisection stops once the bracket is
    narrower than 1e-3 and returns its midpoint.
    """
    _check_z_star_settings(alpha, seed)
    omega = joint.omega
    pd_logdet(omega, "joint covariance omega")
    from scipy.special import ndtri

    target = 1.0 - alpha
    sds = np.sqrt(np.diag(omega) / joint.n)
    cov_n = omega / joint.n

    def prob(z: float) -> float:
        rect = np.column_stack([joint.nu_hat - z * sds, joint.nu_hat + z * sds])
        return mvn_rect_prob(joint.nu_hat, cov_n, rect, seed=seed)

    # expm1/log1p keep 1 - (1 - alpha)^(1/p) accurate as alpha -> 0.
    lo = float(-ndtri(alpha / 2.0))
    hi = float(-ndtri(-math.expm1(math.log1p(-alpha) / joint.p) / 2.0))
    while hi - lo >= 1e-3:
        mid = 0.5 * (lo + hi)
        if prob(mid) < target:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    intervals = np.column_stack([joint.nu_hat - z * sds, joint.nu_hat + z * sds])
    return SimultaneousRegion(z_star=z, intervals=intervals)


__all__ = [
    "JointEstimate",
    "SimultaneousRegion",
    "TargetSpec",
    "estimate_omega",
    "joint_transformed_chain",
    "kde_density_at",
    "mvn_rect_prob",
    "quantile_estimate",
    "solve_z_star",
]
