"""Synthetic chain generators and replication studies.

Generators are deterministic functions of their seed.  Replication studies
derive one independent stream per replicate through SeedSequence spawn
keys, so results do not depend on execution order and can be reproduced
from the master seed alone.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .batch import default_batch_size, lugsail_batch_means, lugsail_overlapping_batch_means
from .chain import SampleMatrix, mean_vector
from .diagnostics import ess, region_contains
from .initseq import adjusted_initial_sequence, initial_sequence
from .lrv import LrvEstimate, LugsailConfig
from .spectral import get_window, lugsail_spectral_variance


@dataclass(frozen=True)
class Ar1Config:
    """Normal AR(1): x_{t+1} = phi * x_t + standard normal innovation, in p
    independent columns that all start at x0."""

    phi: float
    n: int
    seed: int | np.random.SeedSequence = 0
    x0: float = 0.0
    p: int = 1

    def __post_init__(self):
        if not abs(self.phi) < 1:
            raise ValueError(f"need |phi| < 1, got {self.phi}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")


_MIX_WEIGHTS = (0.2, 0.3, 0.5)
_MIX_MEANS = (2.5, 4.5, 7.5)
_MIX_SDS = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class MixtureConfig:
    """Random-walk Metropolis on the fixed three-component normal mixture
    0.2 N(2.5, 1) + 0.3 N(4.5, 1) + 0.5 N(7.5, 1)."""

    n: int
    proposal_sd: float = 0.5
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if self.proposal_sd <= 0:
            raise ValueError("proposal standard deviation must be positive")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")

    @property
    def mean(self) -> float:
        return sum(w * m for w, m in zip(_MIX_WEIGHTS, _MIX_MEANS))


@dataclass(frozen=True)
class BiasTruth:
    """Closed-form targets for the AR(1) mean problem."""

    sigma_true: float
    gamma: float
    ess_ratio: float

    def __post_init__(self):
        if self.sigma_true <= 0:
            raise ValueError("sigma_true must be positive")


def ar1_generate(cfg: Ar1Config) -> SampleMatrix:
    """Simulate the AR(1) chain; deterministic given the seed."""
    from scipy.signal import lfilter

    rng = np.random.default_rng(cfg.seed)
    eps = rng.standard_normal((cfg.n, cfg.p))
    x, _ = lfilter([1.0], [1.0, -cfg.phi], eps, axis=0, zi=np.full((1, cfg.p), cfg.phi * cfg.x0))
    return SampleMatrix(x)


def ar1_truth(phi: float) -> BiasTruth:
    """Long-run variance, first-order bias constant, and ESS/n for the AR(1) mean."""
    if not abs(phi) < 1:
        raise ValueError(f"need |phi| < 1, got {phi}")
    one = 1.0 - phi
    return BiasTruth(
        sigma_true=1.0 / one**2,
        gamma=-2.0 * phi / (one**2 * (1.0 - phi * phi)),
        ess_ratio=one**2 / (1.0 - phi * phi),
    )


def mixture_mh_generate(cfg: MixtureConfig) -> SampleMatrix:
    """Random-walk Metropolis chain targeting the mixture density.

    Starts at the mixture mean.  All randomness is drawn up front so the
    accept/reject loop is a tight scalar recursion.
    """
    rng = np.random.default_rng(cfg.seed)
    steps = rng.standard_normal(cfg.n) * cfg.proposal_sd
    logu = np.log(rng.random(cfg.n))
    log_w = [math.log(w) - math.log(s) for w, s in zip(_MIX_WEIGHTS, _MIX_SDS)]
    mu, sd = _MIX_MEANS, _MIX_SDS
    k = len(mu)

    def logf(v: float) -> float:
        # log-sum-exp with the max shifted out so far-tail proposals cannot
        # underflow every component at once
        terms = [log_w[j] - 0.5 * ((v - mu[j]) / sd[j]) ** 2 for j in range(k)]
        top = max(terms)
        return top + math.log(sum(math.exp(t - top) for t in terms))

    return _metropolis(logf, cfg.mean, steps, logu)


def _metropolis(logpost: Callable, x0, steps: np.ndarray, logu: np.ndarray) -> SampleMatrix:
    """Random-walk Metropolis from x0: step i proposes x + steps[i] and
    accepts it when logu[i] is below the log-density gain."""
    out = np.empty(steps.shape)
    x, lx = x0, logpost(x0)
    for i, step in enumerate(steps):
        y = x + step
        ly = logpost(y)
        if logu[i] < ly - lx:
            x, lx = y, ly
        out[i] = x
    return SampleMatrix(out)


def mh_acceptance_rate(chain: SampleMatrix) -> float:
    """Fraction of iterations whose state differs from the previous one."""
    x = chain.column(0)
    return float(np.mean(x[1:] != x[:-1]))


def logistic_mh_generate(n_obs: int, p_coef: int, n: int,
                         seed: int | np.random.SeedSequence = 0) -> SampleMatrix:
    """Random-walk Metropolis chain for Bayesian logistic regression.

    A synthetic design matrix (standard normal covariates, fixed alternating
    true coefficients) and Bernoulli responses are drawn from the same seed;
    the posterior combines the logistic likelihood with the tight normal
    prior N(0, I/100).  n_obs=0 reduces the target to the prior.
    """
    if n_obs < 0:
        raise ValueError(f"need n_obs >= 0, got {n_obs}")
    if p_coef < 1:
        raise ValueError(f"need at least one coefficient, got {p_coef}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n_obs, p_coef))
    beta_true = 0.5 * (-1.0) ** np.arange(p_coef)
    y = (rng.random(n_obs) < 1.0 / (1.0 + np.exp(-design @ beta_true))).astype(float)

    prior_precision = 100.0
    # Posterior scale heuristic: prior precision plus the n_obs/4 cap of the
    # logistic Fisher information, spread over a p-dimensional random walk.
    scale = 1.0 / math.sqrt(prior_precision + 0.25 * n_obs)
    step = 2.4 * scale / math.sqrt(p_coef)

    def logpost(beta: np.ndarray) -> float:
        quad = -0.5 * prior_precision * float(beta @ beta)
        if n_obs == 0:
            return quad
        xb = design @ beta
        return float(y @ xb - np.logaddexp(0.0, xb).sum()) + quad

    steps = rng.standard_normal((n, p_coef)) * step
    logu = np.log(rng.random(n))
    return _metropolis(logpost, np.zeros(p_coef), steps, logu)


#: Estimator families accepted by make_estimator and the command line.
METHODS = ("bm", "obm", "sv", "initseq", "initseq-adj")


@dataclass(frozen=True)
class Estimator:
    """Estimator settings, each checked when the value is built (by
    dataclasses.replace too); called on a chain, it returns the estimate.
    Its fields up to c, the unset ones left out, describe it.

    family is one of METHODS; window (default bartlett, kept by its canonical
    name) is for sv only; lugsail is a regime name in REGIMES or custom, the
    only regime with r and c, which needs both.  b >= 1, or None for the
    batch_rule's size at call time, when floor(b/r) >= 1 is checked too.  The
    initial-sequence families take neither a lugsail adjustment nor b.
    """

    family: str
    lugsail: str
    window: str | None
    r: float | None
    c: float | None
    b: int | None
    batch_rule: str

    def __post_init__(self):
        method, lugsail, r, c, b = self.family, self.lugsail, self.r, self.c, self.b
        if method not in METHODS:
            raise ValueError(f"unknown estimator method {method!r}")
        if self.window is not None and method != "sv":
            raise ValueError("--window is only valid with --method sv")
        if (r is not None or c is not None) and lugsail != "custom":
            raise ValueError("--r/--c are only valid with --lugsail custom")
        if method.startswith("initseq"):
            if lugsail != "none":
                raise ValueError(f"{method} takes no lugsail adjustment")
            if b is not None:
                raise ValueError(f"{method} takes no batch size b")
        if lugsail == "custom":
            if r is None or c is None:
                raise ValueError("custom lugsail needs both r and c")
            LugsailConfig(r, c)  # refuses a bad r or c
        else:
            LugsailConfig.named(lugsail)  # refuses an unknown regime
        if method == "sv":
            object.__setattr__(self, "window", get_window(self.window or "bartlett").name)
        if b is not None and b < 1:
            raise ValueError(f"batch size must be >= 1, got {b}")
        if self.batch_rule not in ("sqrt", "cuberoot"):
            raise ValueError(f"unknown batch size rule {self.batch_rule!r}")

    def __call__(self, chain: SampleMatrix) -> LrvEstimate:
        if self.family.startswith("initseq"):
            return (initial_sequence if self.family == "initseq" else adjusted_initial_sequence)(chain)
        config = LugsailConfig.named(self.lugsail) if self.r is None else LugsailConfig(self.r, self.c)
        b = self.b if self.b is not None else default_batch_size(chain.n, self.batch_rule, r=config.r)
        if self.family == "sv":
            return lugsail_spectral_variance(chain, get_window(self.window), b, config.r, config.c)
        return (lugsail_batch_means if self.family == "bm" else lugsail_overlapping_batch_means)(chain, b, config)


def make_estimator(method: str, *, b: int | None = None, lugsail: str = "none",
                   r: float | None = None, c: float | None = None,
                   window: str | None = None, batch_rule: str = "sqrt") -> Estimator:
    """The Estimator of these settings, named by keyword, for studies and the
    command line; it refuses what Estimator refuses, in the same order."""
    return Estimator(method, lugsail, window, r, c, b, batch_rule)


def standard_grid(methods: Sequence[str] = ("bm",)) -> dict[str, Estimator]:
    """Labelled grid of each method under no, zero and over lugsail, as the studies use."""
    grid: dict[str, Estimator] = {}
    for method in methods:
        if method.startswith("initseq"):
            grid[method] = make_estimator(method)
            continue
        for lug in ("none", "zero", "over"):
            label = method if lug == "none" else f"{method}-{lug}"
            grid[label] = make_estimator(method, lugsail=lug)
    return grid


def _replicate_seed(master: int, index: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=index)


def _study(generator: Callable[[int, np.random.SeedSequence], SampleMatrix],
           estimators: dict[str, Callable], n_grid: Sequence[int], replications: int, seed: int,
           scorer: Callable[[SampleMatrix], Callable[[LrvEstimate], float]],
           summary: Callable[[np.ndarray], dict]) -> list[dict]:
    """One row per (n, estimator): summary of that estimator's replicate scores.

    Each replicate chain is generated once and shared by every estimator so
    the estimators are compared on identical data; scorer(chain) runs once
    per chain and returns the score of one estimate on it.
    """
    if replications < 1:
        raise ValueError(f"need at least 1 replication, got {replications}")
    rows = []
    for i_n, n in enumerate(n_grid):
        scores = {name: np.empty(replications) for name in estimators}
        for rep in range(replications):
            chain = generator(n, _replicate_seed(seed, (i_n, rep)))
            score = scorer(chain)
            for name, estimate in estimators.items():
                scores[name][rep] = score(estimate(chain))
        rows += [{"estimator": name, "n": n, "replications": replications, **summary(values)}
                 for name, values in scores.items()]
    return rows


def coverage_study(generator: Callable[[int, np.random.SeedSequence], SampleMatrix],
                   true_mean, estimators: dict[str, Callable], n_grid: Sequence[int],
                   replications: int, seed: int, alpha: float = 0.05) -> list[dict]:
    """Observed coverage of the 100(1-alpha)% region for the true mean."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    theta0 = np.atleast_1d(np.asarray(true_mean, float))

    def scorer(chain: SampleMatrix):
        xbar = mean_vector(chain)
        return lambda sigma: region_contains(theta0, xbar, sigma, chain.n, alpha)

    def summary(hits: np.ndarray) -> dict:
        cov = float(hits.sum()) / replications
        return {"coverage": cov, "mc_se": math.sqrt(cov * (1.0 - cov) / replications)}

    return _study(generator, estimators, n_grid, replications, seed, scorer, summary)


def ess_study(generator: Callable[[int, np.random.SeedSequence], SampleMatrix],
              truth: BiasTruth, estimators: dict[str, Callable], n_grid: Sequence[int],
              replications: int, seed: int) -> list[dict]:
    """Replication mean and spread of estimated ESS/n per (estimator, n)."""
    def summary(ratios: np.ndarray) -> dict:
        return {
            "mean_ess_per_n": float(ratios.mean()),
            "sd_ess_per_n": float(ratios.std(ddof=1)) if replications > 1 else 0.0,
            "truth_ess_per_n": truth.ess_ratio,
        }

    return _study(generator, estimators, n_grid, replications, seed,
                  lambda chain: lambda sigma: ess(chain, sigma) / chain.n, summary)


def ar1_chain_factory(phi: float) -> Callable[[int, np.random.SeedSequence], SampleMatrix]:
    def factory(n: int, seed) -> SampleMatrix:
        return ar1_generate(Ar1Config(phi=phi, n=n, seed=seed))

    return factory


def timing_bench(chain: SampleMatrix, estimators: dict[str, Callable],
                 repetitions: int = 5) -> list[dict]:
    """Median wall time per estimator.

    Each repetition runs on a fresh copy of the matrix so per-chain caches
    (the shared FFT of the centered columns) cannot subsidize later calls.
    The repetitions run round-robin across the estimators, so host drift
    during the run reaches every estimator alike.
    """
    if repetitions < 1:
        raise ValueError(f"need at least 1 repetition, got {repetitions}")
    times = {name: [] for name in estimators}
    for _ in range(repetitions):
        for name, estimate in estimators.items():
            fresh = SampleMatrix(chain.values)
            t0 = time.perf_counter()
            estimate(fresh)
            times[name].append(time.perf_counter() - t0)
    return [{"estimator": name, "median_seconds": float(np.median(t)), "repetitions": repetitions}
            for name, t in times.items()]


def median_times(rows: list[dict]) -> dict[str, float]:
    return {row["estimator"]: row["median_seconds"] for row in rows}


def ordering_ok(rows: list[dict], sequence: Sequence[str], slack: float = 1.0) -> bool:
    """True when the named estimators' median times are non-decreasing,
    allowing faster-by-up-to-slack ties (slack=1.1 tolerates a 10% tie)."""
    med = median_times(rows)
    times = [med[name] for name in sequence]
    return all(later * slack >= earlier for earlier, later in zip(times, times[1:]))


__all__ = [
    "Ar1Config",
    "BiasTruth",
    "Estimator",
    "MixtureConfig",
    "ar1_chain_factory",
    "ar1_generate",
    "ar1_truth",
    "coverage_study",
    "ess_study",
    "logistic_mh_generate",
    "make_estimator",
    "median_times",
    "mh_acceptance_rate",
    "mixture_mh_generate",
    "ordering_ok",
    "standard_grid",
    "timing_bench",
]
