"""Shared fixtures and independent oracle implementations.

The oracles here are deliberately naive (nested loops, quadrature,
enumeration) so they stay independent of the library's vectorized and
FFT-based paths.
"""
from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import lfilter

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

FULL_PROFILE = os.environ.get("MCVAR_ACCEPTANCE_PROFILE", "").lower() == "full"


def naive_lag_cov(values, k: int) -> np.ndarray:
    """O(n p^2) per-lag oracle: (1/n) sum of outer products of deviations."""
    y = np.asarray(values, float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    n, p = y.shape
    m = y.mean(axis=0)
    out = np.zeros((p, p))
    for i in range(n - k):
        out += np.outer(y[i] - m, y[i + k] - m)
    return out / n


def nested_sv(values, window, b: int) -> np.ndarray:
    """Pure nested-loop spectral variance oracle."""
    y = np.asarray(values, float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    n = y.shape[0]
    out = naive_lag_cov(y, 0) * float(window(0.0))
    for s in range(1, n):
        w = float(window(s / b))
        if w != 0.0:
            r = naive_lag_cov(y, s)
            out = out + w * (r + r.T)
    return out


def ar1_paths(rng: np.random.Generator, reps: int, n: int, phi: float, x0: float = 0.0) -> np.ndarray:
    """(reps, n) array of AR(1) paths; raw numpy, independent of the package."""
    eps = rng.standard_normal((reps, n))
    zi = np.full((reps, 1), phi * x0)
    x, _ = lfilter([1.0], [1.0, -phi], eps, axis=1, zi=zi)
    return x


@st.composite
def lugsail_cases(draw):
    """(values, r, b, c) with p in {1, 2, 3}, r in {2, 3}, b a multiple of r
    small enough for every family (n // b >= 2), and c in [0, 0.9]."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2 * r, 64))
    b = r * draw(st.integers(1, n // (2 * r)))
    values = draw(arrays(np.float64, (n, draw(st.integers(1, 3))),
                         elements=st.floats(-10, 10, allow_nan=False, width=64)))
    return values, float(r), b, draw(st.floats(0.0, 0.9))


@st.composite
def ar1_chains(draw):
    """An n x p chain (n <= 2000) of AR(1) columns sharing a component, so
    that the off-diagonal entries are not all near 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(200, 2000)), draw(st.integers(1, 3))
    x = ar1_paths(rng, p, n, draw(st.floats(-0.5, 0.95))).T
    x[:, 1:] += 0.5 * x[:, :1]
    return x


def assert_lugsail_mix(got, big, small, c: float, rel: float) -> None:
    """got == (big - c * small) / (1 - c) within rel of the inputs' scale.

    The scale is floored at the smallest normal double: below it rel * scale
    underflows to 0, and a difference of one subnormal step would fail."""
    want = (big - c * small) / (1.0 - c)
    scale = max(np.abs(big).max(), np.abs(small).max())
    assert np.abs(got - want).max() <= rel * max(scale, np.finfo(float).tiny)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240917)
