"""Result types, positive-definiteness utilities and the lugsail rules of LRV estimators."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

#: Relative floors of the PD test (squared Cholesky pivot / its diagonal entry) and the PSD check.
REL_TOL = 1e-10
PSD_EIG_TOL = 1e-12


class NotPositiveDefinite(ArithmeticError):
    """A matrix that must be positive (semi)definite is not."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    # halve before adding, so a finite matrix stays finite; the bits of 0.5 * (m + m.T) on normal entries
    return 0.5 * m + 0.5 * m.T


def chol_logdet(m: np.ndarray) -> tuple[bool, float, np.ndarray | None]:
    """The positive-definiteness test, and the log-determinant and lower factor.

    Returns (pd, logdet, factor).  pd is True when the Cholesky factorization
    succeeds and each squared pivot, 1 - R^2 of its component on the earlier
    ones times its variance, is at least REL_TOL times that variance: a test
    that rescaling a component does not change.  A non-finite matrix fails."""
    m = np.asarray(m, float)
    if not np.isfinite(m).all():
        return False, -np.inf, None
    try:
        lower = np.linalg.cholesky(symmetrize(m))
    except np.linalg.LinAlgError:
        return False, -np.inf, None
    piv = np.diag(lower) ** 2
    if np.any(piv < REL_TOL * np.diag(m)):
        return False, -np.inf, None
    return True, float(np.log(piv).sum()), lower


def pd_logdet(m: np.ndarray, what: str) -> tuple[float, np.ndarray]:
    """chol_logdet's (logdet, factor), or NotPositiveDefinite naming the matrix as what."""
    pd, logdet, factor = chol_logdet(m)
    if not pd:
        raise NotPositiveDefinite(f"{what} is not {'positive definite' if np.isfinite(m).all() else 'finite'}")
    return logdet, factor


#: The named lugsail regimes, name -> (r, c).  c=None is the adaptive
#: weight, resolved against a concrete (n, b) by adaptive_c.
REGIMES: dict[str, tuple[float, float | None]] = {
    "none": (1.0, 0.0),
    "zero": (2.0, 0.5),
    "adaptive": (2.0, None),
    "over": (3.0, 0.5),
}


def adaptive_c(n: int, b: int) -> float:
    """Sample-size dependent lugsail weight; decreases to 1/2 as n/b grows."""
    if not 1 <= b < n:
        raise ValueError(f"need 1 <= b < n, got b={b}, n={n}")
    gap = math.log(n) - math.log(b)
    return (gap + 1.0) / (2.0 * gap + 1.0)


@dataclass(frozen=True)
class LugsailConfig:
    """Parameters of the two-scale lugsail bias correction, and the only code
    that knows what they mean: __post_init__ is the only (r, c) check, resolve()
    the only place a correction meets a concrete (n, b) and mix() the only
    formula, for every estimator family and the exact AR(1) bias.

    r is finite and >= 1; c lies in [0, 1), or is None for the adaptive
    weight.  regime is a name in REGIMES, whose (r, c) it must carry (the
    adaptive regime may carry its resolved weight), or custom; left out, it
    is the table entry that (r, c) equal exactly, else custom (so is c=0 at
    r > 1, whose r still sets the default batch size).
    """

    r: float = 1.0
    c: float | None = 0.0
    regime: str | None = None

    def __post_init__(self):
        if not 1 <= self.r < math.inf:
            raise ValueError(f"lugsail ratio r must be finite and >= 1, got {self.r}")
        if self.c is not None and not 0.0 <= self.c < 1.0:
            raise ValueError(f"lugsail weight c must lie in [0, 1), got {self.c}")
        if self.regime is None:
            name = next((k for k, rc in REGIMES.items() if rc == (self.r, self.c)), "custom")
            object.__setattr__(self, "regime", name)
        if self.regime == "custom":
            return
        if self.regime not in REGIMES:
            raise ValueError(f"unknown lugsail regime {self.regime!r}")
        r, c = REGIMES[self.regime]
        if self.r != r or c not in (None, self.c):
            raise ValueError(f"{self.regime} lugsail is r={r:g}, c={c}")

    @classmethod
    def named(cls, name: str) -> "LugsailConfig":
        """The configuration of a regime in REGIMES."""
        if name not in REGIMES:
            raise ValueError(f"unknown lugsail regime {name!r}")
        r, c = REGIMES[name]
        return cls(r=r, c=c, regime=name)

    @property
    def noop(self) -> bool:
        """True when the correction changes nothing: c = 0 or r = 1."""
        return self.c == 0.0 or self.r == 1.0

    def resolve(self, n: int, b: int) -> "LugsailConfig | None":
        """This correction at chain length n and batch size (or truncation
        point) b, its weight resolved and its regime kept, or None for a no-op.
        Refuses floor(b/r) < 1 whatever c is; callers check b itself first."""
        if int(b // self.r) < 1:
            raise ValueError(f"floor(b/r) must be >= 1, got b={b}, r={self.r}")
        if self.noop:
            return None
        return self if self.c is not None else replace(self, c=adaptive_c(n, b))

    def mix(self, big, small):
        """big/(1-c) - small*c/(1-c) at scales b and b/r, or big for a no-op or equal inputs."""
        if self.noop or np.array_equal(big, small):
            return big
        return big / (1.0 - self.c) - small * (self.c / (1.0 - self.c))


@dataclass(frozen=True, eq=False)
class LrvEstimate:
    """A p x p long-run covariance estimate plus the method that produced it.

    matrix is finite (else NotPositiveDefinite) and symmetric but, for lugsail
    combinations, not necessarily positive semidefinite; psd runs that check
    when it is first read.
    """

    matrix: np.ndarray
    family: str
    b: int | None = None
    window: str | None = None
    lugsail: LugsailConfig | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"estimate must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NotPositiveDefinite(f"the {self.family} estimate is not finite")
        m = symmetrize(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def psd(self) -> bool:
        """No eigenvalue below -PSD_EIG_TOL * max |eigenvalue|."""
        eig = np.linalg.eigvalsh(self.matrix)
        return bool(eig.min() >= -PSD_EIG_TOL * max(np.abs(eig).max(), 1e-300))

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    def scalar(self) -> float:
        """The single entry of a univariate estimate."""
        if self.p != 1:
            raise ValueError(f"estimate has dimension {self.p}, not 1")
        return float(self.matrix[0, 0])


def matrix_of(sigma: LrvEstimate | np.ndarray) -> np.ndarray:
    """Accept either an LrvEstimate or a bare symmetric matrix."""
    if isinstance(sigma, LrvEstimate):
        return sigma.matrix
    m = np.atleast_2d(np.asarray(sigma, float))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


__all__ = ["LrvEstimate", "LugsailConfig", "NotPositiveDefinite", "adaptive_c"]
