"""Long-run variance estimation and output analysis for MCMC simulations.

Estimate the asymptotic covariance of correlated chain output with batch
means, spectral variance, or initial-sequence estimators (with optional
lugsail bias correction), then build on it: Monte Carlo standard errors,
multivariate effective sample size, sequential stopping decisions, and
simultaneous confidence regions for means and quantiles.
"""

# each layer's __all__ is its public surface; experiments and cli stay unexported
from . import batch, chain, diagnostics, initseq, lrv, quantiles, spectral
from .chain import *
from .lrv import *
from .batch import *
from .spectral import *
from .initseq import *
from .diagnostics import *
from .quantiles import *

__version__ = "0.1.0"

__all__ = []
__all__ += chain.__all__
__all__ += lrv.__all__
__all__ += batch.__all__
__all__ += spectral.__all__
__all__ += initseq.__all__
__all__ += diagnostics.__all__
__all__ += quantiles.__all__
