"""Nonparametric inference for a strictly increasing transfer function.

Model: Y_i = g(Z_i) with the law of Z fully known and g unknown but
strictly increasing.  The package estimates g by the quantile plug-in
ghat(x) = xi_n^Y(F_Z(x)) and provides pointwise confidence intervals,
uniform confidence bands, a goodness-of-fit test for g = h (asymptotic and
parametric-bootstrap p-values), and subsampling intervals for short-range
dependent inputs, plus a seeded simulation harness.
"""

# Each module's __all__ is its share of the package surface; the package re-exports them all.
from . import density_band, distributions, empirical, errors, estimator, gof_test, ks_distribution, simulate, subsampling
from .density_band import *
from .distributions import *
from .empirical import *
from .errors import *
from .estimator import *
from .gof_test import *
from .ks_distribution import *
from .simulate import *
from .subsampling import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += density_band.__all__
__all__ += distributions.__all__
__all__ += empirical.__all__
__all__ += errors.__all__
__all__ += estimator.__all__
__all__ += gof_test.__all__
__all__ += ks_distribution.__all__
__all__ += simulate.__all__
__all__ += subsampling.__all__
