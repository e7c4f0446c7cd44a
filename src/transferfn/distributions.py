"""Known input distributions: normal, gamma, and uniform.

The observed model is Y = g(Z) with the law of Z fully specified, so every
estimator in this package consumes one of these objects for F_Z, f_Z and
the quantile function.  Instances are immutable and all evaluators accept
scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import (
    digamma,
    gammainc,
    gammaincinv,
    gammaln,
    ndtr,
    ndtri,
    polygamma,
)

from .errors import ConvergenceError, DomainError

__all__ = [
    "KnownDistribution",
    "Normal",
    "Gamma",
    "Uniform",
    "fit_gamma_mle",
    "fit_gamma_rows",
    "fit_normal",
    "fit_uniform",
    "FAMILIES",
]


def _as_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _maybe_scalar(arr, like):
    if np.ndim(like) == 0:
        return float(arr)
    return arr


class KnownDistribution:
    """Fully specified continuous law with open support (a, b).

    F is strictly increasing on (a, b) with F(a+) = 0 and F(b-) = 1; the
    density is positive on the interior for every shipped family.

    Parameters may also be (rows, 1) columns, one law per row; cdf, pdf and
    quantile then broadcast a (points,) argument to (rows, points).  Each
    family's classmethod ``fit_rows(data)`` fits every row of a (rows, n)
    array at once and returns such a law for the fitted rows and the fitted
    mask; a row fails exactly where the family's scalar fitter would raise.
    """

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def cdf(self, x):
        """F(x); 0 at or below the lower endpoint, 1 at or above the upper."""
        raise NotImplementedError

    def pdf(self, x):
        """f(x); zero outside the open support."""
        raise NotImplementedError

    def quantile(self, p):
        """inf{x : F(x) >= p} for p in (0, 1)."""
        raise NotImplementedError

    def rvs(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n independent variates."""
        raise NotImplementedError

    @staticmethod
    def _require_prob(p):
        arr = np.asarray(p, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError("p must lie in the open interval (0, 1)")
        return arr


@dataclass(frozen=True)
class Normal(KnownDistribution):
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not (np.all(self.sd > 0.0) and np.all(np.isfinite(self.sd)) and np.all(np.isfinite(self.mean))):
            raise DomainError("normal requires finite mean and sd > 0")

    @property
    def support(self):
        return (-math.inf, math.inf)

    def cdf(self, x):
        arr = _as_array(x, "x")
        return _maybe_scalar(ndtr((arr - self.mean) / self.sd), x)

    def pdf(self, x):
        arr = _as_array(x, "x")
        z = (arr - self.mean) / self.sd
        out = np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))
        return _maybe_scalar(out, x)

    def quantile(self, p):
        arr = self._require_prob(p)
        return _maybe_scalar(self.mean + self.sd * ndtri(arr), p)

    def rvs(self, n, rng):
        return rng.normal(self.mean, self.sd, size=n)

    @classmethod
    def fit_rows(cls, data):
        """Row-wise MLE (mean, population sd); see ``KnownDistribution``."""
        arr = np.asarray(data, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mean, sd = np.mean(arr, axis=1), np.std(arr, axis=1)
        # sd is inf where the mean overflows and nan where it is nan
        ok = np.all(np.isfinite(arr), axis=1) & (sd > 0.0) & (sd < math.inf)
        return cls(mean=mean[ok, None], sd=sd[ok, None]), ok


@dataclass(frozen=True)
class Gamma(KnownDistribution):
    """Gamma with shape/rate convention: density rate^shape x^(shape-1) e^(-rate x) / Gamma(shape)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (
            np.all(self.shape > 0.0)
            and np.all(self.rate > 0.0)
            and np.all(np.isfinite(self.shape))
            and np.all(np.isfinite(self.rate))
        ):
            raise DomainError("gamma requires finite shape > 0 and rate > 0")

    @classmethod
    def from_scale(cls, shape: float, scale: float) -> "Gamma":
        if not scale > 0.0:
            raise DomainError("gamma scale must be > 0")
        return cls(shape=shape, rate=1.0 / scale)

    @property
    def scale(self) -> float:
        return 1.0 / self.rate

    @property
    def support(self):
        return (0.0, math.inf)

    def cdf(self, x):
        arr = _as_array(x, "x")
        out = np.where(arr <= 0.0, 0.0, gammainc(self.shape, self.rate * np.maximum(arr, 0.0)))
        return _maybe_scalar(out, x)

    def _log_pdf(self, arr):
        return (
            self.shape * np.log(self.rate)
            + (self.shape - 1.0) * np.log(arr)
            - self.rate * arr
            - gammaln(self.shape)
        )

    def pdf(self, x):
        arr = _as_array(x, "x")
        pos = arr > 0.0
        # the log density is taken at 1 where x <= 0, then discarded
        with np.errstate(over="ignore"):
            out = np.where(pos, np.exp(self._log_pdf(np.where(pos, arr, 1.0))), 0.0)
        return _maybe_scalar(out, x)

    def quantile(self, p):
        arr = self._require_prob(p)
        return _maybe_scalar(gammaincinv(self.shape, arr) / self.rate, p)

    def rvs(self, n, rng):
        return rng.gamma(self.shape, 1.0 / self.rate, size=n)

    @classmethod
    def fit_rows(cls, data):
        """Row-wise MLE by ``fit_gamma_rows``; see ``KnownDistribution``."""
        shape, rate, status = fit_gamma_rows(data)
        ok = (status == FIT_OK) & (rate < math.inf)  # the law rejects an infinite rate, as fit_gamma_mle does
        return cls(shape=shape[ok, None], rate=rate[ok, None]), ok


# A shape table's interpolant must match gammaincinv to this relative error
# at its check points; it spans this many asymptotic SDs of log(shape MLE)
# either side of the fitted shape, in at most this many Chebyshev intervals.
TABLE_REL_ERROR = 1e-13
_TABLE_HALF_WIDTH_SDS = 8.0
_TABLE_FIRST_INTERVALS = 8
_TABLE_MAX_INTERVALS = 64


def _chebyshev_points(intervals: int) -> np.ndarray:
    """cos(j pi / intervals), j = 0..intervals: Chebyshev points of the second kind on [-1, 1]."""
    return np.cos(np.arange(intervals + 1) * (math.pi / intervals))


def _barycentric(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row r: the polynomial through (_chebyshev_points(m - 1), values) evaluated at t[r].

    values is (m, points); the result is (len(t), points).  This is the
    second (true) barycentric formula of Berrut & Trefethen (2004), whose
    weights at these points are (-1)^j, halved at both ends.
    """
    intervals = values.shape[0] - 1
    weights = (-1.0) ** np.arange(intervals + 1)
    weights[[0, -1]] *= 0.5
    diff = t[:, None] - _chebyshev_points(intervals)
    on_node = diff == 0.0
    hit = np.any(on_node, axis=1)
    diff[on_node] = 1.0
    coef = weights / diff
    coef[hit] = on_node[hit]  # the formula is 0/0 at a node; take the node's value
    coef /= np.sum(coef, axis=1, keepdims=True)
    return coef @ values


class GammaQuantileTable:  # a plain class: a frozen dataclass adds ~1 ms to every import
    """gammaincinv(a, p) for a fixed probability set p and every shape a in a band, by interpolation.

    log gammaincinv(a, p_j) is tabulated at Chebyshev points in log a and
    interpolated barycentrically; ``gamma_quantile_table`` builds one and
    checks it to TABLE_REL_ERROR.  Shapes outside the band get gammaincinv.
    """

    def __init__(self, center: float, half_width: float, p: np.ndarray, log_q: np.ndarray):
        self.center = center  # the band is exp(center -+ half_width)
        self.half_width = half_width
        self.p = p
        self.log_q = log_q  # (intervals + 1, p.size)

    def quantile(self, law: Gamma) -> np.ndarray:
        """(rows, p.size) quantiles of a law with (rows, 1) parameter columns, row r those of row r's law."""
        shape, rate = law.shape[:, 0], law.rate
        t = (np.log(shape) - self.center) / self.half_width
        inside = np.abs(t) <= 1.0
        out = np.empty((shape.size, self.p.size))
        out[inside] = np.exp(_barycentric(t[inside], self.log_q))
        out[~inside] = gammaincinv(shape[~inside, None], self.p)
        out /= rate
        return out


def gamma_quantile_table(shape: float, n: int, p) -> GammaQuantileTable | None:
    """A shape table centred on ``shape`` for refits of n-point samples, or None if none passes its check.

    The band is log(shape) -+ 8 asymptotic SDs of the log shape MLE at n
    points, var = 1 / (n a (a trigamma(a) - 1)) from the Fisher information.
    Starting from 8 Chebyshev intervals, the table is compared with
    gammaincinv at every interval's midpoint (in angle); while the largest
    relative error exceeds TABLE_REL_ERROR the intervals double, the
    midpoints becoming the new nodes, up to 64.
    """
    p = np.asarray(p, dtype=float)
    center = math.log(shape)
    info = n * shape * (shape * float(polygamma(1, shape)) - 1.0)  # 1 / var(log shape MLE)
    if not 0.0 < info < math.inf:  # a trigamma(a) rounds to 1 for a beyond ~1e15
        return None
    half_width = _TABLE_HALF_WIDTH_SDS / math.sqrt(info)

    def log_quantiles(t):
        with np.errstate(divide="ignore"):
            return np.log(gammaincinv(np.exp(center + half_width * t)[:, None], p))

    intervals = _TABLE_FIRST_INTERVALS
    log_q = log_quantiles(_chebyshev_points(intervals))
    while np.all(np.isfinite(log_q)):
        mid_t = _chebyshev_points(2 * intervals)[1::2]
        mid = log_quantiles(mid_t)
        # |log q - log q_exact| is the relative error of q to first order
        if np.max(np.abs(_barycentric(mid_t, log_q) - mid)) <= TABLE_REL_ERROR:
            return GammaQuantileTable(center, half_width, p, log_q)
        if 2 * intervals > _TABLE_MAX_INTERVALS:
            return None
        finer = np.empty((2 * intervals + 1, p.size))
        finer[0::2], finer[1::2] = log_q, mid
        log_q, intervals = finer, 2 * intervals
    return None


@dataclass(frozen=True)
class Uniform(KnownDistribution):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)) and np.all(self.lo < self.hi)):
            raise DomainError("uniform requires finite lo < hi")

    @property
    def support(self):
        return (self.lo, self.hi)

    def cdf(self, x):
        arr = _as_array(x, "x")
        out = np.clip((arr - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return _maybe_scalar(out, x)

    def pdf(self, x):
        arr = _as_array(x, "x")
        inside = (arr > self.lo) & (arr < self.hi)
        out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        return _maybe_scalar(out, x)

    def quantile(self, p):
        arr = self._require_prob(p)
        return _maybe_scalar(self.lo + arr * (self.hi - self.lo), p)

    def rvs(self, n, rng):
        return rng.uniform(self.lo, self.hi, size=n)

    @classmethod
    def fit_rows(cls, data):
        """Row-wise MLE (min, max); see ``KnownDistribution``."""
        arr = np.asarray(data, dtype=float)
        lo, hi = np.min(arr, axis=1), np.max(arr, axis=1)
        ok = np.all(np.isfinite(arr), axis=1) & (lo < hi)
        return cls(lo=lo[ok, None], hi=hi[ok, None]), ok


# fit_gamma_rows status of one row
FIT_OK, FIT_BAD_DATA, FIT_DEGENERATE, FIT_NO_CONVERGENCE = range(4)
# A gamma fit has converged once the per-observation log-likelihood gradient
# norm is below _GRAD_TOL, and has failed if it has not within _MAX_ITER
# Newton steps.
_GRAD_TOL = 1e-8
_MAX_ITER = 200


def fit_gamma_rows(data):
    """Gamma MLE of every row of a (rows, n) array, by one Newton iteration over all rows.

    For fixed shape k the rate MLE is k / mean, which reduces the problem to
    log(k) - digamma(k) = log(mean) - mean(log data).  Initialisation is the
    method of moments.  A row leaves the iteration at the first iterate whose
    per-observation log-likelihood gradient has norm below _GRAD_TOL, so
    its result does not depend on the other rows.

    Returns (shape, rate, status), each of length rows.  status is FIT_OK,
    FIT_BAD_DATA (a non-finite or nonpositive value), FIT_DEGENERATE
    (near-constant data: the profile equation degenerates) or
    FIT_NO_CONVERGENCE (shape and rate then hold the last iterate).
    """
    arr = np.asarray(data, dtype=float)
    status = np.full(arr.shape[0], FIT_BAD_DATA)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        status[np.all((arr > 0.0) & (arr < math.inf), axis=1)] = FIT_NO_CONVERGENCE
        mean = np.mean(arr, axis=1)
        mean_log = np.mean(np.log(arr), axis=1)
        s = np.log(mean) - mean_log  # >= 0 by Jensen, 0 iff constant
        status[(status == FIT_NO_CONVERGENCE) & ~(s > 1e-12)] = FIT_DEGENERATE

        var = np.var(arr, axis=1)
        k = np.where(var > 0.0, mean * mean / var, 1.0 / (2.0 * s))
        k = np.minimum(np.maximum(k, 1e-8), 1e8)

        active = np.flatnonzero(status == FIT_NO_CONVERGENCE)
        for _ in range(_MAX_ITER):
            if active.size == 0:
                break
            k_act = k[active]
            f = np.log(k_act) - digamma(k_act) - s[active]
            fprime = 1.0 / k_act - polygamma(1, k_act)
            k_new = k_act - f / fprime
            k_new = np.where(k_new <= 0.0, k_act / 2.0, k_new)
            k_act = np.minimum(np.maximum(k_new, 1e-10), 1e10)
            k[active] = k_act
            rate = k_act / mean[active]
            grad_shape = np.log(rate) + mean_log[active] - digamma(k_act)
            grad_rate = k_act / rate - mean[active]
            done = np.hypot(grad_shape, grad_rate) < _GRAD_TOL
            status[active[done]] = FIT_OK
            active = active[~done]
        return k, k / mean, status


def fit_gamma_mle(data) -> Gamma:
    """Maximum-likelihood gamma fit: the one-row call of ``fit_gamma_rows``.

    At the returned parameters the per-observation log-likelihood gradient
    has norm below _GRAD_TOL (1e-8).

    Raises
    ------
    DomainError
        Nonpositive, non-finite or too-few observations.
    ConvergenceError
        Near-constant data (the profile equation degenerates) or no
        convergence within _MAX_ITER (200) iterations; ``last`` holds the final
        (shape, rate) iterate.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError("need at least two observations")
    shape, rate, status = fit_gamma_rows(arr[None, :])
    k, rate, status = float(shape[0]), float(rate[0]), status[0]
    if status == FIT_BAD_DATA:
        raise DomainError("gamma fitting requires finite, strictly positive data")
    if status == FIT_DEGENERATE:
        raise ConvergenceError("data are (numerically) constant; gamma MLE is degenerate", last=None)
    if status == FIT_NO_CONVERGENCE:
        raise ConvergenceError(f"gamma MLE did not converge in {_MAX_ITER} iterations", last=(k, rate))
    return Gamma(shape=k, rate=rate)


def _one_row(data) -> np.ndarray:
    """All of ``data`` as one row; DomainError for fewer than two or non-finite observations."""
    arr = np.asarray(data, dtype=float)
    if arr.size < 2 or not np.all(np.isfinite(arr)):
        raise DomainError("need at least two finite observations")
    return arr.reshape(1, -1)


def fit_normal(data) -> Normal:
    """The one-row call of ``Normal.fit_rows``: DomainError also if a moment overflows, ConvergenceError if sd is 0."""
    arr = _one_row(data)
    law, ok = Normal.fit_rows(arr)
    if ok[0]:
        return Normal(mean=law.mean.item(), sd=law.sd.item())
    with np.errstate(over="ignore", invalid="ignore"):
        if np.std(arr) == math.inf:  # the row failed on an overflow, not on a zero sd
            raise DomainError("normal requires finite mean and sd > 0")
    raise ConvergenceError("data are constant; normal MLE is degenerate", last=None)


def fit_uniform(data) -> Uniform:
    """The one-row call of ``Uniform.fit_rows``: ConvergenceError also for constant data."""
    law, ok = Uniform.fit_rows(_one_row(data))
    if not ok[0]:
        raise ConvergenceError("data are constant; uniform MLE is degenerate", last=None)
    return Uniform(lo=law.lo.item(), hi=law.hi.item())


# Family name -> MLE fitter, used by the parametric-bootstrap test and the CLI.
FAMILIES = {
    "gamma": fit_gamma_mle,
    "normal": fit_normal,
    "uniform": fit_uniform,
}
