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
    expit,
    gammainc,
    gammainccinv,
    gammaincinv,
    gammaln,
    logit,
    ndtr,
    ndtri,
    zeta,
)

from .errors import ConvergenceError, DomainError, check_name

__all__ = ["KnownDistribution", "Normal", "Gamma", "Uniform", "fit_gamma_mle", "fit_normal", "fit_uniform", "FAMILIES"]


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
        """n independent variates: numpy's own ``gamma``, ``normal`` or ``uniform`` draw on ``rng``."""
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
        return rng.normal(self.mean, self.sd, n)

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
        return rng.gamma(self.shape, self.scale, n)

    @classmethod
    def fit_rows(cls, data):
        """Row-wise MLE by ``fit_gamma_rows``; see ``KnownDistribution``."""
        shape, rate, status = fit_gamma_rows(data)
        ok = (status == FIT_OK) & (rate < math.inf)  # the law rejects an infinite rate, as fit_gamma_mle does
        return cls(shape=shape[ok, None], rate=rate[ok, None]), ok


# A shape table's interpolant must match gammaincinv to this relative error
# at its check points; it spans this many asymptotic SDs of log(shape MLE)
# either side of the fitted shape, in at most this many Chebyshev intervals
# along log a and along each piece of logit u, in at most this many pieces.
TABLE_REL_ERROR = 1e-13
_TABLE_HALF_WIDTH_SDS = 4.0
_TABLE_MAX_INTERVALS = 64
# No table above this fitted shape: the table's log density cancels terms
# of size ~a log a, so a table-scored statistic's relative error grows to
# ~3.5e-15 a.  At n = 16 the band reaches ~4.1 times the fitted shape, so a
# refit scored from a table has shape below ~2060: error at most 5.5e-12.
_TABLE_MAX_SHAPE = 500.0


def _trigamma(k):
    # scipy's polygamma(1, k) is zeta(2, k) times (-1)^2 Gamma(2) = 1: the same bits, without its wrapper
    return zeta(2.0, k)


def quantile_density(law: KnownDistribution, p) -> tuple[np.ndarray, np.ndarray]:
    """(x, density): law's quantiles at p and its density there, each (1 or rows, p.size).

    The density is taken at 0 where a quantile is not finite (pdf rejects
    such x); a row with a non-finite x is the caller's to reject.
    """
    x = np.atleast_2d(np.asarray(law.quantile(p), dtype=float))
    return x, np.asarray(law.pdf(np.where(np.isfinite(x), x, 0.0)), dtype=float)


def _chebyshev_points(intervals: int) -> np.ndarray:
    """cos(j pi / intervals), j = 0..intervals: Chebyshev points of the second kind on [-1, 1]."""
    return np.cos(np.arange(intervals + 1) * (math.pi / intervals))


def _barycentric(t: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row r: the polynomial through (_chebyshev_points(m - 1), values) evaluated at t[r].

    values is (m, points); the result is (len(t), points), written into
    ``out`` when given.  This is the
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
    return np.matmul(coef, values, out=out)


class GammaQuantileTable:  # a plain class: a frozen dataclass adds ~1 ms to every import
    """Gamma quantiles and density at a fixed probability set p, for every shape a in a band, by interpolation.

    ``log_q`` holds log gammaincinv(a, p_j) at Chebyshev points in log a,
    which a refit's row interpolates barycentrically.  ``gamma_quantile_table``
    fills it from a Chebyshev grid in (log a, logit u), checked to
    TABLE_REL_ERROR at the midpoints of both directions' intervals.  The
    density at a quantile follows from the same interpolant, so nothing
    else is tabulated or checked.
    """

    def __init__(self, center: float, half_width: float, p: np.ndarray, log_q: np.ndarray):
        self.center = center  # the band is exp(center -+ half_width)
        self.half_width = half_width
        self.p = p
        self.log_q = log_q  # (intervals + 1, p.size)

    def quantile_density(self, law: Gamma, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``quantile_density(law, p)`` for a law with (rows, 1) parameter columns, from the table.

        With L = log gammaincinv(a, p) interpolated, x = e^L / rate and
        log f(x) = log rate + (a - 1) L - e^L - lgamma(a).  A row whose
        shape is outside the band gets ``quantile_density`` itself.  x and
        the density are written into the first rows of ``out``, a pair of
        (R, p.size) float arrays with R >= rows, allocated here when None.
        """
        shape, rate = law.shape[:, 0], law.rate[:, 0]
        if out is None:
            out = (np.empty((shape.size, self.p.size)), np.empty((shape.size, self.p.size)))
        x, density = out[0][: shape.size], out[1][: shape.size]
        t = (np.log(shape) - self.center) / self.half_width
        inside = np.abs(t) <= 1.0
        log_q = _barycentric(np.where(inside, t, 0.0), self.log_q, out=density)  # a row outside is overwritten below
        np.exp(log_q, out=x)
        log_q *= (shape - 1.0)[:, None]
        log_q += (np.log(rate) - gammaln(shape))[:, None]
        log_q -= x
        with np.errstate(over="ignore"):  # as in pdf: an overflow is an infinite density, which the caller rejects
            np.exp(log_q, out=density)
        x /= law.rate
        if not np.all(inside):
            outside = Gamma(shape=law.shape[~inside], rate=law.rate[~inside])
            x[~inside], density[~inside] = quantile_density(outside, self.p)
        return x, density


def _nest(nodes: np.ndarray, between: np.ndarray) -> np.ndarray:
    """Rows of ``nodes`` and ``between`` alternately, from a node row to a node row: a doubled grid's values."""
    out = np.empty((nodes.shape[0] + between.shape[0], nodes.shape[1]))
    out[0::2], out[1::2] = nodes, between
    return out


def gamma_quantile_table(shape: float, n: int, p) -> GammaQuantileTable | None:
    """A shape table centred on ``shape`` for refits of n-point samples, or None if none passes its check.

    None too above _TABLE_MAX_SHAPE, where the refits are scored exactly.

    The band is log(shape) -+ 4 asymptotic SDs of the log shape MLE at n
    points, var = 1 / (n a (a trigamma(a) - 1)) from the Fisher information.
    log Q(a, u), Q = gammaincinv, is tabulated on a tensor grid: Chebyshev
    points in s = log a over the band, crossed with Chebyshev points in
    t = logit u on pieces of [logit min p, logit max p].  Each direction
    starts from one interval.  The grid with every interval halved (at its
    midpoint in angle) is computed too, and the 2-D interpolant is compared
    with it at each of its points that is not a node.  While the largest
    error exceeds TABLE_REL_ERROR, the s intervals double if the error of
    interpolating along s alone does, up to _TABLE_MAX_INTERVALS; otherwise
    the t intervals of every failing piece double, and a piece that would
    exceed _TABLE_MAX_INTERVALS splits in two, into at most that many
    pieces.  The halved grid becomes the next one's nodes, so a piece of
    A x M intervals costs (2A + 1)(2M + 1) evaluations of Q.  For t > 0,
    Q is gammainccinv(a, expit(-t)): 1 - u itself, not 1 minus a rounded u,
    so the error along t has no rounding floor in the upper tail.  Each
    log-a node row is finally interpolated along t onto p.
    """
    if shape > _TABLE_MAX_SHAPE:
        return None
    p = np.asarray(p, dtype=float)
    center = math.log(shape)
    info = n * shape * (shape * float(_trigamma(shape)) - 1.0)  # 1 / var(log shape MLE)
    half_width = _TABLE_HALF_WIDTH_SDS / math.sqrt(info)
    t = logit(p)

    def log_quantiles(s, ts):
        """log Q at a = exp(center + half_width s) crossed with u = expit(ts)."""
        a, upper = np.exp(center + half_width * s)[:, None], ts > 0.0
        q = np.empty((s.size, ts.size))
        q[:, ~upper] = gammaincinv(a, expit(ts[~upper]))
        q[:, upper] = gammainccinv(a, expit(-ts[upper]))
        with np.errstate(divide="ignore"):
            return np.log(q)

    def new_piece(mid, half):  # t = mid + half x for x in [-1, 1]; one interval, so a halved grid of two
        return mid, half, log_quantiles(_chebyshev_points(2 * intervals), mid + half * _chebyshev_points(2))

    intervals = 1  # along s
    pieces = [new_piece(0.5 * (t.max() + t.min()), 0.5 * (t.max() - t.min()) or 1.0)]  # p of one level: width 2
    while True:
        errors = []  # per piece: of the 2-D interpolant, and of interpolating along s alone
        for *_, values in pieces:
            if not np.all(np.isfinite(values)):
                return None
            along_s = _barycentric(_chebyshev_points(2 * intervals), values[0::2])
            both = _barycentric(_chebyshev_points(values.shape[1] - 1), along_s[:, 0::2].T).T
            # |log q - log q_exact| is the relative error of q to first order
            errors.append((np.max(np.abs(both - values)), np.max(np.abs(along_s - values))))
        if max(error for error, _ in errors) <= TABLE_REL_ERROR:
            break
        if max(error_s for _, error_s in errors) > TABLE_REL_ERROR:
            if 2 * intervals > _TABLE_MAX_INTERVALS:
                return None
            mid_s = _chebyshev_points(4 * intervals)[1::2]
            pieces = [
                (mid, half, _nest(v, log_quantiles(mid_s, mid + half * _chebyshev_points(v.shape[1] - 1))))
                for mid, half, v in pieces
            ]
            intervals *= 2
            continue
        finer = []
        for (mid, half, values), (error, _) in zip(pieces, errors):
            halved = values.shape[1] - 1  # twice the piece's intervals
            if error <= TABLE_REL_ERROR:
                finer.append((mid, half, values))
            elif halved <= _TABLE_MAX_INTERVALS:
                mid_t = log_quantiles(_chebyshev_points(2 * intervals), mid + half * _chebyshev_points(2 * halved)[1::2])
                finer.append((mid, half, _nest(values.T, mid_t.T).T))
            else:
                finer += [new_piece(mid - 0.5 * half, 0.5 * half), new_piece(mid + 0.5 * half, 0.5 * half)]
        if len(finer) > _TABLE_MAX_INTERVALS:
            return None
        pieces = finer
    log_q = np.empty((intervals + 1, p.size))
    which = np.searchsorted([mid - half for mid, half, _ in pieces[1:]], t)
    for k, (mid, half, values) in enumerate(pieces):
        nodes = values[0::2, 0::2].T
        points = np.flatnonzero(which == k)
        # a chunk's barycentric temporaries stay near 1 MB however large p is
        for chunk in np.array_split(points, 1 + points.size * nodes.shape[0] // (1 << 17)):
            log_q[:, chunk] = _barycentric((t[chunk] - mid) / half, nodes).T
    return GammaQuantileTable(center, half_width, p, log_q)


@dataclass(frozen=True)
class Uniform(KnownDistribution):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        with np.errstate(over="ignore"):
            if not (np.all(self.lo < self.hi) and np.all(np.isfinite(self.hi - self.lo))):
                raise DomainError("uniform requires finite lo < hi with a finite range hi - lo")

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
        return rng.uniform(self.lo, self.hi, n)

    @classmethod
    def fit_rows(cls, data):
        """Row-wise MLE (min, max); see ``KnownDistribution``."""
        arr = np.asarray(data, dtype=float)
        lo, hi = np.min(arr, axis=1), np.max(arr, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            ok = (lo < hi) & np.isfinite(hi - lo)  # False on a row with a nan or an infinity too
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
            fprime = 1.0 / k_act - _trigamma(k_act)
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
        Nonpositive, non-finite or too-few observations, or data that are not one-dimensional.
    ConvergenceError
        Near-constant data (the profile equation degenerates) or no
        convergence within _MAX_ITER (200) iterations; ``last`` holds the final
        (shape, rate) iterate.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError("need a one-dimensional sequence of at least two observations")
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
    """``data`` as one row; DomainError unless it is one-dimensional with at least two observations, all finite."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"need a one-dimensional sequence of observations (got {arr.ndim} dimensions)")
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
    """The one-row call of ``Uniform.fit_rows``: DomainError also if the range overflows, ConvergenceError if it is 0."""
    arr = _one_row(data)
    law, ok = Uniform.fit_rows(arr)
    if ok[0]:
        return Uniform(lo=law.lo.item(), hi=law.hi.item())
    if np.max(arr) > np.min(arr):  # the row failed on an overflowing range, not on constant data
        raise DomainError("uniform requires finite lo < hi with a finite range hi - lo")
    raise ConvergenceError("data are constant; uniform MLE is degenerate", last=None)


# Family name -> MLE fitter, used by the parametric-bootstrap test and the CLI.
FAMILIES = {
    "gamma": fit_gamma_mle,
    "normal": fit_normal,
    "uniform": fit_uniform,
}


def family_fitter(family: str):
    """The MLE fitter ``FAMILIES[family]``; ArgumentError if no family has that name."""
    return FAMILIES[check_name(family, FAMILIES, "family")]
