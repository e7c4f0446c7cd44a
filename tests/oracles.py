"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own computational paths:
brute-force scans, quadrature, long simulations, and closed-form conditional
probabilities, so the tests check the implementation against something it
does not share code with.
"""

import math

import numpy as np


def naive_inf_quantile(values, p):
    """inf{x : F_n(x) >= p} by linear scan over the sorted values."""
    srt = np.sort(np.asarray(values, dtype=float))
    n = srt.size
    for i in range(1, n + 1):
        if i / n >= p:
            return srt[i - 1]
    return srt[-1]


def naive_window_quantiles(values, b, p):
    """Per-window sort + scan; the O(n b log b) reference for block_quantiles."""
    values = np.asarray(values, dtype=float)
    return np.array(
        [naive_inf_quantile(values[i : i + b], p) for i in range(values.size - b + 1)]
    )


def quadrature_cdf(pdf, lo, x, npoints=200_001):
    """CDF by composite trapezoid integration of the density."""
    grid = np.linspace(lo, x, npoints)
    return float(np.trapezoid(pdf(grid), grid))


def bisect_quantile(cdf, p, lo, hi, iters=200):
    """Invert a monotone CDF by plain bisection."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bridge_sup_tail(cs, npaths=20_000, ngrid=2048, seed=0, chunk=500):
    """P(sup |B| > c) estimated from simulated Brownian bridges.

    Bridges are built as scaled partial sums of Gaussian increments with the
    endpoint subtracted, on an ``ngrid``-point skeleton.  The raw grid
    maximum is biased low by roughly 0.58/sqrt(ngrid) in the threshold, so
    within-segment crossings of +-c are accounted exactly through the
    closed-form conditional crossing probability exp(-2(c-a)(c-b)*ngrid) of
    a bridge segment given its endpoints; double crossings inside one
    segment are negligible at this resolution.
    """
    cs = np.atleast_1d(np.asarray(cs, dtype=float))
    rng = np.random.default_rng(seed)
    t = np.arange(1, ngrid + 1) / ngrid
    totals = np.zeros(cs.size)
    for start in range(0, npaths, chunk):
        m = min(chunk, npaths - start)
        incr = rng.standard_normal((m, ngrid)) / np.sqrt(ngrid)
        s = np.cumsum(incr, axis=1)
        bridge = s - t[None, :] * s[:, -1][:, None]
        left = np.concatenate([np.zeros((m, 1)), bridge[:, :-1]], axis=1)
        right = bridge
        for j, c in enumerate(cs):
            p_up = np.exp(-2.0 * ngrid * np.clip(c - left, 0.0, None) * np.clip(c - right, 0.0, None))
            p_dn = np.exp(-2.0 * ngrid * np.clip(c + left, 0.0, None) * np.clip(c + right, 0.0, None))
            no_cross = np.prod((1.0 - p_up) * (1.0 - p_dn), axis=1)
            p_exceed = 1.0 - no_cross
            p_exceed[(np.abs(bridge) > c).any(axis=1)] = 1.0
            totals[j] += p_exceed.sum()
    return totals / npaths


def long_run_variance(series, batch=2000):
    """Batch-means long-run variance of a stationary 0/1 (or real) series."""
    series = np.asarray(series, dtype=float)
    nb = series.size // batch
    means = series[: nb * batch].reshape(nb, batch).mean(axis=1)
    return float(batch * means.var())


def ma_series(coef, n, rng):
    """Moving-average series with standard normal innovations and burn-in."""
    coef = np.asarray(coef, dtype=float)
    eps = rng.standard_normal(n + coef.size - 1)
    return np.convolve(eps, coef, mode="valid")


def naive_kde(values, h, ys):
    """Dense raised-cosine KDE: (1/(n h)) sum over |u| <= pi of (1 + cos u)/(2 pi), u = (y - Y_i)/h."""
    values = np.asarray(values, dtype=float)
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    u = (ys[:, None] - values[None, :]) / h
    terms = np.where(np.abs(u) <= np.pi, 1.0 + np.cos(u), 0.0)
    return terms.sum(axis=1) / (2.0 * np.pi * values.size * h)


def _naive_trimmed_terms(values, dist, h, grid_points):
    """(x, f_Z(x) / h'(x) * |ghat - h(x)|) at each evaluation point, grid first, then the jumps in order.

    The points are x = xi_Z(u) for u on a ``grid_points`` grid of
    [delta, 1 - delta], delta = min(25 loglog(n) / n, 0.2), with ghat there
    from naive_inf_quantile, plus every jump u = i/n in that range, where
    ghat takes both the i-th and the (i+1)-th order statistic (the larger
    term is kept).
    """
    srt = np.sort(np.asarray(values, dtype=float))
    n = srt.size
    delta = min(25.0 * math.log(math.log(n)) / n, 0.2)

    def term(u, ghat):
        x = float(dist.quantile(u))
        return float(dist.pdf(x)) / float(h.deriv(x)) * abs(ghat - float(h.fn(x)))

    terms = [(float(dist.quantile(u)), term(u, naive_inf_quantile(srt, u))) for u in np.linspace(delta, 1.0 - delta, grid_points)]
    for i in range(1, n):
        if delta <= i / n <= 1.0 - delta:
            terms.append((float(dist.quantile(i / n)), max(term(i / n, srt[i - 1]), term(i / n, srt[i]))))
    return terms


def naive_trimmed_sup(values, dist, h, grid_points=512):
    """sqrt(n) max of f_Z(x) / h'(x) * |ghat - h(x)|, one evaluation point at a time (see _naive_trimmed_terms)."""
    n = np.asarray(values).size
    return math.sqrt(n) * max(t for _, t in _naive_trimmed_terms(values, dist, h, grid_points))


def naive_trimmed_argmax(values, dist, h, grid_points=512):
    """The x of the first evaluation point where naive_trimmed_sup's maximum is attained."""
    terms = _naive_trimmed_terms(values, dist, h, grid_points)
    best = max(t for _, t in terms)
    return next(x for x, t in terms if t == best)
