import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import digamma, polygamma

from transferfn import (
    ConvergenceError,
    DomainError,
    Gamma,
    Normal,
    Uniform,
    fit_gamma_mle,
    fit_normal,
    fit_uniform,
)
from transferfn import distributions
from transferfn.distributions import (
    FAMILIES,
    FIT_BAD_DATA,
    FIT_DEGENERATE,
    FIT_NO_CONVERGENCE,
    FIT_OK,
    FIT_OVERFLOW,
    TABLE_REL_ERROR,
    _barycentric,
    _chebyshev_points,
    fit_gamma_rows,
    gamma_quantile_table,
)
from transferfn.gof_test import _evaluation_set

from oracles import bisect_quantile, quadrature_cdf

SHIPPED = [Normal(), Normal(1.5, 2.0), Gamma(10.97, 0.0270), Gamma(2.0, 1.0), Uniform(0.0, 1.0), Uniform(-3.0, 4.0)]


def truncated_range(dist, eps=1e-6):
    return dist.quantile(eps), dist.quantile(1.0 - eps)


def test_cdf_spot_values():
    assert Normal().cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert Uniform(0.0, 1.0).cdf(0.25) == pytest.approx(0.25, abs=1e-12)


def test_gamma_cdf_against_quadrature():
    g = Gamma(10.97, 0.0270)
    got = g.cdf(406.3)
    want = quadrature_cdf(g.pdf, 1e-9, 406.3)
    assert 0.4 < got < 0.6
    assert got == pytest.approx(want, abs=1e-6)


def test_quantile_spot_values():
    oracle = bisect_quantile(Normal().cdf, 0.975, -15.0, 15.0)
    assert Normal().quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert Normal().quantile(0.975) == pytest.approx(oracle, abs=1e-9)
    assert Uniform(0.0, 1.0).quantile(0.3) == pytest.approx(0.3, abs=1e-12)
    assert Normal().quantile(0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dist", SHIPPED)
def test_quantile_cdf_round_trip(dist):
    for p in (0.01, 0.1, 0.5, 0.9, 0.99):
        assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-10)


@pytest.mark.parametrize("dist", SHIPPED)
def test_cdf_quantile_identity_on_interior(dist):
    # xi(F(x)) = x where the float representation of F still resolves x
    ps = np.linspace(1e-5, 1.0 - 1e-5, 2001)
    xs = np.asarray(dist.quantile(ps), dtype=float)
    back = np.asarray(dist.quantile(np.asarray(dist.cdf(xs), dtype=float)), dtype=float)
    assert np.max(np.abs(back - xs) / np.maximum(np.abs(xs), 1.0)) < 1e-10


@pytest.mark.parametrize("dist", SHIPPED)
def test_cdf_monotone_and_quantile_monotone(dist):
    lo, hi = truncated_range(dist)
    xs = np.linspace(lo, hi, 10_000)
    cdf = dist.cdf(xs)
    assert np.all(np.diff(cdf) >= 0.0)
    ps = np.linspace(0.001, 0.999, 999)
    qs = dist.quantile(ps)
    assert np.all(np.diff(qs) >= 0.0)


@pytest.mark.parametrize("dist", SHIPPED)
def test_pdf_matches_cdf_derivative(dist):
    lo, hi = truncated_range(dist, 1e-3)
    # stay away from the uniform's kink at the endpoints
    xs = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 201)
    step = 1e-6 * max(abs(lo), abs(hi), 1.0)
    fd = (dist.cdf(xs + step) - dist.cdf(xs - step)) / (2.0 * step)
    assert np.max(np.abs(fd - dist.pdf(xs))) < 1e-6


def test_pdf_outside_support_and_endpoint_errors():
    g = Gamma(2.0, 1.0)
    assert g.pdf(-1.0) == 0.0
    assert g.cdf(-1.0) == 0.0
    u = Uniform(0.0, 1.0)
    assert u.pdf(-0.5) == 0.0


def test_evaluators_overflow_to_their_limits_without_warning():
    # pyproject turns a RuntimeWarning into an error, so each case also checks that none escapes
    cases = [
        (Normal(0.0, 1e308).quantile, 0.99, math.inf),
        (Gamma(2.0, 1e-308).quantile, 0.99, math.inf),
        (Normal(1e308, 1e308).cdf, -1e308, 0.0),
        (Normal(0.0, 1e-308).pdf, 1.0, 0.0),
        (Gamma(2.0, 1e300).cdf, 1e10, 1.0),
        (Uniform(-1e308, 0.0).cdf, 1e308, 1.0),
        (Uniform(0.0, 1e-320).pdf, 5e-321, math.inf),
    ]
    for evaluate, x, want in cases:
        assert evaluate(x) == want, (evaluate, x)


def test_domain_errors():
    with pytest.raises(DomainError):
        Normal().cdf(float("nan"))
    with pytest.raises(DomainError):
        Normal().cdf(float("inf"))
    for p in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            Normal().quantile(p)
    for shape, rate in ((-1.0, 1.0), (math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0), (2.0, math.nan)):
        with pytest.raises(DomainError):
            Gamma(shape, rate)
    # a uniform law needs lo < hi and a range hi - lo that does not overflow
    for lo, hi in ((2.0, 2.0), (-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="uniform requires"):
            Uniform(lo, hi)


@pytest.mark.parametrize("dist", [Normal(), Gamma(10.97, 0.0270), Uniform(0.0, 1.0)])
def test_pdf_integrates_to_one(dist):
    lo, hi = truncated_range(dist, 1e-10)
    xs = np.linspace(lo, hi, 400_001)
    assert np.trapezoid(dist.pdf(xs), xs) == pytest.approx(1.0, abs=1e-8)


def test_gamma_scale_convention():
    g = Gamma.from_scale(10.97, 37.10)
    assert g.rate == pytest.approx(1.0 / 37.10)
    assert g.scale == pytest.approx(37.10)


def test_fit_gamma_mle_recovers_truth():
    rng = np.random.default_rng(2024)
    draws = rng.gamma(10.97, 1.0 / 0.0270, size=10_000)
    fit = fit_gamma_mle(draws)
    assert abs(fit.shape - 10.97) < 0.5
    assert abs(fit.rate - 0.0270) < 0.002
    # gradient of the per-observation log likelihood at the optimum
    g_shape = math.log(fit.rate) + np.mean(np.log(draws)) - digamma(fit.shape)
    g_rate = fit.shape / fit.rate - np.mean(draws)
    assert math.hypot(g_shape, g_rate) < 1e-8


def test_fit_gamma_mle_shape_two():
    rng = np.random.default_rng(7)
    fit = fit_gamma_mle(rng.gamma(2.0, 1.0, size=5000))
    assert 1.85 < fit.shape < 2.15


def test_fit_gamma_mle_degenerate_and_bad_input():
    with pytest.raises(ConvergenceError):
        fit_gamma_mle(np.full(100, 3.7))
    with pytest.raises(DomainError):
        fit_gamma_mle([1.0, -2.0, 3.0])
    with pytest.raises(DomainError):
        fit_gamma_mle([1.0])


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64), np.asarray(b, dtype=float).view(np.int64))


def test_fit_gamma_rows_match_one_row_fits(monkeypatch):
    rng = np.random.default_rng(11)
    shapes = [0.3, 1.0, 2.0, 10.97, 250.0, 3.0, 3.0, 3.0, 3.0]
    data = np.stack([rng.gamma(k, 2.0, size=301) for k in shapes])
    data[5] = 3.7  # constant
    data[6, 17] = -1.0
    data[7, 40] = np.nan
    data[8, 3] = np.inf
    shape, rate, status = fit_gamma_rows(data)
    assert status.tolist() == [FIT_OK] * 5 + [FIT_DEGENERATE] + [FIT_BAD_DATA] * 3
    for r in range(5):
        fit = fit_gamma_mle(data[r])
        assert _same_bits(fit.shape, shape[r]) and _same_bits(fit.rate, rate[r]), r
    with pytest.raises(ConvergenceError):
        fit_gamma_mle(data[5])
    for r in (6, 7, 8):
        with pytest.raises(DomainError):
            fit_gamma_mle(data[r])
    # a row leaves the iteration on its own: cutting the budget leaves the
    # slower rows unconverged, each with the iterate its one-row fit stops at
    monkeypatch.setattr(distributions, "_MAX_ITER", 2)
    shape2, rate2, status2 = fit_gamma_rows(data[:5])
    assert FIT_NO_CONVERGENCE in status2.tolist()
    for r in range(5):
        if status2[r] == FIT_OK:
            fit = fit_gamma_mle(data[r])
            assert _same_bits(fit.shape, shape2[r]) and _same_bits(fit.rate, rate2[r])
        else:
            with pytest.raises(ConvergenceError) as info:
                fit_gamma_mle(data[r])
            assert _same_bits(info.value.last, (shape2[r], rate2[r]))
            assert str(info.value).startswith("gamma MLE did not converge in 2 iterations")


@pytest.mark.parametrize("family, law", [("normal", Normal), ("uniform", Uniform), ("gamma", Gamma)])
def test_fit_rows_fail_exactly_where_the_scalar_fitter_raises(family, law):
    rng = np.random.default_rng(12)
    data = np.stack([rng.gamma(3.0, 2.0, 40), rng.uniform(-1.0, 3.0, 40), rng.normal(0.0, 1e-3, 40)] * 4)
    data[3, 5] = np.nan
    data[4, 7] = np.inf
    data[5] = 3.7  # constant
    data[6, :2] = 1e200, -1e200  # the sd overflows
    data[7] = 1e308  # the mean overflows and the row is constant
    data[8, :] = 0.0
    data[8, 1] = 5e-324  # not constant, but the sd underflows to 0
    data[9, :2] = 1e308, -1e308  # the range (and the sd) overflows
    data[10] = data[0] * 1e-310  # subnormal: the gamma rate k / mean overflows, the sd underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning escapes the block fit
        laws, status = law.fit_rows(data)
    # a gamma row whose rate overflows cannot be built: the infinite rate
    # makes the gradient infinite, so row 10 reports FIT_NO_CONVERGENCE;
    # row 7's mean overflows, which gamma reports before its iteration
    no_convergence = {FIT_NO_CONVERGENCE} if law is Gamma else set()
    assert set(status.tolist()) == {FIT_OK, FIT_BAD_DATA, FIT_DEGENERATE, FIT_OVERFLOW} | no_convergence
    assert status[7] == (FIT_DEGENERATE if law is Uniform else FIT_OVERFLOW)
    raises = {
        FIT_BAD_DATA: DomainError,
        FIT_OVERFLOW: DomainError,
        FIT_DEGENERATE: ConvergenceError,
        FIT_NO_CONVERGENCE: ConvergenceError,
    }
    names = [f.name for f in dataclasses.fields(law)]
    fitted = 0
    for r, row in enumerate(data):
        if status[r] != FIT_OK:
            with pytest.raises(raises[status[r]]) as info:
                FAMILIES[family](row)
            assert type(info.value) is raises[status[r]], r
            continue
        want = FAMILIES[family](row)
        got = [getattr(laws, name)[fitted, 0] for name in names]
        assert _same_bits(got, [getattr(want, name) for name in names]), r
        fitted += 1
    assert 0 < fitted == getattr(laws, names[0]).shape[0] < len(data)


def test_fit_normal_and_uniform_errors():
    few = two_d = (DomainError, "need a one-dimensional sequence of at least two observations")
    bad = {name: (DomainError, f"{name} fitting requires finite data inside the law's support") for name in ("normal", "uniform")}
    constant = {name: (ConvergenceError, f"data are constant; {name} MLE is degenerate") for name in ("normal", "uniform")}
    sd_overflows = (DomainError, "normal requires finite mean and sd > 0")
    cases = [  # data, then fit_normal's and fit_uniform's error (None: a fit)
        ([1.0], few, few),
        ([], few, few),
        ([1.0, np.nan, 2.0], bad["normal"], bad["uniform"]),
        ([1e200, np.inf], bad["normal"], bad["uniform"]),
        ([[1.0, 2.0], [3.0, 4.5]], two_d, two_d),  # fit_gamma_mle rejects a 2-d array too
        ([3.7] * 5, constant["normal"], constant["uniform"]),
        ([1e200, -1e200, 3.0], sd_overflows, None),  # the sd overflows
        ([1e308] * 3, sd_overflows, constant["uniform"]),  # the mean overflows
        ([0.0, 5e-324], constant["normal"], None),  # the sd underflows
        # the range overflows
        ([1e308, 0.0, -1e308], sd_overflows, (DomainError, "uniform requires finite lo < hi with a finite range hi - lo")),
    ]
    for data, *errors in cases:
        for fitter, error in zip((fit_normal, fit_uniform), errors):
            if error is None:
                fitter(data)
                continue
            with pytest.raises(error[0]) as info:
                fitter(data)
            assert type(info.value) is error[0] and str(info.value) == error[1], (fitter.__name__, data)


# The table's density at its own quantiles, against pdf at the exact ones:
# the interpolant's error times |a - 1 - rate x|, plus the rounding of log f,
# was measured at up to 2.3 TABLE_REL_ERROR over these cases and n = 16 to
# 20000, shapes to 60.
_TABLE_DENSITY_REL = 10 * TABLE_REL_ERROR


@pytest.mark.floor
@pytest.mark.parametrize(
    "n, shape",
    [(50, 0.3), (50, 0.45), (50, 2.7), (300, 2.3), (518, 10.97), (200, 50.0), (100_000, 2.0)],
)
def test_gamma_quantile_table_meets_its_bound(n, shape):
    # the bootstrap's table: the evaluation set of an n-point statistic, a
    # shape band for refits of n points around the fitted shape
    p = _evaluation_set(n).u()
    table = gamma_quantile_table(shape, n, p)
    assert table is not None
    if (n, shape) == (50, 0.3):
        assert table.log_q.shape[0] > 17  # 16 Chebyshev intervals do not pass here
    nodes = _chebyshev_points(table.log_q.shape[0] - 1)
    assert np.array_equal(_barycentric(nodes, table.log_q), table.log_q)  # 0/0 at a node: its value
    lo, hi = table.center - table.half_width, table.center + table.half_width
    rng = np.random.default_rng(12)
    inside = np.exp(np.concatenate([[lo, hi, math.log(shape)], rng.uniform(lo, hi, 8 if n > 10_000 else 200)]))
    outside = np.exp([lo - 0.01, hi + 0.01])
    shapes = np.concatenate([inside, outside])
    law = Gamma(shape=shapes[:, None], rate=rng.uniform(0.01, 10.0, shapes.size)[:, None])
    exact = law.quantile(p)
    exact_density = law.pdf(exact)
    k = inside.size
    # a block with rows outside the band, and one of the rows inside alone
    for rows in (slice(None), slice(k)):
        x, density = table.quantile_density(Gamma(shape=law.shape[rows], rate=law.rate[rows]))
        assert np.max(np.abs(x[:k] / exact[:k] - 1.0)) <= TABLE_REL_ERROR
        assert np.max(np.abs(density[:k] / exact_density[:k] - 1.0)) <= _TABLE_DENSITY_REL
    # gammaincinv and pdf themselves outside the band
    x, density = table.quantile_density(law)
    assert _same_bits(x[k:], exact[k:]) and _same_bits(density[k:], exact_density[k:])


@pytest.mark.floor
@pytest.mark.parametrize(
    "n, shape, log_a_nodes",
    [(50, 0.3, 33), (50, 0.45, 33), (50, 2.7, 17), (300, 2.3, 17), (518, 10.97, 9), (200, 50.0, 17), (100_000, 2.0, 9)],
)
def test_gamma_quantile_table_keeps_its_log_a_nodes(n, shape, log_a_nodes):
    # tabulating along logit u too leaves the log-a grid as it was with
    # gammaincinv at every point of p: more nodes would make every refit
    # row's interpolation dearer
    assert gamma_quantile_table(shape, n, _evaluation_set(n).u()).log_q.shape[0] == log_a_nodes


@pytest.mark.floor
@pytest.mark.parametrize("n, shape, most", [(518, 10.97, 1200), (100_000, 2.0, 3000)])
def test_gamma_quantile_table_evaluations(monkeypatch, n, shape, most):
    # the table is built from a tensor grid in (log a, logit u), not from
    # every point of p: ~1,100 inverse-gamma evaluations at n = 518 against
    # 15,963 with gammaincinv at all 939 points for each of 17 shapes
    evaluations = _counted_evaluations(monkeypatch)
    assert gamma_quantile_table(shape, n, _evaluation_set(n).u()) is not None
    assert 0 < sum(evaluations) <= most


def _counted_evaluations(monkeypatch):
    """The sizes of the inverse-gamma calls made after this, as the table builder makes them."""
    evaluations = []

    def counted(inverse):
        def call(a, u):
            evaluations.append(np.broadcast(a, u).size)
            return inverse(a, u)

        return call

    for name in ("gammaincinv", "gammainccinv"):
        monkeypatch.setattr(distributions, name, counted(getattr(distributions, name)))
    return evaluations


@pytest.mark.floor
@pytest.mark.parametrize("n, shape", [(16, 0.005), (300, 0.002)])
def test_gamma_quantile_table_declines_quantiles_that_underflow(monkeypatch, n, shape):
    # the band reaches shapes whose quantile at u = delta_n underflows to 0,
    # so the first grid, 3 log-a nodes by 3 logit-u nodes, already holds
    # log q = -inf: no table, and no refinement of a grid that cannot pass
    evaluations = _counted_evaluations(monkeypatch)
    assert gamma_quantile_table(shape, n, _evaluation_set(n).u()) is None
    assert sum(evaluations) == 9


def test_gamma_quantile_table_at_one_level():
    # p of a single level spans no logit-u range; the table still meets its bound there
    p = np.array([0.3])
    table = gamma_quantile_table(2.0, 100, p)
    law = Gamma(shape=np.array([[1.5], [2.0], [3.0]]), rate=np.ones((3, 1)))
    x, _ = table.quantile_density(law)
    assert np.max(np.abs(x / law.quantile(p) - 1.0)) <= TABLE_REL_ERROR


@pytest.mark.floor
@pytest.mark.parametrize("shape", [0.3, 2.0, 10.97])
def test_gamma_quantile_table_at_a_million_points(shape):
    # at n = 1e6 the evaluation set reaches u within 7e-5 of 0 and 1: the
    # table still passes its check there, and meets its bound on a fixed
    # subsample of p that includes both ends
    _check_table_on_a_subsample(1_000_000, shape, 20_000)


@pytest.mark.floor
def test_gamma_quantile_table_keeps_a_passing_piece():
    # at n = 1e5, shape 0.3, the logit-u piece above u = 1/2 passes at 32
    # intervals while the one below doubles to 64: the table meets its bound
    # on a subsample of p on both sides of 1/2
    _check_table_on_a_subsample(100_000, 0.3, 5_000)


def _check_table_on_a_subsample(n, shape, count):
    p = _evaluation_set(n).u()
    table = gamma_quantile_table(shape, n, p)
    assert table is not None
    pick = np.unique(np.concatenate([np.linspace(0, p.size - 1, count).astype(int), [np.argmin(p), np.argmax(p)]]))
    sub = distributions.GammaQuantileTable(table.center, table.half_width, p[pick], table.log_q[:, pick])
    lo, hi = table.center - table.half_width, table.center + table.half_width
    shapes = np.exp(np.concatenate([[lo, hi, math.log(shape)], np.random.default_rng(13).uniform(lo, hi, 5)]))
    law = Gamma(shape=shapes[:, None], rate=np.full((shapes.size, 1), 0.7))
    x, _ = sub.quantile_density(law)
    assert np.max(np.abs(x / law.quantile(p[pick]) - 1.0)) <= TABLE_REL_ERROR


@pytest.mark.floor
@pytest.mark.parametrize(
    "law, numpy_draw",
    [
        (Gamma(0.4, 2.5), lambda rng, n: rng.gamma(0.4, 1.0 / 2.5, size=n)),
        (Gamma(1.0, 3.0), lambda rng, n: rng.gamma(1.0, 1.0 / 3.0, size=n)),
        (Gamma(10.97, 0.0270), lambda rng, n: rng.gamma(10.97, 1.0 / 0.0270, size=n)),
        (Normal(0.3, 1.7), lambda rng, n: rng.normal(0.3, 1.7, size=n)),
        (Uniform(-1.3, 2.9), lambda rng, n: rng.uniform(-1.3, 2.9, size=n)),
    ],
    ids=["gamma-0.4", "gamma-1", "gamma-10.97", "normal", "uniform"],
)
def test_rvs_out_is_numpys_draw(law, numpy_draw):
    # rvs is numpy's own gamma, normal or uniform draw, scale convention included
    for seed in range(4):
        want = numpy_draw(np.random.default_rng(seed), 5000)
        assert _same_bits(law.rvs(5000, np.random.default_rng(seed)), want)


@pytest.mark.floor
def test_trigamma_is_polygamma_bit_for_bit():
    # fit_gamma_rows and gamma_quantile_table take trigamma as zeta(2, k), as
    # scipy's polygamma(1, k) computes it: (-1)^2 Gamma(2) zeta(2, k)
    k = np.geomspace(1e-10, 1e10, 20_001)
    assert _same_bits(distributions._trigamma(k), polygamma(1, k))
    assert all(distributions._trigamma(float(a)) == polygamma(1, float(a)) for a in k[::1000])
