"""The library contract: every call returns a result the oracles accept, or raises a documented error.

Samples, laws and points are drawn near the limits of a float.  Under
``warnings.simplefilter("error")`` a leaked warning fails the property too,
so numeric trouble must surface as ``DomainError`` or ``ConvergenceError``.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import naive_inf_quantile
from transferfn import TRANSFERS, Gamma, Normal, Sample, Uniform, confidence_band, estimate_with_ci, subsample_ci
from transferfn import test as gof
from transferfn.errors import ArgumentError, ConvergenceError, DomainError

DOCUMENTED = (ArgumentError, DomainError, ConvergenceError)
POINTS = (0.0, 0.5, -2.0, 3.0)
ALPHA = 0.05

near_limits = st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]), min_size=1, max_size=80)
spaced = st.builds(lambda m, k: np.linspace(-m, m, k).tolist(), st.sampled_from([1e-300, 1.0, 1e150, 1e300]), st.integers(1, 80))
scales = st.integers(-300, 300).map(lambda k: 10.0**k)
laws = st.one_of(
    st.builds(lambda s: Normal(0.0, s), scales),
    st.builds(lambda a, s: Gamma(a, 1.0 / s), st.sampled_from([0.5, 2.0, 10.97]), scales),
    st.builds(lambda s: Uniform(-s, s), scales),
)


def _ghat_is_the_inf_quantile(values, dist, xs, ghat):
    assert all(g == naive_inf_quantile(values, float(dist.cdf(x))) for x, g in zip(xs, ghat))


def _check_estimate(values, dist, h, x, band_xs):
    res = estimate_with_ci(Sample(values), dist, [x], ALPHA)
    _ghat_is_the_inf_quantile(values, dist, [x], res.ghat)
    assert res.ci_lo[0] <= res.ghat[0] <= res.ci_hi[0]


def _check_band(values, dist, h, x, band_xs):
    band = confidence_band(Sample(values), dist, band_xs, ALPHA)
    _ghat_is_the_inf_quantile(values, dist, band_xs, band.ghat)
    assert np.all((band.band_lo <= band.ghat) & (band.ghat <= band.band_hi))


def _check_test(values, dist, h, x, band_xs):
    res = gof(Sample(values), dist, TRANSFERS[h], ALPHA)
    assert math.isfinite(res.statistic) and res.statistic >= 0.0 and 0.0 <= res.p_value <= 1.0


def _check_subsample(values, dist, h, x, band_xs):
    res = subsample_ci(Sample(values), dist, x, ALPHA)
    _ghat_is_the_inf_quantile(values, dist, [x], [res.ghat])
    assert res.ci[0] <= res.ghat <= res.ci[1]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.one_of(near_limits, spaced),
    laws,
    st.sampled_from(sorted(TRANSFERS)),
    st.sampled_from(POINTS),
    st.lists(st.sampled_from(POINTS), min_size=2, max_size=2, unique=True).map(sorted),
)
def test_every_call_returns_an_accepted_result_or_a_documented_error(values, dist, h, x, band_xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (_check_estimate, _check_band, _check_test, _check_subsample):
            try:
                check(values, dist, h, x, band_xs)
            except DOCUMENTED:
                pass
