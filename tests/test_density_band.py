import math

import numpy as np
import pytest

from transferfn import (
    DomainError,
    Normal,
    Sample,
    confidence_band,
    kde,
    estimate_with_ci,
    ks_sup_quantile,
)

from transferfn.density_band import _bandwidth

from oracles import naive_kde


def test_kde_single_observation_peak():
    s = Sample([0.0])
    assert kde(s, 0.0, bandwidth=1.0) == pytest.approx(1.0 / math.pi)
    # beyond the compact support the estimate is exactly zero
    assert kde(s, math.pi + 0.01, bandwidth=1.0) == 0.0
    assert kde(s, -4.0, bandwidth=1.0) == 0.0


def test_kde_consistency_standard_normal():
    rng = np.random.default_rng(12)
    s = Sample(rng.normal(size=10_000))
    val = kde(s, 0.0)
    assert abs(val - 1.0 / math.sqrt(2.0 * math.pi)) < 0.05


def test_kde_default_bandwidth_rule():
    assert _bandwidth(1000) == pytest.approx(1000.0 ** (-1 / 6))
    assert _bandwidth(1000, 0.25) == 0.25
    # kde and the band apply the rule when no bandwidth is given
    s = _squared_sample(1000, 24)
    ys = np.linspace(s.sorted_values[0], s.sorted_values[-1], 101)
    assert np.array_equal(kde(s, ys), kde(s, ys, bandwidth=_bandwidth(1000)))
    assert confidence_band(s, Normal(), (-2.0, 2.0), 0.01, bandwidth=0.25).bandwidth == 0.25
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            kde(s, 0.0, bandwidth=bad)
        with pytest.raises(DomainError):
            confidence_band(s, Normal(), (-2.0, 2.0), 0.01, bandwidth=bad)


def test_default_bandwidth_is_admissible():
    # sqrt(loglog n) h -> 0 and sqrt(n) h^2 / loglog n -> inf along the rule
    ns = np.array([10**3, 10**4, 10**6, 10**9, 10**12], dtype=float)
    hs = np.array([_bandwidth(n) for n in ns])
    lll = np.log(np.log(ns))
    shrink = np.sqrt(lll) * hs
    grow = np.sqrt(ns) * hs**2 / lll
    assert np.all(np.diff(shrink) < 0.0)
    assert np.all(np.diff(grow) > 0.0)
    assert shrink[-1] < 0.02 and grow[-1] > 10.0 * grow[0]


def test_kde_integrates_to_one():
    rng = np.random.default_rng(13)
    for n in (100, 2000):
        s = Sample(rng.normal(size=n))
        h = _bandwidth(n)
        pad = math.pi * h
        ys = np.linspace(s.sorted_values[0] - pad, s.sorted_values[-1] + pad, 8001)
        mass = np.trapezoid(kde(s, ys), ys)
        assert mass == pytest.approx(1.0, abs=2e-3)


def test_kde_derivative_continuous_at_observations():
    rng = np.random.default_rng(14)
    s = Sample(rng.normal(size=40))
    h = 0.05
    delta = 1e-7
    for y0 in s.sorted_values[:10]:
        slope_left = (kde(s, y0, h) - kde(s, y0 - delta, h)) / delta
        slope_right = (kde(s, y0 + delta, h) - kde(s, y0, h)) / delta
        assert abs(slope_right - slope_left) < 1e-3


def test_kde_matches_dense_oracle_at_any_offset():
    # the prefix-sum KDE must stay within 1e-9 of the 1/(n h) flag floor of
    # the dense sum even where |Y|/h is huge, and be exactly 0 off the data
    rng = np.random.default_rng(15)
    for offset in (0.0, 1e3, 1e6, 1e9):
        for rule in ("default", 0.01, 1.0):
            for _ in range(3):
                n = int(rng.integers(1, 3001))
                h = n ** (-1.0 / 6.0) if rule == "default" else rule
                spread = 10.0 ** rng.uniform(-1.0, 2.0)
                values = offset + spread * rng.standard_normal(n)
                s = Sample(values)
                pick = rng.choice(n, size=min(n, 20), replace=False)
                edge = math.pi * h
                lo, hi = s.sorted_values[0], s.sorted_values[-1]
                ys = np.concatenate(
                    [
                        values[pick],
                        values[pick] - edge,
                        values[pick] + edge,
                        [lo - edge * (1 + 1e-3), hi + edge * (1 + 1e-3), lo - 2 * edge, hi + 2 * edge],
                        rng.uniform(lo - edge, hi + edge, size=20),
                    ]
                )
                got = kde(s, ys, bandwidth=h)
                ref = naive_kde(values, h, ys)
                assert np.max(np.abs(got - ref)) <= 1e-9 / (n * h), (offset, rule, n, spread)
                empty = np.min(np.abs(ys[:, None] - values[None, :]), axis=1) > edge * (1 + 1e-3)
                assert np.all(got[empty] == 0.0)
                assert np.all(got >= 0.0)


def _squared_sample(n, seed):
    rng = np.random.default_rng(seed)
    return Sample((rng.normal(size=n) + 4.0) ** 2)


def test_band_geometry_and_metadata():
    s = _squared_sample(1000, 21)
    xs = np.linspace(-2.0, 2.0, 201)
    band = confidence_band(s, Normal(), (-2.0, 2.0), 0.01, xs=xs)
    assert np.all(band.band_lo <= band.ghat)
    assert np.all(band.ghat <= band.band_hi)
    assert band.critical == pytest.approx(ks_sup_quantile(0.99))
    hw = band.critical / (math.sqrt(band.n) * band.fhat_at_ghat)
    assert np.allclose(band.half_width, hw, rtol=1e-12)
    assert band.bandwidth == pytest.approx(1000.0 ** (-1 / 6))


def test_band_halfwidth_monotone_in_alpha():
    s = _squared_sample(500, 22)
    xs = np.linspace(-1.5, 1.5, 51)
    widths = []
    for alpha in (0.01, 0.1, 0.3, 0.5):
        band = confidence_band(s, Normal(), (-2.0, 2.0), alpha, xs=xs)
        widths.append(band.half_width)
    for lo, hi in zip(widths[1:], widths[:-1]):
        assert np.all(lo <= hi)


def test_band_wider_than_pointwise_ci():
    s = _squared_sample(1000, 31)
    xs = np.linspace(-2.0, 2.0, 201)
    band = confidence_band(s, Normal(), (-2.0, 2.0), 0.01, xs=xs)
    ci = estimate_with_ci(s, Normal(), xs, 0.01)
    ci_widths = ci.ci_hi - ci.ci_lo
    frac = np.mean((band.band_hi - band.band_lo) >= ci_widths)
    assert frac >= 0.95


def test_band_flags_low_density_for_cubic():
    # g' = 0 at the origin violates the smoothness assumption; the output
    # density is tiny near |x| = 2 and the floor rule must flag points there
    total_flagged = 0
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        s = Sample(rng.normal(size=1000) ** 3)
        band = confidence_band(s, Normal(), (-2.0, 2.0), 0.01, xs=np.linspace(-2.0, 2.0, 401))
        total_flagged += int(np.count_nonzero(band.flagged))
    assert total_flagged > 0


def test_band_much_wider_than_ci_where_derivative_vanishes():
    rng = np.random.default_rng(32)
    s = Sample(rng.normal(size=1000) ** 3)
    band = confidence_band(s, Normal(), (-2.0, 2.0), 0.01, xs=np.array([0.0]))
    ci = estimate_with_ci(s, Normal(), 0.0, 0.01)
    assert band.half_width[0] > 5.0 * (ci.ci_hi[0] - ci.ci_lo[0]) / 2.0


def test_band_interval_validation():
    s = _squared_sample(100, 23)
    with pytest.raises(DomainError):
        confidence_band(s, Normal(), (2.0, -2.0), 0.01)
    from transferfn import Uniform

    with pytest.raises(DomainError):
        confidence_band(Sample(np.linspace(0.1, 0.9, 50)), Uniform(0.0, 1.0), (0.0, 0.5), 0.01)
    with pytest.raises(DomainError):
        confidence_band(s, Normal(), (-2.0, 2.0), 1.5)
    with pytest.raises(DomainError):
        confidence_band(s, Normal(), (-2.0, 2.0), 0.01, xs=np.array([-3.0]))
