import math
import re
import warnings

import numpy as np
import pytest

from transferfn import (
    DomainError,
    Gamma,
    Normal,
    Sample,
    confidence_band,
    kde,
    estimate_with_ci,
    ks_sup_quantile,
)

import transferfn.density_band as band_module
import transferfn.empirical as empirical_module
from transferfn.density_band import _bandwidth, _kde_rows
from transferfn.empirical import _tiles
from transferfn.errors import ArgumentError

from oracles import naive_kde


def test_kde_single_observation_peak():
    s = Sample([0.0])
    assert kde(s, 0.0, bandwidth=1.0) == pytest.approx(1.0 / math.pi)
    # beyond the compact support the estimate is exactly zero
    assert kde(s, math.pi + 0.01, bandwidth=1.0) == 0.0
    assert kde(s, -4.0, bandwidth=1.0) == 0.0


def test_kde_far_outside_the_data_is_zero_without_warnings():
    # so far out that (y - a)/h overflows, the window is empty: the estimate is 0, no warning is
    # raised, and a point inside the data gets the value it gets alone
    s = Sample([1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kde(s, 1e300, bandwidth=1e-10) == 0.0
        values = kde(s, [2.0, 1e300, -1e300, 1.7e308], bandwidth=1e-10)
        alone = kde(s, 2.0, bandwidth=1e-10)
        infinite = kde(s, [-np.inf, 2.0, np.inf], bandwidth=1e-10)
    assert values[0] == alone == infinite[1] > 0.0
    assert np.array_equal(values[1:], np.zeros(3))
    assert infinite[0] == infinite[2] == 0.0
    for y in (np.nan, [2.0, np.nan]):  # a NaN point is no point
        with pytest.raises(ArgumentError, match="kde points must not be NaN"):
            kde(s, y)


def test_kde_on_data_whose_range_overflows_names_the_range():
    s = Sample([6.48648100598784e293, -1.7976931348623093e308, 1.0, 2.0])
    message = "the data range [-1.7976931348623093e+308, 6.48648100598784e+293] is wider than the largest float"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bandwidth in (None, 0.5):
            with pytest.raises(DomainError, match=re.escape(message)) as info:
                kde(s, 0.0, bandwidth=bandwidth)
            assert type(info.value) is DomainError  # not the ArgumentError that blames the bandwidth


def test_kde_rows_check_every_rows_range_then_its_cell_keys():
    # the band study calls _kde_rows without kde(): a row whose range overflows is a DomainError, even
    # after a row whose cell keys span/(4 pi h) overflow; without it the keys blame the bandwidth
    keys = np.array([0.0, 3e10, 4e10, 5e10])
    wide = np.array([-1.7976931348623093e308, 0.0, 1.0, 6.48648100598784e293])
    ys = np.zeros((2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape("the data range [-1.7976931348623093e+308, 6.48648100598784e+293]")) as info:
            _kde_rows(np.stack([keys, wide]), ys, 1e-300)
        assert type(info.value) is DomainError
        with pytest.raises(ArgumentError, match=re.escape("bandwidth 1e-300 is too small for values spanning 50000000000.0")):
            _kde_rows(np.stack([keys, keys]), ys, 1e-300)


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
    xs = np.linspace(-2.0, 2.0, 5)
    assert confidence_band(s, Normal(), xs, 0.01, bandwidth=0.25).bandwidth == 0.25
    # at 1e-310 and 1e-320 the kernel's peak 1/(pi h) overflows, and so do the cell keys range/(4 pi h)
    for bad in (-1.0, 0.0, math.inf, math.nan, 1e-310, 1e-320):
        with pytest.raises(DomainError):
            kde(s, 0.0, bandwidth=bad)
        with pytest.raises(DomainError):
            confidence_band(s, Normal(), xs, 0.01, bandwidth=bad)
    # values that span nothing have finite cell keys at any h, and at 1e-309 a finite
    # normaliser 1/(2 pi n h); their estimate there, the peak 1/(pi h), still overflows
    with pytest.raises(DomainError, match="peak"):
        kde(Sample([2.0] * 300), 2.0, bandwidth=1e-309)
    # a finite peak, but the values 3e10 and 4e10 would share a cell of infinite key, and their phases overflow
    with pytest.raises(DomainError, match="cell keys"):
        kde(Sample([0.0, 3e10, 4e10]), 4e10, bandwidth=1e-300)
    # a tiny bandwidth whose estimate stays finite is accepted
    band = confidence_band(s, Normal(), xs, 0.01, bandwidth=1e-300)
    assert np.all(np.isfinite(band.fhat_at_ghat)) and np.all(np.isfinite(band.band_lo + band.band_hi))


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


def _dense_oracle_cases():
    """(values, h, ys): samples at offsets where |Y|/h is huge, with queries on, across and past the data."""
    rng = np.random.default_rng(15)
    for offset in (0.0, 1e3, 1e6, 1e9):
        for rule in ("default", 0.01, 1.0):
            for _ in range(3):
                n = int(rng.integers(1, 3001))
                h = n ** (-1.0 / 6.0) if rule == "default" else rule
                spread = 10.0 ** rng.uniform(-1.0, 2.0)
                values = offset + spread * rng.standard_normal(n)
                pick = rng.choice(n, size=min(n, 20), replace=False)
                edge = math.pi * h
                lo, hi = values.min(), values.max()
                ys = np.concatenate(
                    [
                        values[pick],
                        values[pick] - edge,
                        values[pick] + edge,
                        [lo - edge * (1 + 1e-3), hi + edge * (1 + 1e-3), lo - 2 * edge, hi + 2 * edge],
                        rng.uniform(lo - edge, hi + edge, size=20),
                    ]
                )
                yield values, h, ys


def test_kde_matches_dense_oracle_at_any_offset():
    # the prefix-sum KDE must stay within 1e-9 of the 1/(n h) flag floor of
    # the dense sum even where |Y|/h is huge, and be exactly 0 off the data
    for values, h, ys in _dense_oracle_cases():
        n = values.size
        got = kde(Sample(values), ys, bandwidth=h)
        ref = naive_kde(values, h, ys)
        assert np.max(np.abs(got - ref)) <= 1e-9 / (n * h), (values[0], h, n)
        empty = np.min(np.abs(ys[:, None] - values[None, :]), axis=1) > math.pi * h * (1 + 1e-3)
        assert np.all(got[empty] == 0.0)
        assert np.all(got >= 0.0)


def _kde_block():
    """(block, ys, h): rows of one block that differ in offset and scale, and 80 queries per row.

    One row is a single cell, others have many cells or |Y|/h huge; each
    row's queries include windows across two cells, empty windows and
    windows past either end.
    """
    rng = np.random.default_rng(16)
    n, h = 400, 400 ** (-1.0 / 6.0)
    edge, cell = math.pi * h, 4.0 * math.pi * h
    offsets = [0.0, 0.0, -50.0, 1e3, 1e6, 1e9, 0.0]
    spreads = [0.1, 1.0, 30.0, 5.0, 100.0, 10.0, 1e-3]
    block = np.sort(np.stack([o + s * rng.standard_normal(n) for o, s in zip(offsets, spreads)]), axis=1)
    queries = []
    for row in block:
        key = np.floor((row - row[0]) / cell)
        cell_starts = row[np.flatnonzero(np.diff(key)) + 1]
        ends = [row[0] - 2 * edge, row[0] - edge * (1 + 1e-3), row[-1] + edge * (1 + 1e-3), row[-1] + 2 * edge]
        picks = rng.choice(row, size=12, replace=False)
        queries.append(np.resize(np.concatenate([cell_starts - 0.5 * edge, cell_starts, ends, picks - edge, picks + edge,
                                                 rng.uniform(row[0] - edge, row[-1] + edge, 12)]), 80))
    return block, np.stack(queries), h


@pytest.mark.floor
def test_kde_rows_match_one_row_kde_bit_for_bit():
    block, ys, h = _kde_block()
    n, edge, cell = block.shape[1], math.pi * h, 4.0 * math.pi * h
    got = _kde_rows(block, ys, h)
    straddles = empties = 0
    for r, row in enumerate(block):
        one = kde(Sample(row), ys[r], bandwidth=h)
        assert np.array_equal(got[r].view(np.int64), one.view(np.int64)), r
        key = np.floor((row - row[0]) / cell)
        lo, hi = np.searchsorted(row, ys[r] - edge, "left"), np.searchsorted(row, ys[r] + edge, "right")
        straddles += int(np.count_nonzero((hi > lo) & (key[np.minimum(lo, n - 1)] != key[np.maximum(hi - 1, 0)])))
        empties += int(np.count_nonzero(hi == lo))
        assert np.all(got[r][hi == lo] == 0.0)
    assert np.unique(np.floor((block[0] - block[0, 0]) / cell)).size == 1  # the one-cell row
    assert straddles > 20 and empties > 20


def _kde_tiles(rows, n):
    """The number of tiles ``_kde_rows`` walks a (rows, n) block in."""
    return len(_tiles(n, band_module._tile_width(rows)))


@pytest.mark.floor
def test_kde_tiles_match_one_tile_bit_for_bit(monkeypatch):
    # the prefix sums built a tile of at most 64 values at a time, with the
    # running sums and the open cell's anchor carried across tile ends,
    # equal the one-tile sums (every case fits one tile) bit for bit
    cases = [(values[None, :], ys[None, :], h) for values, h, ys in _dense_oracle_cases()]
    cases.append(_kde_block())
    whole = [_kde_rows(np.sort(rows, axis=1), ys, h) for rows, ys, h in cases]
    # one row at n = 40,000, wider than a one-row tile: production's tiles against one tile over all of it
    n = 40_000
    row = np.sort(1e3 + 2.0 * np.random.default_rng(17).standard_normal((1, n)), axis=1)
    ys = np.concatenate([row[0, ::199], np.linspace(row[0, 0] - 1.0, row[0, -1] + 1.0, 301)])[None, :]
    h = n ** (-1.0 / 6.0)
    assert _kde_tiles(1, n) > 1
    tiled = _kde_rows(row, ys, h)
    with monkeypatch.context() as patch:
        patch.setattr(band_module, "_tile_width", lambda rows: n)
        assert _kde_tiles(1, n) == 1
        assert np.array_equal(_kde_rows(row, ys, h).view(np.int64), tiled.view(np.int64))
    monkeypatch.setattr(empirical_module, "_BLOCK_ELEMENTS", 64)
    tiles = 0
    for (rows, ys, h), one in zip(cases, whole):
        tiles += _kde_tiles(*rows.shape)
        assert np.array_equal(_kde_rows(np.sort(rows, axis=1), ys, h).view(np.int64), one.view(np.int64)), (rows[0, 0], h)
    assert tiles > 10 * len(cases)


def _squared_sample(n, seed):
    rng = np.random.default_rng(seed)
    return Sample((rng.normal(size=n) + 4.0) ** 2)


def test_band_geometry_and_metadata():
    s = _squared_sample(1000, 21)
    xs = np.linspace(-2.0, 2.0, 201)
    band = confidence_band(s, Normal(), xs, 0.01)
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
        band = confidence_band(s, Normal(), xs, alpha)
        widths.append(band.half_width)
    for lo, hi in zip(widths[1:], widths[:-1]):
        assert np.all(lo <= hi)


def test_band_wider_than_pointwise_ci():
    s = _squared_sample(1000, 31)
    xs = np.linspace(-2.0, 2.0, 201)
    band = confidence_band(s, Normal(), xs, 0.01)
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
        band = confidence_band(s, Normal(), np.linspace(-2.0, 2.0, 401), 0.01)
        total_flagged += int(np.count_nonzero(band.flagged))
    assert total_flagged > 0


def test_band_much_wider_than_ci_where_derivative_vanishes():
    rng = np.random.default_rng(32)
    s = Sample(rng.normal(size=1000) ** 3)
    band = confidence_band(s, Normal(), np.array([0.0, 2.0]), 0.01)
    ci = estimate_with_ci(s, Normal(), 0.0, 0.01)
    assert band.half_width[0] > 5.0 * (ci.ci_hi[0] - ci.ci_lo[0]) / 2.0


def test_band_interval_validation():
    # the band's interval is [min xs, max xs]: two distinct points strictly inside the support
    s = _squared_sample(100, 23)
    from transferfn import Uniform

    with pytest.raises(DomainError, match="outside the open support"):
        confidence_band(Sample(np.linspace(0.1, 0.9, 50)), Uniform(0.0, 1.0), [0.0, 0.5], 0.01)
    with pytest.raises(DomainError, match="alpha"):
        confidence_band(s, Normal(), [-2.0, 2.0], 1.5)
    for one_point in ([-3.0], [1.0, 1.0]):
        with pytest.raises(DomainError, match="a < c < d < b"):
            confidence_band(s, Normal(), one_point, 0.01)
    # the grid's order is free; the band is the same at every point
    xs = np.array([2.0, -2.0, 0.5])
    forward, backward = confidence_band(s, Normal(), xs, 0.01), confidence_band(s, Normal(), xs[::-1], 0.01)
    assert np.array_equal(forward.band_lo, backward.band_lo[::-1]) and np.array_equal(forward.band_hi, backward.band_hi[::-1])


def test_band_at_a_point_does_not_depend_on_the_rest_of_the_grid():
    # what makes the band's interval [min xs, max xs]: no other point of the grid moves the band at x
    rng = np.random.default_rng(25)
    for sample, dist in (
        (_squared_sample(700, 26), Normal()),
        (Sample(rng.normal(size=400) ** 3), Normal()),
        (Sample(rng.gamma(10.97, 1.0 / 0.027, size=518)), Gamma(10.97, 0.027)),
    ):
        lo, hi = (float(dist.quantile(p)) for p in (0.02, 0.98))

        def at(x, grid):
            band = confidence_band(sample, dist, grid, 0.05)
            j = int(np.flatnonzero(grid == x)[0])
            return np.array([band.ghat[j], band.band_lo[j], band.band_hi[j], band.fhat_at_ghat[j], band.flagged[j]])

        for x in (float(dist.quantile(0.3)), float(dist.quantile(0.9))):
            reference = at(x, np.array([x, hi]))
            for trial in range(6):
                grid = rng.permutation(np.append(rng.uniform(lo, hi, int(rng.integers(1, 60))), x))
                assert np.array_equal(at(x, grid).view(np.int64), reference.view(np.int64)), (trial, x)
