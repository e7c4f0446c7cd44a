import functools
import itertools
import math

import numpy as np
import pytest

from transferfn import (
    ArgumentError,
    ConfigError,
    ConvergenceError,
    DomainError,
    Gamma,
    HypothesisFunction,
    Normal,
    Sample,
    Uniform,
    fit_gamma_mle,
    get_transfer,
    ks_sup_tail,
    monte_carlo_p_value,
    perturbed,
    replication_rng,
    trimming_fraction,
)
from transferfn import test as gof
from transferfn import test_statistic as gof_statistic
import transferfn.distributions as distributions_module
import transferfn.empirical as empirical_module
import transferfn.gof_test as gof_module
from oracles import naive_trimmed_argmax, naive_trimmed_sup
from transferfn.distributions import FAMILIES, FIT_NO_CONVERGENCE, FIT_OK, TABLE_REL_ERROR, gamma_quantile_table
from transferfn.gof_test import _checked_rows, _evaluation_set, _sliced


def gof_statistic_rows(sorted_rows, dist, hyp):
    """The statistic of every row of a (rows, n) block of sorted samples, as the studies score a block."""
    return _checked_rows(sorted_rows, dist, hyp, _evaluation_set(sorted_rows.shape[1]))[0]


def test_trimming_fraction():
    assert trimming_fraction(1000) == pytest.approx(25.0 * np.log(np.log(1000.0)) / 1000.0)
    assert trimming_fraction(16) == 0.2  # capped
    with pytest.raises(DomainError):
        trimming_fraction(15)


def test_null_acceptance_rate_uniform_identity():
    # true g = h = identity under uniform inputs: p > 0.01 nearly always
    d = Uniform(0.0, 1.0)
    idn = get_transfer("identity")
    ok = 0
    for rep in range(200):
        rng = replication_rng(77, rep)
        s = Sample(d.rvs(10_000, rng))
        ok += gof(s, d, idn, 0.85).p_value > 0.01
    assert ok >= 190


def test_alternative_rejects_nearly_always():
    d = Normal()
    h = get_transfer("log(x+5)")
    g = perturbed(h, "x/n^(1/8)", 1000)
    rejections = 0
    for rep in range(50):
        rng = replication_rng(78, rep)
        z = d.rvs(1000, rng)
        s = Sample(np.asarray(g.fn(z), dtype=float))
        rejections += gof(s, d, h, 0.15).reject
    assert rejections == 50


def test_null_cell_matches_paper_value():
    from transferfn import run_test_table

    rep = run_test_table(h_names=("(x+4)^2",), perturbations=("none",), n=1000, repetitions=200, seed=0)
    assert abs(rep.cells[("(x+4)^2", "none")] - 0.85) <= 0.07


def test_sqrtn_alternative_cell_matches_paper_value():
    from transferfn import run_test_table

    rep = run_test_table(h_names=("(x+4)^2",), perturbations=("x/sqrt(n)",), n=1000, repetitions=200, seed=0)
    assert abs(rep.cells[("(x+4)^2", "x/sqrt(n)")] - 0.165) <= 0.10


def test_power_monotone_in_n():
    from transferfn import run_test_table

    rates = {}
    for n in (1000, 10_000):
        rep = run_test_table(
            h_names=("(x+4)^2",), perturbations=("x/n^(1/8)",), n=n, repetitions=200, seed=1
        )
        rates[n] = rep.cells[("(x+4)^2", "x/n^(1/8)")]
    assert rates[10_000] >= rates[1000] - 0.05


def test_local_alternative_power_bound():
    # drift bound: power <= tail(critical - sup f_Z |s| / g') + slack, s(x) = x.
    # The sup constant is maximized over the trimmed region the statistic
    # actually sees; over the full support it diverges as g' -> 0 at x = -4
    # and the bound would be vacuous.
    d = Normal()
    h = get_transfer("(x+4)^2")
    n, alpha = 1000, 0.15
    g = perturbed(h, "x/sqrt(n)", n)
    delta = trimming_fraction(n)
    lo, hi = d.quantile(delta), d.quantile(1.0 - delta)
    xs = np.linspace(lo, hi, 200_001)  # grid maximization oracle for the sup constant
    sup_const = float(np.max(d.pdf(xs) * np.abs(xs) / (2.0 * (xs + 4.0))))
    rejections = 0
    reps = 200
    for rep in range(reps):
        rng = replication_rng(79, rep)
        z = d.rvs(n, rng)
        s = Sample(np.asarray(g.fn(z), dtype=float))
        res = gof(s, d, h, alpha)
        rejections += res.reject
    bound = ks_sup_tail(res.critical - sup_const) + 0.1
    assert rejections / reps <= bound


def test_statistic_deterministic_and_affine_invariant():
    rng = np.random.default_rng(80)
    z = rng.normal(size=400)
    h = get_transfer("(x+4)^2")
    s = Sample((z + 4.0) ** 2)
    stat1 = gof_statistic(s, Normal(), h)
    stat2 = gof_statistic(s, Normal(), h)
    assert stat1 == stat2
    # common rescaling of data axis by 2 (exact in floats) leaves it unchanged
    doubled = Sample(2.0 * s.values)
    h2 = HypothesisFunction(fn=lambda x: 2.0 * h.fn(x), deriv=lambda x: 2.0 * h.deriv(x))
    assert gof_statistic(doubled, Normal(), h2) == stat1


def test_statistic_domain_errors():
    rng = np.random.default_rng(81)
    s = Sample(rng.normal(size=100))
    decreasing = HypothesisFunction(fn=lambda x: -np.asarray(x, float), deriv=lambda x: -np.ones_like(np.asarray(x, float)))
    with pytest.raises(DomainError):
        gof_statistic(s, Normal(), decreasing)
    with pytest.raises(DomainError):
        gof_statistic(Sample(rng.normal(size=15)), Normal(), get_transfer("identity"))
    # finite quantiles (~1e-310 at rate 1e308) where the density overflows
    with pytest.raises(DomainError, match="density is not finite"):
        gof_statistic(Sample(rng.gamma(0.5, 1e-308, size=100)), Gamma(0.5, 1e308), get_transfer("identity"))
    # the rejected row's weight density/h' is never formed, so it cannot overflow and warn first
    with pytest.raises(DomainError, match="density is not finite"):
        gof_statistic(Sample(rng.gamma(0.5, 1e-308, size=100)), Gamma(0.5, 1e308), get_transfer("log(x+5)"))
    # the law is the reason even for an h whose derivative vanishes at the x = 0 a failed row is scored at
    with pytest.raises(DomainError, match="density is not finite"):
        gof_statistic(Sample(np.random.default_rng(0).gamma(0.5, 1e-308, 100)), Gamma(0.5, 1e308), get_transfer("x^3"))
    # sqrt(n) (f_Z/h') |ghat - h| overflows: f_Z peaks at ~4e299 and |ghat - h| reaches 1e180
    overflowing = Sample(np.linspace(-1e180, 1e180, 16))
    for call in (gof_statistic, lambda *args: gof(*args, 0.15)):
        with pytest.raises(DomainError, match="overflows a float"):
            call(overflowing, Normal(0, 1e-300), get_transfer("identity"))


def test_result_contract(monkeypatch):
    rng = np.random.default_rng(82)
    s = Sample(rng.normal(size=100))
    idn = get_transfer("identity")
    res = gof(s, Normal(), idn, 0.15)
    assert res.reject == (res.statistic > res.critical)
    assert res.p_value == pytest.approx(ks_sup_tail(res.statistic))
    assert res.method == "asymptotic"
    assert res.trim == trimming_fraction(100)
    # degenerate perfect fit: statistic 0 means p-value 1 and acceptance
    monkeypatch.setattr(gof_module, "_checked_rows", lambda *a, **k: (np.zeros(1), np.zeros(1)))
    res0 = gof(s, Normal(), idn, 0.15)
    assert res0.p_value == 1.0
    assert not res0.reject
    with pytest.raises(DomainError):
        gof(s, Normal(), idn, 1.5)


def test_monte_carlo_counting_formula():
    # grossly non-gamma observations: the observed statistic dwarfs every
    # refit draw, so the add-one formula returns exactly 1/(replications+1)
    rng = np.random.default_rng(83)
    data = Sample(np.exp(rng.gamma(5.0, 10.0, size=200) / 20.0))
    idn = get_transfer("identity")
    p = monte_carlo_p_value(data, "gamma", idn, replications=99, seed=1)
    assert p == pytest.approx(1.0 / 100.0)


def test_monte_carlo_calibration():
    idn = get_transfer("identity")
    small = 0
    for meta in range(100):
        rng = np.random.default_rng(1000 + meta)
        data = Sample(rng.gamma(2.0, 1.0, size=300))
        p = monte_carlo_p_value(data, "gamma", idn, replications=99, seed=meta)
        small += p <= 0.1
    assert 0.04 <= small / 100 <= 0.18


def test_monte_carlo_validation():
    rng = np.random.default_rng(84)
    data = Sample(rng.gamma(2.0, 1.0, size=50))
    with pytest.raises(DomainError):
        monte_carlo_p_value(data, "gamma", get_transfer("identity"), replications=50)
    with pytest.raises(ConfigError, match="known: " + ", ".join(FAMILIES)):
        monte_carlo_p_value(data, "Gamma", get_transfer("identity"), replications=99)


def test_monte_carlo_rejects_callable_family():
    # a family is a FAMILIES name: its fitted law refits a block of replicates itself
    rng = np.random.default_rng(85)
    data = Sample(rng.normal(5.0, 2.0, size=120))
    from transferfn import fit_normal

    with pytest.raises(ConfigError, match="known: " + ", ".join(FAMILIES)):
        monte_carlo_p_value(data, fit_normal, get_transfer("identity"), replications=99, seed=2)


def test_eval_points_includes_jumps():
    rng = np.random.default_rng(86)
    s = Sample(rng.normal(size=100))
    res = gof(s, Normal(), get_transfer("identity"), 0.15)
    delta = trimming_fraction(100)
    jumps = sum(1 for i in range(1, 100) if delta <= i / 100 <= 1 - delta)
    assert res.eval_points == 512 + 2 * jumps


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64), np.asarray(b, dtype=float).view(np.int64))


@pytest.mark.parametrize("h_name", ["identity", "(x+4)^2", "x^3"])
@pytest.mark.parametrize(
    "family, params",
    [
        (Normal, ([0.4, 0.3, -0.2, 0.9], [1.0, 1.7, 0.6, 2.5])),
        (Gamma, ([10.97, 2.0, 0.7, 40.0], [0.027, 1.0, 3.0, 5.0])),
        (Uniform, ([0.1, -1.0, 0.5, -3.5], [1.0, 2.0, 0.6, 4.0])),
    ],
    ids=["normal", "gamma", "uniform"],
)
def test_statistic_rows_bit_identical_to_one_row(family, params, h_name):
    h = get_transfer(h_name)
    laws = [family(*row) for row in zip(*params)]
    columns = family(*(np.array(p)[:, None] for p in params))  # row r's parameters are laws[r]'s
    rng = np.random.default_rng(87)
    for n in (100, 517):
        rows = np.sort(np.stack([np.asarray(h.fn(law.rvs(n, rng))) + rng.normal(0.0, 0.01, n) for law in laws]), axis=1)
        stacked = gof_statistic_rows(rows, columns, h)
        shared = gof_statistic_rows(rows, laws[1], h)
        for r, law in enumerate(laws):
            assert _same_bits(stacked[r], gof_statistic(Sample(rows[r]), law, h)), (n, r)
            assert _same_bits(shared[r], gof_statistic(Sample(rows[r]), laws[1], h)), (n, r)
            if n == 100:
                assert stacked[r] == pytest.approx(naive_trimmed_sup(rows[r], law, h), rel=1e-12), r


@pytest.mark.parametrize(
    "law, h_name",
    [(Normal(0.4, 1.3), "identity"), (Normal(), "(x+4)^2"), (Gamma(10.97, 0.027), "identity"), (Uniform(0.1, 1.0), "x^3")],
)
def test_result_reports_where_the_sup_is_attained(law, h_name):
    h = get_transfer(h_name)
    rng = np.random.default_rng(91)
    for n in (60, 200):
        # a local bump in g moves the sup away from the tails
        z = law.rvs(n, rng)
        sample = Sample(np.asarray(h.fn(z)) + 0.05 * np.exp(-((z - float(law.quantile(0.6))) ** 2)))
        res = gof(sample, law, h, 0.15)
        assert res.statistic == gof_statistic(sample, law, h)
        assert res.argmax_x == pytest.approx(naive_trimmed_argmax(sample.values, law, h), rel=1e-12)
        assert float(law.quantile(res.trim)) <= res.argmax_x <= float(law.quantile(1.0 - res.trim))


def test_statistic_rows_rejects_any_bad_row():
    # h' < 0 beyond x = 2, which only the middle row's law reaches
    means = np.array([[0.0], [3.0], [0.0]])
    rows = np.sort(np.random.default_rng(88).normal(size=(3, 100)), axis=1)
    bent = HypothesisFunction(fn=lambda x: x, deriv=lambda x: np.where(np.asarray(x) > 2.0, -1.0, 1.0))
    good = gof_statistic_rows(rows[[0, 2]], Normal(means[[0, 2]], np.ones((2, 1))), bent)
    assert good.shape == (2,)
    with pytest.raises(DomainError, match="positive derivative"):
        gof_statistic_rows(rows, Normal(means, np.ones((3, 1))), bent)


def test_statistic_rows_report_an_undefined_h_without_warning():
    # h = log(x+5) is NaN below x = -5, where N(0, 6)'s trimmed region reaches
    sample = Sample(np.linspace(-1.0, 1.0, 16))
    with pytest.raises(DomainError, match="positive derivative"):
        gof(sample, Normal(0.0, 6.0), get_transfer("log(x+5)"), 0.15)
    # an h that overflows where h' stays finite and positive is its own row status
    steep = HypothesisFunction(fn=lambda x: np.exp(1e3 * np.asarray(x)), deriv=lambda x: np.ones_like(x))
    rows = np.sort(np.random.default_rng(5).normal(size=(2, 100)), axis=1)
    stats, status, _ = gof_module._statistic_rows(
        rows, Normal(np.array([[-3.0], [3.0]]), np.ones((2, 1))), steep, _evaluation_set(100)
    )
    assert status.tolist() == [0, gof_module._BAD_H] and np.isfinite(stats[0])
    with pytest.raises(DomainError, match="h must be finite on the trimmed region"):
        gof_statistic(Sample(rows[1]), Normal(3.0, 1.0), steep)


@pytest.mark.floor
def test_evaluation_set_makes_each_columns_u_as_the_whole_set_does():
    # a tile's u is the slice of the grid followed by every level i/n of
    # np.arange(1, n) / n inside the trimmed region, bit for bit
    for n in (16, 17, 100, 1000, 12_345):
        delta = trimming_fraction(n)
        levels = np.arange(1, n) / n
        inside = (levels >= delta) & (levels <= 1.0 - delta)
        whole = np.concatenate([np.linspace(delta, 1.0 - delta, 512), levels[inside]])
        points = _evaluation_set(n)
        assert points.size == whole.size and list(points.jumps) == list(np.flatnonzero(inside) + 1), n
        assert _same_bits(points.u(), whole)
        for start, stop in ((0, 7), (500, 519), (511, 513), (512, points.size), (points.size - 3, points.size)):
            assert _same_bits(points.u(start, stop), whole[start:stop]), (n, start, stop)


def _whole_and_tiled(monkeypatch, *args):
    """``_statistic_rows(*args)`` in one tile (the points fit in one at these n), checked against tiles of at most 64 values.

    The statuses agree, and so do the statistic and its x on every row with status 0 (elsewhere they are meaningless).
    """
    whole = gof_module._statistic_rows(*args)
    assert args[3].size <= empirical_module._tile_width(args[0].shape[0])
    with monkeypatch.context() as patch:
        patch.setattr(empirical_module, "_BLOCK_ELEMENTS", 64)
        assert args[3].size > empirical_module._tile_width(args[0].shape[0])  # more than one tile
        tiled = gof_module._statistic_rows(*args)
    ok = whole[1] == 0
    assert np.array_equal(whole[1], tiled[1])
    assert _same_bits(whole[0][ok], tiled[0][ok]) and _same_bits(whole[2][ok], tiled[2][ok])
    return whole


@pytest.mark.floor
def test_statistic_tiles_match_one_tile_bit_for_bit(monkeypatch):
    # the statistic, where it is attained and the status, whether the walk
    # covers the points in one tile or in many
    rng = np.random.default_rng(29)
    laws = [Normal(0.4, 1.3), Gamma(10.97, 0.027), Uniform(0.1, 1.0)]
    for law, h_name in zip(laws, ("(x+4)^2", "identity", "x^3")):
        h = get_transfer(h_name)
        for n in (300, 1001):
            sample = Sample(np.asarray(h.fn(law.rvs(n, rng))) + rng.normal(0.0, 0.01, n))
            whole = gof(sample, law, h, 0.15)
            with monkeypatch.context() as patch:
                patch.setattr(empirical_module, "_BLOCK_ELEMENTS", 64)
                assert empirical_module._tile_width(1) < _evaluation_set(n).size  # more than one tile
                tiled = gof(sample, law, h, 0.15)
            assert _same_bits(whole.statistic, tiled.statistic) and _same_bits(whole.argmax_x, tiled.argmax_x), (law, n)
    # one row at n = 40,000, wider than a one-row tile: production's tiles against one tile over all of it
    big = np.random.default_rng(31)
    for law, h_name in zip(laws, ("(x+4)^2", "identity", "x^3")):
        h = get_transfer(h_name)
        sample = Sample(np.asarray(h.fn(law.rvs(40_000, big))) + big.normal(0.0, 0.01, 40_000))
        size = _evaluation_set(sample.n).size
        assert empirical_module._tile_width(1) < size
        tiled = gof(sample, law, h, 0.15)
        with monkeypatch.context() as patch:
            patch.setattr(empirical_module, "_tile_width", lambda rows: size)
            whole = gof(sample, law, h, 0.15)
        assert _same_bits(whole.statistic, tiled.statistic) and _same_bits(whole.argmax_x, tiled.argmax_x), law
    n = 200
    points = _evaluation_set(n)
    rows = np.sort(rng.normal(size=(3, n)), axis=1)
    columns = Normal(np.array([[0.0], [0.5], [-0.3]]), np.array([[1.0], [2.0], [0.7]]))
    _whole_and_tiled(monkeypatch, rows, columns, get_transfer("(x+4)^2"), points)
    u = points.u()
    x, density = np.repeat(Normal().quantile(u)[None, :], 2, axis=0), np.repeat(Normal().pdf(Normal().quantile(u))[None, :], 2, axis=0)
    assert x[0, 10] < -0.8 < x[0, 11] and x[0, 500] < 0.8 < x[0, 501]  # grid columns; the trimmed region is |x| <= 0.842

    # h is infinite in the first tile of 64 columns and h' negative in the eighth: the derivative's status wins
    bent = HypothesisFunction(
        fn=lambda x: np.where(np.asarray(x) < -0.8, np.inf, x), deriv=lambda x: np.where(np.asarray(x) > 0.8, -1.0, 1.0)
    )
    _, status, _ = _whole_and_tiled(monkeypatch, rows[:1], Normal(), bent, points)
    assert status.tolist() == [gof_module._BAD_DERIVATIVE]
    # a row whose law fails in the last tile reports the law, whatever h did in the first
    steep = HypothesisFunction(fn=lambda x: np.where(np.asarray(x) < -0.8, np.inf, x), deriv=lambda x: np.ones_like(x))
    failing = density.copy()
    failing[1, -5] = np.nan
    _, status, _ = _whole_and_tiled(monkeypatch, rows[:2], Normal(), steep, points, _sliced(x, failing))
    assert status.tolist() == [gof_module._BAD_H, gof_module._BAD_LAW]

    # gaps tied at columns 70 and 330, in the second tile and the sixth: the first is the max
    flat = HypothesisFunction(fn=lambda x: 0.0 * np.asarray(x), deriv=lambda x: np.ones_like(x))
    tied = np.full((1, points.size), 0.5)
    tied[0, [70, 330]] = 1.0
    stats, status, argmax_x = _whole_and_tiled(monkeypatch, np.ones((1, n)), Normal(), flat, points, _sliced(x[:1], tied))
    assert stats[0] == math.sqrt(n) and argmax_x[0] == x[0, 70] and status[0] == 0
    # inf * 0 is a NaN gap at columns 200 and 400: np.argmax picks the first, and so do the tiles; the
    # overflowing gap is the row's status, without a warning
    low = HypothesisFunction(fn=lambda x: np.full_like(x, -1e308), deriv=lambda x: np.ones_like(x))
    holes = np.ones((1, points.size))
    holes[0, [200, 400]] = 0.0
    stats, status, argmax_x = _whole_and_tiled(monkeypatch, np.full((1, n), 1e308), Normal(), low, points, _sliced(x[:1], holes))
    assert np.isnan(stats[0]) and argmax_x[0] == x[0, 200] and status[0] == gof_module._OVERFLOW


def _reference_bootstrap(data, fitter, hyp, replications, seed):
    """The parametric bootstrap one replicate at a time: (observed, replicate statistics, failures)."""
    fitted = fitter(data.values)
    observed = gof_statistic(data, fitted, hyp)
    stats = []
    failures = 0
    for rep in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        draw = fitted.rvs(data.n, rng)
        try:
            stats.append(gof_statistic(Sample(draw), fitter(draw), hyp))
        except (ConvergenceError, DomainError):
            failures += 1
    return observed, np.array(stats), failures


def _recording_kernel(monkeypatch):
    """Record, per call of the batched kernel, its successful rows' statistics and whether a shape table gave their quantiles."""
    recorded = []
    kernel = gof_module._statistic_rows

    def spy(*args, **kwargs):
        stats, status, argmax_x = kernel(*args, **kwargs)
        recorded.append((stats[status == 0], len(args) > 4 and args[4] is not None))
        return stats, status, argmax_x

    monkeypatch.setattr(gof_module, "_statistic_rows", spy)
    return recorded


# A gamma bootstrap statistic scored from a shape table may differ from the
# one-replicate statistic by this relative error.  The table's quantiles are
# within TABLE_REL_ERROR; the statistic's error, with the density read from
# the same table, was measured at up to ~17 times theirs, from n = 16 to 1e5,
# shapes 0.3 to 60 and the identity, log(x+5) and (x+4)^2 transfers.
_TABLE_STAT_REL = 100 * TABLE_REL_ERROR


@pytest.mark.floor
def test_shape_table_block_with_rows_outside_the_band_matches_exact():
    # one block of laws inside and outside the band: each row's statistic is
    # within _TABLE_STAT_REL of the exact one, and bit for bit outside
    n = 50
    points = gof_module._evaluation_set(n)
    table = gamma_quantile_table(2.0, n, points.u())
    t = np.array([-1.5, -1.0, -0.7, -0.2, 0.0, 0.4, 0.9, 1.0, 1.2, 3.0])
    rng = np.random.default_rng(31)
    shape = np.exp(table.center + table.half_width * t)
    law = Gamma(shape=shape[:, None], rate=rng.uniform(0.1, 5.0, t.size)[:, None])
    rows = np.sort(rng.gamma(law.shape, 1.0 / law.rate, size=(t.size, n)), axis=1)
    outside = np.abs(t) > 1.0
    for h_name in ("identity", "log(x+5)", "(x+4)^2"):
        hyp = get_transfer(h_name)
        stats, status, argmax_x = gof_module._statistic_rows(rows, law, hyp, points, functools.partial(table.quantile_density, law))
        exact, exact_status, exact_argmax = gof_module._statistic_rows(rows, law, hyp, points)
        assert not np.any(status) and not np.any(exact_status)
        assert stats == pytest.approx(exact, rel=_TABLE_STAT_REL, abs=0.0), h_name
        assert _same_bits(stats[outside], exact[outside]) and _same_bits(argmax_x[outside], exact_argmax[outside])


@pytest.mark.floor
def test_no_shape_table_above_the_shape_cap():
    # above _TABLE_MAX_SHAPE every refit is scored exactly; just below it, at
    # n = 16, where the band is widest, the table-scored statistics stay
    # within _TABLE_STAT_REL up to the band's upper edge
    cap = distributions_module._TABLE_MAX_SHAPE
    n = 16
    points = gof_module._evaluation_set(n)
    for shape in (np.nextafter(cap, math.inf), 1e3, 1e8):
        assert gamma_quantile_table(shape, n, points.u()) is None
    table = gamma_quantile_table(cap, n, points.u())
    rng = np.random.default_rng(17)
    t = np.concatenate([np.linspace(-1.0, 0.999, 21), rng.uniform(0.8, 0.999, 300)])
    shape = np.exp(table.center + table.half_width * t)
    assert shape.max() > 4.0 * cap
    law = Gamma(shape=shape[:, None], rate=rng.uniform(0.1, 5.0, t.size)[:, None])
    rows = np.sort(rng.gamma(law.shape, 1.0 / law.rate, size=(t.size, n)), axis=1)
    for h_name in ("identity", "log(x+5)", "(x+4)^2"):
        hyp = get_transfer(h_name)
        stats, status, _ = gof_module._statistic_rows(rows, law, hyp, points, functools.partial(table.quantile_density, law))
        exact, exact_status, _ = gof_module._statistic_rows(rows, law, hyp, points)
        assert not np.any(status) and not np.any(exact_status)
        assert stats == pytest.approx(exact, rel=_TABLE_STAT_REL, abs=0.0), h_name


@pytest.mark.floor
def test_monte_carlo_p_value_with_a_shape_table_is_the_exact_one(monkeypatch):
    # the p-value with the table equals the one with exact quantiles and pdf on
    # every row, also at n = 50, where a few refits leave the band
    idn = get_transfer("identity")
    quantile_density = distributions_module.GammaQuantileTable.quantile_density
    left_band = []

    def spy(table, law, start=0, stop=None, out=None):
        left_band.append(int(np.count_nonzero(np.abs(np.log(law.shape) - table.center) > table.half_width)))
        return quantile_density(table, law, start, stop, out)

    for n, shape, seed, replications in ((50, 2.0, 1, 999), (50, 8.0, 1, 999), (300, 3.0, 0, 199)):
        data = Sample(np.random.default_rng(seed + 40).gamma(shape, 1.5, size=n))
        left_band.clear()
        with monkeypatch.context() as patch:
            patch.setattr(distributions_module.GammaQuantileTable, "quantile_density", spy)
            p = monte_carlo_p_value(data, "gamma", idn, replications=replications, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(gof_module, "gamma_quantile_table", lambda *args: None)
            assert p == monte_carlo_p_value(data, "gamma", idn, replications=replications, seed=seed), (n, shape)
        assert sum(left_band) > 0 or n > 50, "no refit left the band at n = 50"


def _check_against_reference(monkeypatch, data, family, fitter, replications, seed):
    idn = get_transfer("identity")
    observed, stats, failures = _reference_bootstrap(data, fitter, idn, replications, seed)
    recorded = _recording_kernel(monkeypatch)
    p = monte_carlo_p_value(data, family, idn, replications=replications, seed=seed)
    # the first call is the observed statistic's one-row call, with exact quantiles
    (first, first_from_table), *rest = recorded
    assert not first_from_table and _same_bits(first, [observed])
    from_table = [s for s, table in rest if table]
    exact = [s for s, table in rest if not table]
    if from_table:
        # every row is scored from the table; the rows re-scored near the
        # observed statistic are exact
        assert np.concatenate(from_table) == pytest.approx(stats, rel=_TABLE_STAT_REL, abs=0.0)
        assert np.all(np.isin(np.concatenate([np.empty(0), *exact]).view(np.int64), stats.view(np.int64)))
    else:
        assert _same_bits(np.concatenate(exact), stats)
    exceed = int(np.count_nonzero(stats >= observed))
    assert p == (1 + exceed) / (replications - failures + 1)
    return exceed, failures


@pytest.mark.floor
def test_monte_carlo_matches_per_replicate_loop(monkeypatch):
    rng = np.random.default_rng(89)
    data = Sample(rng.gamma(3.0, 2.0, size=300))
    width = gof_module._evaluation_set(300).size  # the bootstrap's block width at n = 300
    assert 99 % empirical_module._block_rows(width) != 0  # the last block is partial
    for seed in (0, 5, 17):
        with monkeypatch.context() as patch:
            exceed, failures = _check_against_reference(patch, data, "gamma", fit_gamma_mle, 99, seed)
        assert failures == 0
        assert 0 < exceed < 99  # neither extreme, so a miscounted replicate shows
    monkeypatch.setattr(gof_module, "_block_rows", lambda width: 1)  # one replicate per block
    assert {len(reps) for reps, _ in gof_module.replicate_blocks(3, 101, 1, width, _random_row)} == {1}
    _check_against_reference(monkeypatch, data, "gamma", fit_gamma_mle, 101, 3)

    from transferfn import fit_normal, fit_uniform

    # no shape table here: every statistic equals the scalar refit's bit for bit
    for family, fitter, sample in (
        ("normal", fit_normal, Sample(rng.normal(5.0, 2.0, size=120))),
        ("uniform", fit_uniform, Sample(rng.uniform(1.0, 3.0, size=150))),
    ):
        with monkeypatch.context() as patch:
            exceed, failures = _check_against_reference(patch, sample, family, fitter, 99, 2)
        assert failures == 0
        assert 0 < exceed < 99


@pytest.mark.floor
def test_monte_carlo_without_a_shape_table_is_exact(monkeypatch):
    # with the interval cap at the first table's 8, no table passes its
    # check here, and every statistic is the one-replicate one bit for bit
    data = Sample(np.random.default_rng(89).gamma(3.0, 2.0, size=300))
    monkeypatch.setattr(distributions_module, "_TABLE_MAX_INTERVALS", 8)
    u = gof_module._evaluation_set(300).u()
    assert gamma_quantile_table(fit_gamma_mle(data.values).shape, 300, u) is None
    exceed, failures = _check_against_reference(monkeypatch, data, "gamma", fit_gamma_mle, 99, 5)
    assert failures == 0
    assert 0 < exceed < 99


@pytest.mark.floor
def test_monte_carlo_without_a_shape_table_near_shape_0_02(monkeypatch):
    # near shape 0.02 no log-a grid of _TABLE_MAX_INTERVALS intervals passes
    # the table's check, at n = 16 and 300: every refit is scored exactly
    for n in (16, 300):
        data = Sample(np.random.default_rng(60).gamma(0.02, 1.5, size=n))
        assert gamma_quantile_table(fit_gamma_mle(data.values).shape, n, gof_module._evaluation_set(n).u()) is None
        with monkeypatch.context() as patch:
            exceed, failures = _check_against_reference(patch, data, "gamma", fit_gamma_mle, 99, 1)
        assert failures == 0 and 0 < exceed < 99, n


def test_monte_carlo_rescores_rows_near_the_observed_statistic(monkeypatch):
    # a window covering every row: each row is scored from the table, then
    # re-scored with exact quantiles, and the p-value is the exact one
    data = Sample(np.random.default_rng(89).gamma(3.0, 2.0, size=300))
    idn = get_transfer("identity")
    observed, stats, failures = _reference_bootstrap(data, fit_gamma_mle, idn, 99, 5)
    monkeypatch.setattr(gof_module, "_RESCORE_REL", math.inf)
    recorded = _recording_kernel(monkeypatch)
    p = monte_carlo_p_value(data, "gamma", idn, replications=99, seed=5)
    assert any(from_table for _, from_table in recorded)
    assert _same_bits(np.concatenate([s for s, from_table in recorded[1:] if not from_table]), stats)
    exceed = int(np.count_nonzero(stats >= observed))
    assert 0 < exceed < 99
    assert p == (1 + exceed) / (99 - failures + 1)


def _fitter_failing_on(reps):
    calls = itertools.count(-1)  # call -1 fits the observed data

    def fit(data):
        if next(calls) in reps:
            raise ConvergenceError("chosen replicate", last=None)
        return fit_gamma_mle(data)

    return fit


def _refits_failing_on(monkeypatch, reps):
    """Make Gamma.fit_rows fail the chosen replicates, counted across its calls from 0."""
    fit_rows = Gamma.fit_rows
    seen = itertools.count()

    def failing(cls, draws):
        law, status = fit_rows(draws)
        keep = ~np.isin([next(seen) for _ in draws], list(reps))
        ok = status == FIT_OK
        return cls(shape=law.shape[keep[ok]], rate=law.rate[keep[ok]]), np.where(keep, status, FIT_NO_CONVERGENCE)

    monkeypatch.setattr(Gamma, "fit_rows", classmethod(failing))


def test_monte_carlo_drops_and_counts_failed_refits(monkeypatch):
    idn = get_transfer("identity")
    data = Sample(np.random.default_rng(90).gamma(3.0, 2.0, size=300))
    dropped = {3, 45, 98}
    observed, stats, failures = _reference_bootstrap(data, _fitter_failing_on(dropped), idn, 99, 4)
    assert failures == 3
    exceed = int(np.count_nonzero(stats >= observed))
    # one replicate per block too, so that a block with no fitted row runs
    for one_per_block in (False, True):
        with monkeypatch.context() as patch:
            if one_per_block:
                patch.setattr(gof_module, "_block_rows", lambda width: 1)
            _refits_failing_on(patch, dropped)
            p = monte_carlo_p_value(data, "gamma", idn, replications=99, seed=4)
        assert p == (1 + exceed) / (96 + 1), one_per_block
    _refits_failing_on(monkeypatch, {0, 1, 44, 45, 46, 98})
    message = "^6/99 bootstrap replicates failed: 6 refits of the gamma family and 0 statistics$"
    with pytest.raises(ConvergenceError, match=message):
        monte_carlo_p_value(data, "gamma", idn, replications=99, seed=4)


def test_monte_carlo_counts_undefined_statistics_apart_from_refits():
    # every normal refit succeeds; 20 replicates fail because h' <= 0 on their trimmed region
    data = Sample(np.random.default_rng(0).normal(-2.8, 1.0, 16))
    with pytest.raises(ConvergenceError) as info:
        monte_carlo_p_value(data, "normal", get_transfer("(x+4)^2"), 99, 0)
    assert str(info.value) == (
        "20/99 bootstrap replicates failed: 0 refits of the normal family and 20 statistics, "
        "the first because h must have a positive derivative on the trimmed region"
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 1")
def test_monte_carlo_rejects_a_wrong_transfer_under_a_fitted_input_law():
    # Y = (Z + 4)^2 tested against h = e^x, Z standard normal: the known-law test gives 217.6 with
    # p = 0, but the bootstrap fits the normal family to Y and draws Y from that law, so it tests
    # g = h correctly only for h = identity
    z = np.random.default_rng(5).standard_normal(1000)
    assert monte_carlo_p_value(Sample((z + 4.0) ** 2), "normal", get_transfer("e^x"), 199, 0) <= 0.05


def test_monte_carlo_rejects_gamma_draws_that_underflow():
    # at fitted shapes 0.0064, 0.0078 and 0.0086 numpy's gamma sampler returns
    # exact zeros, outside the law's support: the sampler failed, not the data,
    # so no replicate is dropped or counted as a refit failure for it
    idn = get_transfer("identity")
    for seed, shape in ((1, 0.006), (0, 0.006), (1, 0.008)):
        data = Sample(np.random.default_rng(seed).gamma(shape, 1.0, 16))
        with pytest.raises(DomainError, match=r"fitted Gamma\(shape=0\.00.* left its support: a draw underflowed to 0") as info:
            monte_carlo_p_value(data, "gamma", idn, 99, 0)
        assert type(info.value) is DomainError, (seed, shape)


def _random_row(rng):
    return rng.random(1)


def _recorded_streams(seed, replications, width, key):
    """(the PCG64 state each replicate's ``draw`` saw, the rows) of one ``replicate_blocks`` call of 4-draw rows."""
    states = []

    def draw(rng):
        states.append(rng.bit_generator.state)
        return rng.random(4)

    # every block is a view of one buffer that the next block rewrites, so each is copied
    blocks = gof_module.replicate_blocks(seed, replications, 4, width, draw, key=key)
    blocks = [(reps, rows.copy()) for reps, rows in blocks]
    assert [rep for reps, _ in blocks for rep in reps] == list(range(replications))
    return states, np.concatenate([rows for _, rows in blocks])


@pytest.mark.floor
def test_replicate_blocks_streams_match_seed_sequence(monkeypatch):
    # replicate_blocks hashes its streams' seed words by its own copy of numpy's
    # SeedSequence; every replicate's PCG64 state must be numpy's, whole
    # blocks at a time, over one- to five-word seeds and one-word and
    # multi-word keys
    pick = np.random.default_rng(2718)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 7]
    seeds += [int(pick.integers(0, 2**62)) >> int(pick.integers(0, 62)) for _ in range(10)]
    seeds += [int.from_bytes(pick.bytes(int(pick.integers(5, 24))), "little") for _ in range(10)]
    width = 1000  # blocks of 32 rows: 32 and a partial 13
    for elements in (empirical_module._BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(empirical_module, "_BLOCK_ELEMENTS", elements)
        assert gof_module._block_rows(width) < 45  # more than one block
        for seed in seeds:
            for key in ((), (7,), (2**33 + 5, 0)):
                states, rows = _recorded_streams(seed, 45, width, key)
                for rep in range(45):
                    reference = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(*key, rep)))
                    assert states[rep] == reference.state, (seed, key, rep)
                    assert _same_bits(rows[rep], np.random.Generator(reference).random(4)), (seed, key, rep)
                    assert _same_bits(rows[rep], gof_module.replication_rng(seed, (*key, rep)).random(4))


def test_replicate_blocks_rewrite_one_buffer_with_each_familys_draws(monkeypatch):
    # every block is a view of one array that the next block rewrites, and
    # row i holds the family's draw on replicate reps[i]'s own stream
    laws = (Gamma(2.0, 1.5), Normal(0.3, 1.7), Uniform(-1.0, 2.5))
    for elements in (empirical_module._BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(empirical_module, "_BLOCK_ELEMENTS", elements)
        assert gof_module._block_rows(1000) < 45  # more than one block
        for law in laws:
            seen, previous = [], None
            # width 1000: blocks of 32 rows, 32 and a partial 13, or of one row
            for reps, rows in gof_module.replicate_blocks(11, 45, 50, 1000, functools.partial(law.rvs, 50), key=(3,)):
                assert rows.shape == (len(reps), 50)
                assert previous is None or np.shares_memory(rows, previous)
                for i, rep in enumerate(reps):
                    assert _same_bits(rows[i], law.rvs(50, replication_rng(11, (3, rep)))), (law, rep)
                seen += reps
                previous = rows
            assert seen == list(range(45))


@pytest.mark.floor
def test_row_kernels_into_reused_buffers_match_allocating_calls():
    # the bootstrap and the Table 2 grid hand each block's kernels the
    # buffers the previous block wrote, with more rows than the block: the
    # results are the allocating calls' bit for bit, with rows outside the
    # shape table's band and a row whose law fails
    n = 50
    points = gof_module._evaluation_set(n)
    size = points.size
    table = gamma_quantile_table(2.0, n, points.u())
    t = np.array([-1.5, -0.7, 0.0, 0.9, 1.2])
    rng = np.random.default_rng(32)
    law = Gamma(shape=np.exp(table.center + table.half_width * t)[:, None], rate=rng.uniform(0.1, 5.0, t.size)[:, None])
    rows = np.sort(rng.gamma(law.shape, 1.0 / law.rate, size=(t.size, n)), axis=1)
    law_buffer = (rng.normal(size=(t.size + 2, size)), rng.normal(size=(t.size + 2, size)))
    x, density = table.quantile_density(law, out=law_buffer)
    assert np.shares_memory(x, law_buffer[0]) and np.shares_memory(density, law_buffer[1])
    assert all(_same_bits(a, b) for a, b in zip((x, density), table.quantile_density(law)))
    # finite quantiles (~1e-310) where the second law's density overflows, as in test_statistic_domain_errors
    bad = Gamma(shape=np.array([[2.0], [0.5]]), rate=np.array([[1.5], [1e308]]))
    bad_rows = np.sort(np.stack([rng.gamma(2.0, 1.0 / 1.5, n), rng.gamma(0.5, 1e-308, n)]), axis=1)
    work = tuple(rng.normal(size=(t.size + 2, size)) for _ in range(3))
    cases = [(rows, law, _sliced(x, density), h) for h in ("identity", "log(x+5)", "(x+4)^2")]
    cases.append((rows, law, functools.partial(table.quantile_density, law, out=law_buffer), "identity"))
    cases += [(rows, law, None, "log(x+5)"), (rows, Normal(), None, "(x+4)^2"), (bad_rows, bad, None, "identity")]
    for block, dist, law_values, h_name in cases:
        allocated = gof_module._statistic_rows(block, dist, get_transfer(h_name), points, law_values)
        reused = gof_module._statistic_rows(block, dist, get_transfer(h_name), points, law_values, work)
        assert all(_same_bits(a, b) for a, b in zip(allocated, reused)), (h_name, dist)
    assert list(reused[1]) == [0, gof_module._BAD_LAW]  # the last case's second law fails


@pytest.mark.floor
def test_shape_table_tiles_match_one_full_width_call_bit_for_bit():
    # past 2^14 points the bootstrap's blocks are one row, and the table's quantiles and density
    # come a tile at a time into tile-wide planes: each tile equals those columns of one
    # full-width call bit for bit, inside the band and outside it
    n = 20_000
    points = gof_module._evaluation_set(n)
    size = points.size
    rows = empirical_module._block_rows(size)
    planes = empirical_module._block_buffers(2, rows, size)
    tiles = empirical_module._tiles(size, planes[0].shape[1])
    assert rows == 1 and len(tiles) > 1
    table = gamma_quantile_table(3.0, n, points.u())
    t = np.array([-1.5, -1.0, -0.3, 0.0, 0.8, 1.0, 2.0])
    rates = np.random.default_rng(33).uniform(0.1, 5.0, t.size)
    for shape, rate in zip(np.exp(table.center + table.half_width * t), rates):
        law = Gamma(shape=np.array([[shape]]), rate=np.array([[rate]]))
        x, density = table.quantile_density(law)
        for start, stop in tiles:
            tile = table.quantile_density(law, start, stop, out=planes)
            assert all(np.shares_memory(values, plane) for values, plane in zip(tile, planes))
            assert _same_bits(tile[0], x[:, start:stop]) and _same_bits(tile[1], density[:, start:stop]), (shape, start)


@pytest.mark.floor
def test_seeds_and_keys_must_be_non_negative_integers():
    for seed in (-1, -(2**64), 1.5, 2.0, "3", None, np.float64(4.0)):
        with pytest.raises(ArgumentError, match="must be an integer >= 0"):
            gof_module.replication_rng(seed, 0)
        with pytest.raises(ArgumentError, match="must be an integer >= 0"):
            next(gof_module.replicate_blocks(seed, 3, 1, 10, _random_row))
        # and so must a stream key's elements
        with pytest.raises(ArgumentError, match="must be an integer >= 0"):
            gof_module.replication_rng(0, (3, seed))
        with pytest.raises(ArgumentError, match="must be an integer >= 0"):
            next(gof_module.replicate_blocks(0, 3, 1, 10, _random_row, key=(seed,)))
    # numpy integers are integers
    states, _ = _recorded_streams(np.uint64(5), 3, 10, ())
    assert states[2] == np.random.PCG64(np.random.SeedSequence(entropy=5, spawn_key=(2,))).state
    # and a replication count is one too
    for count in (3.0, -1, "3", None, np.float64(3.0)):
        with pytest.raises(ArgumentError, match="a replication count must be an integer >= 0"):
            next(gof_module.replicate_blocks(0, count, 1, 10, _random_row))
    assert len(next(gof_module.replicate_blocks(0, np.int64(3), 1, 10, _random_row))[0]) == 3
