import numpy as np
import pytest
from scipy.special import ndtri

from oracles import naive_inf_quantile
from transferfn import (
    DGPConfig,
    DomainError,
    Gamma,
    Normal,
    Sample,
    Uniform,
    default_grid,
    estimate,
    estimate_with_ci,
    run_coverage_study,
)
from transferfn.estimator import estimator_ranks


def test_estimate_identity_consistency():
    rng = np.random.default_rng(0)
    s = Sample(rng.normal(size=100_000))
    assert 0.45 < estimate(s, Normal(), 0.5) < 0.55


def test_estimate_single_observation():
    s = Sample([7.0])
    for x in (-2.0, 0.0, 3.5):
        assert estimate(s, Normal(), x) == 7.0


def test_estimate_squared_transfer_near_truth():
    rng = np.random.default_rng(5)
    z = rng.normal(size=1000)
    s = Sample((z + 4.0) ** 2)
    assert estimate(s, Normal(), 0.0) == pytest.approx(16.0, abs=1.5)


def test_estimate_monotone_on_grid():
    rng = np.random.default_rng(1)
    s = Sample(np.log(rng.normal(size=500) + 12.0))
    rng2 = np.random.default_rng(2)
    for _ in range(200):
        xs = np.sort(rng2.uniform(-3.0, 3.0, size=25))
        vals = estimate(s, Normal(), xs)
        assert np.all(np.diff(vals) >= 0.0)


def test_estimate_equivariance_exact():
    # estimate of h(Y) data equals h(estimate of Y data), bit for bit
    rng = np.random.default_rng(8)
    z = rng.normal(size=257)
    s = Sample(z)
    mapped = Sample(np.exp(s.values))
    xs = np.linspace(-2.0, 2.0, 41)
    assert np.array_equal(estimate(mapped, Normal(), xs), np.exp(estimate(s, Normal(), xs)))


def test_estimate_domain_error_names_point():
    s = Sample([1.0, 2.0])
    with pytest.raises(DomainError, match="-1.0"):
        estimate(s, Uniform(0.0, 1.0), [0.5, -1.0])


def test_pointwise_ci_levels_match_formula():
    # F(x)=0.5, alpha=0.05, n=100: c1 = 0.5 - 1.959964*0.05 = 0.402, c2 = 0.598
    rng = np.random.default_rng(3)
    s = Sample(rng.uniform(size=100))
    r = estimator_ranks(Uniform(0.0, 1.0), 0.5, s.n, 0.05)
    assert r.c1[0] == pytest.approx(0.5 + ndtri(0.025) * 0.05, abs=1e-12)
    assert r.c2[0] == pytest.approx(0.5 - ndtri(0.025) * 0.05, abs=1e-12)
    assert r.c1[0] == pytest.approx(0.402, abs=1e-3)
    assert r.c2[0] == pytest.approx(0.598, abs=1e-3)
    assert not r.clamped[0]
    res = estimate_with_ci(s, Uniform(0.0, 1.0), 0.5, 0.05)
    assert res.ci_lo[0] <= res.ci_hi[0]
    assert not res.clamped[0]


def test_pointwise_ci_width_shrinks_like_root_n():
    d = Normal()
    ratios = []
    for r in range(40):
        rng = np.random.default_rng(1000 + r)
        small = Sample(d.rvs(1000, rng))
        big = Sample(d.rvs(4000, rng))
        ci_small = estimate_with_ci(small, d, 0.5, 0.05)
        ci_big = estimate_with_ci(big, d, 0.5, 0.05)
        ratios.append((ci_big.ci_hi[0] - ci_big.ci_lo[0]) / (ci_small.ci_hi[0] - ci_small.ci_lo[0]))
    assert 0.3 < np.mean(ratios) < 0.7


def test_pointwise_ci_clamps_at_probability_boundary():
    rng = np.random.default_rng(4)
    s = Sample(rng.normal(size=12))
    r = estimator_ranks(Normal(), -2.8, s.n, 0.05)  # F(x) ~ 0.0026, c1 < 0
    assert r.clamped[0]
    assert r.c1[0] == pytest.approx(1.0 / 12.0)
    res = estimate_with_ci(s, Normal(), -2.8, 0.05)
    assert res.clamped[0]
    assert res.ci_lo[0] <= res.ci_hi[0]


def test_pointwise_ci_alpha_domain():
    s = Sample([1.0, 2.0, 3.0])
    for alpha in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(DomainError):
            estimate_with_ci(s, Normal(), 0.0, alpha)


def test_estimate_with_ci_invariants():
    rng = np.random.default_rng(6)
    z = rng.normal(size=800)
    s = Sample((z + 4.0) ** 2)
    xs = np.linspace(-2.0, 2.0, 101)
    res = estimate_with_ci(s, Normal(), xs, 0.01)
    assert np.all(res.ci_lo <= res.ghat)
    assert np.all(res.ghat <= res.ci_hi)
    assert np.all(np.diff(res.ghat) >= 0.0)
    assert res.level == pytest.approx(0.99)
    assert res.n == 800


def test_coverage_theorem1():
    # asymptotic guarantee: >= 1 - alpha in the limit; demands 0.97 here
    for transfer, seed in (("(x+4)^2", 42), ("log(x+5)", 43)):
        cfg = DGPConfig(transfer=transfer, n=1000, seed=seed)
        rep = run_coverage_study(cfg, [-1.0, 0.0, 1.0], 0.01, 500, method="ci")
        assert all(c >= 0.97 for c in rep.cells.values()), (transfer, rep.cells)


def test_default_grid():
    xs = default_grid(Normal(), npoints=201)
    assert xs.size == 201
    assert xs[0] == pytest.approx(ndtri(0.01))
    assert xs[-1] == pytest.approx(ndtri(0.99))
    with pytest.raises(DomainError):
        default_grid(Normal(), npoints=0)
    # a quantile that over- or underflows onto the support's edge is the law's numeric failure, not the caller's
    for dist, message in (
        (Normal(0.0, 1e308), r"Normal\(mean=0.0, sd=1e\+308\) quantile at level 0.01 is -inf, not inside"),
        (Gamma(0.001, 1.0), r"Gamma\(shape=0.001, rate=1.0\) quantile at level 0.01 is 0, not inside"),
    ):
        with pytest.raises(DomainError, match=message) as info:
            default_grid(dist, 3)
        assert type(info.value) is DomainError


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize(
    "dist, lo, hi",
    [(Normal(1.0, 2.0), -80.0, 80.0), (Gamma(3.0, 0.5), 1e-3, 40.0), (Uniform(-1.0, 2.0), -0.999, 1.999)],
    ids=["normal", "gamma", "uniform"],
)
def test_rank_core_matches_public_api(dist, lo, hi):
    # far-tail points clamp the CI levels at 1/n and 1 (the normal's cdf
    # underflows to 0 at -80); n = 1 and 2 put every level on a boundary
    rng = np.random.default_rng(31)
    tiny = np.finfo(float).tiny
    clamps = 0
    for n in (1, 2, 7, 100, 1000):
        sample = Sample(dist.rvs(n, rng))
        srt = sample.sorted_values
        for _ in range(5):
            xs = np.sort(rng.uniform(lo, hi, size=int(rng.integers(1, 30))))
            alpha = float(rng.uniform(1e-3, 0.49))
            r = estimator_ranks(dist, xs, n, alpha)
            assert np.array_equal(r.ghat, estimator_ranks(dist, xs, n).ghat)
            assert np.array_equal(_bits(srt[r.ghat]), _bits(estimate(sample, dist, xs)))
            res = estimate_with_ci(sample, dist, xs, alpha)
            for got, want in ((res.ghat, srt[r.ghat]), (res.ci_lo, srt[r.lo]), (res.ci_hi, srt[r.hi])):
                assert np.array_equal(_bits(got), _bits(want))
            assert np.array_equal(res.clamped, r.clamped)
            clamps += int(np.count_nonzero(r.clamped))
            for j, x in enumerate(xs):
                one = estimate_with_ci(sample, dist, float(x), alpha)
                got = [one.ghat[0], one.ci_lo[0], one.ci_hi[0]]
                assert _bits(got).tolist() == _bits([srt[r.ghat[j]], srt[r.lo[j]], srt[r.hi[j]]]).tolist()
                assert one.clamped[0] == r.clamped[j]
                assert estimate(sample, dist, float(x)) == srt[r.ghat[j]]
            # the referee: the inf-quantile scan at the levels written out here
            p = np.clip(dist.cdf(xs), tiny, 1.0)
            assert np.array_equal(_bits(r.p), _bits(p))
            half = ndtri(alpha / 2.0) * np.sqrt(p * (1.0 - p) / n)
            c1 = np.clip(p + half, 1.0 / n, 1.0)
            c2 = np.maximum(np.clip(p - half, 1.0 / n, 1.0), c1)
            assert np.array_equal(_bits(r.c1), _bits(c1)) and np.array_equal(_bits(r.c2), _bits(c2))
            for j in range(xs.size):
                assert srt[r.ghat[j]] == naive_inf_quantile(srt, p[j])
                assert srt[r.lo[j]] == naive_inf_quantile(srt, c1[j])
                assert srt[r.hi[j]] == naive_inf_quantile(srt, c2[j])
    assert clamps > 0
    with pytest.raises(DomainError):
        estimator_ranks(dist, xs, 10, 0.5)
