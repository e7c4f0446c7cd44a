import math

import numpy as np
import pytest
from scipy.special import ndtri

from transferfn import (
    DGPConfig,
    DomainError,
    Normal,
    Sample,
    Uniform,
    default_block_length,
    ecdf,
    estimate_with_ci,
    generate,
    replication_rng,
    sample_quantile,
    subsample_ci,
    subsample_distribution,
)

from oracles import long_run_variance, ma_series


def test_default_block_length():
    assert default_block_length(3000) == math.ceil(3000**0.8)
    assert default_block_length(100) == math.ceil(100**0.8)


def test_two_window_case_by_hand():
    # data {1,3,2,5}, b=3, p=0.5: windows {1,3,2} -> 2, {3,2,5} -> 3;
    # full-sample quantile at p=0.5 is the 2nd order statistic = 2
    s = Sample([1.0, 3.0, 2.0, 5.0])
    d = Uniform(0.0, 10.0)
    law = subsample_distribution(s, d, 5.0, b=3)
    expected = np.sort(math.sqrt(3.0) * np.abs(np.array([2.0, 3.0]) - 2.0))
    assert np.allclose(np.sort(law.values), expected)


def test_degenerate_constant_sample():
    s = Sample(np.full(50, 3.25))
    law = subsample_distribution(s, Uniform(0.0, 10.0), 3.0, b=10)
    assert np.all(law.values == 0.0)
    assert ecdf(law, 0.0) == 1.0


def test_iid_matches_quantile_clt():
    # S_{n,b} evaluated at the CLT eta should sit near the nominal level
    d = Normal()
    rng = np.random.default_rng(6)
    s = Sample(d.rvs(2000, rng))
    b = default_block_length(2000)
    eta = 1.96 * math.sqrt(0.25) / d.pdf(0.0)
    law = subsample_distribution(s, d, 0.0, b)
    assert abs(ecdf(law, eta) - 0.95) <= 0.1


def test_d_quantile_monotone_in_level():
    rng = np.random.default_rng(7)
    s = Sample(rng.normal(size=500))
    d_med = subsample_ci(s, Normal(), 0.0, 0.5).d_quantile
    d_ext = subsample_ci(s, Normal(), 0.0, 0.01).d_quantile
    assert d_med <= d_ext


def test_ci_is_symmetric_and_consistent_with_distribution():
    rng = np.random.default_rng(8)
    s = Sample(rng.normal(size=800))
    res = subsample_ci(s, Normal(), 0.3, 0.05, b=120)
    mid = 0.5 * (res.ci[0] + res.ci[1])
    assert mid == pytest.approx(res.ghat, abs=1e-12)
    law = subsample_distribution(s, Normal(), 0.3, 120)
    assert res.d_quantile == sample_quantile(law, 0.95)
    assert res.ci[1] - res.ci[0] == pytest.approx(2.0 * res.d_quantile / math.sqrt(800))


def test_iid_width_within_factor_two_of_theorem1():
    d = Normal()
    cfg = DGPConfig(transfer="identity", n=2000, seed=21)
    _, y = generate(cfg, replication_rng(21, 0))
    s = Sample(y)
    sub = subsample_ci(s, d, 0.0, 0.05)
    ci = estimate_with_ci(s, d, 0.0, 0.05)
    ratio = (sub.ci[1] - sub.ci[0]) / (ci.ci_hi[0] - ci.ci_lo[0])
    assert 0.5 <= ratio <= 2.0


def test_validation():
    rng = np.random.default_rng(9)
    s = Sample(rng.normal(size=100))
    for b in (1, 100, 101):
        with pytest.raises(DomainError):
            subsample_distribution(s, Normal(), 0.0, b)
    with pytest.raises(DomainError):
        subsample_distribution(s, Uniform(0.0, 1.0), 1.5, 10)
    with pytest.raises(DomainError):
        subsample_ci(s, Normal(), 0.0, 1.2)


def test_snb_converges_to_normal_limit():
    # truth from the linear-process CLT: N(0, lrv / f^2) for the identity
    # transfer; the long-run variance oracle is a brute-force 1e6 realization
    coef = 0.9 ** np.arange(11)
    rng = np.random.default_rng(31415)
    z_long = ma_series(coef, 10**6, rng)
    lrv = long_run_variance(z_long <= 0.0)
    marginal = Normal(0.0, float(np.sqrt((coef**2).sum())))
    tau = math.sqrt(lrv) / marginal.pdf(0.0)
    level = 0.75
    eta_star = ndtri(0.5 + level / 2.0) * tau

    med_err = {}
    for n in (500, 4000):
        b = default_block_length(n)
        cfg = DGPConfig(transfer="identity", n=n, seed=99, ma_order=10, ma_decay=0.9)
        errs = []
        for r in range(50):
            _, y = generate(cfg, replication_rng(99, (n, r)))
            law = subsample_distribution(Sample(y), marginal, 0.0, b)
            errs.append(abs(ecdf(law, eta_star) - level))
        med_err[n] = float(np.median(errs))
    assert med_err[4000] <= med_err[500]
