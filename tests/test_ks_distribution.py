import math

import numpy as np
import pytest
from scipy.special import kolmogorov

from transferfn import DomainError, ks_sup_cdf, ks_sup_quantile, ks_sup_tail

# the bridge-sup law is scipy's; these referees run at the oldest scipy too
pytestmark = pytest.mark.floor


def series_oracle(c, terms=60):
    return 2.0 * sum((-1) ** (k + 1) * math.exp(-2.0 * k * k * c * c) for k in range(1, terms + 1))


def test_tail_spot_values():
    assert ks_sup_tail(1.3581) == pytest.approx(0.05, abs=5e-4)
    assert ks_sup_tail(0.5) == pytest.approx(series_oracle(0.5), abs=1e-12)
    assert ks_sup_tail(0.5) == pytest.approx(0.9639, abs=1e-3)
    assert ks_sup_tail(5.0) < 1e-20


def test_tail_matches_classical_tables():
    # scipy's kolmogorov is the classical two-sided sup law
    for c in np.linspace(0.3, 3.0, 28):
        assert ks_sup_tail(float(c)) == pytest.approx(float(kolmogorov(c)), abs=1e-12)


def test_tail_domain():
    for c in (0.0, -1.0, float("inf")):
        with pytest.raises(DomainError):
            ks_sup_tail(c)


def test_tail_strictly_decreasing_and_bounded():
    cs = np.linspace(1e-3, 10.0, 2000)
    vals = np.array([ks_sup_tail(float(c)) for c in cs])
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 2e-14)  # ulp-level jitter where the series saturates at 1
    # strictly decreasing above the plateau below c ~ 0.175, where the tail
    # rounds to 1
    cs = np.linspace(0.25, 4.0, 2000)
    vals = np.array([ks_sup_tail(float(c)) for c in cs])
    assert np.all(np.diff(vals) < 0.0)


def test_no_atom_lipschitz():
    delta = 1e-6
    for c in np.linspace(0.3, 3.0, 20):
        gap = abs(ks_sup_tail(float(c + delta)) - ks_sup_tail(float(c - delta)))
        assert gap <= 10.0 * delta


def test_quantile_spot_values():
    assert ks_sup_quantile(0.95) == pytest.approx(1.3581, abs=1e-3)
    assert ks_sup_quantile(0.99) == pytest.approx(1.6276, abs=1e-3)


def test_quantile_round_trip():
    for p in (0.5, 0.85, 0.99):
        c = ks_sup_quantile(p)
        assert ks_sup_tail(c) == pytest.approx(1.0 - p, abs=1e-9)
        assert ks_sup_cdf(c) == pytest.approx(p, abs=1e-9)


def test_quantile_domain():
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            ks_sup_quantile(p)


def test_quantile_monotone():
    ps = np.linspace(0.01, 0.999, 200)
    cs = np.array([ks_sup_quantile(float(p)) for p in ps])
    assert np.all(np.diff(cs) > 0.0)


def _mp_cdf(mpmath, c, digits=400):
    """P(sup |B| <= c) from the alternating series at `digits` digits; 400 absorb its cancellation."""
    with mpmath.workdps(digits):
        c = mpmath.mpf(c)
        total = mpmath.mpf(0)
        k = 1
        while True:
            term = mpmath.exp(-2 * k * k * c * c)
            if term < mpmath.mpf(10) ** (10 - digits):
                break
            total += term if k % 2 else -term
            k += 1
        return 1 - 2 * total


def test_cdf_matches_high_precision_sum():
    mpmath = pytest.importorskip("mpmath")
    for c in np.linspace(0.05, 3.0, 60):
        c = float(c)
        ref = _mp_cdf(mpmath, c)
        assert float(abs(ks_sup_cdf(c) - ref) / ref) <= 1e-13, c
        if c < 1.0:  # test_upper_tail_matches_high_precision_sum checks the tail above 1
            assert float(abs(ks_sup_tail(c) - (1 - ref)) / (1 - ref)) <= 1e-13, c


def test_upper_tail_matches_high_precision_sum():
    # full relative precision wherever the tail is a normal double: 2 exp(-2
    # c^2) >= 2^-1022 up to c ~ 18.8
    mpmath = pytest.importorskip("mpmath")
    for c in [*np.linspace(1.0, 18.75, 143), 2.05, 4.1]:
        c = float(c)
        with mpmath.workdps(60):
            ref = 2 * mpmath.nsum(lambda k: (-1) ** (k + 1) * mpmath.exp(-2 * k * k * mpmath.mpf(c) ** 2), [1, mpmath.inf])
        assert float(abs(ks_sup_tail(c) - ref) / ref) <= 1e-13, c
    # beyond c ~ 19.3 the tail is below the smallest subnormal double
    assert ks_sup_tail(19.5) == 0.0 and ks_sup_tail(25.0) == 0.0


def test_no_step_at_one_and_tails_sum_to_one():
    # the upper tail and the CDF are separate scipy routines; across c = 1
    # neither has a step, and they add up to 1 within 2 ulp
    for c in np.linspace(0.9, 1.1, 41):
        c = float(c)
        assert abs(ks_sup_cdf(c) + ks_sup_tail(c) - 1.0) <= 2.0 * math.ulp(1.0), c
    below = np.nextafter(1.0, 0.0)
    assert abs(ks_sup_tail(below) - ks_sup_tail(1.0)) <= 1e-15
    assert abs(ks_sup_cdf(below) - ks_sup_cdf(1.0)) <= 1e-15


def test_lower_tail_quantile_round_trip():
    for p in (1e-15, 1e-12, 1e-9, 1e-3, 0.3):
        c = ks_sup_quantile(p)
        assert ks_sup_cdf(c) == pytest.approx(p, rel=1e-8, abs=0.0)
    assert ks_sup_cdf(1e-6) == 0.0 and ks_sup_tail(1e-6) == 1.0


def test_critical_values_unchanged():
    # each equals the correctly rounded 60-digit root (test_quantile_matches_high_precision_root)
    assert ks_sup_quantile(0.85) == 1.1379465424937751
    assert ks_sup_quantile(0.95) == 1.3580986393225505
    assert ks_sup_quantile(0.99) == 1.6276236115189502


def _mp_root(mpmath, p):
    """c with P(sup |B| <= c) = p: 180 halvings of [0.3, 8] at 60 digits."""
    with mpmath.workdps(60):
        lo, hi = mpmath.mpf("0.3"), mpmath.mpf(8)
        for _ in range(180):
            mid = (lo + hi) / 2
            if _mp_cdf(mpmath, mid, digits=60) < mpmath.mpf(p):
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def test_quantile_matches_high_precision_root():
    mpmath = pytest.importorskip("mpmath")
    for p in (0.01, 0.15, 0.3, 0.5, 0.7, 0.85, 0.9, 0.95, 0.99, 0.995, 0.999, 1 - 1e-6, 1 - 1e-12):
        ref = _mp_root(mpmath, p)
        assert abs(ks_sup_quantile(p) - ref) <= 1e-14 * ref, p
        if p in (0.85, 0.95, 0.99):
            assert ks_sup_quantile(p) == ref, p
