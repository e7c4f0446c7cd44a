import subprocess
import sys
import textwrap

import numpy as np
import pytest

from transferfn import ArgumentError, DomainError, Sample, block_quantiles, ecdf, sample_quantile
from transferfn.empirical import _block_quantile_rows

from oracles import naive_inf_quantile, naive_window_quantiles, ma_series


def test_ecdf_counts():
    s = Sample([1.0, 2.0, 3.0])
    assert ecdf(s, 2.0) == pytest.approx(2 / 3)
    assert ecdf(s, 1.5) == pytest.approx(1 / 3)
    assert ecdf(s, 0.0) == 0.0
    assert ecdf(s, 3.0) == 1.0
    # the infinities keep their limits; a NaN point has no count
    assert np.array_equal(ecdf(s, [-np.inf, np.inf]), [0.0, 1.0])
    for x in (np.nan, [2.0, np.nan]):
        with pytest.raises(ArgumentError, match="ecdf points must not be NaN"):
            ecdf(s, x)


def test_ecdf_right_continuous_with_ties():
    s = Sample([1.0, 1.0, 2.0])
    assert ecdf(s, 1.0) == pytest.approx(2 / 3)
    assert ecdf(s, np.nextafter(1.0, 0.0)) == 0.0


def test_sample_quantile_inf_definition():
    s = Sample([1.0, 2.0, 3.0])
    assert sample_quantile(s, 0.5) == 2.0
    assert sample_quantile(Sample([5.0]), 0.123) == 5.0
    assert sample_quantile(Sample([5.0]), 1.0) == 5.0


def test_sample_quantile_matches_linear_scan():
    rng = np.random.default_rng(42)
    values = rng.normal(size=100)
    s = Sample(values)
    assert sample_quantile(s, 0.37) == naive_inf_quantile(values, 0.37)
    for p in rng.uniform(0.001, 1.0, size=200):
        assert sample_quantile(s, float(p)) == naive_inf_quantile(values, float(p))


def test_sample_quantile_domain():
    s = Sample([1.0, 2.0])
    for p in (0.0, -0.1, 1.0001):
        with pytest.raises(DomainError):
            sample_quantile(s, p)


def test_quantile_rank_float_fuzz():
    # 0.4 * 5 rounds up in floats; the inf index must still be 2
    s = Sample([1.0, 2.0, 3.0, 4.0, 5.0])
    assert sample_quantile(s, 0.4) == 2.0
    for n in (3, 7, 10, 49, 1000):
        vals = np.arange(1.0, n + 1.0)
        sn = Sample(vals)
        for i in range(1, n + 1):
            assert sample_quantile(sn, i / n) == float(i)


def test_galois_property_randomized():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        s = Sample(rng.normal(size=n))
        p = float(rng.uniform(1e-6, 1.0))
        q = sample_quantile(s, p)
        assert ecdf(s, q) >= p
        assert ecdf(s, np.nextafter(q, -np.inf)) < p


def test_quantile_monotone_in_p():
    rng = np.random.default_rng(11)
    s = Sample(rng.normal(size=57))
    ps = np.sort(rng.uniform(0.001, 1.0, size=100))
    qs = sample_quantile(s, ps)
    assert np.all(np.diff(qs) >= 0.0)


def test_transport_identity_exact():
    rng = np.random.default_rng(3)
    values = rng.normal(size=83)
    s = Sample(values)
    mapped = Sample(np.exp(s.values))
    for p in rng.uniform(0.001, 1.0, size=100):
        assert sample_quantile(mapped, float(p)) == np.exp(sample_quantile(s, float(p)))


def test_glivenko_cantelli_smoke():
    rng = np.random.default_rng(1234)
    u = rng.uniform(size=100_000)
    s = Sample(u)
    grid = np.linspace(0.0, 1.0, 2001)
    gap = np.max(np.abs(ecdf(s, grid) - grid))
    assert gap < 0.01


def test_block_quantiles_small_cases():
    s = Sample([1.0, 2.0, 3.0, 4.0])
    assert block_quantiles(s, 2, 0.5).tolist() == [1.0, 2.0, 3.0]
    full = block_quantiles(s, 4, 0.5)
    assert full.size == 1
    assert full[0] == sample_quantile(s, 0.5)


def test_block_quantiles_against_naive_on_ma_data():
    rng = np.random.default_rng(9)
    z = ma_series(0.9 ** np.arange(11), 200, rng)
    s = Sample(z)
    fast = block_quantiles(s, 14, 0.3)
    assert np.array_equal(fast, naive_window_quantiles(z, 14, 0.3))


def test_block_quantiles_randomized_oracle():
    rng = np.random.default_rng(99)
    cases = []
    for _ in range(25):
        n = int(rng.integers(2, 120))
        cases.append((rng.normal(size=n), int(rng.integers(1, n + 1))))
    for _ in range(25):
        # integer-valued data: many ties inside every window
        n = int(rng.integers(2, 120))
        cases.append((rng.integers(-3, 4, size=n).astype(float), int(rng.integers(1, n + 1))))
    for n in (2, 7, 50, 51):
        # even and odd b, from a single value up to the whole sample
        values = rng.integers(0, 5, size=n).astype(float)
        for b in sorted({1, 2, 3, n // 2, n // 2 + 1, n - 1, n}):
            if 1 <= b <= n:
                cases.append((values, b))
    cases.append((rng.normal(size=3000), 605))
    for values, b in cases:
        p = float(rng.uniform(0.01, 1.0))
        assert np.array_equal(
            block_quantiles(Sample(values), b, p), naive_window_quantiles(values, b, p)
        ), (values.size, b, p)


@pytest.mark.floor
def test_block_quantile_rows_match_per_row_sweeps_and_oracle():
    # one sweep over the flattened block: no window may mix two rows, at the
    # smallest block, the largest and the whole row, at several levels
    rng = np.random.default_rng(100)
    n = 37
    block = np.stack(
        [rng.normal(size=n), 1e6 + rng.normal(size=n), rng.integers(-2, 3, size=n).astype(float), -rng.exponential(size=n)]
    )
    for b in (2, n - 1, n):
        for p in (0.01, 0.3, 0.5, 0.77, 1.0):
            rows = _block_quantile_rows(block, b, p)
            assert rows.shape == (block.shape[0], n - b + 1)
            for r, values in enumerate(block):
                one = block_quantiles(Sample(values), b, p)
                assert np.array_equal(rows[r], one), (b, p, r)
                assert np.array_equal(rows[r], naive_window_quantiles(values, b, p)), (b, p, r)


_SWEEP = """
import numpy as np
from transferfn import Normal, Sample, subsample_ci
y = np.random.default_rng(3).gamma(10.97, 1 / 0.027, 200)
print(repr(subsample_ci(Sample(y), Normal(400.0, 120.0), 400.0, 0.05)))
"""


def _last_line(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_only_a_window_sweep_loads_scipy_ndimage():
    # in a fresh interpreter: the package, every other CLI command, the bootstrap,
    # Table 2 and the ci and band studies never load scipy.ndimage; the first
    # sweep does, with the result of a process that had it loaded up front
    others = textwrap.dedent("""
        import os, sys, tempfile
        import numpy as np
        import transferfn, transferfn.cli
        from transferfn import DGPConfig, Sample, get_transfer, monte_carlo_p_value, run_coverage_study, run_test_table
        y = np.random.default_rng(3).gamma(10.97, 1 / 0.027, 200)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "y.csv")
            np.savetxt(path, y, header="y", comments="")
            data = ["--data", path, "--y-col", "y", "--dist"]
            for argv in (["fit", "--data", path, "--y-col", "y", "--family", "gamma"],
                         ["test", *data, "gamma:10.97,rate=0.027", "--h", "identity"],
                         ["test", *data, "gamma", "--h", "identity", "--mc-reps", "99"],
                         ["estimate", *data, "gamma:10.97,rate=0.027", "--band"]):
                assert transferfn.cli.main(argv) == 0, argv
        monte_carlo_p_value(Sample(y), "gamma", get_transfer("identity"), 99, seed=0)
        run_test_table(n=100, repetitions=2)
        for method in ("ci", "band"):
            run_coverage_study(DGPConfig("(x+4)^2", 200, seed=1), [-1.0, 0.0, 1.0], 0.05, 2, method)
        assert "scipy.ndimage" not in sys.modules, "loaded before any sweep"
    """)
    loaded = "\nimport sys\nassert 'scipy.ndimage' in sys.modules, 'not loaded by the sweep'"
    swept = _last_line(others + _SWEEP + loaded)
    assert swept.startswith("SubsampleResult(")
    assert swept == _last_line("import scipy.ndimage" + _SWEEP)


def test_block_quantiles_domain():
    s = Sample([1.0, 2.0, 3.0])
    for b in (0, 4, -1):
        with pytest.raises(DomainError):
            block_quantiles(s, b, 0.5)


def test_sample_validation():
    with pytest.raises(DomainError):
        Sample([])
    with pytest.raises(DomainError):
        Sample([1.0, float("nan")])
    with pytest.raises(DomainError):
        Sample([[1.0, 2.0]])


def test_sample_is_immutable_view():
    values = np.array([3.0, 1.0, 2.0])
    s = Sample(values)
    values[0] = 99.0
    assert s.values.tolist() == [3.0, 1.0, 2.0]
    assert s.sorted_values.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        s.sorted_values[0] = 0.0


@pytest.mark.floor
def test_sorted_values_are_the_stable_sort_bit_for_bit():
    # the default sort may order -0.0 and 0.0 either way; Sample restores their input order
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 64, 1000, 20_000):
        for zeros in {0, 1, min(2, n), n // 3, n}:
            arr = rng.normal(size=n)
            arr[rng.choice(n, size=zeros, replace=False)] = rng.choice([-0.0, 0.0], size=zeros)
            expected = np.sort(arr, kind="stable")
            assert np.array_equal(Sample(arr).sorted_values.view(np.int64), expected.view(np.int64)), (n, zeros)
    signed = np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0, 0.0, -0.0])
    # -1.0, then the zeros in input order, then 1.0
    assert np.signbit(Sample(signed).sorted_values).tolist() == [True, False, True, True, False, False, True, False]
