"""Every check on a caller-chosen argument raises ArgumentError, a DomainError.

The CLI maps ArgumentError to exit 2 and any other DomainError to exit 4, so
a check on a level, bandwidth, grid, point, block length or count that
raised a plain DomainError would report a usage mistake as a numeric failure.
"""

import math

import numpy as np
import pytest

from transferfn import (
    DGPConfig,
    Normal,
    Sample,
    Uniform,
    block_quantiles,
    confidence_band,
    default_grid,
    estimate,
    generate,
    get_transfer,
    kde,
    monte_carlo_p_value,
    run_coverage_study,
    run_test_table,
    subsample_ci,
    trimming_fraction,
)
from transferfn import gof_test, simulate
from transferfn.distributions import family_fitter
from transferfn.errors import ArgumentError, ConfigError, DomainError, check_alpha
from transferfn.estimator import estimator_ranks

_SAMPLE = Sample(np.random.default_rng(12).normal(size=200))
_SHORT = Sample(np.arange(1.0, 11.0))
_IDENTITY = get_transfer("identity")
_CONFIG = DGPConfig("(x+4)^2", n=50)

CASES = {
    "estimator_ranks alpha": lambda: estimator_ranks(Normal(), [0.0], 100, alpha=0.5),
    "non-finite point": lambda: estimate(_SAMPLE, Normal(), [math.nan]),
    "point outside support": lambda: estimate(_SAMPLE, Uniform(0.0, 1.0), [2.0]),
    "default_grid points": lambda: default_grid(Normal(), 0),
    "default_grid range": lambda: default_grid(Normal(), 5, 0.0, 0.5),
    "confidence_band alpha": lambda: confidence_band(_SAMPLE, Normal(), [-1.0, 1.0], 1.0),
    "confidence_band bandwidth": lambda: confidence_band(_SAMPLE, Normal(), [-1.0, 1.0], 0.05, bandwidth=-1.0),
    "band interval c = d": lambda: confidence_band(_SAMPLE, Normal(), [0.0, 0.0], 0.05),
    "band grid not finite": lambda: confidence_band(_SAMPLE, Normal(), [-1.0, math.nan], 0.05),
    "kde bandwidth": lambda: kde(_SAMPLE, 0.0, bandwidth=math.inf),
    # the kernel's peak 1/(pi h) or the cell keys range/(4 pi h) would overflow
    "kde tiny bandwidth": lambda: kde(Sample([1.0, 2.0, 3.0]), [2.0], bandwidth=1e-310),
    "confidence_band tiny bandwidth": lambda: confidence_band(_SAMPLE, Normal(), [-1.0, 1.0], 0.05, bandwidth=1e-310),
    "test alpha": lambda: gof_test.test(_SAMPLE, Normal(), _IDENTITY, 0.0),
    "trimming_fraction n": lambda: trimming_fraction(15),
    "statistic n": lambda: gof_test.test_statistic(_SHORT, Normal(), _IDENTITY),
    "bootstrap replications": lambda: monte_carlo_p_value(_SAMPLE, "normal", _IDENTITY, replications=98),
    "subsample_ci alpha": lambda: subsample_ci(_SAMPLE, Normal(), 0.0, 1.0),
    "subsample_ci block": lambda: subsample_ci(_SAMPLE, Normal(), 0.0, 0.05, b=1),
    "subsample_ci default block": lambda: subsample_ci(Sample([0.5, 1.5, 2.5]), Normal(), 0.0, 0.05),
    "block_quantiles block": lambda: block_quantiles(_SAMPLE, 0, 0.5),
    "table repetitions": lambda: run_test_table(n=50, repetitions=0),
    "table alpha": lambda: run_test_table(n=50, alpha=1.0, repetitions=1),
    "table n": lambda: run_test_table(n=10, repetitions=1),
    "coverage replications": lambda: run_coverage_study(_CONFIG, [0.0], 0.05, 0),
    "coverage alpha": lambda: run_coverage_study(_CONFIG, [0.0], 0.5, 1),
    "coverage non-finite point": lambda: run_coverage_study(_CONFIG, [math.nan], 0.05, 1),
    "coverage repeated point": lambda: run_coverage_study(_CONFIG, [0.0, 1.0, 0.0], 0.05, 1),
    "coverage signed zeros": lambda: run_coverage_study(_CONFIG, [-0.0, 0.0], 0.05, 1),
    "coverage transfer not finite": lambda: run_coverage_study(DGPConfig("log(x+5)", n=50), [0.0, -6.0], 0.05, 1),
    # 1 - alpha rounds to 1, so the level would be 1
    "tiny alpha": lambda: check_alpha(1e-17),
    "test tiny alpha": lambda: gof_test.test(_SAMPLE, Normal(), _IDENTITY, 1e-17),
    "confidence_band tiny alpha": lambda: confidence_band(_SAMPLE, Normal(), [-1.0, 1.0], 1e-17),
    "estimator_ranks tiny alpha": lambda: estimator_ranks(Normal(), [0.0], 100, alpha=5e-17),
    # seeds are checked where the streams are made
    "generate seed": lambda: generate(DGPConfig("(x+4)^2", n=50, seed=-1)),
    "coverage seed": lambda: run_coverage_study(DGPConfig("(x+4)^2", n=50, seed=-1), [0.0], 0.05, 1),
    "table seed": lambda: run_test_table(n=50, repetitions=1, seed=-1),
    "bootstrap seed": lambda: monte_carlo_p_value(_SAMPLE, "normal", _IDENTITY, replications=99, seed=-1),
    "non-integer seed": lambda: run_test_table(n=50, repetitions=1, seed=0.5),
    # and so are replication counts
    "bootstrap float replications": lambda: monte_carlo_p_value(_SAMPLE, "normal", _IDENTITY, replications=999.0),
    "coverage float replications": lambda: run_coverage_study(_CONFIG, [0.0], 0.05, 5.0),
    "table float repetitions": lambda: run_test_table(n=50, repetitions=3.0),
    # every count is an integer: a float or a bool is refused where the library meets it
    "DGPConfig float n": lambda: DGPConfig("identity", n=10.5),
    "DGPConfig float ma_order": lambda: DGPConfig("identity", n=50, ma_order=1.5),
    "DGPConfig bool n": lambda: DGPConfig("identity", n=True),
    "default_grid float points": lambda: default_grid(Normal(), 2.5),
    "table float n": lambda: run_test_table(n=50.5, repetitions=1),
    "coverage float n": lambda: run_coverage_study(DGPConfig("(x+4)^2", n=50.0), [0.0], 0.05, 1),
    # a name that cannot be a key is unknown too
    "family not a string": lambda: family_fitter(["gamma"]),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_parameter_checks_raise_argument_error(call):
    with pytest.raises(ArgumentError) as info:
        call()
    assert isinstance(info.value, DomainError)


def test_coverage_points_are_checked_before_any_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(simulate, "replicate_blocks", refuse)
    for transfer, xs, message in (
        ("log(x+5)", [1.0, -6.0, -7.0], "not finite at x = -6.0"),
        ("log(x+5)", [-5.0], "not finite at x = -5.0"),
        ("(x+4)^2", [0.0, 0.0, 1.0], "distinct"),
        ("(x+4)^2", [0.0, math.nan], "evaluation points must be finite"),
        ("(x+4)^2", [math.inf], "evaluation points must be finite"),
    ):
        with pytest.raises(ArgumentError, match=message):
            run_coverage_study(DGPConfig(transfer, n=50), xs, 0.05, 1)


def test_numpy_integer_counts_are_accepted():
    config = DGPConfig("identity", n=np.int64(50), ma_order=np.int64(1))
    assert generate(config)[0].size == 50
    assert default_grid(Normal(), np.int64(3)).size == 3
    report = run_test_table(("identity",), ("none",), n=np.int64(50), repetitions=np.int64(2), seed=np.int64(1))
    assert report.cells == run_test_table(("identity",), ("none",), n=50, repetitions=2, seed=1).cells


UNKNOWN_NAMES = {
    "transfer": lambda: get_transfer("nope"),
    "perturbation": lambda: simulate.perturbed(_IDENTITY, "nope", 100),
    "family": lambda: family_fitter("nope"),
    "coverage method": lambda: run_coverage_study(_CONFIG, [0.0], 0.05, 1, method="nope"),
}


@pytest.mark.parametrize("what", UNKNOWN_NAMES)
def test_unknown_names_are_worded_alike(what):
    with pytest.raises(ArgumentError, match=f"^unknown {what} 'nope'; known: "):
        UNKNOWN_NAMES[what]()


def test_config_error_is_argument_error():
    # the former name still imports and still catches every bad configuration
    assert ConfigError is ArgumentError
