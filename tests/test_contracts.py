"""The library and CLI contracts: a result the oracles accept or a documented error; an exit code of 0, 2, 3 or 4.

Samples, laws and points are drawn near the limits of a float, and the CLI
reads generated files.  Under ``warnings.simplefilter("error")`` a leaked
warning fails the property too, so numeric trouble must surface as
``DomainError`` or ``ConvergenceError`` (exit 4).
"""

import codecs
import contextlib
import io
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import naive_inf_quantile
from transferfn import FAMILIES, TRANSFERS, Gamma, Normal, Sample, Uniform, confidence_band, estimate_with_ci, subsample_ci
from transferfn import test as gof
from transferfn.cli import main
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


# the CLI: files with missing tokens, quotes, byte-order marks, CR or CRLF line ends and floats near the limits of a
# double, read by every command with flags drawn from their valid sets
NUMBERS = st.one_of(
    st.sampled_from(["0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "-1e308", "1", "2.5"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0.1, 100.0).map(repr),
)
CLEAN = st.one_of(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(["?", "", "NA", "nan"]))  # numbers and missing tokens
NOISY = st.one_of(CLEAN, st.sampled_from(["inf", "1e999", "xyz", '"1.5"', '"a,b"', "2#3", " 4 "]))
LAWS = ["normal:0,1", "normal:0,1e-300", "normal:1e300,1e300", "uniform:0,1", "uniform:-1e300,1e300", "gamma:2,1",
        "gamma:10.97,rate=0.0270", "gamma:0.01,scale=1e300"]
CLI_POINTS = ["0", "0.5", "-2", "3", "1e300", "-1e-300"]
GRIDS = ["0.1..0.9x5", "0.001..0.999x3", "0.5..0.5x1"]


def _pick(name, values):
    """``name`` and one of ``values``."""
    return st.sampled_from(values).map(lambda v: [name, v])


def _flag(name, values=None):
    """An optional flag: absent, or ``name`` (with one of ``values``)."""
    return st.one_of(st.just([]), st.just([name]) if values is None else _pick(name, values))


def _argv(*parts):
    """One argv from words (a string) and strategies of argv pieces, in order."""
    return st.tuples(*(st.just(p.split()) if isinstance(p, str) else p for p in parts)).map(lambda ps: [a for p in ps for a in p])


@st.composite
def _csv_files(draw):
    """(bytes, delimiter, a column selector the file has)"""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    width, rows, header = draw(st.integers(1, 3)), draw(st.sampled_from([20, 5, 1, 0])), draw(st.booleans())
    tokens = draw(st.sampled_from([CLEAN, NOISY]))
    lines = draw(st.lists(st.lists(tokens, min_size=width, max_size=width).map(delimiter.join), min_size=rows, max_size=rows))
    names = ["y", "z", "w"][:width] if header else []
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([delimiter.join(names)] * header + lines) + draw(st.sampled_from(["", end]))
    selector = draw(st.sampled_from([*names, *map(str, range(width)), "-1"]))
    return draw(st.sampled_from([b"", codecs.BOM_UTF8])) + text.encode(), delimiter, selector


_alpha, _json, _seed = _flag("--alpha", ["0.01", "0.15", "0.45"]), _flag("--json"), _flag("--seed", ["0", "7"])
_transfer, _n, _reps = _pick("--transfer", sorted(TRANSFERS)), _pick("--n", ["16", "40"]), _pick("--reps", ["1", "2"])
COMMANDS = st.one_of(
    _argv("estimate", _pick("--dist", LAWS), st.one_of(_flag("--x", CLI_POINTS), _flag("--grid", GRIDS)), _alpha, _flag("--band"),
          _flag("--bandwidth", ["0.5", "1e-300", "1e300"])),
    _argv("test", _pick("--h", sorted(TRANSFERS)), st.one_of(_pick("--dist", LAWS), _argv("--mc-reps 99", _pick("--dist", list(FAMILIES)))),
          _alpha, _seed, _json),
    _argv("subsample-ci", _pick("--dist", LAWS), _pick("--x", CLI_POINTS), _alpha, _flag("--block", ["2", "3", "10"]), _json),
    _argv("fit", _flag("--family", list(FAMILIES)), _json),
    _argv("simulate data", _transfer, _n, _flag("--ma-order", ["0", "2"]), _flag("--ma-decay", ["0.5", "1e10"]), _seed),
    _argv("simulate coverage", _transfer, _n, _reps, _flag("--method", ["ci", "band", "subsample"]), "--x",
          st.lists(st.sampled_from(CLI_POINTS), min_size=1, max_size=3, unique=True), _alpha),
    _argv("simulate table2", _n, _reps, _alpha),
)


@settings(
    max_examples=150, derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_csv_files(), COMMANDS)
def test_every_command_exits_0_2_3_or_4_without_raising_or_warning(tmp_path, file, argv):
    data, delimiter, y_col = file
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    if argv[0] != "simulate":
        argv = [*argv, "--data", str(path), "--y-col", y_col]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([*argv, "--delim", delimiter])
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
