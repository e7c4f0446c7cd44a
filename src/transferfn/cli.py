"""Command-line surface: data ingestion and drivers for every capability.

Exit codes: 0 ok, 2 usage, 3 data, 4 numeric/convergence.  All delimited
output starts with a ``# schema:`` comment so downstream readers can pin
the column layout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import re
import sys

import numpy as np

from .density_band import confidence_band
from .distributions import FAMILIES, Gamma, KnownDistribution, Normal, Uniform
from .empirical import Sample
from .errors import ConfigError, ConvergenceError, DomainError
from .estimator import default_grid, estimate_with_ci
from .gof_test import _bootstrap, test, trimming_fraction
from .ks_distribution import ks_sup_quantile
from .simulate import (
    DGPConfig,
    TRANSFERS,
    generate,
    get_transfer,
    run_coverage_study,
    run_test_table,
)
from .subsampling import default_block_length, subsample_ci

__all__ = ["main"]

MISSING_TOKENS = ("?", "", "NA", "nan")
csv.field_size_limit(sys.maxsize)  # a field may be as long as the input (csv's default limit is 131 072)
_NON_BLANK = re.compile(rb"\S")


class UsageError(Exception):
    """Bad flag value detected after parsing; exits 2."""


class DataError(Exception):
    """Dataset could not be read or parsed; exits 3."""


# ---------------------------------------------------------------- ingestion


def _parse_float(token: str):
    try:
        value = float(token)
    except ValueError:
        return None
    return value


def _is_record(row) -> bool:
    """A csv row that carries data: not blank, not whitespace only, not a '#' comment."""
    return bool(row) and any(f.strip() for f in row) and not row[0].lstrip().startswith("#")


def _locate_column(first_row, selector: str, path: str) -> tuple[int, bool]:
    """Index of the selected column, and whether the first record is a header."""
    first = [f.strip() for f in first_row]
    try:
        idx = int(selector)
    except ValueError:
        if selector not in first:
            raise DataError(f"column {selector!r} not found in header of {path}") from None
        idx = first.index(selector)
        has_header = True
    else:
        if idx < -len(first):
            raise DataError(f"column {idx} is out of range: the first row of {path} has {len(first)} columns")
        has_header = idx < len(first) and first[idx] not in MISSING_TOKENS and _parse_float(first[idx]) is None
    return idx, has_header


def _text(data: bytes) -> io.TextIOWrapper:
    """``data`` as the text stream ``open(path, newline="")`` gives: the same encoding and line ends."""
    return io.TextIOWrapper(io.BytesIO(data), newline="")


def _read_column_rows(data: bytes, path: str, selector: str, delimiter: str) -> np.ndarray:
    """Row-by-row parse: the reference, and the only path that raises on bad data."""
    reader = csv.reader(_text(data), delimiter=delimiter)
    # (physical line on which the record ends, record)
    records = [(reader.line_num, row) for row in reader if _is_record(row)]
    if not records:
        raise DataError(f"{path} is empty")
    idx, has_header = _locate_column(records[0][1], selector, path)

    out = []
    for lineno, row in records[1:] if has_header else records:
        if not -len(row) <= idx < len(row):
            raise DataError(f"{path}:{lineno}: row has no column {idx}")
        token = row[idx].strip()
        if token in MISSING_TOKENS:
            continue
        value = _parse_float(token)
        if value is None or not np.isfinite(value):
            raise DataError(f"{path}:{lineno}: cannot parse {token!r} as a finite real")
        out.append(value)
    if len(out) < 2:
        raise DataError(f"{path}: fewer than 2 usable rows in column {selector!r}")
    return np.asarray(out, dtype=float)


def _read_column_fast(data: bytes, path: str, selector: str, delimiter: str) -> np.ndarray | None:
    """numpy's C parser on the records after the header, or None to defer to the row parser.

    It declines whatever the row parser treats specially: a quote anywhere,
    any '#' after the header (a comment line may follow), a blank body,
    tokens it cannot parse (missing tokens included), non-finite values and
    fewer than 2 values.  '"' and '#' are one byte in the ASCII-compatible
    encodings a locale uses, so ``data`` is searched for them undecoded.
    """
    if b'"' in data:
        return None
    lines = _text(data)
    head = ""  # the text before the body
    for line in lines:
        first_row = next(csv.reader([line], delimiter=delimiter), [])
        if _is_record(first_row):
            break
        head += line
    else:
        return None
    idx, has_header = _locate_column(first_row, selector, path)
    if has_header:
        head += line
        body = lines
    else:
        body = itertools.chain([line], lines)
    body_start = len(head.encode(lines.encoding))
    if data.find(b"#", body_start) >= 0 or _NON_BLANK.search(data, body_start) is None:
        return None
    try:
        values = np.loadtxt(body, dtype=float, delimiter=delimiter, usecols=idx, comments=None, ndmin=1)
    except ValueError:
        return None
    if values.size < 2 or not np.all(np.isfinite(values)):
        return None
    return values


def read_column(path: str, selector: str, delimiter: str = ",") -> np.ndarray:
    """One numeric column from a delimited file or pipe.

    ``selector`` is a 0-based index or a header name.  Rows whose selected
    field is a missing token ('?', empty, NA, nan) are dropped; any other
    non-numeric field is a data error.  The input is read once; clean input
    goes through numpy's C parser, and anything it declines is parsed row by
    row, with identical values and errors either way.  Input that cannot be
    read or decoded in the locale's encoding is a data error too.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        values = _read_column_fast(data, path, selector, delimiter)
        return _read_column_rows(data, path, selector, delimiter) if values is None else values
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------- dist spec

_DIST_FORMS = {"normal": "normal:MEAN,SD", "uniform": "uniform:LO,HI", "gamma": "gamma:SHAPE,RATE (or rate=R / scale=S)"}


def parse_dist(spec: str) -> KnownDistribution:
    """'family:params' -> distribution.

    normal:MEAN,SD  uniform:LO,HI  gamma:SHAPE,RATE with the second gamma
    entry also accepted as rate=R or scale=S (the data source quotes both
    conventions; internally everything is shape/rate).
    """
    family, _, rest = spec.partition(":")
    family = family.strip().lower()
    if family not in _DIST_FORMS:
        raise UsageError(f"unknown distribution family {family!r}; known: normal, gamma, uniform")
    parts = [p.strip() for p in rest.split(",") if p.strip()]
    if len(parts) != 2:
        raise UsageError(f"--dist {family} takes {_DIST_FORMS[family]}")
    first, second = parts
    try:
        if family == "normal":
            return Normal(mean=float(first), sd=float(second))
        if family == "uniform":
            return Uniform(lo=float(first), hi=float(second))
        if second.startswith("scale="):
            return Gamma.from_scale(float(first), float(second[len("scale="):]))
        return Gamma(shape=float(first), rate=float(second.removeprefix("rate=")))
    except (ValueError, DomainError) as exc:
        raise UsageError(f"bad --dist value {spec!r}: {exc}") from exc


def parse_grid(spec: str) -> tuple[float, float, int]:
    """'P1..P2xN' (or :N) on the quantile scale."""
    body = spec.replace("×", "x")
    lohi, sep, count = body.rpartition("x")
    if not sep:
        lohi, sep, count = body.rpartition(":")
    if not sep:
        raise UsageError(f"bad --grid value {spec!r}; expected P1..P2xN")
    lo, sep2, hi = lohi.partition("..")
    try:
        p_lo, p_hi, npts = float(lo), float(hi), int(count)
    except ValueError:
        raise UsageError(f"bad --grid value {spec!r}; expected P1..P2xN") from None
    if not (sep2 and 0.0 < p_lo <= p_hi < 1.0 and npts >= 1):
        raise UsageError(f"bad --grid value {spec!r}; need 0 < P1 <= P2 < 1 and N >= 1")
    return p_lo, p_hi, npts


def _delimiter(value: str) -> str:
    """argparse type of --delim: one character that csv accepts and no number contains.

    float() takes letters (inf, e), Unicode digits and each of ``. + - _``
    inside a finite token, so such a delimiter would split numbers apart.
    """
    if len(value) != 1 or value in "\r\n.+-_" or value.isalnum():
        raise argparse.ArgumentTypeError(
            f"must be one character other than a line end, a letter, a digit or one of . + - _ (got {value!r})"
        )
    return value


def _check_alpha(alpha: float, upper: float = 1.0) -> float:
    if not (0.0 < alpha < upper):
        raise UsageError(f"--alpha must lie in (0, {upper}) (got {alpha})")
    return alpha


def _check_reps(reps: int) -> int:
    if reps < 1:
        raise UsageError(f"--reps must be at least 1 (got {reps})")
    return reps


def _check_bandwidth(bandwidth: float | None) -> float | None:
    if bandwidth is not None and not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise UsageError(f"--bandwidth must be positive and finite (got {bandwidth})")
    return bandwidth


def _check_block(block: int, n: int) -> int:
    if not (2 <= block < n):
        raise UsageError(f"--block must satisfy 2 <= b < n = {n} (got b={block}; the default is ceil(n^(4/5)))")
    return block


def _check_point_in_support(x: float, dist: KnownDistribution) -> None:
    a, b = dist.support
    if not (a < x < b):
        raise UsageError(f"--x {x} is outside the input-law support ({a}, {b})")


def _print_payload(payload: dict, as_json: bool, keys=None) -> None:
    """``payload`` as one JSON line, or as ``key: value`` lines for ``keys`` (default all)."""
    if as_json:
        json.dump(payload, sys.stdout)
        sys.stdout.write("\n")
    else:
        for key in payload if keys is None else keys:
            print(f"{key}: {payload[key]}")


def _dgp_config(args) -> DGPConfig:
    return DGPConfig(
        transfer=args.transfer,
        n=args.n,
        seed=args.seed,
        ma_order=args.ma_order,
        ma_decay=args.ma_decay,
    )


def _write_rows(path, schema: str, header, rows, delimiter: str = ","):
    fh = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()


# ---------------------------------------------------------------- commands


def _cmd_estimate(args) -> int:
    alpha = _check_alpha(args.alpha, upper=0.5)
    bandwidth = _check_bandwidth(args.bandwidth)
    dist = parse_dist(args.dist)
    if args.x is not None:
        _check_point_in_support(args.x, dist)
        xs = np.asarray([args.x], dtype=float)
    else:
        p_lo, p_hi, npts = parse_grid(args.grid)
        xs = default_grid(dist, npts, p_lo, p_hi)
    if args.band and np.unique(xs).size < 2:
        given = "--x" if args.x is not None else f"--grid {args.grid}"
        raise UsageError(f"--band needs a grid of at least two distinct points (got {given})")
    sample = Sample(read_column(args.data, args.y_col, delimiter=args.delim))

    res = estimate_with_ci(sample, dist, xs, alpha)
    header = ["x", "ghat", "ci_lo", "ci_hi"]
    columns = [res.xs, res.ghat, res.ci_lo, res.ci_hi]
    if args.band:
        band = confidence_band(sample, dist, (float(xs[0]), float(xs[-1])), alpha, bandwidth=bandwidth, xs=xs)
        header += ["band_lo", "band_hi", "flagged"]
        columns += [band.band_lo, band.band_hi, band.flagged.astype(int)]
    rows = list(zip(*[np.asarray(c) for c in columns]))
    _write_rows(args.out, "transferfn.estimate.v1", header, rows, delimiter=args.delim)
    return 0


def _cmd_test(args) -> int:
    alpha = _check_alpha(args.alpha)
    try:
        hyp = get_transfer(args.h)
    except ConfigError:
        raise UsageError(f"unknown --h {args.h!r}; known: {', '.join(sorted(TRANSFERS))}") from None
    y = read_column(args.data, args.y_col, delimiter=args.delim)
    sample = Sample(y)

    if args.mc_reps is not None:
        if args.mc_reps < 99:
            raise UsageError("--mc-reps must be at least 99")
        family = args.dist.partition(":")[0].strip().lower()
        p_value, statistic, fitted = _bootstrap(sample, family, hyp, args.mc_reps, args.seed)
        payload = {
            "statistic": statistic,
            "critical": ks_sup_quantile(1.0 - alpha),
            "p_value": p_value,
            "decision": "reject" if p_value < alpha else "accept",
            "method": "monte_carlo",
            "replications": args.mc_reps,
            "level": 1.0 - alpha,
            "fitted": repr(fitted),
        }
    else:
        dist = parse_dist(args.dist)
        result = test(sample, dist, hyp, alpha)
        payload = {
            "statistic": result.statistic,
            "critical": result.critical,
            "p_value": result.p_value,
            "decision": result.decision,
            "method": result.method,
            "level": result.level,
            "argmax_x": result.argmax_x,
        }
    _print_payload(payload, args.json, ("statistic", "critical", "p_value", "decision", "method"))
    return 0


def _cmd_subsample_ci(args) -> int:
    alpha = _check_alpha(args.alpha)
    dist = parse_dist(args.dist)
    y = read_column(args.data, args.y_col, delimiter=args.delim)
    sample = Sample(y)
    _check_point_in_support(args.x, dist)
    block = _check_block(default_block_length(sample.n) if args.block is None else args.block, sample.n)
    res = subsample_ci(sample, dist, args.x, alpha, b=block)
    payload = {
        "x": res.x,
        "ghat": res.ghat,
        "d_quantile": res.d_quantile,
        "ci_lo": res.ci[0],
        "ci_hi": res.ci[1],
        "block": res.b,
        "n": res.n,
        "level": res.level,
    }
    _print_payload(payload, args.json)
    return 0


def _cmd_fit(args) -> int:
    if args.family not in FAMILIES:
        raise UsageError(f"unknown --family {args.family!r}; known: {', '.join(FAMILIES)}")
    y = read_column(args.data, args.y_col, delimiter=args.delim)
    fitted = FAMILIES[args.family](y)
    payload = {"family": args.family, "n": int(y.size), **dataclasses.asdict(fitted)}
    if isinstance(fitted, Gamma):
        payload["scale"] = fitted.scale
    _print_payload(payload, args.json)
    if args.qq_out is not None:
        sorted_y = np.sort(y)
        ps = (np.arange(1, y.size + 1) - 0.5) / y.size
        fitted_q = np.asarray(fitted.quantile(ps), dtype=float)
        rows = list(zip(ps, fitted_q, sorted_y))
        _write_rows(args.qq_out, "transferfn.qq.v1", ["p", "fitted_quantile", "observed"], rows, delimiter=args.delim)
    return 0


def _cmd_simulate_table2(args) -> int:
    alpha = _check_alpha(args.alpha)
    try:
        trimming_fraction(args.n)
    except DomainError as exc:
        raise UsageError(f"--n: {exc}") from None
    report = run_test_table(n=args.n, alpha=alpha, repetitions=_check_reps(args.reps), seed=args.seed)
    rows = report.to_rows()
    _write_rows(args.out, "transferfn.table.v1", rows[0], rows[1:], delimiter=args.delim)
    return 0


def _cmd_simulate_coverage(args) -> int:
    alpha = _check_alpha(args.alpha, upper=0.5 if args.method == "ci" else 1.0)
    config = _dgp_config(args)
    xs = np.asarray([float(tok) for tok in args.x], dtype=float)
    if args.method == "band" and np.unique(xs).size < 2:
        raise UsageError("--method band needs at least two distinct --x points")
    block = args.block
    if args.method == "subsample":
        block = _check_block(default_block_length(args.n) if block is None else block, args.n)
    report = run_coverage_study(config, xs, alpha, _check_reps(args.reps), method=args.method, block=block)
    rows = report.to_rows()
    _write_rows(args.out, "transferfn.coverage.v1", rows[0], rows[1:], delimiter=args.delim)
    if args.method == "band":
        print(f"simultaneous: {report.extras['simultaneous']}", file=sys.stderr)
    return 0


def _cmd_simulate_data(args) -> int:
    z, y = generate(_dgp_config(args))
    _write_rows(args.out, "transferfn.dgp.v1", ["z", "y"], list(zip(z, y)), delimiter=args.delim)
    return 0


# ---------------------------------------------------------------- parser


def _add_common_data_flags(p):
    p.add_argument("--data", required=True, help="delimited text file")
    p.add_argument("--y-col", default="0", help="column index or header name of the observations")
    p.add_argument("--delim", type=_delimiter, default=",", help="field delimiter (default comma)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transferfn",
        description="Estimation and testing of a strictly increasing transfer function from outputs with a known input law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="transfer-function estimate with pointwise CIs (and optionally a band)")
    _add_common_data_flags(p)
    p.add_argument("--dist", required=True, help="input law, e.g. gamma:10.97,rate=0.0270")
    p.add_argument("--grid", default="0.01..0.99x201", help="quantile-scale grid P1..P2xN (default 0.01..0.99x201)")
    p.add_argument("--x", type=float, default=None, help="single evaluation point instead of a grid")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--band", action="store_true", help="append uniform confidence-band columns")
    p.add_argument("--bandwidth", type=float, default=None, help="explicit KDE bandwidth (default n^(-1/6))")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("test", help="goodness-of-fit test of g = h")
    _add_common_data_flags(p)
    p.add_argument("--dist", required=True, help="input law; with --mc-reps only the family name is used")
    p.add_argument("--h", required=True, help=f"hypothesis name, one of: {', '.join(sorted(TRANSFERS))}")
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--mc-reps", type=int, default=None, help="parametric-bootstrap p-value with this many refits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("subsample-ci", help="block-subsampling CI for dependent data")
    _add_common_data_flags(p)
    p.add_argument("--dist", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--block", type=int, default=None, help="block length (default ceil(n^(4/5)))")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_subsample_ci)

    p = sub.add_parser("fit", help="fit a distribution family by maximum likelihood; optionally emit Q-Q pairs")
    _add_common_data_flags(p)
    p.add_argument("--family", default="gamma", help=f"one of: {', '.join(FAMILIES)}")
    p.add_argument("--qq-out", default=None, help="write Q-Q pairs (p, fitted quantile, observed) here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="seeded simulation studies")
    ssub = p.add_subparsers(dest="study", required=True)

    q = ssub.add_parser("table2", help="correct-test-ratio grid over (h, perturbation) cells")
    q.add_argument("--n", type=int, default=1000)
    q.add_argument("--reps", type=int, default=200)
    q.add_argument("--alpha", type=float, default=0.15)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default="-")
    q.add_argument("--delim", type=_delimiter, default=",")
    q.set_defaults(func=_cmd_simulate_table2)

    q = ssub.add_parser("coverage", help="coverage study for ci/band/subsample intervals")
    q.add_argument("--transfer", required=True, help=f"one of: {', '.join(sorted(TRANSFERS))}")
    q.add_argument("--n", type=int, default=1000)
    q.add_argument("--reps", type=int, default=200)
    q.add_argument("--alpha", type=float, default=0.01)
    q.add_argument("--method", choices=("ci", "band", "subsample"), default="ci")
    q.add_argument("--x", nargs="+", required=True, help="evaluation points")
    q.add_argument("--ma-order", type=int, default=0)
    q.add_argument("--ma-decay", type=float, default=0.9)
    q.add_argument("--block", type=int, default=None)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default="-")
    q.add_argument("--delim", type=_delimiter, default=",")
    q.set_defaults(func=_cmd_simulate_coverage)

    q = ssub.add_parser("data", help="write one generated (z, y) series")
    q.add_argument("--transfer", required=True)
    q.add_argument("--n", type=int, default=1000)
    q.add_argument("--ma-order", type=int, default=0)
    q.add_argument("--ma-decay", type=float, default=0.9)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default="-")
    q.add_argument("--delim", type=_delimiter, default=",")
    q.set_defaults(func=_cmd_simulate_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConvergenceError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
