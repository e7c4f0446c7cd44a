"""Command-line surface: data ingestion and drivers for every capability.

Exit codes: 0 ok; 2 for a flag argparse rejects and for any argument the
library rejects (ArgumentError); 3 for data that cannot be read; 4 for a
numeric or convergence failure; 141 (128 + SIGPIPE), with nothing on
stderr, when the reader of stdout has closed it.  The library checks each
argument where it uses it, so a bad flag value is reported after the input
is read.  All delimited output starts with a ``# schema:`` comment so
downstream readers can pin the column layout.
"""

from __future__ import annotations

import argparse
from array import array
import codecs
import contextlib
import csv
import dataclasses
import io
import json
import locale
import math
import os
import re
import stat as stat_mode
import sys

import numpy as np

from .density_band import confidence_band
from .distributions import FAMILIES, Gamma, KnownDistribution, Normal, Uniform, family_fitter
from .empirical import Sample
from .errors import ArgumentError, ConvergenceError, DomainError, check_alpha, check_name
from .estimator import default_grid, estimate_with_ci
from .gof_test import _bootstrap, test
from .ks_distribution import ks_sup_quantile
from .simulate import (
    DGPConfig,
    TRANSFERS,
    generate,
    get_transfer,
    run_coverage_study,
    run_test_table,
)
from .subsampling import subsample_ci

__all__ = ["main"]

MISSING_TOKENS = ("?", "", "NA", "nan")
csv.field_size_limit(sys.maxsize)  # a field may be as long as the input (csv's default limit is 131 072)
_NON_BLANK = re.compile(rb"\S")
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # numpy decompresses a path with one of these suffixes
_CHUNK = 1 << 20  # bytes of a regular file its checks read at a time


class DataError(Exception):
    """Dataset could not be read or parsed; exits 3."""


# ---------------------------------------------------------------- ingestion


def _parse_float(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _is_record(row) -> bool:
    """A csv row that carries data: not blank, not whitespace only, not a '#' comment."""
    return bool("".join(row).strip()) and not row[0].lstrip().startswith("#")


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


@contextlib.contextmanager
def _lines(fh, encoding: str):
    """The binary input ``fh`` as text from its start, as ``open(path, newline="")`` decodes it; ``fh`` stays open.

    ``encoding`` is the locale's, or utf-8-sig for a file that starts with a
    UTF-8 byte-order mark: the mark is skipped and the rest decoded as UTF-8,
    so an undecodable byte's position counts from the mark's end, as in a buffer without it.
    """
    fh.seek(len(codecs.BOM_UTF8) if encoding == "utf-8-sig" else 0)
    lines = io.TextIOWrapper(fh, encoding=encoding.removesuffix("-sig"), newline="")
    try:
        yield lines
    finally:
        lines.detach()


def _read_column_rows(fh, encoding: str, path: str, selector: str, delimiter: str) -> np.ndarray:
    """Record-by-record parse of the binary input ``fh``: the reference for every value and error of ``read_column``.

    It parses all that numpy's route declines; only an unquoted header's
    error is raised before it, by ``_head``.  The records stream from
    ``_lines(fh, encoding)`` and only the kept values are held.  A data error
    waits until the rest of the input is parsed, so an undecodable byte anywhere wins.
    """
    values, idx = array("d"), None
    with _lines(fh, encoding) as lines:
        reader = csv.reader(lines, delimiter=delimiter)
        try:
            for row in reader:
                if not _is_record(row):
                    continue
                if idx is None:
                    idx, has_header = _locate_column(row, selector, path)
                    if has_header:
                        continue
                if not -len(row) <= idx < len(row):
                    raise DataError(f"{path}:{reader.line_num}: row has no column {idx}")
                token = row[idx].strip()
                if token not in MISSING_TOKENS:
                    value = _parse_float(token)
                    if value is None or not math.isfinite(value):
                        raise DataError(f"{path}:{reader.line_num}: cannot parse {token!r} as a finite real")
                    values.append(value)
        except DataError:
            for _ in reader:
                pass
            raise
    if idx is None:
        raise DataError(f"{path} is empty")
    if len(values) < 2:
        raise DataError(f"{path}: fewer than 2 usable rows in column {selector!r}")
    return np.frombuffer(values)


def _unchanged(path: str, stat: os.stat_result, size: int) -> bool:
    """Whether ``path`` is still the regular file of ``size`` bytes that ``stat`` describes."""
    if stat.st_size != size:
        return False
    try:
        now = os.stat(path)
    except OSError:
        return False
    return (now.st_dev, now.st_ino, now.st_size, now.st_mtime_ns) == (stat.st_dev, stat.st_ino, size, stat.st_mtime_ns)


def _head(fh, encoding: str, selector: str, delimiter: str, path: str):
    """The text before the body of the binary input ``fh``, decoded by ``_lines``, or None when no line is a record.

    Returns (head, skip, idx, has_header): head is the text before the
    body, skip the number of lines before the first record, and idx and
    has_header are ``_locate_column``'s on that record.
    """
    head = ""
    with _lines(fh, encoding) as lines:
        for skip, line in enumerate(lines):
            first_row = next(csv.reader([line], delimiter=delimiter), [])
            if _is_record(first_row):
                break
            head += line
        else:
            return None
    idx, has_header = _locate_column(first_row, selector, path)
    return head + line if has_header else head, skip, idx, has_header


def _load(source, idx: int, delimiter: str, **kwargs) -> np.ndarray | None:
    """numpy's C parser on the selected column of ``source``; None if it fails or leaves fewer than 2 finite values."""
    try:
        values = np.loadtxt(source, dtype=float, delimiter=delimiter, usecols=idx, comments=None, ndmin=1, **kwargs)
    except ValueError:
        return None
    return values if values.size >= 2 and np.all(np.isfinite(values)) else None


def _path_encoding(fh, real: str, stat: os.stat_result) -> str | None:
    """The encoding numpy rereads the file ``fh`` from its path ``real`` with, or None to read ``fh`` into a buffer.

    numpy can reread a regular file whose path has no suffix it would
    decompress.  A UTF-8 byte-order mark is dropped by decoding as
    utf-8-sig, which matches the buffer's decoding only in a UTF-8 locale.
    """
    if not stat_mode.S_ISREG(stat.st_mode) or real.endswith(_COMPRESSED):
        return None
    encoding = locale.getpreferredencoding(False)
    marked = fh.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8
    fh.seek(0)
    return encoding if not marked else "utf-8-sig" if codecs.lookup(encoding).name == "utf-8" else None


def _buffer(data: bytes) -> io.BytesIO:
    """``data`` as ``_read_input``'s buffer, without its leading UTF-8 byte-order mark."""
    return io.BytesIO(data.removeprefix(codecs.BOM_UTF8))  # not by decoding as utf-8-sig: the body offset counts the locale's bytes


def _chunks(fh):
    """(chunk, count): the input ``fh`` from its start, read _CHUNK bytes at a time into one buffer, valid up to count."""
    fh.seek(0)
    chunk = bytearray(_CHUNK)
    while count := fh.readinto(chunk):
        yield chunk, count


def _checked_size(fh, body_start: int) -> int | None:
    """The size of the input ``fh`` if numpy's parser may read it, else None.

    It declines what the row parser treats specially: a quote anywhere, a
    '#' at or after ``body_start`` (a comment line may follow the header)
    and a blank body.  '"' and '#' are one byte in the ASCII-compatible
    encodings a locale uses, so the bytes are searched undecoded.
    """
    size, body = 0, False
    for chunk, count in _chunks(fh):
        begin = min(max(0, body_start - size), count)
        if chunk.find(b'"', 0, count) >= 0 or chunk.find(b"#", begin, count) >= 0:
            return None
        body = body or _NON_BLANK.search(chunk, begin, count) is not None
        size += count
    return size if body else None


def _read_input(fh, path: str, selector: str, delimiter: str, file=None) -> np.ndarray:
    """The column of the binary input ``fh``: numpy's C parser when its bytes pass the checks, else the row parser.

    ``file`` is (real, stat, encoding) when ``fh`` is a regular file numpy
    rereads from its path ``real``, guarded by ``_unchanged``; a file that
    changes meanwhile is read again, whole into a buffer, so the values
    always come from one read.  Otherwise ``fh`` is a ``_buffer``, which
    numpy parses from ``_lines`` past the same ``skip`` lines.  The row
    parser reads ``fh`` itself, from its start.
    """
    real, stat, encoding = file or (None, None, locale.getpreferredencoding(False))
    try:
        layout = _head(fh, encoding, selector, delimiter, path)
    except DataError:  # a quote anywhere leaves the header to the row parser
        if not any(chunk.find(b'"', 0, count) >= 0 for chunk, count in _chunks(fh)):
            raise
        layout = None
    if layout is not None:
        head, skip, idx, has_header = layout
        size = _checked_size(fh, len(head.encode(encoding)))  # utf-8-sig counts the byte-order mark
        values = None
        if size is not None and (not real or _unchanged(real, stat, size)):
            with contextlib.suppress(OSError), _lines(fh, encoding) as lines:  # a file is reread from its path
                values = _load(real or lines, idx, delimiter, skiprows=skip + has_header, encoding=encoding)
        if size is not None and real and not _unchanged(real, stat, size):  # numpy may have read other bytes than the checks saw
            fh.seek(0)
            return _read_input(_buffer(fh.read()), path, selector, delimiter)
        if values is not None:
            return values
    return _read_column_rows(fh, encoding, path, selector, delimiter)


def read_column(path: str, selector: str, delimiter: str = ",") -> np.ndarray:
    """One numeric column from a delimited file or pipe.

    ``selector`` is a 0-based index or a header name.  Rows whose selected
    field is a missing token ('?', empty, NA, nan) are dropped; any other
    non-numeric field is a data error.  The input is opened once and takes
    one checked route (``_read_input``): clean input goes through numpy's C
    parser and the rest is parsed record by record from the same open
    input, which holds only the values it keeps; values and errors are
    identical either way.  numpy parses a regular file from its path; a pipe,
    a file with a compressed suffix and, outside a UTF-8 locale, a file
    with a byte-order mark are read once into a buffer.  A leading UTF-8
    byte-order mark is dropped.  Input that cannot be read or decoded in
    the locale's encoding is a data error too.
    """
    try:
        with open(path, "rb") as fh:
            stat = os.fstat(fh.fileno())
            real = os.path.realpath(path)  # the file itself: no '..' past a symlink, and nothing numpy takes for a URL
            encoding = _path_encoding(fh, real, stat)
            if encoding is None:
                return _read_input(_buffer(fh.read()), path, selector, delimiter)
            return _read_input(fh, path, selector, delimiter, (real, stat, encoding))
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------- dist spec

def parse_dist(spec: str) -> KnownDistribution:
    """'family:params' -> distribution, the family a name from FAMILIES.

    normal:MEAN,SD  uniform:LO,HI  gamma:SHAPE,RATE with the second gamma
    entry also accepted as rate=R or scale=S (the data source quotes both
    conventions; internally everything is shape/rate).
    """
    family, _, rest = spec.partition(":")
    family = check_name(family.strip().lower(), FAMILIES, "family")
    law = Gamma if family == "gamma" else Normal if family == "normal" else Uniform
    parts = [p.strip() for p in rest.split(",") if p.strip()]
    if len(parts) != 2:
        form = ",".join(f.name.upper() for f in dataclasses.fields(law))
        raise ArgumentError(f"--dist {family} takes {family}:{form}" + (" (or rate=R / scale=S)" if law is Gamma else ""))
    first, second = parts
    try:
        if law is not Gamma:
            return law(float(first), float(second))
        if second.startswith("scale="):
            return Gamma.from_scale(float(first), float(second[len("scale="):]))
        return Gamma(shape=float(first), rate=float(second.removeprefix("rate=")))
    except ValueError as exc:  # DomainError included
        raise ArgumentError(f"bad --dist value {spec!r}: {exc}") from exc


def parse_grid(spec: str) -> tuple[float, float, int]:
    """'P1..P2xN' (or :N) on the quantile scale; ``default_grid`` checks the range and count."""
    body = spec.replace("×", "x")
    lohi, sep, count = body.rpartition("x")
    if not sep:
        lohi, _, count = body.rpartition(":")
    lo, _, hi = lohi.partition("..")  # a missing separator leaves an empty field, which no number parses
    try:
        return float(lo), float(hi), int(count)
    except ValueError:
        raise ArgumentError(f"bad --grid value {spec!r}; expected P1..P2xN") from None


def _delimiter(value: str) -> str:
    """argparse type of --delim: one character that csv accepts, no number contains and no reader takes for a comment.

    float() takes letters (inf, e), Unicode digits and each of ``. + - _``
    inside a finite token, so such a delimiter would split numbers apart.
    The reader skips lines that start with '#', among them the ``# schema:``
    line every output starts with, and declines '#' in the body.
    """
    if len(value) != 1 or value in "\r\n.+-_#" or value.isalnum():
        raise argparse.ArgumentTypeError(
            f"must be one character other than a line end, a letter, a digit, one of . + - _ or the comment mark # (got {value!r})"
        )
    return value


def _print_payload(payload: dict, as_json: bool, keys=None) -> None:
    """``payload`` as one JSON line, or as ``key: value`` lines for ``keys`` (default all)."""
    if as_json:
        json.dump(payload, sys.stdout)
        sys.stdout.write("\n")
    else:
        for key in payload if keys is None else keys:
            print(f"{key}: {payload[key]}")


def _dgp_config(args) -> DGPConfig:
    return DGPConfig(transfer=args.transfer, n=args.n, seed=args.seed, ma_order=args.ma_order, ma_decay=args.ma_decay)


def _write_rows(path, schema: str, header, rows, delimiter: str = ","):
    with contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- commands


def _cmd_estimate(args) -> int:
    dist = parse_dist(args.dist)
    if args.x is not None:
        xs = np.asarray([args.x], dtype=float)
    else:
        p_lo, p_hi, npts = parse_grid(args.grid)
        xs = default_grid(dist, npts, p_lo, p_hi)
    sample = Sample(read_column(args.data, args.y_col, delimiter=args.delim))

    res = estimate_with_ci(sample, dist, xs, args.alpha)
    header = ["x", "ghat", "ci_lo", "ci_hi"]
    columns = [res.xs, res.ghat, res.ci_lo, res.ci_hi]
    if args.band:
        try:
            band = confidence_band(sample, dist, xs, args.alpha, bandwidth=args.bandwidth)
        except ArgumentError as exc:
            if xs[0] < xs[-1]:
                raise
            raise ArgumentError(
                f"--band needs at least two distinct grid points; give them with --grid P1..P2xN, P1 < P2 and N >= 2 ({exc})"
            ) from exc
        header += ["band_lo", "band_hi", "flagged"]
        columns += [band.band_lo, band.band_hi, band.flagged.astype(int)]
    rows = list(zip(*[np.asarray(c) for c in columns]))
    _write_rows(args.out, "transferfn.estimate.v1", header, rows, delimiter=args.delim)
    diagnostics = f"clamped: {int(np.count_nonzero(res.clamped))}"
    if args.band:
        diagnostics += (
            f", critical: {band.critical}, bandwidth: {band.bandwidth}, flagged: {int(np.count_nonzero(band.flagged))}"
        )
    print(diagnostics, file=sys.stderr)
    return 0


def _cmd_test(args) -> int:
    hyp = get_transfer(args.h)
    family, _, params = args.dist.partition(":")
    if args.mc_reps is not None and params.strip():
        raise ArgumentError(f"--dist {args.dist!r}: with --mc-reps give the family alone; the bootstrap fits it")
    sample = Sample(read_column(args.data, args.y_col, delimiter=args.delim))

    if args.mc_reps is not None:
        alpha = check_alpha(args.alpha)  # the decision below compares alpha here, not in the library
        p_value, statistic, fitted, argmax_x = _bootstrap(sample, family.strip().lower(), hyp, args.mc_reps, args.seed)
        payload = {
            "statistic": statistic,
            "critical": ks_sup_quantile(1.0 - alpha),
            "p_value": p_value,
            "decision": "reject" if p_value < alpha else "accept",
            "method": "monte_carlo",
            "replications": args.mc_reps,
            "level": 1.0 - alpha,
            "fitted": repr(fitted),
            "argmax_x": argmax_x,
        }
    else:
        result = test(sample, parse_dist(args.dist), hyp, args.alpha)
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
    dist = parse_dist(args.dist)
    sample = Sample(read_column(args.data, args.y_col, delimiter=args.delim))
    res = subsample_ci(sample, dist, args.x, args.alpha, b=args.block)
    payload = {
        "x": res.x,
        "ghat": res.ghat,
        "d_quantile": res.d_quantile,
        "ci_lo": res.ci[0],
        "ci_hi": res.ci[1],
        "block": res.b,
        "n": res.n,
        "level": res.level,
        "windows": res.n - res.b + 1,
        "block_default": args.block is None,
    }
    _print_payload(payload, args.json, ("x", "ghat", "d_quantile", "ci_lo", "ci_hi", "block", "n", "level"))
    return 0


def _cmd_fit(args) -> int:
    fit = family_fitter(args.family)
    y = read_column(args.data, args.y_col, delimiter=args.delim)
    fitted = fit(y)
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
    report = run_test_table(n=args.n, alpha=args.alpha, repetitions=args.reps, seed=args.seed)
    rows = report.to_rows()
    _write_rows(args.out, "transferfn.table.v1", rows[0], rows[1:], delimiter=args.delim)
    return 0


def _cmd_simulate_coverage(args) -> int:
    report = run_coverage_study(_dgp_config(args), args.x, args.alpha, args.reps, method=args.method, block=args.block)
    rows = report.to_rows()
    _write_rows(args.out, "transferfn.coverage.v1", rows[0], rows[1:], delimiter=args.delim)
    if args.method == "band":
        extras = report.extras
        print(
            f"simultaneous: {extras['simultaneous']}, flagged_points: {extras['flagged_points']}, "
            f"flagged_reps: {extras['flagged_reps']}",
            file=sys.stderr,
        )
    return 0


def _cmd_simulate_data(args) -> int:
    z, y = generate(_dgp_config(args))
    _write_rows(args.out, "transferfn.dgp.v1", ["z", "y"], list(zip(z, y)), delimiter=args.delim)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transferfn",
        description="Estimation and testing of a strictly increasing transfer function from outputs with a known input law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag that several commands take is declared once, in a parent parser that each of them lists in parents=.
    def shared(*parents):
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    delim, out, seed, as_json, reps, dgp = (shared() for _ in range(6))
    delim.add_argument("--delim", type=_delimiter, default=",", help="field delimiter (default comma)")
    out.add_argument("--out", default="-")
    seed.add_argument("--seed", type=int, default=0)
    as_json.add_argument("--json", action="store_true")
    reps.add_argument("--reps", type=int, default=200)
    dgp.add_argument("--transfer", required=True, help=f"one of: {', '.join(sorted(TRANSFERS))}")
    dgp.add_argument("--ma-order", type=int, default=0)
    dgp.add_argument("--ma-decay", type=float, default=0.9)
    data = shared()
    data.add_argument("--data", required=True, help="delimited text file")
    data.add_argument("--y-col", default="0", help="column index or header name of the observations")
    data = shared(data, delim)  # --delim after --data and --y-col in the help
    study = shared(seed, out, delim)
    study.add_argument("--n", type=int, default=1000)

    p = sub.add_parser(
        "estimate", parents=[data, out], help="transfer-function estimate with pointwise CIs (and optionally a band)"
    )
    p.add_argument("--dist", required=True, help="input law, e.g. gamma:10.97,rate=0.0270")
    p.add_argument("--grid", default="0.01..0.99x201", help="quantile-scale grid P1..P2xN (default 0.01..0.99x201)")
    p.add_argument("--x", type=float, default=None, help="single evaluation point instead of a grid")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--band", action="store_true", help="append uniform confidence-band columns")
    p.add_argument("--bandwidth", type=float, default=None, help="explicit KDE bandwidth (default n^(-1/6))")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("test", parents=[data, seed, as_json], help="goodness-of-fit test of g = h")
    p.add_argument("--dist", required=True, help="input law; with --mc-reps the family alone (the bootstrap fits it)")
    p.add_argument("--h", required=True, help=f"hypothesis name, one of: {', '.join(sorted(TRANSFERS))}")
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--mc-reps", type=int, default=None, help="parametric-bootstrap p-value with this many refits")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("subsample-ci", parents=[data, as_json], help="block-subsampling CI for dependent data")
    p.add_argument("--dist", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--block", type=int, default=None, help="block length (default ceil(n^(4/5)))")
    p.set_defaults(func=_cmd_subsample_ci)

    p = sub.add_parser(
        "fit", parents=[data, as_json], help="fit a distribution family by maximum likelihood; optionally emit Q-Q pairs"
    )
    p.add_argument("--family", default="gamma", help=f"one of: {', '.join(FAMILIES)}")
    p.add_argument("--qq-out", default=None, help="write Q-Q pairs (p, fitted quantile, observed) here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="seeded simulation studies")
    ssub = p.add_subparsers(dest="study", required=True)

    q = ssub.add_parser("table2", parents=[study, reps], help="correct-test-ratio grid over (h, perturbation) cells")
    q.add_argument("--alpha", type=float, default=0.15)
    q.set_defaults(func=_cmd_simulate_table2)

    q = ssub.add_parser("coverage", parents=[dgp, study, reps], help="coverage study for ci/band/subsample intervals")
    q.add_argument("--alpha", type=float, default=0.01)
    q.add_argument("--method", choices=("ci", "band", "subsample"), default="ci")
    q.add_argument("--x", type=float, nargs="+", required=True, help="evaluation points")
    q.add_argument("--block", type=int, default=None)
    q.set_defaults(func=_cmd_simulate_coverage)

    q = ssub.add_parser("data", parents=[dgp, study], help="write one generated (z, y) series")
    q.set_defaults(func=_cmd_simulate_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:  # the reader of stdout has gone: not an error of the data
        with contextlib.suppress(AttributeError, ValueError, OSError):  # a stdout without a file descriptor is left as it is
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)  # what is left in its buffer goes nowhere, quietly
        return 141  # 128 + SIGPIPE, as a shell reports a command that a signal ended
    except ArgumentError as exc:
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
