import codecs
import csv
import io
import json
import locale
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from transferfn.cli import main, parse_dist, parse_grid, read_column, DataError
from transferfn.cli import _buffer, _read_column_rows, _read_input
from transferfn import (
    DGPConfig,
    Gamma,
    Normal,
    Sample,
    Uniform,
    confidence_band,
    default_grid,
    estimate_with_ci,
    generate,
    replication_rng,
)
from transferfn.errors import ArgumentError


def run_cli(capsys, *argv):
    """stdout and stderr of ``transferfn ARGV``, which must exit 0."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, f"transferfn {shlex.join(argv)} exited {code}; stderr:\n{captured.err}"
    return captured.out, captured.err


def read_table(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# schema: ")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


@pytest.fixture
def uniform_identity_file(tmp_path):
    rng = np.random.default_rng(101)
    path = tmp_path / "u.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"])
        w.writerows([[v] for v in rng.uniform(size=4000)])
    return path


@pytest.fixture
def gamma_file(tmp_path):
    rng = np.random.default_rng(518)
    path = tmp_path / "water.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["DQO-E", "DQO-D"])
        for v in rng.gamma(10.97, 37.0, size=518):
            w.writerow([f"{v:.6f}", f"{0.5 * v:.6f}"])
    return path


def test_parse_dist_variants():
    assert parse_dist("normal:0,1") == Normal(0.0, 1.0)
    assert parse_dist("uniform:0,2") == Uniform(0.0, 2.0)
    g = parse_dist("gamma:10.97,rate=0.0270")
    assert g == Gamma(10.97, 0.0270)
    g2 = parse_dist("gamma:10.97,scale=37.10")
    assert g2.rate == pytest.approx(1.0 / 37.10)
    assert parse_dist("gamma:2,1") == Gamma(2.0, 1.0)
    for bad in ("nope:1,2", "normal:1", "gamma:1,rate=-2", "gamma:-3,1", "gamma:inf,1", "gamma:2,rate=inf",
                "gamma:2,scale=0", "uniform:-1e308,1e308"):
        with pytest.raises(ArgumentError):
            parse_dist(bad)


def test_parse_grid():
    assert parse_grid("0.01..0.99x200") == (0.01, 0.99, 200)
    assert parse_grid("0.05..0.95:21") == (0.05, 0.95, 21)
    for bad in ("0.5x10", "a..bx5", "0.1..0.9", "0.1..0.9x2.5"):
        with pytest.raises(ArgumentError):
            parse_grid(bad)
    # the range and the count are default_grid's rules
    for spec in ("0..1x10", "0.2..0.1x5", "0.1..0.9x0"):
        p_lo, p_hi, npts = parse_grid(spec)
        with pytest.raises(ArgumentError):
            default_grid(Normal(), npts, p_lo, p_hi)


def test_read_column_missing_policy(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n?,3\n4,?\n5,6\n")
    assert read_column(str(path), "a").tolist() == [1.0, 4.0, 5.0]
    assert read_column(str(path), "1").tolist() == [2.0, 3.0, 6.0]
    with pytest.raises(DataError):
        read_column(str(path), "c")
    bad = tmp_path / "bad.csv"
    bad.write_text("a\n1\nxyz\n")
    with pytest.raises(DataError):
        read_column(str(bad), "a")


def _ingestion_corpus():
    """(name, text, selectors, fast): small files covering every row-parser rule.

    ``fast`` marks clean files that numpy's parser must read with the row
    parser refused.
    """
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(40) * 10.0 ** rng.uniform(-5, 5, 40), rng.gamma(2.0, 3.0, 40)
    g17 = "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(a, b))
    f6 = "".join(f"{x:.6f},{y:.6f}\n" for x, y in zip(a, b))
    long = "w" * 200_000  # longer than csv's default field size limit
    return [
        ("g17 header", "y,z\n" + g17, ("y", "z", "0", "1", "-1", "-2"), True),
        ("g17 no header", g17, ("0", "1"), True),
        ("f6 header", "y,z\n" + f6, ("y", "1"), True),
        ("f6 no header", f6, ("0", "1"), True),
        ("f6 tab", "y\tz\n" + f6.replace(",", "\t"), ("z",), True),
        ("crlf", ("y,z\n" + f6).replace("\n", "\r\n"), ("y", "1"), True),
        ("padded", "  y ,  z \n 1.5 ,  2 \n3,4  \n\t5\t,6\n", ("y", "z", "1"), True),
        ("cr endings", "y,z\r1,2\r3,4\r", ("y", "1"), False),
        ("byte order mark", "\ufeffy,z\n1,2\n3,4\n", ("y", "z"), True),
        ("no final newline", "y\n1\n2", ("y", "0"), True),
        ("blank lines", "y,z\n1,2\n\n3,4\n\n\n5,6\n", ("y", "1"), True),
        ("top comments", "# units: mg/l\n#\ny,z\n1,2\n3,4\n", ("y", "1"), True),
        ("top comments no header", "# note\n1,2\n3,4\n", ("0", "1"), True),
        ("signed zeros", "y\n-0\n0\n-0.0\n", ("y",), True),
        ("missing tokens", "a,b\n1,2\n?,3\n,4\nNA,5\nnan,6\n7,?\n8,9\n", ("a", "b", "0", "1"), False),
        ("mid comments", "y,z\n1,2\n# gap\n3,4\n  # indented\n5,6\n", ("y", "z"), False),
        ("commented data row", "y,z\n1,2\n#3,9\n4,5\n", ("y", "z"), False),
        ("inline hash", "y,z\n1,2#x\n3,4\n", ("y", "z"), False),
        ("whitespace rows", "y,z\n1,2\n   \n3,4\n , \n5,6\n", ("y", "1"), False),
        ("quoted", '"y","z"\n"1",2\n3,"4"\n"5","6"\n', ("y", "z"), False),
        ("quoted label column", 'label,y\n"a,1,b",2\n"c,3,d",4\n', ("y", "1"), False),
        ("quoted newline in header", '"a\nb",y\n1,2\n3,4\n', ("y", "0"), False),
        ("quoted delimiter", 'y,z\n"1,5",2\n3,4\n', ("y", "z"), False),
        ("underscores", "y\n1_000\n2_5\n3\n", ("y",), False),
        ("inf", "y,z\ninf,1\n2,-inf\n3,4\n", ("y", "z"), False),
        ("NaN and overflow", "y,z\nNaN,1\n2,1e999\n3,4\n", ("y", "z"), False),
        ("junk", "y\n1\nxyz\n", ("y",), False),
        ("short row", "a,b\n1,2\n3\n5,6\n", ("a", "b", "-1", "-2"), False),
        ("missing column", "a,b\n1,2\n3,4\n", ("c", "2", "7", "-3"), False),
        ("one value", "y\n1\n", ("y",), False),
        ("only missing", "y\n?\nNA\n", ("y",), False),
        ("header only", "y,z\n", ("y",), False),
        ("empty", "", ("0",), False),
        ("comments only", "# a\n\n# b\n", ("0",), False),
        ("numeric header", "1,2\n3,4\n", ("0",), True),
        ("missing token header", "?,z\n1,2\n3,4\n", ("0",), False),
        ("long label", f"label,y\n{long},1\nb,2\nc,3\n", ("y", "1"), True),
        ("long header field", f"y,{long}\n1,4\n2,5\n3,6\n", ("y", "0", "1"), True),
        ("long junk field", f"y\n1\n2\n{long}\n", ("y",), False),
    ]


def _outcome(read, *args):
    """The values ``read(*args)`` returns, or the message of the DataError it raises."""
    try:
        return read(*args)
    except DataError as exc:
        return str(exc)


def _reference(path, selector, delimiter):
    """The row parser's outcome on the file ``path``, read into a ``_buffer`` (byte-order mark dropped) as a pipe is."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _outcome(_read_column_rows, _buffer(data), locale.getpreferredencoding(False), str(path), selector, delimiter)


def _sources(path, selector, delimiter):
    """read_column's outcome on the file ``path`` from its path and from the buffer a pipe is read into."""
    with open(path, "rb") as fh:
        data = fh.read()
    return {
        "path": _outcome(read_column, str(path), selector, delimiter),
        "buffer": _outcome(_read_input, _buffer(data), str(path), selector, delimiter),
    }


def _same_outcome(got, ref) -> bool:
    """Whether ``got`` is the message ``ref`` is, or holds the very bits of ``ref``'s values."""
    if isinstance(ref, str):
        return got == ref
    return isinstance(got, np.ndarray) and np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.floor
def test_read_column_fast_path_matches_row_parser(tmp_path, monkeypatch):
    for k, (name, text, selectors, fast) in enumerate(_ingestion_corpus()):
        path = tmp_path / f"case{k}.csv"
        path.write_bytes(text.encode())
        delimiter = "\t" if "tab" in name else ","
        for selector in selectors:
            ref = _reference(path, selector, delimiter)
            with monkeypatch.context() as patch:
                if fast:
                    patch.setattr("transferfn.cli._read_column_rows", _refuse_row_parser)
                for source, got in _sources(path, selector, delimiter).items():
                    assert _same_outcome(got, ref), (name, selector, source)


@st.composite
def _delimited_files(draw):
    """(bytes, delimiter): a delimited file, clean or with what the row parser treats specially."""
    delimiter = draw(st.sampled_from([",", "\t", ";"]))
    fmt = draw(st.sampled_from(["%.17g", "%.6f"]))
    noisy = draw(st.booleans())
    value = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: fmt % v)
    pad = st.sampled_from(["", " ", "\t"]) if delimiter != "\t" else st.just("")
    special = st.sampled_from(["?", "", "NA", "nan", "xyz", '"1.5"', "2#3", "inf", "1e999"])
    field = st.tuples(pad, st.one_of(value, special) if noisy else value, pad).map("".join)
    row = st.lists(field, min_size=1 if noisy else 2, max_size=3 if noisy else 2).map(delimiter.join)
    filler = st.sampled_from(["", " ", " \t ", "# note"])  # blank, whitespace-only and comment lines
    lines = draw(st.lists(st.sampled_from(["# units: mg/l", "#", ""]), max_size=2))  # top comments
    if draw(st.booleans()):
        lines.append(delimiter.join(["y", "z"]))
    lines += draw(st.lists(st.one_of(row, filler) if noisy else row, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + text.encode(), delimiter


@pytest.mark.floor
@settings(
    max_examples=300, derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_delimited_files(), st.sampled_from(["y", "z", "0", "1", "-1"]))
def test_read_column_matches_the_row_parser_on_generated_files(tmp_path, file, selector):
    # LF, CRLF and CR ends, a BOM, top comments, blank and whitespace-only rows, quotes, '#', tabs
    # and missing tokens: every file reads as the row parser reads it, bit for bit, from its path
    # and from a pipe's buffer
    data, delimiter = file
    path = tmp_path / "generated.csv"
    path.write_bytes(data)
    ref = _reference(path, selector, delimiter)
    for source, got in _sources(path, selector, delimiter).items():
        assert _same_outcome(got, ref), source


@pytest.mark.floor
def test_read_column_gives_numpy_a_regular_files_path(tmp_path, monkeypatch):
    # numpy's C reader pulls a path in chunks but a stream line by line
    seen = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        seen.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    text = "# note\r\n\nz,y\n" + "".join(f"{v},{v / 4}\r\n" for v in range(1, 30))
    want = [v / 4 for v in range(1, 30)]
    clean, marked, gz = tmp_path / "clean.csv", tmp_path / "bom.csv", tmp_path / "plain.csv.gz"
    clean.write_bytes(text.encode())
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    gz.write_bytes(text.encode())  # numpy would decompress a path with this suffix
    assert read_column(str(clean), "y").tolist() == want and seen == [os.path.realpath(clean)]
    # a byte-order mark is dropped by decoding the path as utf-8-sig, which only a UTF-8 locale reads the file as
    utf8_locale = codecs.lookup(io.TextIOWrapper(io.BytesIO()).encoding).name == "utf-8"
    for path, from_path in ((marked, utf8_locale), (gz, False)):
        seen.clear()
        assert read_column(str(path), "y").tolist() == want and len(seen) == 1, path
        assert seen[0] == os.path.realpath(path) if from_path else not isinstance(seen[0], str), path

    # a file that changes under numpy is read again, whole into one buffer, and parsed from that
    def appending(source, *args, **kwargs):
        if isinstance(source, str):
            with open(source, "a") as fh:
                fh.write("99,99\n")
        return spy(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", appending)
    seen.clear()
    assert read_column(str(clean), "y").tolist() == [*want, 99.0] and len(seen) == 2 and not isinstance(seen[1], str)
    monkeypatch.setattr(np, "loadtxt", spy)
    seen.clear()
    assert read_column(str(clean), "y").tolist() == [*want, 99.0] and seen == [os.path.realpath(clean)]

    # /dev/stdin: a pipe is parsed from the buffer, a redirected regular file from its path
    code = (
        "import numpy as np; from transferfn.cli import read_column\n"
        "seen, loadtxt = [], np.loadtxt\n"
        "np.loadtxt = lambda source, *a, **k: (seen.append(type(source).__name__), loadtxt(source, *a, **k))[1]\n"
        "print(read_column('/dev/stdin', 'y').tolist() == [v / 4 for v in range(1, 30)], *seen)"
    )
    clean.write_bytes(text.encode())
    done = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "True TextIOWrapper\n"), done.stderr
    with open(clean, "rb") as fh:
        done = subprocess.run([sys.executable, "-c", code], stdin=fh, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "True str\n"), done.stderr


def test_read_column_reads_fields_of_any_length(tmp_path):
    long = "w" * 200_000
    for k, text in enumerate((f"label,y\n{long},1\nb,2\nc,3\n", f"y,{long}\n1,4\n2,5\n3,6\n")):
        path = tmp_path / f"long{k}.csv"
        path.write_text(text)
        assert read_column(str(path), "y").tolist() == [1.0, 2.0, 3.0]
        assert _reference(path, "y", ",").tolist() == [1.0, 2.0, 3.0]


@pytest.mark.floor
def test_read_column_drops_a_byte_order_mark(tmp_path, monkeypatch):
    # a UTF-8 byte-order mark is neither part of the first value nor of the
    # header: the file reads as it does without one, on either parser
    cases = [
        ("1.5\n2.5\n3.5\n4.5\n", "0", True),
        ("y\n1.5\n2.5\n3.5\n4.5\n", "y", True),
        ("z,y\n0,1.5\n0,2.5\n0,3.5\n", "y", True),
        ('"y","z"\n"1.5",2\n2.5,"4"\n', "y", False),  # a quote anywhere: the row parser
        ('"1.5",2\n2.5,"4"\n', "0", False),
    ]
    for k, (text, selector, fast) in enumerate(cases):
        plain, marked = tmp_path / f"plain{k}.csv", tmp_path / f"bom{k}.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        want = read_column(str(plain), selector)
        with monkeypatch.context() as patch:
            if fast:
                patch.setattr("transferfn.cli._read_column_rows", _refuse_row_parser)
            got = read_column(str(marked), selector)
        assert want[0] == 1.5 and np.array_equal(got.view(np.int64), want.view(np.int64)), text


def _refuse_row_parser(*args):
    raise AssertionError("row parser used")


def _refuse_numpy(*args, **kwargs):
    raise AssertionError("numpy's parser used")


@pytest.mark.floor
def test_read_column_fast_path_body_starts_after_the_header(tmp_path, monkeypatch):
    # a '#' before the body (comment lines, the header) leaves numpy's parser open
    path = tmp_path / "hash_header.csv"
    path.write_bytes(b"# note #1\nid#,y\n1,2\n3,4\n")
    with monkeypatch.context() as patch:
        patch.setattr("transferfn.cli._read_column_rows", _refuse_row_parser)
        assert [got.tolist() for got in _sources(path, "y", ",").values()] == [[2.0, 4.0]] * 2
    # a header with no body is declined before numpy sees it, without a warning
    path = tmp_path / "header_only.csv"
    path.write_bytes(b"y,z\n \n")
    monkeypatch.setattr(np, "loadtxt", _refuse_numpy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(_sources(path, "y", ",").values()) == [_reference(path, "y", ",")] * 2


@pytest.mark.floor
def test_read_column_errors_name_the_physical_line(tmp_path):
    cases = [
        ("y\n# c\n\n1\nxyz\n", 5),
        ("y\n1\n\nxyz\n", 4),  # after a blank line
        ("y\n1\n# note\nxyz\n", 4),  # after a comment line
        ("1\n\n2\nxyz\n", 4),  # no header
        ("y\r\n1\r\n\r\n2\r\nxyz\r\n", 5),
    ]
    for k, (text, line) in enumerate(cases):
        path = tmp_path / f"bad{k}.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError, match=re.escape(f"{path}:{line}: cannot parse 'xyz'")):
            read_column(str(path), "0")


@pytest.mark.floor
def test_read_column_from_pipe(tmp_path):
    # a pipe is read like a file: a clean one goes through numpy's parser, bit for bit
    text = "z,y\n" + "".join(f"{v:.17g},{np.sqrt(v):.17g}\n" for v in np.linspace(0.1, 9.9, 50))
    path = tmp_path / "clean.csv"
    path.write_text(text)
    code = (
        "import sys; from transferfn import cli\n"
        "def refuse(*args): raise AssertionError('row parser used')\n"
        "cli._read_column_rows = refuse\n"
        "print(cli.read_column('/dev/stdin', 'y').tobytes().hex())"
    )
    done = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == read_column(str(path), "y").tobytes().hex()
    # one that needs the row parser gets it
    code = "from transferfn.cli import read_column; print(read_column('/dev/stdin', 'y').tolist())"
    done = subprocess.run([sys.executable, "-c", code], input="y\n1.5\n?\n2\n", capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[1.5, 2.0]"


def test_estimate_identity_tracks_x(tmp_path, capsys, uniform_identity_file):
    out = tmp_path / "est.csv"
    run_cli(
        capsys, "estimate", "--data", str(uniform_identity_file), "--y-col", "y", "--dist", "uniform:0,1",
        "--grid", "0.05..0.95x46", "--alpha", "0.01", "--out", str(out),
    )
    schema, header, rows = read_table(out)
    assert schema == "# schema: transferfn.estimate.v1"
    assert header == ["x", "ghat", "ci_lo", "ci_hi"]
    xs = np.array([float(r[0]) for r in rows])
    ghat = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(ghat - xs)) < 3.0 / np.sqrt(4000)
    assert np.all(np.diff(ghat) >= 0.0)


def test_estimate_single_point_and_band_columns(tmp_path, capsys, uniform_identity_file):
    out = tmp_path / "one.csv"
    run_cli(
        capsys, "estimate", "--data", str(uniform_identity_file), "--y-col", "y", "--dist", "uniform:0,1",
        "--x", "0.5", "--out", str(out),
    )
    _, header, rows = read_table(out)
    assert len(rows) == 1 and header == ["x", "ghat", "ci_lo", "ci_hi"]

    out2 = tmp_path / "band.csv"
    run_cli(
        capsys, "estimate", "--data", str(uniform_identity_file), "--y-col", "y", "--dist", "uniform:0,1",
        "--grid", "0.1..0.9x9", "--band", "--out", str(out2),
    )
    _, header2, rows2 = read_table(out2)
    assert header2 == ["x", "ghat", "ci_lo", "ci_hi", "band_lo", "band_hi", "flagged"]
    assert len(rows2) == 9


def test_estimate_prints_its_diagnostics_on_stderr(tmp_path, capsys):
    # one stderr line: the count of clamped CI levels and, with --band, the
    # band's critical value, bandwidth and flagged-point count
    _, y = generate(DGPConfig(transfer="x^3", n=300, seed=4))
    data = tmp_path / "cube.csv"
    np.savetxt(data, y, header="y", comments="")
    sample = Sample(read_column(str(data), "y"))
    xs = default_grid(Normal(), 21, 0.001, 0.999)
    clamped = int(np.count_nonzero(estimate_with_ci(sample, Normal(), xs, 0.01).clamped))
    band = confidence_band(sample, Normal(), xs, 0.01)
    flagged = int(np.count_nonzero(band.flagged))
    assert clamped > 0 and flagged > 0  # neither count is trivially 0
    argv = ["estimate", "--data", str(data), "--y-col", "y", "--dist", "normal:0,1", "--grid", "0.001..0.999x21"]
    out, err = run_cli(capsys, *argv)
    assert err == f"clamped: {clamped}\n"
    assert out.startswith("# schema: transferfn.estimate.v1\n") and "clamped" not in out
    out, err = run_cli(capsys, *argv, "--band")
    assert out.startswith("# schema: transferfn.estimate.v1\n") and "clamped" not in out
    assert err == f"clamped: {clamped}, critical: {band.critical}, bandwidth: {band.bandwidth}, flagged: {flagged}\n"
    _, err = run_cli(capsys, *argv, "--band", "--bandwidth", "0.5")
    assert err.split(", ")[2] == "bandwidth: 0.5"


def test_estimate_deterministic_output(tmp_path, capsys, uniform_identity_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run_cli(
            capsys, "estimate", "--data", str(uniform_identity_file), "--y-col", "y", "--dist", "uniform:0,1",
            "--grid", "0.1..0.9x17", "--out", str(out),
        )
    assert a.read_bytes() == b.read_bytes()


def test_test_command_asymptotic_and_json(capsys, gamma_file):
    out, _ = run_cli(
        capsys, "test", "--data", str(gamma_file), "--y-col", "DQO-E",
        "--dist", "gamma:10.97,rate=0.0270", "--h", "identity", "--alpha", "0.15", "--json",
    )
    payload = json.loads(out)
    assert set(payload) >= {"statistic", "critical", "p_value", "decision", "method", "argmax_x"}
    assert payload["method"] == "asymptotic"


def test_test_command_monte_carlo(capsys, gamma_file):
    out, _ = run_cli(
        capsys, "test", "--data", str(gamma_file), "--y-col", "DQO-E",
        "--dist", "gamma", "--h", "identity", "--mc-reps", "99", "--seed", "3", "--json",
    )
    payload = json.loads(out)
    assert payload["method"] == "monte_carlo"
    assert 0.0 < payload["p_value"] <= 1.0


def test_test_command_monte_carlo_fits_once(capsys, gamma_file, monkeypatch):
    import transferfn.gof_test as gof_module
    from transferfn import FAMILIES, Sample, get_transfer, monte_carlo_p_value, test

    calls = {"fit": 0, "statistic": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    fit, statistic = FAMILIES["gamma"], gof_module.test_statistic
    argv = ["test", "--data", str(gamma_file), "--y-col", "DQO-E", "--dist", "gamma", "--h", "identity", "--mc-reps", "99", "--seed", "3"]
    with monkeypatch.context() as patch:
        patch.setitem(FAMILIES, "gamma", counting("fit", fit))
        patch.setattr(gof_module, "test_statistic", counting("statistic", statistic))
        out, _ = run_cli(capsys, *argv, "--json")
        assert calls == {"fit": 1, "statistic": 1}
        text, _ = run_cli(capsys, *argv)
    # the payload holds what the library's own calls give
    sample = Sample(read_column(str(gamma_file), "DQO-E"))
    hyp = get_transfer("identity")
    result = test(sample, fit(sample.values), hyp, 0.15)
    p_value = monte_carlo_p_value(sample, "gamma", hyp, replications=99, seed=3)
    payload = json.loads(out)
    assert "argmax_x" not in payload  # the bootstrap payload is unchanged
    assert (payload["statistic"], payload["critical"], payload["p_value"]) == (result.statistic, result.critical, p_value)
    assert text == "".join(
        f"{key}: {value}\n"
        for key, value in (
            ("statistic", result.statistic),
            ("critical", result.critical),
            ("p_value", p_value),
            ("decision", "reject" if p_value < 0.15 else "accept"),
            ("method", "monte_carlo"),
        )
    )


def test_subsample_ci_command(capsys, tmp_path):
    data = tmp_path / "ma.csv"
    run_cli(capsys, "simulate", "data", "--transfer", "(x+4)^2", "--n", "1500", "--ma-order", "10", "--seed", "5", "--out", str(data))
    sd = float(np.sqrt(np.sum(0.81 ** np.arange(11))))
    out, _ = run_cli(
        capsys, "subsample-ci", "--data", str(data), "--y-col", "y",
        "--dist", f"normal:0,{sd}", "--x", "0", "--alpha", "0.01", "--json",
    )
    payload = json.loads(out)
    assert payload["ci_lo"] <= payload["ghat"] <= payload["ci_hi"]
    assert payload["block"] == int(np.ceil(1500**0.8))


def test_subsample_ci_json_reports_windows_and_block_default(capsys, tmp_path):
    data = tmp_path / "ma.csv"
    run_cli(capsys, "simulate", "data", "--transfer", "(x+4)^2", "--n", "700", "--ma-order", "10", "--out", str(data))
    n = len(data.read_text().splitlines()) - 2  # the schema line and the header
    argv = ("subsample-ci", "--data", str(data), "--y-col", "y", "--dist", "normal:0,2.178", "--x", "0")
    keys = ["x", "ghat", "d_quantile", "ci_lo", "ci_hi", "block", "n", "level"]
    for extra, b, default in (((), math.ceil(n**0.8), True), (("--block", "55"), 55, False)):
        out, _ = run_cli(capsys, *argv, *extra, "--json")
        payload = json.loads(out)
        assert (payload["block"], payload["windows"], payload["block_default"]) == (b, n - b + 1, default)
        # the plain output keeps its keys and values
        out, _ = run_cli(capsys, *argv, *extra)
        assert out == "".join(f"{key}: {payload[key]}\n" for key in keys)


def test_fit_command_and_qq(tmp_path, capsys, gamma_file):
    y = read_column(str(gamma_file), "DQO-E")
    payloads = {}
    for family, keys in (("gamma", {"shape", "rate", "scale"}), ("normal", {"mean", "sd"}), ("uniform", {"lo", "hi"})):
        qq = tmp_path / f"qq_{family}.csv"
        out, _ = run_cli(
            capsys, "fit", "--data", str(gamma_file), "--y-col", "DQO-E", "--family", family, "--qq-out", str(qq), "--json",
        )
        payload = json.loads(out)
        assert set(payload) == {"family", "n"} | keys, family
        assert payload["family"] == family and payload["n"] == 518
        schema, header, rows = read_table(qq)
        assert schema == "# schema: transferfn.qq.v1"
        assert header == ["p", "fitted_quantile", "observed"]
        table = np.array(rows, dtype=float)
        assert table.shape == (518, 3) and np.all(np.isfinite(table)), family
        assert np.all(np.diff(table[:, 0]) > 0.0) and np.all(np.diff(table[:, 1]) >= 0.0), family
        assert np.array_equal(table[:, 2], np.sort(y)), family
        payloads[family] = payload
    gamma, normal, uniform = payloads["gamma"], payloads["normal"], payloads["uniform"]
    assert abs(gamma["shape"] - 10.97) < 2.0
    assert gamma["scale"] == pytest.approx(1.0 / gamma["rate"])
    assert (normal["mean"], normal["sd"]) == (np.mean(y), np.std(y))
    assert (uniform["lo"], uniform["hi"]) == (y.min(), y.max())


def test_simulate_table2_desk_scale(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    run_cli(capsys, "simulate", "table2", "--n", "1000", "--reps", "50", "--seed", "0", "--out", str(out))
    schema, header, rows = read_table(out)
    assert schema == "# schema: transferfn.table.v1"
    assert header == ["h", "perturbation", "correct_ratio"]
    paper = {
        ("(x+4)^2", "none"): 0.84, ("(x+4)^2", "x/n^(1/8)"): 0.32, ("(x+4)^2", "x/sqrt(n)"): 0.165,
        ("log(x+5)", "none"): 0.87, ("log(x+5)", "x/n^(1/8)"): 1.0, ("log(x+5)", "x/sqrt(n)"): 0.985,
        ("e^x", "none"): 0.91, ("e^x", "x/n^(1/8)"): 1.0, ("e^x", "x/sqrt(n)"): 0.46,
    }
    assert len(rows) == 9
    for h, pert, ratio in rows:
        assert abs(float(ratio) - paper[(h, pert)]) <= 0.15


def test_simulate_coverage_command(tmp_path, capsys):
    out = tmp_path / "cov.csv"
    run_cli(
        capsys, "simulate", "coverage", "--transfer", "(x+4)^2", "--n", "300", "--reps", "20",
        "--alpha", "0.05", "--x", "-1", "0", "1", "--seed", "2", "--out", str(out),
    )
    schema, header, rows = read_table(out)
    assert schema == "# schema: transferfn.coverage.v1"
    assert header == ["x", "coverage"]
    assert len(rows) == 3
    _, err = run_cli(
        capsys, "simulate", "coverage", "--transfer", "x^3", "--n", "300", "--reps", "5",
        "--method", "band", "--x", "-2", "0", "2", "--seed", "2", "--out", str(out),
    )
    line = re.fullmatch(r"simultaneous: (\S+), flagged_points: (\d+), flagged_reps: (\d+)\n", err)
    assert line and 0.0 <= float(line.group(1)) <= 1.0
    assert len(read_table(out)[2]) == 3
    # the flag counts, one replicate at a time
    config = DGPConfig(transfer="x^3", n=300, seed=2)
    flags = [
        int(np.count_nonzero(confidence_band(Sample(generate(config, replication_rng(2, r))[1]), Normal(), [-2.0, 0.0, 2.0], 0.01).flagged))
        for r in range(5)
    ]
    assert sum(flags) > 0
    assert (int(line.group(2)), int(line.group(3))) == (sum(flags), sum(f > 0 for f in flags))


def test_dgp_schema(tmp_path, capsys):
    out = tmp_path / "d.csv"
    run_cli(capsys, "simulate", "data", "--transfer", "identity", "--n", "10", "--out", str(out))
    schema, header, rows = read_table(out)
    assert schema == "# schema: transferfn.dgp.v1"
    assert header == ["z", "y"]
    assert len(rows) == 10
