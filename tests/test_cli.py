import csv
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from transferfn.cli import main, parse_dist, parse_grid, read_column, UsageError, DataError
from transferfn.cli import _read_column_fast, _read_column_rows
from transferfn import Gamma, Normal, Uniform


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    for bad in ("nope:1,2", "normal:1", "gamma:1,rate=-2", "gamma:-3,1", "gamma:inf,1", "gamma:2,rate=inf"):
        with pytest.raises(UsageError):
            parse_dist(bad)


def test_parse_grid():
    assert parse_grid("0.01..0.99x200") == (0.01, 0.99, 200)
    assert parse_grid("0.05..0.95:21") == (0.05, 0.95, 21)
    for bad in ("0.5x10", "0..1x10", "0.2..0.1x5", "a..bx5", "0.1..0.9"):
        with pytest.raises(UsageError):
            parse_grid(bad)


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

    ``fast`` marks clean files that numpy's parser must accept itself rather
    than defer to the row parser.
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
        ("byte order mark", "\ufeffy,z\n1,2\n3,4\n", ("y", "z"), False),
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


def _outcome(reader, path, selector, delimiter):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return reader(data, path, selector, delimiter)
    except DataError as exc:
        return str(exc)


def test_read_column_fast_path_matches_row_parser(tmp_path):
    for k, (name, text, selectors, fast) in enumerate(_ingestion_corpus()):
        path = tmp_path / f"case{k}.csv"
        path.write_bytes(text.encode())
        delimiter = "\t" if "tab" in name else ","
        for selector in selectors:
            ref = _outcome(_read_column_rows, str(path), selector, delimiter)
            try:
                got = read_column(str(path), selector, delimiter)
            except DataError as exc:
                got = str(exc)
            if isinstance(ref, str):
                assert isinstance(got, str) and got == ref, (name, selector)
            else:
                assert isinstance(got, np.ndarray) and np.array_equal(got.view(np.int64), ref.view(np.int64)), (name, selector)
            if fast:
                assert _outcome(_read_column_fast, str(path), selector, delimiter) is not None, (name, selector)


def test_read_column_reads_fields_of_any_length(tmp_path):
    long = "w" * 200_000
    for k, text in enumerate((f"label,y\n{long},1\nb,2\nc,3\n", f"y,{long}\n1,4\n2,5\n3,6\n")):
        path = tmp_path / f"long{k}.csv"
        path.write_text(text)
        assert read_column(str(path), "y").tolist() == [1.0, 2.0, 3.0]
        assert _outcome(_read_column_rows, str(path), "y", ",").tolist() == [1.0, 2.0, 3.0]


def test_read_column_fast_path_body_starts_after_the_header(tmp_path):
    # a '#' before the body (comment lines, the header) leaves the fast path open
    path = tmp_path / "hash_header.csv"
    path.write_bytes(b"# note #1\nid#,y\n1,2\n3,4\n")
    assert _outcome(_read_column_fast, str(path), "y", ",").tolist() == [2.0, 4.0]
    # a header with no body is declined before numpy sees it, without a warning
    path = tmp_path / "header_only.csv"
    path.write_bytes(b"y,z\n \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(_read_column_fast, str(path), "y", ",") is None


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


def test_negative_column_selector(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("z,y\n" + "".join(f"{v},{2 * v}\n" for v in range(1, 30)))
    base = ["estimate", "--data", str(path), "--dist", "uniform:0,1", "--x", "0.5"]
    code, out_last, _ = run_cli(capsys, *base, "--y-col", "-1")
    assert code == 0
    code, out_y, _ = run_cli(capsys, *base, "--y-col", "y")
    assert code == 0 and out_last == out_y
    code, out, err = run_cli(capsys, *base, "--y-col", "-5")
    assert code == 3 and out == ""
    assert "out of range" in err and "Traceback" not in err


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
    code, _, _ = run_cli(
        capsys,
        "estimate",
        "--data", str(uniform_identity_file),
        "--y-col", "y",
        "--dist", "uniform:0,1",
        "--grid", "0.05..0.95x46",
        "--alpha", "0.01",
        "--out", str(out),
    )
    assert code == 0
    schema, header, rows = read_table(out)
    assert schema == "# schema: transferfn.estimate.v1"
    assert header == ["x", "ghat", "ci_lo", "ci_hi"]
    xs = np.array([float(r[0]) for r in rows])
    ghat = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(ghat - xs)) < 3.0 / np.sqrt(4000)
    assert np.all(np.diff(ghat) >= 0.0)


def test_estimate_single_point_and_band_columns(tmp_path, capsys, uniform_identity_file):
    out = tmp_path / "one.csv"
    code, _, _ = run_cli(
        capsys,
        "estimate", "--data", str(uniform_identity_file), "--y-col", "y",
        "--dist", "uniform:0,1", "--x", "0.5", "--out", str(out),
    )
    assert code == 0
    _, header, rows = read_table(out)
    assert len(rows) == 1 and header == ["x", "ghat", "ci_lo", "ci_hi"]

    out2 = tmp_path / "band.csv"
    code, _, _ = run_cli(
        capsys,
        "estimate", "--data", str(uniform_identity_file), "--y-col", "y",
        "--dist", "uniform:0,1", "--grid", "0.1..0.9x9", "--band", "--out", str(out2),
    )
    assert code == 0
    _, header2, rows2 = read_table(out2)
    assert header2 == ["x", "ghat", "ci_lo", "ci_hi", "band_lo", "band_hi", "flagged"]
    assert len(rows2) == 9


def test_estimate_deterministic_output(tmp_path, capsys, uniform_identity_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run_cli(
            capsys,
            "estimate", "--data", str(uniform_identity_file), "--y-col", "y",
            "--dist", "uniform:0,1", "--grid", "0.1..0.9x17", "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_test_command_asymptotic_and_json(capsys, gamma_file):
    code, out, _ = run_cli(
        capsys,
        "test", "--data", str(gamma_file), "--y-col", "DQO-E",
        "--dist", "gamma:10.97,rate=0.0270", "--h", "identity", "--alpha", "0.15", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"statistic", "critical", "p_value", "decision", "method", "argmax_x"}
    assert payload["method"] == "asymptotic"


def test_test_command_monte_carlo(capsys, gamma_file):
    code, out, _ = run_cli(
        capsys,
        "test", "--data", str(gamma_file), "--y-col", "DQO-E",
        "--dist", "gamma", "--h", "identity", "--mc-reps", "99", "--seed", "3", "--json",
    )
    assert code == 0
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
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert calls == {"fit": 1, "statistic": 1}
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0
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
    code, _, _ = run_cli(
        capsys,
        "simulate", "data", "--transfer", "(x+4)^2", "--n", "1500",
        "--ma-order", "10", "--seed", "5", "--out", str(data),
    )
    assert code == 0
    sd = float(np.sqrt(np.sum(0.81 ** np.arange(11))))
    code, out, _ = run_cli(
        capsys,
        "subsample-ci", "--data", str(data), "--y-col", "y",
        "--dist", f"normal:0,{sd}", "--x", "0", "--alpha", "0.01", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ci_lo"] <= payload["ghat"] <= payload["ci_hi"]
    assert payload["block"] == int(np.ceil(1500**0.8))


def test_fit_command_and_qq(tmp_path, capsys, gamma_file):
    y = read_column(str(gamma_file), "DQO-E")
    payloads = {}
    for family, keys in (("gamma", {"shape", "rate", "scale"}), ("normal", {"mean", "sd"}), ("uniform", {"lo", "hi"})):
        qq = tmp_path / f"qq_{family}.csv"
        code, out, _ = run_cli(
            capsys,
            "fit", "--data", str(gamma_file), "--y-col", "DQO-E",
            "--family", family, "--qq-out", str(qq), "--json",
        )
        assert code == 0, family
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
    code, _, _ = run_cli(
        capsys,
        "simulate", "table2", "--n", "1000", "--reps", "50", "--seed", "0", "--out", str(out),
    )
    assert code == 0
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
    code, _, _ = run_cli(
        capsys,
        "simulate", "coverage", "--transfer", "(x+4)^2", "--n", "300", "--reps", "20",
        "--alpha", "0.05", "--x", "-1", "0", "1", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    schema, header, rows = read_table(out)
    assert schema == "# schema: transferfn.coverage.v1"
    assert header == ["x", "coverage"]
    assert len(rows) == 3
    code, _, err = run_cli(
        capsys,
        "simulate", "coverage", "--transfer", "(x+4)^2", "--n", "300", "--reps", "5",
        "--method", "band", "--x", "-1", "0", "1", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    simultaneous = re.fullmatch(r"simultaneous: (\S+)\n", err)
    assert simultaneous and 0.0 <= float(simultaneous.group(1)) <= 1.0
    assert len(read_table(out)[2]) == 3


def test_dgp_schema(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "data", "--transfer", "identity", "--n", "10", "--out", str(out)
    )
    assert code == 0
    schema, header, rows = read_table(out)
    assert schema == "# schema: transferfn.dgp.v1"
    assert header == ["z", "y"]
    assert len(rows) == 10


def test_exit_codes(tmp_path, capsys, uniform_identity_file, gamma_file):
    # usage errors -> 2
    code, _, err = run_cli(
        capsys, "test", "--data", str(uniform_identity_file), "--y-col", "y",
        "--dist", "normal:0,1", "--h", "nope",
    )
    assert code == 2 and "known:" in err
    code, _, _ = run_cli(
        capsys, "test", "--data", str(uniform_identity_file), "--y-col", "y",
        "--dist", "normal:0,1", "--h", "identity", "--alpha", "1.5",
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "subsample-ci", "--data", str(gamma_file), "--y-col", "DQO-E",
        "--dist", "gamma:10.97,rate=0.0270", "--x", "300", "--block", "99999",
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "estimate", "--data", str(uniform_identity_file), "--y-col", "y",
        "--dist", "uniform:0,1", "--grid", "0.5..0.4x10",
    )
    assert code == 2
    for dist in ("gamma:inf,1", "gamma:2,rate=inf"):
        code, _, err = run_cli(capsys, "estimate", "--data", str(gamma_file), "--y-col", "DQO-E", "--dist", dist)
        assert code == 2 and "finite" in err
    coverage = ("simulate", "coverage", "--transfer", "(x+4)^2", "--n", "300", "--reps", "2", "--x")
    tiny = tmp_path / "tiny.csv"  # too short for the default block ceil(n^(4/5)) = n
    tiny.write_text("y\n0.5\n1.5\n2.5\n")
    gamma_data = ("--data", str(gamma_file), "--y-col", "DQO-E")
    for argv in (
        ("subsample-ci", "--data", str(tiny), "--y-col", "y", "--dist", "normal:0,1", "--x", "0"),
        ("test", *gamma_data, "--dist", "gamma", "--h", "identity", "--mc-reps", "50"),
        ("test", *gamma_data, "--dist", "nope", "--h", "identity", "--mc-reps", "99"),
        ("fit", *gamma_data, "--family", "nope"),
        ("estimate", "--data", str(uniform_identity_file), "--y-col", "y", "--dist", "uniform:0,1", "--x", "0.5", "--band"),
        ("estimate", "--data", str(uniform_identity_file), "--y-col", "y", "--dist", "uniform:0,1",
         "--grid", "0.5..0.5x5", "--band"),
        ("simulate", "data", "--transfer", "identity", "--n", "10", "--ma-order", "2", "--ma-decay", "inf"),
        (*coverage, "0", "--ma-order", "2", "--ma-decay", "nan"),
        (*coverage, "0", "--method", "subsample", "--block", "1"),
        (*coverage, "0", "--method", "subsample", "--block", "300"),
        (*coverage, "0", "--method", "band"),
        (*coverage, "0", "0", "--method", "band"),
        ("simulate", "coverage", "--transfer", "(x+4)^2", "--reps", "0", "--x", "0"),
        ("simulate", "table2", "--n", "200", "--reps", "0"),
        ("simulate", "table2", "--n", "10"),
        ("simulate", "coverage", "--transfer", "(x+4)^2", "--n", "4", "--method", "subsample", "--x", "0"),
        *(
            ("estimate", "--data", str(uniform_identity_file), "--y-col", "y", "--dist", "uniform:0,1",
             "--band", "--bandwidth", bad)
            for bad in ("-1", "inf")
        ),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("usage error"), argv
    # a --delim that is not one character, or that can occur inside a number, exits 2
    # before any input is read or any study runs
    for delim in (";;", "", "\\t", "\n", "1", ".", "e"):
        for argv in (
            ("estimate", "--data", str(tmp_path / "no.csv"), "--dist", "normal:0,1"),
            ("fit", "--data", str(tmp_path / "no.csv")),
            ("simulate", "table2", "--n", "1000", "--reps", "1000"),
            ("simulate", "data", "--transfer", "identity", "--n", "10"),
            (*coverage, "0"),
        ):
            code, out, err = run_cli(capsys, *argv, "--delim", delim)
            assert code == 2 and out == "" and "argument --delim: must be one character" in err, (argv, delim)
    for delim in ("+", "-", "_", "E", "\u0663"):  # U+0663 is a digit to float()
        code, out, err = run_cli(capsys, "fit", "--data", str(tmp_path / "no.csv"), "--delim", delim)
        assert code == 2 and out == "" and "argument --delim: must be one character" in err, delim
    # tab, ';' and space stay valid
    for delim in ("\t", ";", " "):
        spaced = tmp_path / "delim.csv"
        spaced.write_text(f"z{delim}y\n" + "".join(f"{i}{delim}{i + 0.5}\n" for i in range(20)))
        argv = ("estimate", "--data", str(spaced), "--y-col", "y", "--dist", "normal:0,1", "--x", "0", "--delim", delim)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.splitlines()[-1] == delim.join(["0.0", "9.5", "4.5", "15.5"]), delim
    # data errors -> 3
    code, _, _ = run_cli(capsys, "estimate", "--data", str(tmp_path / "no.csv"), "--dist", "normal:0,1")
    assert code == 3
    short = tmp_path / "short.csv"
    short.write_text("y\n1.0\n")
    code, _, _ = run_cli(capsys, "estimate", "--data", str(short), "--y-col", "y", "--dist", "normal:0,1")
    assert code == 3
    undecodable = tmp_path / "latin1.csv"  # not valid in the locale encoding
    undecodable.write_bytes(b"y\n1.5\n2.5\ncaf\xe9\n3\n")
    code, out, err = run_cli(capsys, "estimate", "--data", str(undecodable), "--y-col", "y", "--dist", "normal:0,1")
    assert code == 3 and out == "" and err.startswith(f"data error: cannot read {undecodable}") and "Traceback" not in err
    long_junk = tmp_path / "long_junk.csv"  # a field longer than csv's default limit
    long_junk.write_text("y\n1\n2\n" + "w" * 200_000 + "\n")
    code, out, err = run_cli(capsys, "estimate", "--data", str(long_junk), "--y-col", "y", "--dist", "normal:0,1")
    assert code == 3 and out == "" and f"{long_junk}:4: cannot parse 'www" in err and "Traceback" not in err
    # a flag value conflicting with the input law is a usage error too
    code, _, _ = run_cli(
        capsys, "estimate", "--data", str(uniform_identity_file), "--y-col", "y",
        "--dist", "uniform:0,1", "--x", "2.5",
    )
    assert code == 2
    # numeric/convergence errors -> 4
    const = tmp_path / "const.csv"
    const.write_text("y\n" + "3.7\n" * 50)
    code, _, _ = run_cli(capsys, "fit", "--data", str(const), "--y-col", "y", "--family", "gamma")
    assert code == 4
    # argparse usage -> 2, help -> 0
    assert main(["estimate"]) == 2
    assert main(["simulate", "--help"]) == 0
