"""The console contract, one table: each CLI path's exit code (0, 2, 3 or 4) and message.

Every case runs through ``cli.main``, and through the ``transferfn`` script on PATH in a shell (skipped if there is none)."""

import codecs
import contextlib
import functools
import os
import shlex
import shutil
import subprocess
from typing import NamedTuple

import numpy as np
import pytest

from transferfn import DGPConfig, generate
from transferfn.cli import main


class Case(NamedTuple):
    name: str  # the pytest id
    argv: str  # split as a shell would; {data} stands for the input's name
    data: bytes | None = None  # the input file's bytes; None leaves {data} a file that does not exist
    code: int = 0
    err: str = ""  # a substring of stderr, {data} standing for the input's name
    out: str = ""  # a substring of stdout
    via: str = "path"  # how the input is given: its "path", a "redirect" (--data /dev/stdin < file) or a "pipe"
    same_out: str = ""  # the name of the case whose stdout this one's equals


def usage_errors(command, data, rows):
    """Cases ``command TAIL`` on ``data`` that exit 2 with ``usage error: MESSAGE``, from (name, TAIL, MESSAGE) rows."""
    return [Case(name, f"{command} {tail}", data, 2, f"usage error: {message}") for name, tail, message in rows]


def column(*values, header="y", end="\n"):
    return (header + end + "".join(f"{v}{end}" for v in values)).encode()


_z, _y = generate(DGPConfig(transfer="(x+4)^2", n=200, seed=1))
DGP = b"z,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(_z, _y)).encode()  # y > 0: a gamma law fits
UNIFORM = column(*map(float, np.random.default_rng(101).uniform(size=4000)), end="\r\n")
WATER = column(*(f"{v:.6f},{0.5 * v:.6f}" for v in np.random.default_rng(518).gamma(10.97, 37.0, 518)), header="DQO-E,DQO-D")
TINY = column(*"""3.3095721011176387e-49 0.00015285969600668391 6.0149763970271206e-63 2.1011226651471633e-65 1.1071502464286328e-260
    1.4114257690509585e-45 6.2192468308780821e-18 5.7882201653570043e-58 1.7290128660814462e-66 1.3700287159169304e-97
    9.2312879699534929e-93 0.03909381913919846 5.0353098808323363e-24 1.1259695207113549e-93 0.006162019759570982
    9.8271355319272261e-157""".split())  # a gamma fitted at shape ~0.0064, where numpy's gamma draws underflow to 0
# every normal refit succeeds, but h' = 2(x+4) <= 0 on 20 replicates' trimmed regions
NEGATIVE = column(*"""-2.6742697789066066 -2.9321048632913018 -2.1595773495567179 -2.6950998828469599 -3.3356693731611107
    -2.438404945090515 -1.4959999548698626 -1.8529190368707575 -3.5037352358069924 -4.0654214710460526 -3.4232744625373521
    -2.758674020652756 -5.1250307746388337 -3.0187916639325456 -4.0459109472530645 -3.5322673547034515""".split())

Y, DQO = "--data {data} --y-col y", "--data {data} --y-col DQO-E"
BAND = f"estimate {Y} --dist normal:0,1 --grid 0.1..0.9x5 --band"
COVERAGE = "simulate coverage --transfer (x+4)^2 --n 300 --reps 2 --x"
SUBCOMMANDS = ("estimate", "test", "subsample-ci", "fit", "simulate", "simulate table2", "simulate coverage", "simulate data")
UNKNOWN_FAMILY = "unknown family 'nope'; known: gamma, normal, uniform\n"
DELIM_USERS = ("estimate --data {data} --dist normal:0,1", "fit --data {data}", "simulate table2 --n 1000 --reps 1000",
               "simulate data --transfer identity --n 10", f"{COVERAGE} 0")

CASES = [
    Case("simulate-data", "simulate data --transfer (x+4)^2 --n 200 --seed 1", out="# schema: transferfn.dgp.v1\nz,y\n"),
    Case("simulate-table2", "simulate table2 --n 100 --reps 2", out="# schema: transferfn.table.v1\n"),
    Case("estimate-x", f"estimate {Y} --dist normal:0,1 --x 0", DGP, err="clamped: "),
    Case("test-bootstrap", f"test {Y} --dist gamma --h identity --mc-reps 99", DGP, out="method: monte_carlo"),
    *(Case(f"help-{command.replace(' ', '-')}", f"{command} --help", out=f"usage: transferfn {command}") for command in SUBCOMMANDS),
    # a path, a redirect and a pipe, with a byte-order mark or a missing-value row (the row parser's): the same band
    Case("band-file", BAND, DGP, err="clamped: ", out="# schema: transferfn.estimate.v1\nx,ghat,ci_lo,ci_hi,band_lo"),
    Case("band-redirect", BAND, DGP, via="redirect", same_out="band-file"),
    Case("band-pipe", BAND, DGP, via="pipe", same_out="band-file"),
    Case("band-bom-file", BAND, codecs.BOM_UTF8 + DGP, same_out="band-file"),
    Case("band-bom-pipe", BAND, codecs.BOM_UTF8 + DGP, via="pipe", same_out="band-file"),
    Case("band-missing-row-file", BAND, DGP.replace(b"\n", b"\n?,?\n", 1), same_out="band-file"),
    Case("band-missing-row-pipe", BAND, DGP.replace(b"\n", b"\n?,?\n", 1), via="pipe", same_out="band-file"),
    Case("band-edge-overflows", f"estimate {Y} --dist normal:0,1 --band --bandwidth 1e300", column(*[0] * 19, 1.7976931348623157e308),
         out=",inf,1\n"),  # ghat + half passes the largest float: an infinite edge, as where fhat = 0
    Case("y-col-name", f"estimate {Y} --dist uniform:0,1 --x 0.5", DGP, out="x,ghat,ci_lo,ci_hi\n0.5,"),
    Case("y-col-last", "estimate --data {data} --y-col -1 --dist uniform:0,1 --x 0.5", DGP, same_out="y-col-name"),
    Case("y-col-out-of-range", "estimate --data {data} --y-col -5 --dist uniform:0,1 --x 0.5", DGP, 3,
         "data error: column -5 is out of range: the first row of {data} has 2 columns"),
    *(  # tab, ';' and space are valid delimiters
        Case(f"delim-valid-{k}", f"estimate {Y} --dist normal:0,1 --x 0 --delim {shlex.quote(d)}",
             (f"z{d}y\n" + "".join(f"{i}{d}{i + 0.5}\n" for i in range(20))).encode(), out=d.join(["\n0.0", "9.5", "4.5", "15.5\n"]))
        for k, d in enumerate("\t; ")
    ),
    # usage errors (exit 2): a flag argparse rejects, or an argument the library rejects
    Case("argparse-missing-flag", "estimate", code=2, err="the following arguments are required: --data, --dist"),
    Case("argparse-bad-float", f"{COVERAGE} abc", code=2, err="argument --x: invalid float value: 'abc'"),
    *(  # a --delim that is not one character, or that can occur inside a number, before any input is read
        Case(f"delim-{k}-{command.split()[command.startswith('simulate')]}", f"{command} --delim {shlex.quote(d)}", code=2,
             err="argument --delim: must be one character")
        for k, d in enumerate((";;", "", "\\t", "\n", "1", ".", "e", "+", "-", "_", "E", "٣"))  # U+0663 is a digit to float()
        for command in (DELIM_USERS if k < 7 else DELIM_USERS[1:2])
    ),
    *usage_errors(f"estimate {Y} --dist uniform:0,1", UNIFORM, [
        ("estimate-grid-reversed", "--grid 0.5..0.4x10", "grid quantile range must satisfy 0 < p_lo <= p_hi < 1"),
        ("estimate-x-outside-support", "--x 2.5", "evaluation point 2.5 is outside the open support"),
        *((f"band-one-point-{k}", f"{grid} --band", "--band needs at least two distinct grid points; give them with --grid P1..P2xN")
          for k, grid in enumerate(("--x 0.5", "--grid 0.5..0.5x5", "--grid 0.1..0.9x1"))),
        ("band-alpha-1e-17", "--band --alpha 1e-17", "alpha must lie in (0, 0.5) with 1 - alpha < 1 (got 1e-17)"),
        ("band-bandwidth--1", "--band --bandwidth -1", "bandwidth must be positive"),
        ("band-bandwidth-inf", "--band --bandwidth inf", "bandwidth must be positive and finite"),
        ("band-bandwidth-1e-310", "--band --bandwidth 1e-310", "bandwidth 1e-310 is too small"),  # the density estimate overflows
        ("band-bandwidth-1e-320", "--band --bandwidth 1e-320", "bandwidth 1e-320 is too small: the kernel's peak 1/(pi h) overflows"),
    ]),
    *usage_errors(f"test {Y} --dist normal:0,1", UNIFORM, [
        ("test-unknown-h", "--h nope", "unknown transfer 'nope'; known:"),
        ("test-alpha-above-1", "--h identity --alpha 1.5", "alpha must lie in (0, 1) with 1 - alpha < 1 (got 1.5)"),
    ]),
    *usage_errors(f"estimate {DQO} --dist", WATER, [
        (f"dist-{dist}", dist, f"bad --dist value '{dist}': {why}") for dist, why in (
            ("gamma:inf,1", "gamma requires finite"), ("gamma:2,rate=inf", "gamma requires finite"),
            ("gamma:2,scale=0", "gamma scale must be > 0"), ("uniform:-1e308,1e308", "uniform requires finite lo < hi with a finite range"))
    ]),
    *usage_errors("", WATER, [
        ("subsample-block-above-n", f"subsample-ci {DQO} --dist gamma:10.97,rate=0.0270 --x 300 --block 99999",
         "block length must satisfy 2 <= b < n (got b=99999, n=518)"),
        ("test-alpha-1e-17", f"test {DQO} --dist gamma:10.97,rate=0.0270 --h identity --alpha 1e-17", "alpha must lie in (0, 1) with"),
        # one message for an unknown family or law, and fit checks the family before it reads the (here missing) file
        ("fit-unknown-family", f"fit {DQO} --family nope", UNKNOWN_FAMILY),
        ("dist-unknown-family", f"estimate {DQO} --dist nope:1,2 --x 1", UNKNOWN_FAMILY),
    ]),
    *usage_errors(f"test {DQO} --h identity --mc-reps", WATER, [
        ("test-mc-reps-50", "50 --dist gamma", "the bootstrap replication count must be an integer >= 99"),
        ("test-mc-alpha-above-1", "99 --dist gamma --alpha 1.5", "alpha must lie in (0, 1)"),
        ("test-mc-seed-negative", "99 --dist gamma --seed -1", "a seed must be an integer >= 0"),
        ("test-mc-unknown-family", "99 --dist nope", UNKNOWN_FAMILY),
        ("test-mc-family-with-parameters", "99 --dist gamma:10,0.02", "--dist 'gamma:10,0.02': with --mc-reps give the family alone"),
    ]),
    Case("fit-unknown-family-no-file", "fit --data {data} --family nope", None, 2, f"usage error: {UNKNOWN_FAMILY}"),
    Case("subsample-default-block-is-n", f"subsample-ci {Y} --dist normal:0,1 --x 0", column(0.5, 1.5, 2.5), 2,
         "usage error: block length must satisfy 2 <= b < n (got b=3, n=3)"),
    Case("test-too-short-to-trim", f"test {Y} --dist normal:0,1 --h identity", column(*(f"{i}.5" for i in range(10))), 2,
         "usage error: the trimmed statistic's n must be an integer >= 16"),
    *usage_errors("simulate", None, [
        ("data-decay-inf", "data --transfer identity --n 10 --ma-order 2 --ma-decay inf", "ma_decay must be finite (got inf)"),
        ("data-ma-overflows", "data --transfer (x+4)^2 --n 5 --ma-order 2 --ma-decay 1e100", "ma_decay 1e+100 overflows the MA(2) law"),
        ("data-seed-negative", "data --transfer identity --n 10 --seed -1", "a seed must be an integer >= 0"),
        ("data-g-overflows", "data --transfer e^x --n 16 --ma-order 2 --ma-decay 1e10", "transfer kept leaving its domain: 'e^x'"),
        ("coverage-g-overflows-names-the-marginal", "coverage --transfer e^x --n 200 --reps 3 --x 0 --ma-order 1 --ma-decay 1e3 --seed 1",
         "transfer kept leaving its domain: 'e^x' under Normal(mean=0.0, sd=1000.000499999875)"),  # the MA(1) law, not its innovations'
        ("table2-reps-0", "table2 --n 200 --reps 0", "the repetition count must be an integer >= 1"),
        ("table2-n-10", "table2 --n 10", "the trimmed statistic's n must be an integer >= 16"),
        ("table2-seed-negative", "table2 --n 200 --reps 1 --seed -1", "a seed must be an integer >= 0"),
        ("coverage-g-undefined", "coverage --transfer log(x+5) --n 300 --reps 2 --x -6", "transfer 'log(x+5)' is not finite at x = -6.0"),
        ("coverage-reps-0", "coverage --transfer (x+4)^2 --reps 0 --x 0", "the replication count must be an integer >= 1"),
        ("coverage-subsample-n-4", "coverage --transfer (x+4)^2 --n 4 --method subsample --x 0", "block length must satisfy 2 <= b < n"),
    ]),
    *usage_errors(COVERAGE, None, [
        ("coverage-decay-nan", "0 --ma-order 2 --ma-decay nan", "ma_decay must be finite (got nan)"),
        ("coverage-ma-overflows", "0 --ma-order 2 --ma-decay 1e200", "ma_decay 1e+200 overflows the MA(2) law"),
        ("coverage-block-1", "0 --method subsample --block 1", "block length must be an integer >= 2"),
        ("coverage-block-n", "0 --method subsample --block 300", "block length must satisfy 2 <= b < n (got b=300, n=300)"),
        ("coverage-band-one-point", "0 --method band", "band interval must satisfy a < c < d < b"),
        ("coverage-band-repeated-point", "0 0 --method band", "evaluation points must be distinct"),
        ("coverage-x-nan", "nan", "evaluation points must be finite"),
        ("coverage-g-overflows", "1e300", "transfer '(x+4)^2' is not finite at x = 1e+300"),
        ("coverage-x-repeated", "0 0 1", "evaluation points must be distinct (got [0.0, 0.0, 1.0])"),  # one report cell per point
        ("coverage-x-signed-zeros", "-0.0 0.0", "evaluation points must be distinct (got [-0.0, 0.0])"),
        ("coverage-seed-negative", "0 --seed -1", "a seed must be an integer >= 0"),
    ]),
    # data errors (exit 3)
    *(Case(name, f"estimate {Y} --dist normal:0,1", data, 3, f"data error: {message}") for name, data, message in (
        ("data-missing-file", None, "cannot read {data}"),
        ("data-one-value", column("1.0"), "{data}: fewer than 2 usable rows in column 'y'"),
        ("data-undecodable", b"y\n1.5\n2.5\ncaf\xe9\n3\n", "cannot read {data}"),
        ("data-long-junk-field", column(1, 2, "w" * 200_000), "{data}:4: cannot parse 'www"),
    )),
    # numeric and convergence errors (exit 4)
    *(Case(name, argv, data, 4, f"numeric error: {message}") for name, argv, data, message in (
        ("fit-gamma-constant", f"fit {Y} --family gamma", column(*[3.7] * 50), "data are (numerically) constant; gamma MLE is degenerate"),
        ("fit-uniform-range-overflows", f"fit {Y} --family uniform", column("1e308", 0, "-1e308"),
         "uniform requires finite lo < hi with a finite range hi - lo\n"),
        # the 0.01 quantile overflows to -inf, underflows to 0
        ("grid-quantile-normal", f"estimate {Y} --dist normal:0,1e308 --grid 0.01..0.99x3", UNIFORM,
         "the Normal(mean=0.0, sd=1e+308) quantile at level 0.01 is"),
        ("grid-quantile-gamma", f"estimate {Y} --dist gamma:0.001,1 --grid 0.01..0.99x3", UNIFORM,
         "the Gamma(shape=0.001, rate=1.0) quantile at level 0.01 is"),
        ("band-data-range-overflows", BAND, column("6.48648100598784e293", "-1.7976931348623093e308", 1, 2),
         "the data range [-1.7976931348623093e+308, 6.48648100598784e+293] is wider than the largest float"),
        ("coverage-band-data-range-overflows", "simulate coverage --transfer x^3 --n 200 --reps 20 --method band --x 1e100 1e101 "
         "--ma-order 1 --ma-decay 1.4e102 --seed 1", None, "the data range [-9.380364830146849e+307, 1.5645738966966918e+308]"),
        ("subsample-deviations-overflow", f"subsample-ci {Y} --dist normal:0,1 --x 0 --alpha 0.1 --block 2",
         column(0, 0, 0, 0, "-1.5e308"), "the scaled block deviations sqrt(b)|ghat_b,i - ghat| (b = 2) overflow"),
        ("test-bootstrap-gamma-underflow", f"test {Y} --dist gamma --h identity --mc-reps 99", TINY,
         "bootstrap draws from the fitted Gamma(shape=0.006437883348964098, rate=2.2684229403411162) left its support: "
         "a draw underflowed to 0"),
        ("test-bootstrap-statistic-failures", f"test {Y} --dist normal --h (x+4)^2 --mc-reps 99", NEGATIVE,
         "20/99 bootstrap replicates failed: 0 refits of the normal family and 20 statistics, "
         "the first because h must have a positive derivative"),
        ("test-h-undefined", f"test {Y} --dist normal:0,6 --h log(x+5) --alpha 0.15", column(*map(float, np.linspace(-1, 1, 16))),
         "h must have a positive derivative on the trimmed region\n"),  # log(x+5) is NaN past -5
        ("test-statistic-overflows", f"test {Y} --dist normal:0,1e-300 --h identity", column(*map(float, np.linspace(-1e180, 1e180, 16))),
         "the weighted statistic sqrt(n) sup (f_Z/h') |ghat - h| overflows a float"),
    )),
]
BY_NAME = {c.name: c for c in CASES}
PREFIX = {2: "usage error: ", 3: "data error: ", 4: "numeric error: "}


@contextlib.contextmanager
def _stdin(via, path):
    """fd 0 is the file at ``path`` (a redirect), a pipe ``cat`` writes it into, or, with the input a path, /dev/null."""
    cat = subprocess.Popen(["cat", path], stdout=subprocess.PIPE) if via == "pipe" else None
    saved = os.dup(0)
    with cat.stdout if cat else open(path if via == "redirect" else os.devnull, "rb") as source:
        os.dup2(source.fileno(), 0)
    try:
        yield
    finally:
        os.dup2(saved, 0)  # closes the pipe's last read end, so a cat the command left blocked exits
        os.close(saved)
        if cat:
            cat.wait()


def in_process(capsys, argv, via, path):
    with _stdin(via, path):
        code = main(argv)
    return (code, *capsys.readouterr())


def console_script(script, argv, via, path):
    command = shlex.join([script, *argv])
    command = {"path": command, "redirect": f"{command} < {shlex.quote(path)}", "pipe": f"cat {shlex.quote(path)} | {command}"}[via]
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    done = subprocess.run(command, shell=True, stdin=subprocess.DEVNULL, capture_output=True, env=env, timeout=300)
    return done.returncode, done.stdout.decode(errors="replace"), done.stderr.decode(errors="replace")


def _run(c, tmp_path, run):
    """(the command line, exit code, stdout, stderr, stderr substring expected) of case ``c`` under ``run``."""
    path = tmp_path / f"{c.name}.csv"
    if c.data is not None:
        path.write_bytes(c.data)
    name = str(path) if c.via == "path" else "/dev/stdin"
    argv = shlex.split(c.argv.replace("{data}", shlex.quote(name)))
    shown = f"transferfn {shlex.join(argv)}" + ("" if c.via == "path" else f" ({c.via} from {path})")
    return (shown, *run(argv, c.via, str(path)), c.err.replace("{data}", name))


def check(c, tmp_path, run):
    shown, code, out, err, want_err = _run(c, tmp_path, run)
    one_message = err.startswith(PREFIX.get(code, "?")) and err.count("\n") == 1 or code == 2 and err.startswith("usage: transferfn")
    failed = [what for what, ok in {
        f"exit code {code}, expected {c.code}": code == c.code,
        f"no {want_err!r} on stderr": want_err in err,
        f"no {c.out!r} on stdout": c.out in out,
        f"stdout differs from case {c.same_out}'s": not c.same_out or out and out == _run(BY_NAME[c.same_out], tmp_path, run)[2],
        "an error prints nothing on stdout and one message line (or argparse's usage) on stderr": not code or not out and one_message,
    }.items() if not ok]
    assert not failed, f"{c.name}: {shown} exited {code}: {'; '.join(failed)}\nstderr:\n{err}"


@pytest.mark.parametrize("c", CASES, ids=[c.name for c in CASES])
def test_in_process(c, tmp_path, capsys):
    check(c, tmp_path, functools.partial(in_process, capsys))


@pytest.mark.parametrize("c", CASES, ids=[c.name for c in CASES])
def test_console_script(c, tmp_path):
    if (script := shutil.which("transferfn")) is None:
        pytest.skip("no transferfn console script on PATH")
    check(c, tmp_path, functools.partial(console_script, script))
