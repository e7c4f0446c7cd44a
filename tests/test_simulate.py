import json

import numpy as np
import pytest

from transferfn import (
    DGPConfig,
    HypothesisFunction,
    Normal,
    PERTURBATIONS,
    TRANSFERS,
    Sample,
    Uniform,
    confidence_band,
    default_block_length,
    estimate_with_ci,
    generate,
    get_transfer,
    ks_sup_quantile,
    perturbed,
    replication_rng,
    run_coverage_study,
    run_test_table,
    subsample_ci,
)
from transferfn import test_statistic as gof_statistic
from transferfn.empirical import quantile_rank
from transferfn.errors import ArgumentError, DomainError
import transferfn.gof_test as gof_module
import transferfn.simulate as simulate


def test_registry_contents():
    assert set(TRANSFERS) == {"(x+4)^2", "log(x+5)", "log(x+10)", "x^3", "e^x", "identity"}
    assert get_transfer("exp(x)") is TRANSFERS["e^x"]
    with pytest.raises(ArgumentError, match="unknown transfer"):
        get_transfer("sinh")
    assert PERTURBATIONS == ("none", "x/n^(1/8)", "x/sqrt(n)")


def test_perturbed_transfers_stay_increasing():
    for name in ("(x+4)^2", "log(x+5)", "e^x"):
        for kind in PERTURBATIONS:
            g = perturbed(get_transfer(name), kind, 1000)
            xs = np.linspace(-2.0, 2.0, 501)
            assert np.all(np.diff(np.asarray(g.fn(xs), dtype=float)) > 0.0)
    with pytest.raises(ArgumentError):
        perturbed(get_transfer("identity"), "x^2", 1000)
    # a caller's h that decreases on [-2, 2] stays decreasing after a small perturbation
    falling = HypothesisFunction(fn=lambda x: -np.asarray(x), deriv=lambda x: np.full(np.shape(x), -1.0), name="-x")
    with pytest.raises(ArgumentError, match="'-x\\+x/sqrt\\(n\\)' is not strictly increasing"):
        perturbed(falling, "x/sqrt(n)", 1000)


def test_generate_identity_returns_inputs():
    cfg = DGPConfig(transfer="identity", n=100, seed=1, law=Uniform(0.0, 1.0))
    z, y = generate(cfg)
    assert np.array_equal(z, y)
    z2, y2 = generate(cfg)
    assert np.array_equal(z, z2)


def test_generate_is_exact_composition():
    cfg = DGPConfig(transfer="(x+4)^2", n=500, seed=2)
    z, y = generate(cfg)
    assert np.array_equal(y, (z + 4.0) ** 2)


def test_ma_marginal_variance():
    coef_sum_sq = float(np.sum(0.81 ** np.arange(11)))
    cfg = DGPConfig(transfer="identity", n=10**6, seed=3, ma_order=10, ma_decay=0.9)
    z, _ = generate(cfg)
    assert np.var(z) == pytest.approx(coef_sum_sq, rel=0.01)
    assert cfg.marginal().sd == pytest.approx(np.sqrt(coef_sum_sq))


def test_ma_autocorrelation_vanishes_beyond_order():
    cfg = DGPConfig(transfer="identity", n=10**6, seed=4, ma_order=10, ma_decay=0.9)
    z, _ = generate(cfg)
    z = z - z.mean()
    lag = 11
    rho = np.dot(z[:-lag], z[lag:]) / (z.size * z.var())
    assert abs(rho) < 0.005


def test_marginal_kolmogorov_distance():
    for cfg in (
        DGPConfig(transfer="identity", n=10**5, seed=5),
        DGPConfig(transfer="identity", n=10**5, seed=6, ma_order=10, ma_decay=0.9),
    ):
        z, _ = generate(cfg)
        marginal = cfg.marginal()
        srt = np.sort(z)
        levels = np.arange(1, z.size + 1) / z.size
        theo = np.asarray(marginal.cdf(srt), dtype=float)
        ks = np.max(np.maximum(np.abs(theo - levels), np.abs(theo - levels + 1.0 / z.size)))
        assert ks < 0.01


@pytest.mark.floor
def test_generate_redraws_domain_escapes():
    # a standard normal draw below -5 would take log(x+5) out of its domain;
    # the generator retries deterministically instead of returning NaN
    cfg = DGPConfig(transfer="log(x+5)", n=1000, seed=7)
    for rep in range(300):
        from transferfn import replication_rng

        z, y = generate(cfg, replication_rng(7, rep))
        assert np.all(np.isfinite(y))


def test_studies_raise_when_the_transfer_keeps_leaving_its_domain():
    # every N(-10, 0.1) draw is below -5, so no redraw of log(x+5)'s inputs is finite
    for n in (5, 50):
        cfg = DGPConfig(transfer="log(x+5)", n=n, seed=3, law=Normal(-10.0, 0.1))
        with pytest.raises(ArgumentError, match="transfer kept leaving its domain: 'log\\(x\\+5\\)'"):
            generate(cfg)
        with pytest.raises(ArgumentError, match="transfer kept leaving its domain"):
            run_coverage_study(cfg, [0.0], 0.05, 3)


def test_config_validation():
    with pytest.raises(ArgumentError):
        DGPConfig(transfer="nope", n=100, seed=0)
    with pytest.raises(ArgumentError):
        DGPConfig(transfer="identity", n=0, seed=0)
    with pytest.raises(ArgumentError):
        DGPConfig(transfer="identity", n=100, seed=0, ma_order=3, law=Uniform(0.0, 1.0))
    for decay in (float("inf"), float("-inf"), float("nan")):
        for order in (0, 2):
            with pytest.raises(ArgumentError, match="ma_decay must be finite"):
                DGPConfig(transfer="identity", n=100, seed=0, ma_order=order, ma_decay=decay)
    # a finite decay whose coefficients or stationary SD overflow
    for decay, order in ((1e200, 2), (-1e200, 2), (1e100, 2), (1e160, 1), (10.0, 400)):
        with pytest.raises(ArgumentError, match="overflows the MA"):
            DGPConfig(transfer="identity", n=100, seed=0, ma_order=order, ma_decay=decay)
    assert DGPConfig(transfer="identity", n=100, ma_order=2, ma_decay=1e50).marginal().sd == pytest.approx(1e100)


def test_config_stores_counts_as_python_ints():
    # a numpy count is stored as a Python int, so a study's params serialise
    cfg = DGPConfig(transfer="identity", n=np.int64(50), ma_order=np.int32(2))
    assert type(cfg.n) is int and type(cfg.ma_order) is int and (cfg.n, cfg.ma_order) == (50, 2)
    report = run_coverage_study(DGPConfig(transfer="identity", n=np.int64(50)), [0.0], 0.05, 2)
    assert type(report.params["n"]) is int and type(report.params["ma_order"]) is int
    assert json.loads(json.dumps(report.params))["n"] == 50


def test_report_determinism():
    a = run_test_table(h_names=("(x+4)^2",), perturbations=("none",), n=200, repetitions=20, seed=9)
    b = run_test_table(h_names=("(x+4)^2",), perturbations=("none",), n=200, repetitions=20, seed=9)
    assert a.cells == b.cells
    assert (a.kind, a.params) == (b.kind, b.params)

    cfg = DGPConfig(transfer="(x+4)^2", n=300, seed=10)
    r1 = run_coverage_study(cfg, [0.0, 1.0], 0.05, 25, method="ci")
    r2 = run_coverage_study(cfg, [0.0, 1.0], 0.05, 25, method="ci")
    assert r1.cells == r2.cells


def test_coverage_single_replication_smoke():
    cfg = DGPConfig(transfer="(x+4)^2", n=100, seed=11)
    rep = run_coverage_study(cfg, [0.0], 0.05, 1, method="ci")
    assert set(rep.cells.values()) <= {0.0, 1.0}
    assert rep.replications == 1


def test_coverage_methods_and_rows():
    cfg = DGPConfig(transfer="(x+4)^2", n=400, seed=12)
    band = run_coverage_study(cfg, np.linspace(-1.0, 1.0, 11), 0.05, 5, method="band")
    assert "simultaneous" in band.extras and "flagged_points" in band.extras
    sub = run_coverage_study(cfg, [0.0], 0.05, 5, method="subsample")
    assert list(sub.cells) == [0.0]
    assert sub.params["block"] == default_block_length(400)  # the block used, also when defaulted
    assert band.params["block"] is None
    rows = band.to_rows()
    assert rows[0] == ("x", "coverage")
    with pytest.raises(ArgumentError):
        run_coverage_study(cfg, [0.0], 0.05, 5, method="bootstrap")


def test_table_report_shape():
    rep = run_test_table(n=200, repetitions=10, seed=13)
    assert len(rep.cells) == 9
    assert all(0.0 <= v <= 1.0 for v in rep.cells.values())
    rows = rep.to_rows()
    assert rows[0] == ("h", "perturbation", "correct_ratio")
    assert len(rows) == 10
    assert rep.kind == "test_table"
    assert rep.params["n"] == 200


@pytest.mark.extended
def test_band_flag_count_decreases_with_n():
    xs = np.linspace(-2.0, 2.0, 401)
    counts = {}
    for n in (1000, 20_000):
        cfg = DGPConfig(transfer="x^3", n=n, seed=77)
        rep = run_coverage_study(cfg, xs, 0.01, 40, method="band")
        counts[n] = rep.extras["flagged_points"]
    assert counts[20_000] < counts[1000]
    assert counts[1000] > 0


def _reference_coverage(config, xs, alpha, replications, method, block=None):
    """A coverage study one replicate at a time: (cells, simultaneous, flagged points, flagged replicates)."""
    xs = np.asarray(xs, dtype=float)
    g_true = get_transfer(config.transfer).fn(xs)
    marginal = config.marginal()
    hits = np.zeros(xs.size, dtype=int)
    simultaneous = flagged_points = flagged_reps = 0
    for rep in range(replications):
        sample = Sample(generate(config, replication_rng(config.seed, rep))[1])
        if method == "ci":
            res = estimate_with_ci(sample, marginal, xs, alpha)
            lo, hi = res.ci_lo, res.ci_hi
        elif method == "band":
            band = confidence_band(sample, marginal, xs, alpha)
            lo, hi = band.band_lo, band.band_hi
            flagged_points += int(band.flagged.sum())
            flagged_reps += int(band.flagged.any())
        else:
            cis = [subsample_ci(sample, marginal, float(x), alpha, b=block).ci for x in xs]
            lo, hi = np.array(cis).T
        covered = (lo <= g_true) & (g_true <= hi)
        hits += covered
        simultaneous += bool(covered.all())
    cells = {float(x): hits[j] / replications for j, x in enumerate(xs)}
    return cells, simultaneous / replications, flagged_points, flagged_reps


def _check_study(config, xs, alpha, replications, method, block=None):
    rep = run_coverage_study(config, xs, alpha, replications, method=method, block=block)
    cells, simultaneous, flagged_points, flagged_reps = _reference_coverage(config, xs, alpha, replications, method, block)
    assert rep.cells == cells
    assert rep.extras["simultaneous"] == simultaneous
    if method == "band":
        assert rep.extras["flagged_points"] == flagged_points
        assert rep.extras["flagged_reps"] == flagged_reps
    return rep


@pytest.mark.floor
def test_coverage_study_matches_per_replicate_loop(monkeypatch):
    # x = +-4 at n = 100 clamps the CI levels at 1/n and 1
    ci_cfg = DGPConfig(transfer="(x+4)^2", n=100, seed=21)
    ci_xs = [-4.0, -1.5, 0.0, 0.3, 2.0, 4.0]
    assert 700 % gof_module._block_rows(100) != 0  # the last block is partial
    rep = _check_study(ci_cfg, ci_xs, 0.01, 700, "ci")
    assert any(0.0 < c < 1.0 for c in rep.cells.values())  # some misses, so a misread row shows
    rep = _check_study(ci_cfg, [-1.0, 0.0, 1.0], 0.05, 700, "ci")
    assert 0.0 < rep.extras["simultaneous"] < 1.0

    band_cfg = DGPConfig(transfer="x^3", n=1000, seed=22)
    band_xs = np.linspace(-2.0, 2.0, 41)
    rep = _check_study(band_cfg, band_xs, 0.01, 40, "band")  # blocks of 32 and 8
    assert rep.extras["flagged_points"] > 0

    ma_cfg = DGPConfig(transfer="(x+4)^2", n=3000, seed=23, ma_order=10, ma_decay=0.9)
    _check_study(ma_cfg, [-0.5, 0.0, 1.0], 0.05, 13, "subsample", block=55)  # blocks of 10 and 3

    monkeypatch.setattr(gof_module, "_block_rows", lambda width: 1)  # one replicate per block
    _check_study(ci_cfg, ci_xs, 0.01, 57, "ci")
    _check_study(band_cfg, band_xs, 0.01, 5, "band")
    _check_study(ma_cfg, [0.0], 0.05, 3, "subsample", block=55)


def test_band_study_applies_the_kde_rules_to_every_replicate():
    # replicate 8's range overflows a float: the study raises the DomainError that the band on that
    # replicate alone raises, naming the replicate, not an overflow warning and a coverage of 0
    cfg = DGPConfig(transfer="x^3", n=200, seed=1, ma_order=1, ma_decay=1.4e102)
    xs = [1e100, 1e101]
    with pytest.raises(DomainError, match="is wider than the largest float") as alone:
        confidence_band(Sample(generate(cfg, replication_rng(1, (8,)))[1]), cfg.marginal(), xs, 0.01)
    with pytest.raises(DomainError) as study:
        run_coverage_study(cfg, xs, 0.01, 20, "band")
    assert type(study.value) is DomainError and str(study.value) == f"{alone.value} (replicate 8 of 20)"


def test_an_error_no_replicate_raises_alone_stays_the_blocks():
    # a block that fails only as a whole names no replicate: the block's error comes back unchanged
    error = DomainError("the block fails")

    def score(ys):
        if ys.shape[0] > 1:
            raise error

    assert simulate._replicate_error(error, score, np.zeros((3, 5)), range(10, 13), 20) is error


def _reference_table_draw(g, n, seed, key):
    """A Table 2 repetition's outputs, redrawn from its own stream until g is finite."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    for _ in range(100):
        with np.errstate(invalid="ignore", divide="ignore"):
            y = np.asarray(g.fn(Normal().rvs(n, rng)), dtype=float)
        if np.all(np.isfinite(y)):
            return y


def _reference_table(h_names, n, alpha, repetitions, seed):
    """The correct-test ratios one repetition at a time, each from its own (cell, r) stream."""
    dist = Normal()
    critical = ks_sup_quantile(1.0 - alpha)
    cells = {}
    for row, h_name in enumerate(h_names):
        h = get_transfer(h_name)
        for col, pert in enumerate(PERTURBATIONS):
            g = perturbed(h, pert, n)
            correct = 0
            for r in range(repetitions):
                y = _reference_table_draw(g, n, seed, (row * len(PERTURBATIONS) + col, r))
                reject = gof_statistic(Sample(y), dist, h) > critical
                correct += reject if pert != "none" else not reject
            cells[(h_name, pert)] = correct / repetitions
    return cells


@pytest.mark.floor
def test_test_table_matches_per_replicate_loop(monkeypatch):
    h_names = ("(x+4)^2", "log(x+5)")
    expected = _reference_table(h_names, 200, 0.15, 60, 31)
    assert any(0.0 < c < 1.0 for c in expected.values())  # a misread repetition shows
    assert run_test_table(h_names, n=200, repetitions=60, seed=31).cells == expected  # blocks of 51 and 9
    monkeypatch.setattr(gof_module, "_block_rows", lambda width: 1)  # one repetition per block
    assert run_test_table(h_names, n=200, repetitions=60, seed=31).cells == expected


def _first_draw_escapes(seed, key, n, law, floor, replications):
    """How many replicates' first draw leaves a transfer's domain x > floor, read from numpy's streams."""
    return sum(
        bool(np.min(law.rvs(n, np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(*key, r))))) <= floor)
        for r in range(replications)
    )


@pytest.mark.floor
def test_studies_redraw_domain_escapes_from_the_replicate_stream(monkeypatch):
    # about a third of these datasets leave log(x+5)'s domain on their first
    # draw; the block transfer must rebuild exactly those rows as the
    # one-replicate generate does, from the same stream
    cfg = DGPConfig(transfer="log(x+5)", n=20, seed=41, law=Normal(-3.0, 1.0))
    assert 0.2 * 150 < _first_draw_escapes(41, (), 20, Normal(-3.0, 1.0), -5.0, 150) < 0.5 * 150
    _check_study(cfg, [-4.0, -3.0, -2.5, -1.0], 0.05, 150, "ci")
    _check_study(cfg, [-4.0, -3.0, -2.0], 0.05, 40, "band")

    # a Table 2 cell on a transfer whose domain x > -2.2 a standard normal
    # sample of 30 leaves about a third of the time
    shifted = HypothesisFunction(fn=lambda x: np.log(x + 2.2), deriv=lambda x: 1.0 / (x + 2.2), name="log(x+2.2)")
    monkeypatch.setitem(TRANSFERS, shifted.name, shifted)
    for cell in range(3):
        assert 0.2 * 80 < _first_draw_escapes(43, (cell,), 30, Normal(), -2.2, 80) < 0.5 * 80
    expected = _reference_table((shifted.name,), 30, 0.15, 80, 43)
    recorded = []
    checked = simulate._checked_rows

    def spy(*args):
        stats, argmax_x = checked(*args)
        recorded.append(stats)
        return stats, argmax_x

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_checked_rows", spy)
        assert run_test_table((shifted.name,), n=30, repetitions=80, seed=43).cells == expected
    # and each repetition's statistic is the one-repetition statistic, bit for bit
    stats = [
        gof_statistic(Sample(_reference_table_draw(perturbed(shifted, pert, 30), 30, 43, (cell, r))), Normal(), shifted)
        for cell, pert in enumerate(PERTURBATIONS)
        for r in range(80)
    ]
    assert np.array_equal(np.concatenate(recorded).view(np.int64), np.array(stats).view(np.int64))
    monkeypatch.setattr(gof_module, "_block_rows", lambda width: 1)  # one replicate per block
    _check_study(cfg, [-4.0, -3.0, -1.0], 0.05, 30, "ci")
    assert run_test_table((shifted.name,), n=30, repetitions=80, seed=43).cells == expected


@pytest.mark.floor
def test_subsample_study_at_several_x_reads_every_point():
    # x = 0 and 0.01 map to one block rank, x = -0.5 and 1.0 to two others;
    # 60 replications of width 600 are a block of 54 rows and one of 6
    cfg = DGPConfig(transfer="(x+4)^2", n=600, seed=24, ma_order=10, ma_decay=0.9)
    xs, b = [-0.5, 0.0, 0.01, 1.0], 25
    ranks = quantile_rank(b, cfg.marginal().cdf(np.array(xs)))
    assert ranks[1] == ranks[2] and np.unique(ranks).size == 3
    rep = _check_study(cfg, xs, 0.05, 60, "subsample", block=b)
    assert any(0.0 < c < 1.0 for c in rep.cells.values())  # some misses, so a misread row shows


def test_block_length_is_checked_before_any_draw(monkeypatch):
    cfg = DGPConfig(transfer="(x+4)^2", n=300, seed=25)
    rep = run_coverage_study(cfg, [0.0], 0.05, 2, method="subsample", block=np.int64(40))
    assert type(rep.params["block"]) is int and rep.params["block"] == 40

    def refuse(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(simulate, "replicate_blocks", refuse)
    sample = Sample(generate(cfg)[1])
    for block, message in (
        (55.0, r"block length must be an integer >= 2 \(got 55\.0\)"),
        (np.float64(40.0), "block length must be an integer"),
        ("40", "block length must be an integer"),
        (1, r"block length must be an integer >= 2 \(got 1\)"),
        (np.int64(300), r"2 <= b < n \(got b=300, n=300\)"),
    ):
        with pytest.raises(ArgumentError, match=message):
            run_coverage_study(cfg, [0.0], 0.05, 3, method="subsample", block=block)
        with pytest.raises(ArgumentError, match=message):
            subsample_ci(sample, cfg.marginal(), 0.0, 0.05, b=block)
    # the default ceil(n^(4/5)) is n itself at n = 4
    with pytest.raises(ArgumentError, match=r"got b=4, n=4"):
        run_coverage_study(DGPConfig(transfer="(x+4)^2", n=4), [0.0], 0.05, 3, method="subsample")


def test_band_grid_is_checked_before_any_draw_as_confidence_band_checks_it(monkeypatch):
    normal = DGPConfig(transfer="(x+4)^2", n=300, seed=26)
    uniform = DGPConfig(transfer="identity", n=300, seed=26, law=Uniform(0.0, 1.0))
    samples = {cfg: Sample(generate(cfg)[1]) for cfg in (normal, uniform)}

    def refuse(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(simulate, "replicate_blocks", refuse)
    for cfg, xs, message in (
        (normal, [0.0], r"a < c < d < b, got \[0\.0, 0\.0\]"),
        (uniform, [0.5, 2.0], "outside the open support"),
        (normal, [0.0, np.nan], "evaluation points must be finite"),
    ):
        with pytest.raises(ArgumentError, match=message) as study:
            run_coverage_study(cfg, xs, 0.05, 3, method="band")
        with pytest.raises(ArgumentError, match=message) as band:
            confidence_band(samples[cfg], cfg.marginal(), xs, 0.05)
        assert str(study.value) == str(band.value)
