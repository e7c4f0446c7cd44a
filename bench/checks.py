"""Output checks for every benchmark op, written without the library's code.

Each check parses what the library returned or printed, verifies properties
that must hold on any seed, and returns ``(errors, summary)``.  The summary
holds the op's outputs in plain JSON form; on the default seed the driver
compares it with ``reference.json``, recorded from the seed commit.  Fields
named in ``REL_FIELDS`` are density- or series-derived floats and may differ
from the reference by ``REL_TOL`` relative; every other field (order
statistics, counts, decisions, flags, coverage cells, p-values) must match
exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import kolmogi, kolmogorov, ndtr, ndtri

REL_TOL = 1e-6
REL_FIELDS = {"band_lo", "band_hi", "band_half", "statistic", "critical", "p_value", "d_quantile", "ci_lo_sub", "ci_hi_sub"}


def inf_quantile(sorted_y: np.ndarray, p: float) -> float:
    """sorted_y at the smallest rank r with r/n >= p, by plain float comparison."""
    n = len(sorted_y)
    r = min(max(int(p * n), 1), n)
    while r > 1 and (r - 1) / n >= p:
        r -= 1
    while r < n and r / n < p:
        r += 1
    return float(sorted_y[r - 1])


def _is_order_statistic(sorted_y: np.ndarray, value: float) -> bool:
    i = int(np.searchsorted(sorted_y, value))
    return i < len(sorted_y) and sorted_y[i] == value


def _key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_estimate_band(text: str, sorted_y: np.ndarray, alpha: float, grid: tuple[float, float, int]):
    """`estimate --band` on a normal input law: table shape, ghat rule, CI and band order."""
    errors: list[str] = []
    lines = text.splitlines()
    if not lines or lines[0] != "# schema: transferfn.estimate.v1":
        return ["estimate: missing schema line"], {}
    header = lines[1].split(",")
    expected = ["x", "ghat", "ci_lo", "ci_hi", "band_lo", "band_hi", "flagged"]
    if header != expected:
        return [f"estimate: header {header} != {expected}"], {}
    rows = [[float(f) for f in line.split(",")] for line in lines[2:]]
    cols = {name: [row[j] for row in rows] for j, name in enumerate(expected)}
    p_lo, p_hi, npts = grid
    if len(rows) != npts:
        return [f"estimate: {len(rows)} rows, expected {npts}"], {}
    want_x = ndtri(np.linspace(p_lo, p_hi, npts))
    for j, row in enumerate(rows):
        x, ghat, ci_lo, ci_hi, band_lo, band_hi, flagged = row
        if x != want_x[j]:
            errors.append(f"estimate row {j}: x={x!r} is not the grid point {want_x[j]!r}")
        want = inf_quantile(sorted_y, float(ndtr(x)))
        if ghat != want:
            errors.append(f"estimate row {j}: ghat={ghat!r}, inf-quantile rule gives {want!r}")
        if not (ci_lo <= ghat <= ci_hi):
            errors.append(f"estimate row {j}: ghat outside [{ci_lo!r}, {ci_hi!r}]")
        if not (_is_order_statistic(sorted_y, ci_lo) and _is_order_statistic(sorted_y, ci_hi)):
            errors.append(f"estimate row {j}: CI ends are not sample values")
        if flagged not in (0.0, 1.0):
            errors.append(f"estimate row {j}: flagged={flagged!r}")
        elif flagged == 0.0 and not (band_lo <= ghat <= band_hi):
            errors.append(f"estimate row {j}: unflagged ghat outside band [{band_lo!r}, {band_hi!r}]")
    cols["flagged"] = [int(v) for v in cols["flagged"]]
    # the half-width carries fhat's relative error undiluted by ghat
    cols["band_half"] = [(hi - lo) / 2.0 for lo, hi in zip(cols["band_lo"], cols["band_hi"])]
    return errors[:5], cols


def check_test(text: str, alpha: float):
    """Asymptotic `test`: bridge-sup critical value and p-value, consistent decision."""
    kv = _key_values(text)
    try:
        stat, crit, pval = float(kv["statistic"]), float(kv["critical"]), float(kv["p_value"])
        decision, method = kv["decision"], kv["method"]
    except (KeyError, ValueError) as exc:
        return [f"test: cannot parse output ({exc!r}): {text!r}"], {}
    errors = []
    if not (math.isfinite(stat) and stat > 0.0):
        errors.append(f"test: statistic {stat!r} not positive and finite")
    if not math.isclose(crit, float(kolmogi(alpha)), rel_tol=REL_TOL):
        errors.append(f"test: critical {crit!r} is not the bridge-sup quantile {float(kolmogi(alpha))!r}")
    if not (0.0 <= pval <= 1.0 and math.isclose(pval, float(kolmogorov(stat)), rel_tol=REL_TOL, abs_tol=1e-12)):
        errors.append(f"test: p_value {pval!r} is not the bridge-sup tail at the statistic")
    if decision != ("reject" if stat > crit else "accept") or method != "asymptotic":
        errors.append(f"test: decision {decision!r}/{method!r} inconsistent with statistic and critical")
    return errors, {"statistic": stat, "critical": crit, "p_value": pval, "decision": decision, "method": method}


def check_subsample(text: str, sorted_y: np.ndarray, x: float, alpha: float):
    """`subsample-ci`: ghat rule, default block rule, CI contains ghat and is centred on it."""
    kv = _key_values(text)
    try:
        out = {k: float(kv[k]) for k in ("x", "ghat", "d_quantile", "ci_lo", "ci_hi", "level")}
        block, n = int(kv["block"]), int(kv["n"])
    except (KeyError, ValueError) as exc:
        return [f"subsample-ci: cannot parse output ({exc!r}): {text!r}"], {}
    errors = []
    size = len(sorted_y)
    want = inf_quantile(sorted_y, float(ndtr(x)))
    if out["x"] != x or out["ghat"] != want:
        errors.append(f"subsample-ci: ghat={out['ghat']!r} at x={out['x']!r}, inf-quantile rule gives {want!r}")
    if n != size or block != math.ceil(size**0.8) or out["level"] != 1.0 - alpha:
        errors.append(f"subsample-ci: n={n}, block={block}, level={out['level']!r}")
    if not (out["d_quantile"] >= 0.0 and out["ci_lo"] <= out["ghat"] <= out["ci_hi"]):
        errors.append(f"subsample-ci: CI [{out['ci_lo']!r}, {out['ci_hi']!r}] misses ghat {out['ghat']!r}")
    half = out["d_quantile"] / math.sqrt(size)
    for end, want_end in (("ci_lo", out["ghat"] - half), ("ci_hi", out["ghat"] + half)):
        if not math.isclose(out[end], want_end, rel_tol=1e-12):
            errors.append(f"subsample-ci: {end}={out[end]!r} is not ghat -+ d/sqrt(n)")
    summary = {
        "x": out["x"],
        "ghat": out["ghat"],
        "d_quantile": out["d_quantile"],
        "ci_lo_sub": out["ci_lo"],
        "ci_hi_sub": out["ci_hi"],
        "block": block,
        "n": n,
    }
    return errors, summary


def check_p_value(p, replications: int, max_fail_share: float = 0.05):
    """Bootstrap p-value: in (0, 1] and equal to (1+k)/(m+1), 0 <= k <= m, m successful refits."""
    if not (isinstance(p, float) and 0.0 < p <= 1.0):
        return [f"p-value {p!r} not a float in (0, 1]"], {"p": p}
    least = replications - math.floor(max_fail_share * replications)
    for m in range(replications, least - 1, -1):
        k = round(p * (m + 1)) - 1
        if 0 <= k <= m and (1 + k) / (m + 1) == p:
            return [], {"p": p}
    return [f"p-value {p!r} is not (1+k)/(m+1) for {least} <= m <= {replications}"], {"p": p}


def _share_errors(what: str, value, reps: int) -> list[str]:
    if not (0.0 <= value <= 1.0 and round(value * reps) / reps == value):
        return [f"{what}={value!r} is not a multiple of 1/{reps} in [0, 1]"]
    return []


def check_study(report, reps: int, n_cells: int):
    """Seeded study: every cell (and the simultaneous rate) a multiple of 1/reps in [0, 1]."""
    errors = []
    cells = [[*(k if isinstance(k, tuple) else (k,)), v] for k, v in report.cells.items()]
    if report.replications != reps or len(cells) != n_cells:
        errors.append(f"study: {len(cells)} cells over {report.replications} reps, expected {n_cells} over {reps}")
    for cell in cells:
        errors += _share_errors(f"study cell {cell[:-1]}", cell[-1], reps)
    summary = {"cells": cells}
    for key in ("simultaneous", "flagged_points", "flagged_reps"):
        if key in report.extras:
            summary[key] = report.extras[key]
    if "simultaneous" in summary:
        errors += _share_errors("simultaneous coverage", summary["simultaneous"], reps)
    return errors[:5], summary


def compare_reference(summary: dict, reference: dict) -> list[str]:
    """Mismatches between an op's summary and its recorded reference."""
    errors = []
    for key, want in reference.items():
        got = summary.get(key)
        rel = key in REL_FIELDS
        if not _same(got, want, rel):
            errors.append(f"{key} differs from the reference" + (f" beyond rel {REL_TOL:g}" if rel else ""))
    return errors


def _same(got, want, rel: bool) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(_same(g, w, rel) for g, w in zip(got, want))
    if rel and isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    return got == want
