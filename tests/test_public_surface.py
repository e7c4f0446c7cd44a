"""The package's exported names and README's quick start must stay live.

A deleted object that an ``__all__`` still lists, or that README's Python
examples still call, fails here rather than in a user's session.  The
result records keep their fields, their immutability and their repr.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import transferfn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    modules = [transferfn] + [
        importlib.import_module(f"transferfn.{info.name}") for info in pkgutil.iter_modules(transferfn.__path__)
    ]
    for module in modules:
        names = module.__all__  # the package's is every module's share, so a name listed by two modules fails here
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


_XS = np.array([0.5, 1.5])
_FLAGS = np.array([False, True])
_ARRAY, _FLAGGED = "array([0.5, 1.5])", "array([False,  True])"
# one fixed instance of each record, with the repr and fields it had as a dataclass
RECORDS = {
    "TestResult": (
        transferfn.TestResult(1.25, 1.5, 0.25, False, 0.125, 3, "asymptotic", 0.85, 0.5),
        "TestResult(statistic=1.25, critical=1.5, p_value=0.25, reject=False, trim=0.125, eval_points=3, "
        "method='asymptotic', level=0.85, argmax_x=0.5)",
        ("statistic", "critical", "p_value", "reject", "trim", "eval_points", "method", "level", "argmax_x"),
    ),
    "HypothesisFunction": (
        transferfn.HypothesisFunction(abs, abs, "x"),
        "HypothesisFunction(fn=<built-in function abs>, deriv=<built-in function abs>, name='x')",
        ("fn", "deriv", "name"),
    ),
    "EstimateResult": (
        transferfn.EstimateResult(_XS, _XS, _XS, _XS, 0.95, 2, _FLAGS),
        f"EstimateResult(xs={_ARRAY}, ghat={_ARRAY}, ci_lo={_ARRAY}, ci_hi={_ARRAY}, level=0.95, n=2, clamped={_FLAGGED})",
        ("xs", "ghat", "ci_lo", "ci_hi", "level", "n", "clamped"),
    ),
    "BandResult": (
        transferfn.BandResult(_XS, _XS, _XS, _XS, _XS, 1.25, 0.9, _FLAGS, 2, 0.5),
        f"BandResult(xs={_ARRAY}, ghat={_ARRAY}, band_lo={_ARRAY}, band_hi={_ARRAY}, fhat_at_ghat={_ARRAY}, "
        f"critical=1.25, level=0.9, flagged={_FLAGGED}, n=2, bandwidth=0.5)",
        ("xs", "ghat", "band_lo", "band_hi", "fhat_at_ghat", "critical", "level", "flagged", "n", "bandwidth"),
    ),
    "SubsampleResult": (
        transferfn.SubsampleResult(0.5, 1.5, 0.25, (1.0, 2.0), 3, 10, 0.9),
        "SubsampleResult(x=0.5, ghat=1.5, d_quantile=0.25, ci=(1.0, 2.0), b=3, n=10, level=0.9)",
        ("x", "ghat", "d_quantile", "ci", "b", "n", "level"),
    ),
    "ExperimentReport": (
        transferfn.ExperimentReport("coverage", {0.5: 0.75}, 4, 1, {"n": 10}, {}),
        "ExperimentReport(kind='coverage', cells={0.5: 0.75}, replications=4, seed=1, params={'n': 10}, extras={})",
        ("kind", "cells", "replications", "seed", "params", "extras"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_result_records_keep_their_fields_immutability_and_repr(name):
    record, shown, fields = RECORDS[name]
    assert record._fields == fields
    assert repr(record) == shown
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
