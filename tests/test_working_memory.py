"""Working memory of the reader and the one-row kernels at n = 2e5.

numpy reports its allocations to tracemalloc, so the traced peak of a call
is the same on every run.  The sample is built before tracing starts, so a
peak counts what the call itself holds: the reader's buffers and the
kernels' temporaries.  A one-row tiled kernel's temporaries are bounded by
_tile_width(1) values each, whatever n is.
"""

import os
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage  # noqa: F401  (imported before any tracing: see test_subsampling_holds_one_array_of_deviations)

from transferfn import Normal, Sample, confidence_band, default_grid, get_transfer, monte_carlo_p_value, subsample_ci
from transferfn import test as gof
from transferfn.cli import read_column
from transferfn.empirical import _tile_width

N = 200_000
MIB = 1 << 20
TILE_ARRAY = 8 * _tile_width(1)  # bytes of one float temporary of a one-row tile: 128 KiB


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A (z, y) CSV of N rows with y = (z + 4)^2, as the CLI reads it, and the Sample of its y column."""
    path = tmp_path_factory.mktemp("working_memory") / "d.csv"
    z = np.random.default_rng(5).standard_normal(N)
    y = (z + 4.0) ** 2
    np.savetxt(path, np.column_stack([z, y]), fmt="%.17g", delimiter=",", header="z,y", comments="")
    return str(path), Sample(y)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_column_holds_less_than_the_file(data):
    # the checks read a regular file in chunks and numpy parses it from its path: the file is never held whole
    path, _ = data
    assert _traced_peak(lambda: read_column(path, "y")) < os.path.getsize(path)


def test_row_parser_holds_less_than_the_file(data, tmp_path):
    # one missing token sends the file to the row parser, which streams its records and holds only the values
    path, _ = data
    with open(path) as fh:
        header = fh.readline()
        missing = tmp_path / "missing.csv"
        missing.write_text(header + "?,?\n" + fh.read())
    assert _traced_peak(lambda: read_column(str(missing), "y")) < os.path.getsize(missing)


def test_statistic_walks_the_points_in_bounded_tiles(data):
    _, sample = data
    assert _traced_peak(lambda: gof(sample, Normal(), get_transfer("(x+4)^2"), 0.15)) < 16 * TILE_ARRAY  # 2 MiB


def test_band_builds_its_prefix_sums_in_bounded_tiles(data):
    _, sample = data
    xs = default_grid(Normal(), 201, 0.01, 0.99)
    assert _traced_peak(lambda: confidence_band(sample, Normal(), xs, 0.01)) < 4 * TILE_ARRAY  # 512 KiB


def test_gamma_bootstrap_holds_its_table_values_a_tile_at_a_time():
    # at n = 1e5 the blocks are one row, and the shape table's quantiles and density come a tile at a
    # time into tile-wide planes: 11,166,777 B traced, against 12,908,278 B with full-width planes
    n = 100_000
    sample = Sample(np.random.default_rng(5).gamma(10.97, 37.0, n))
    assert _traced_peak(lambda: monte_carlo_p_value(sample, "gamma", get_transfer("identity"), 99, 0)) < 15 * 8 * n


def test_subsampling_holds_one_array_of_deviations(data):
    # the rank filter's output becomes the deviations and is partitioned in place; the
    # bound covers the sweep's arrays, not scipy.ndimage's one-time import (imported above)
    _, sample = data
    assert _traced_peak(lambda: subsample_ci(sample, Normal(), 0.0, 0.01)) < 8 * N + MIB
