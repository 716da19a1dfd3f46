"""Micro-benchmarks of the optimization substrate.

These are true pytest-benchmark timings (multiple rounds) for the solvers
the cascade legalizer leans on: the intra-column DP and the eq. 10 MILP.
The per-iterate assignment is one scipy ``linear_sum_assignment`` call,
timed in a cold ``place`` by perfbench's ``assignment.solve_s``.
"""

import numpy as np

from repro.core.placement import CascadeLegalizer
from repro.core.placement.legalization import _Entity
from repro.fpga import small_device
from repro.fpga.device import SiteColumn
from repro.netlist import Netlist
from repro.solvers import ColumnBlock, legalize_column_rows


def test_bench_intra_column_dp(benchmark):
    rng = np.random.default_rng(3)
    blocks = []
    total = 0
    while total < 100:
        size = int(rng.integers(1, 9))
        blocks.append(ColumnBlock(targets=tuple(sorted(rng.uniform(0, 144, size)))))
        total += size
    blocks.sort(key=lambda b: np.mean(b.targets))
    starts = benchmark(legalize_column_rows, blocks, 144)
    assert len(starts) == len(blocks)


def test_bench_ilp_intercolumn_shape(benchmark):
    """The eq.-(10) MILP of the cascade legalizer: 60 entities x 6 columns."""
    rng = np.random.default_rng(4)
    n, ncol = 60, 6
    sizes = rng.integers(1, 9, n)
    xs = rng.uniform(0, 100, n)
    cap = int(sizes.sum() / ncol * 1.3)
    entities = [
        _Entity(cells=tuple(range(size)), x=float(x), ys=(0.0,) * int(size))
        for size, x in zip(sizes, xs)
    ]
    cols = [SiteColumn("DSP", j, 20.0 * j, np.arange(cap)) for j in range(ncol)]
    legalizer = CascadeLegalizer(Netlist("eq10"), small_device())

    _, used_ilp, _ = benchmark(legalizer._inter_column, entities, cols, [cap] * ncol)
    assert used_ilp
