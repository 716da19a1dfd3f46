"""Micro-benchmarks of the optimization substrate.

These are true pytest-benchmark timings (multiple rounds) for the solvers
the DSPlacer inner loop leans on — useful to spot regressions in the pure
Python kernels.
"""

import numpy as np
import pytest

from repro.core.placement import CascadeLegalizer
from repro.core.placement.legalization import _Entity
from repro.fpga import small_device
from repro.fpga.device import SiteColumn
from repro.netlist import Netlist
from repro.solvers import (
    ColumnBlock,
    MinCostFlow,
    hungarian,
    legalize_column_rows,
    min_cost_assignment,
)


@pytest.fixture(scope="module")
def assignment_instance():
    rng = np.random.default_rng(0)
    n, m, k = 100, 150, 24
    arcs = []
    for i in range(n):
        for j in rng.choice(m, size=k, replace=False):
            arcs.append((i, int(j), float(rng.uniform(0, 100))))
        arcs.append((i, i, float(rng.uniform(0, 100))))  # guarantee feasibility
    return n, m, arcs


def test_bench_mcf_assignment(benchmark, assignment_instance):
    n, m, arcs = assignment_instance
    result = benchmark(min_cost_assignment, n, m, arcs)
    assert len(result) == n


def test_bench_hungarian_dense(benchmark):
    rng = np.random.default_rng(1)
    cost = rng.uniform(0, 100, (80, 120))
    cols, total = benchmark(hungarian, cost)
    assert len(set(cols.tolist())) == 80


def test_bench_mcf_raw_flow(benchmark):
    def run():
        rng = np.random.default_rng(2)
        net = MinCostFlow(200)
        for _ in range(1200):
            u, v = rng.integers(0, 200, 2)
            if u != v:
                net.add_edge(int(u), int(v), int(rng.integers(1, 5)), float(rng.uniform(0, 10)))
        return net.min_cost_flow(0, 199)

    flow, cost = benchmark(run)
    assert flow >= 0


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
