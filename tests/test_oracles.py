"""Every oracle in ``tests/oracles`` runs its own loop, never the product's.

An equivalence suite compares a product kernel with its oracle. If an
oracle's override were misspelled (or it delegated to the product), the
suite would compare the product with itself and pass. Here the product
kernel each oracle replaces is patched to raise: the product path must then
fail, and the oracle must still complete.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pytest
import scipy.optimize

import repro.accelgen.generator as generator_mod
import repro.core.extraction.dsp_graph as dsp_graph_mod
import repro.core.extraction.features as features_mod
import repro.core.extraction.iddfs as iddfs_mod
import repro.netlist.csr as csr_mod
import repro.netlist.validate as validate_mod
import repro.placers.analytical as analytical_mod
import repro.placers.detailed as detailed_mod
from repro.accelgen import AcceleratorConfig, generate_accelerator
from repro.core.extraction import (
    build_dsp_graph,
    extract_node_features,
    iddfs_dsp_paths,
    prune_control_dsps,
)
from repro.core.placement.assignment import solve_iterate
from repro.placers import Legalizer, Placement, QuadraticGlobalPlacer, refine_sites
from repro.router.pattern_router import PatternRouter
from repro.timing import StaticTimingAnalyzer
from tests.oracles import (
    ReferenceLegalizer,
    ReferencePatternRouter,
    ReferenceSpreadPlacer,
    ReferenceSTA,
    build_dsp_graph_reference,
    connectivity_matrix_loop,
    extract_node_features_reference,
    generate_accelerator_reference,
    hungarian,
    iddfs_dsp_paths_reference,
    netlist_problems_loop,
    prune_control_dsps_reference,
    refine_sites_reference,
)


class ProductKernelReached(Exception):
    """Raised by a patched-out product kernel."""


def _spread_args(p: Placement):
    rng = np.random.default_rng(1)
    pos = rng.uniform(0.0, [p.device.width, p.device.height], (40, 2))
    return pos, rng.uniform(1.0, 4.0, 40), p.device


_COST = np.array([[3.0, 1.0, 9.0], [1.0, 9.0, 5.0], [9.0, 2.0, 4.0]])
_ACCEL = AcceleratorConfig("oracle", 24, 4, 2, 300, 20, 300, 12, 150.0)


def _datapath_flags(p: Placement) -> dict[int, bool]:
    return {i: bool(p.netlist.cells[i].is_datapath) for i in p.netlist.dsp_indices()}


class OracleCase(NamedTuple):
    name: str
    #: (owner, attribute) of each product kernel the oracle replaces
    replaces: list[tuple[object, str]]
    product: Callable[[Placement], object]
    oracle: Callable[[Placement], object]


CASES = [
    OracleCase(
        "sta",
        [(StaticTimingAnalyzer, "_build_graph"), (StaticTimingAnalyzer, "_analyze_vectorized")],
        lambda p: StaticTimingAnalyzer(p.netlist).analyze(p, with_slacks=True),
        lambda p: ReferenceSTA(p.netlist).analyze(p, with_slacks=True),
    ),
    OracleCase(
        "legalizer",
        [(Legalizer, "_assign_singles"), (Legalizer, "_fill_clb_batched")],
        lambda p: Legalizer(p.device).legalize(p.copy()),
        lambda p: ReferenceLegalizer(p.device).legalize(p.copy()),
    ),
    OracleCase(
        "refine",
        [(detailed_mod, "_refine_vectorized")],
        lambda p: refine_sites(p.copy()),
        lambda p: refine_sites_reference(p.copy()),
    ),
    OracleCase(
        "spread",
        [(analytical_mod, "_equalize")],
        lambda p: QuadraticGlobalPlacer()._spread(*_spread_args(p)),
        lambda p: ReferenceSpreadPlacer()._spread(*_spread_args(p)),
    ),
    OracleCase(
        "router",
        [(PatternRouter, "_negotiate_vectorized")],
        lambda p: PatternRouter(grid=(4, 4)).route(p),
        lambda p: ReferencePatternRouter(grid=(4, 4)).route(p),
    ),
    OracleCase(
        "iddfs",
        [(iddfs_mod, "_bfs_impl")],
        lambda p: iddfs_dsp_paths(p.netlist),
        lambda p: iddfs_dsp_paths_reference(p.netlist),
    ),
    OracleCase(
        "features",
        [(features_mod, "_features_impl")],
        lambda p: extract_node_features(p.netlist),
        lambda p: extract_node_features_reference(p.netlist),
    ),
    OracleCase(
        "dsp_graph",
        [(dsp_graph_mod, "_dedupe_paths"), (dsp_graph_mod, "DSPGraph")],
        lambda p: prune_control_dsps(build_dsp_graph(p.netlist), _datapath_flags(p)),
        lambda p: prune_control_dsps_reference(
            build_dsp_graph_reference(p.netlist), _datapath_flags(p)
        ),
    ),
    OracleCase(
        "connectivity",
        [(csr_mod, "connectivity_matrix")],
        lambda p: csr_mod.connectivity_matrix(p.netlist),
        lambda p: connectivity_matrix_loop(p.netlist),
    ),
    OracleCase(
        "validation",
        [(validate_mod, "get_csr"), (validate_mod, "cell_codes")],
        lambda p: validate_mod.netlist_problems(p.netlist, p.device),
        lambda p: netlist_problems_loop(p.netlist, p.device),
    ),
    OracleCase(
        "accelgen",
        [(generator_mod, "_filler")],
        lambda p: generate_accelerator(_ACCEL),
        lambda p: generate_accelerator_reference(_ACCEL),
    ),
    OracleCase(
        "hungarian",
        [(scipy.optimize, "linear_sum_assignment")],
        lambda p: solve_iterate(_COST),
        lambda p: hungarian(_COST),
    ),
]


@pytest.fixture()
def placed(tiny_netlist, small_dev):
    p = Placement(tiny_netlist, small_dev)
    mov = tiny_netlist.movable_indices()
    rng = np.random.default_rng(0)
    p.xy[mov] = rng.uniform([0, 0], [small_dev.width, small_dev.height], (len(mov), 2))
    Legalizer(small_dev).legalize(p)
    return p


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_oracle_runs_its_own_loop(case, placed, monkeypatch):
    def _reached(*args, **kwargs):
        raise ProductKernelReached(case.name)

    for owner, attr in case.replaces:
        monkeypatch.setattr(owner, attr, _reached)
    with pytest.raises(ProductKernelReached):
        case.product(placed)
    case.oracle(placed)
