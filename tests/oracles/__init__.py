"""Loop-reference oracles for the product's vectorized kernels.

Each oracle computes what one product kernel computes, the slow and
obvious way, and the equivalence suites compare the two. Where the kernel
is one step of a larger object (STA analysis, the legalizer's single-site
and CLB fills, router negotiation, slab spreading), the oracle is a
subclass that overrides just that private method; the rest are
free functions with the product function's signature (the accelerator
generator's oracle builds its filler one cell and one net at a time).
``tests/test_oracles.py`` checks that every oracle runs its own loop.
Nothing under ``src/`` may import this package.
"""

from tests.oracles.accelgen import generate_accelerator_reference
from tests.oracles.extraction import (
    build_dsp_graph_reference,
    extract_node_features_reference,
    iddfs_dsp_paths_reference,
    iddfs_single_source,
    prune_control_dsps_reference,
)
from tests.oracles.netlist import (
    connectivity_matrix_loop,
    netlist_problems_loop,
    netlist_to_digraph,
    netlist_to_graph,
)
from tests.oracles.placers import (
    ReferenceLegalizer,
    ReferenceSpreadPlacer,
    refine_sites_reference,
)
from tests.oracles.router import ReferencePatternRouter, candidate_paths
from tests.oracles.solvers import hungarian
from tests.oracles.timing import ReferenceSTA

__all__ = [
    "ReferenceLegalizer",
    "ReferencePatternRouter",
    "ReferenceSTA",
    "ReferenceSpreadPlacer",
    "build_dsp_graph_reference",
    "candidate_paths",
    "connectivity_matrix_loop",
    "extract_node_features_reference",
    "generate_accelerator_reference",
    "hungarian",
    "iddfs_dsp_paths_reference",
    "iddfs_single_source",
    "netlist_problems_loop",
    "netlist_to_digraph",
    "netlist_to_graph",
    "prune_control_dsps_reference",
    "refine_sites_reference",
]
