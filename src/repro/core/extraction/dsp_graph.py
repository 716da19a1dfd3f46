"""Datapath DSP graph construction and refinement (paper Section III-B).

The DSP graph keeps only DSP nodes; a directed edge p→s means a datapath
flows from DSP p to DSP s through non-DSP logic, annotated with the netlist
path length and storage-cell count. The refinement step removes control-path
DSPs (per the GCN labels) so the placement stage optimizes a *datapath-only*
graph — keeping control DSPs would loosen the layout (Section III-B).
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.extraction.iddfs import DSPPath, iddfs_dsp_paths
from repro.netlist.csr import get_csr
from repro.netlist.netlist import Netlist
from repro.obs import trace


def _dedupe_paths(paths: list[DSPPath]) -> list[DSPPath]:
    """Keep one path per (src, dst): min dist, then min storage — batched.

    The BFS engine already emits unique pairs; externally supplied path
    lists (ablations, fault injection) may not, so dedupe lexicographically
    in one ``np.lexsort`` instead of per-edge dict probing.
    """
    if len(paths) < 2:
        return paths
    arr = np.array([(p.src, p.dst, p.dist, p.n_storage) for p in paths], dtype=np.int64)
    order = np.lexsort((arr[:, 3], arr[:, 2], arr[:, 1], arr[:, 0]))
    arr = arr[order]
    first = np.ones(len(arr), dtype=bool)
    first[1:] = (arr[1:, 0] != arr[:-1, 0]) | (arr[1:, 1] != arr[:-1, 1])
    return [
        DSPPath(src=int(s), dst=int(d), dist=int(di), n_storage=int(st))
        for s, d, di, st in arr[first]
    ]


def build_dsp_graph(
    netlist: Netlist,
    paths: list[DSPPath] | None = None,
    max_depth: int = 6,
    max_fanout: int = 16,
) -> nx.DiGraph:
    """Construct the initial DSP graph (all DSPs, incl. control path).

    Edge weights favour tight coupling: ``weight = 1 / dist``. Cascade
    macro pairs are additionally marked ``cascade=True``. Duplicate
    (src, dst) paths collapse to the (min dist, min storage) edge.
    """
    if paths is None:
        paths = iddfs_dsp_paths(netlist, max_depth=max_depth, max_fanout=max_fanout)
    with trace.span("extraction.dsp_graph", n_paths=len(paths)) as sp:
        g = nx.DiGraph()
        for idx in get_csr(netlist).dsp_indices.tolist():
            g.add_node(idx, name=netlist.cells[idx].name)
        for p in _dedupe_paths(paths):
            g.add_edge(p.src, p.dst, dist=p.dist, n_storage=p.n_storage, weight=1.0 / p.dist)
        for pred, succ in netlist.cascade_pairs():
            if g.has_edge(pred, succ):
                g[pred][succ]["cascade"] = True
            else:
                g.add_edge(pred, succ, dist=1, n_storage=0, weight=1.0, cascade=True)
        sp.set(n_edges=g.number_of_edges())
    return g


def prune_control_dsps(dsp_graph: nx.DiGraph, datapath_flags: dict[int, bool]) -> nx.DiGraph:
    """Refinement: drop DSP nodes classified as control path.

    Args:
        datapath_flags: ``{dsp_cell_index: is_datapath}`` — typically the
            GCN predictions (or oracle labels for ablations).

    Returns:
        The datapath-only subgraph (copy).
    """
    keep = [n for n in dsp_graph.nodes if datapath_flags.get(n, False)]
    return dsp_graph.subgraph(keep).copy()


def average_dsp_distances(netlist: Netlist, paths: list[DSPPath]) -> dict[int, float]:
    """Mean shortest-path distance from each DSP to the DSPs it reaches.

    This is feature (g) of Section III-A computed from the IDDFS pass
    itself (the features module uses a sampled approximation when it runs
    standalone).
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for p in paths:
        sums[p.src] = sums.get(p.src, 0.0) + p.dist
        counts[p.src] = counts.get(p.src, 0) + 1
    return {
        idx: (sums[idx] / counts[idx] if counts.get(idx) else 0.0)
        for idx in netlist.dsp_indices()
    }
