"""Datapath DSP graph construction and refinement (paper Section III-B).

The DSP graph keeps only DSP nodes; a directed edge p→s means a datapath
flows from DSP p to DSP s through non-DSP logic, annotated with the netlist
path length and storage-cell count. The refinement step removes control-path
DSPs (per the GCN labels) so the placement stage optimizes a *datapath-only*
graph — keeping control DSPs would loosen the layout (Section III-B).

The graph is a :class:`DSPGraph` of flat arrays: the node indices and one
array per edge attribute, edges sorted by ``(src, dst)``. Its consumers read
degree sums and per-edge gathers, never neighbourhoods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.extraction.iddfs import DSPPath, iddfs_dsp_paths
from repro.netlist.csr import get_csr
from repro.netlist.netlist import Netlist
from repro.obs import trace


@dataclass(frozen=True, eq=False)
class DSPGraph:
    """Directed DSP graph as arrays; edge arrays sorted by ``(src, dst)``."""

    nodes: np.ndarray  # DSP cell indices, ascending
    src: np.ndarray  # edge tail (cell index)
    dst: np.ndarray  # edge head (cell index)
    dist: np.ndarray  # netlist path length
    n_storage: np.ndarray  # storage cells strictly inside the path
    weight: np.ndarray  # 1 / dist
    cascade: np.ndarray  # True on cascade macro pairs

    def number_of_nodes(self) -> int:
        return int(self.nodes.size)

    def number_of_edges(self) -> int:
        return int(self.src.size)


def _dedupe_paths(paths: list[DSPPath]) -> np.ndarray:
    """One ``(src, dst, dist, n_storage)`` row per (src, dst): min dist, then
    min storage, rows sorted by (src, dst).

    The BFS engine already emits unique pairs; externally supplied path
    lists (ablations, fault injection) may not, so dedupe lexicographically
    in one ``np.lexsort`` instead of per-edge dict probing.
    """
    arr = np.array(
        [(p.src, p.dst, p.dist, p.n_storage) for p in paths], dtype=np.int64
    ).reshape(-1, 4)
    arr = arr[np.lexsort((arr[:, 3], arr[:, 2], arr[:, 1], arr[:, 0]))]
    first = np.ones(len(arr), dtype=bool)
    first[1:] = (arr[1:, 0] != arr[:-1, 0]) | (arr[1:, 1] != arr[:-1, 1])
    return arr[first]


def build_dsp_graph(
    netlist: Netlist,
    paths: list[DSPPath] | None = None,
    max_depth: int = 6,
    max_fanout: int = 16,
) -> DSPGraph:
    """Construct the initial DSP graph (all DSPs, incl. control path).

    Edge weights favour tight coupling: ``weight = 1 / dist``. Duplicate
    (src, dst) paths collapse to the (min dist, min storage) edge. A cascade
    macro pair that is already an edge is marked ``cascade``; any other is
    added with dist 1, no storage, weight 1.
    """
    if paths is None:
        paths = iddfs_dsp_paths(netlist, max_depth=max_depth, max_fanout=max_fanout)
    with trace.span("extraction.dsp_graph", n_paths=len(paths)) as sp:
        n = len(netlist)  # edges are keyed src·n + dst
        edges = _dedupe_paths(paths)
        path_key = edges[:, 0] * n + edges[:, 1]
        pairs = np.array(netlist.cascade_pairs(), dtype=np.int64).reshape(-1, 2)
        cascade_key = np.unique(pairs[:, 0] * n + pairs[:, 1])
        added = np.setdiff1d(cascade_key, path_key)  # cascade pairs without a path
        order = np.argsort(np.concatenate([path_key, added]))
        key = np.concatenate([path_key, added])[order]
        dist = np.concatenate([edges[:, 2], np.ones_like(added)])[order]
        src, dst = key // n, key % n
        g = DSPGraph(
            nodes=get_csr(netlist).dsp_indices.copy(),
            src=src,
            dst=dst,
            dist=dist,
            n_storage=np.concatenate([edges[:, 3], np.zeros_like(added)])[order],
            weight=1.0 / dist,
            cascade=np.isin(key, cascade_key),
        )
        sp.set(n_edges=g.number_of_edges())
    return g


def prune_control_dsps(dsp_graph: DSPGraph, datapath_flags: dict[int, bool]) -> DSPGraph:
    """Refinement: drop DSP nodes classified as control path.

    Args:
        datapath_flags: ``{dsp_cell_index: is_datapath}`` — typically the
            GCN predictions (or oracle labels for ablations); a node
            without a flag counts as control.

    Returns:
        The datapath-only subgraph: the kept nodes and the edges whose two
        ends are both kept.
    """
    nodes = dsp_graph.nodes
    flags = (bool(datapath_flags.get(n, False)) for n in nodes.tolist())
    keep = np.fromiter(flags, dtype=bool, count=nodes.size)
    edge = keep[np.searchsorted(nodes, dsp_graph.src)]
    edge &= keep[np.searchsorted(nodes, dsp_graph.dst)]
    return DSPGraph(
        nodes=nodes[keep],
        src=dsp_graph.src[edge],
        dst=dsp_graph.dst[edge],
        dist=dsp_graph.dist[edge],
        n_storage=dsp_graph.n_storage[edge],
        weight=dsp_graph.weight[edge],
        cascade=dsp_graph.cascade[edge],
    )
