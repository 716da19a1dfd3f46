"""Pure-Python oracles for datapath extraction: networkx node features,
the paper's per-source iterative-deepening DSP path search, and the
networkx DSP graph with its control pruning."""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.core.extraction.features import FEATURE_NAMES, FeatureConfig, _sampled_closeness
from repro.core.extraction.iddfs import DSPPath, iddfs_dsp_paths
from repro.netlist.netlist import Netlist
from tests.oracles.netlist import netlist_to_digraph


def _unweighted_csr_nx(g, n: int) -> sp.csr_matrix:
    rows, cols = [], []
    for u, v in g.edges:
        rows.append(u)
        cols.append(v)
    data = np.ones(len(rows))
    a = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    a = a + a.T  # undirected view for distances
    a.data[:] = 1.0
    return a.tocsr()


def extract_node_features_reference(
    netlist: Netlist, config: FeatureConfig | None = None
) -> np.ndarray:
    """:func:`repro.core.extraction.extract_node_features` on networkx."""
    config = config or FeatureConfig()
    g = netlist_to_digraph(netlist)
    n = len(netlist.cells)
    feats = np.zeros((n, len(FEATURE_NAMES)))
    if n == 0:
        return feats

    feats[:, 3] = [g.in_degree(i) for i in range(n)]
    feats[:, 4] = [g.out_degree(i) for i in range(n)]

    for comp in nx.strongly_connected_components(g):
        if len(comp) > 1:
            for u in comp:
                feats[u, 1] = 1.0

    dsp_nodes = np.array(netlist.dsp_indices(), dtype=np.int64)
    if n <= config.exact_threshold:
        ug = g.to_undirected(reciprocal=False)
        closeness = nx.closeness_centrality(ug)
        betweenness = nx.betweenness_centrality(ug, normalized=True)
        feats[:, 0] = [closeness[i] for i in range(n)]
        feats[:, 5] = [betweenness[i] for i in range(n)]
        dist = csgraph.shortest_path(_unweighted_csr_nx(g, n), method="D", unweighted=True)
        finite = np.isfinite(dist)
        feats[:, 2] = np.where(finite, dist, 0.0).max(axis=1)
        if dsp_nodes.size:
            dd = dist[np.ix_(dsp_nodes, dsp_nodes)]
            mask = np.isfinite(dd)
            np.fill_diagonal(mask, False)
            sums = np.where(mask, dd, 0.0).sum(axis=1)
            counts = mask.sum(axis=1)
            feats[dsp_nodes, 6] = np.where(
                counts > 0, sums / np.maximum(counts, 1), 0.0
            )
        return feats

    rng = np.random.default_rng(config.seed)
    adj = _unweighted_csr_nx(g, n)
    k = min(config.n_pivots, n)
    pivots = rng.choice(n, size=k, replace=False)
    dist = csgraph.dijkstra(adj, indices=pivots, unweighted=True)
    feats[:, 0] = _sampled_closeness(dist, pivots, n, k)
    feats[:, 2] = np.where(np.isfinite(dist), dist, 0.0).max(axis=0)

    ug = g.to_undirected(reciprocal=False)
    bw = nx.betweenness_centrality(ug, k=min(k, n - 1), normalized=True, seed=int(config.seed))
    feats[:, 5] = [bw[i] for i in range(n)]

    if dsp_nodes.size >= 2:
        kd = min(config.n_pivots, dsp_nodes.size)
        dsp_pivots = rng.choice(dsp_nodes, size=kd, replace=False)
        ddist = csgraph.dijkstra(adj, indices=dsp_pivots, unweighted=True)[:, dsp_nodes]
        dfinite = np.isfinite(ddist)
        dsums = np.where(dfinite, ddist, 0.0).sum(axis=0)
        dcounts = np.maximum(dfinite.sum(axis=0), 1)
        feats[dsp_nodes, 6] = dsums / dcounts
    return feats


def iddfs_single_source(
    adj: list[list[int]],
    is_dsp: list[bool],
    is_storage: list[bool],
    src: int,
    max_depth: int,
) -> tuple[dict[int, tuple[int, int]], int]:
    """IDDFS from one source; returns ``(found, deepest_limit_run)``.

    ``found`` maps destination DSPs to the lexicographically minimal
    ``(dist, n_storage)`` label. Deepening stops early once no node's
    shortest distance equals the current limit: every longer path must pass
    through an interior node at exactly the limit depth, so an empty "new at
    the limit" frontier proves deeper limits cannot discover anything.
    """
    found: dict[int, tuple[int, int]] = {}
    limit = 0
    for limit in range(1, max_depth + 1):
        # depth-limited DFS with lexicographic (depth, storage) pruning: a
        # node is re-expanded whenever reached with a strictly better label
        best: dict[int, tuple[int, int]] = {src: (0, 0)}
        stack: list[tuple[int, int, int]] = [(src, 0, 0)]
        while stack:
            node, depth, storage = stack.pop()
            if depth >= limit:
                continue
            for nxt in adj[node]:
                nd = depth + 1
                if is_dsp[nxt]:
                    if nxt != src:
                        label = (nd, storage)
                        prev = found.get(nxt)
                        if prev is None or label < prev:
                            found[nxt] = label
                    continue  # do not pass through DSPs
                label = (nd, storage + (1 if is_storage[nxt] else 0))
                prev = best.get(nxt)
                if prev is not None and prev <= label:
                    continue
                best[nxt] = label
                stack.append((nxt, *label))
        if not any(d == limit for d, _ in best.values()):
            break  # frontier stopped growing; deeper search cannot find more
    return found, limit


def iddfs_dsp_paths_reference(
    netlist: Netlist,
    max_depth: int = 6,
    max_fanout: int = 16,
    sources: list[int] | None = None,
) -> list[DSPPath]:
    """:func:`repro.core.extraction.iddfs_dsp_paths` as per-source IDDFS."""
    adj: list[list[int]] = [[] for _ in netlist.cells]
    for net in netlist.nets:
        if len(net.sinks) > max_fanout:
            continue
        for s in net.sinks:
            adj[net.driver].append(s)

    is_dsp = [c.ctype.is_dsp for c in netlist.cells]
    is_storage = [c.ctype.is_storage for c in netlist.cells]
    dsps = sources if sources is not None else netlist.dsp_indices()

    out: list[DSPPath] = []
    for src in dsps:
        found, _ = iddfs_single_source(adj, is_dsp, is_storage, src, max_depth)
        for dst, (dist, storage) in found.items():
            out.append(DSPPath(src=src, dst=dst, dist=dist, n_storage=storage))
    out.sort(key=lambda p: (p.src, p.dst))
    return out


def build_dsp_graph_reference(
    netlist: Netlist,
    paths: list[DSPPath] | None = None,
    max_depth: int = 6,
    max_fanout: int = 16,
) -> nx.DiGraph:
    """:func:`repro.core.extraction.build_dsp_graph` as a networkx DiGraph."""
    if paths is None:
        paths = iddfs_dsp_paths(netlist, max_depth=max_depth, max_fanout=max_fanout)
    best: dict[tuple[int, int], DSPPath] = {}
    for p in paths:
        key = (p.src, p.dst)
        if key not in best or (p.dist, p.n_storage) < (best[key].dist, best[key].n_storage):
            best[key] = p
    g = nx.DiGraph()
    for idx in netlist.dsp_indices():
        g.add_node(idx, name=netlist.cells[idx].name)
    for p in best.values():
        g.add_edge(p.src, p.dst, dist=p.dist, n_storage=p.n_storage, weight=1.0 / p.dist)
    for pred, succ in netlist.cascade_pairs():
        if g.has_edge(pred, succ):
            g[pred][succ]["cascade"] = True
        else:
            g.add_edge(pred, succ, dist=1, n_storage=0, weight=1.0, cascade=True)
    return g


def prune_control_dsps_reference(dsp_graph: nx.DiGraph, datapath_flags: dict[int, bool]) -> nx.DiGraph:
    """:func:`repro.core.extraction.prune_control_dsps` on networkx."""
    keep = [n for n in dsp_graph.nodes if datapath_flags.get(n, False)]
    return dsp_graph.subgraph(keep).copy()
