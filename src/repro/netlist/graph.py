"""Graph views of a netlist (paper Fig. 3(a)→3(b)).

The paper represents the pre-implementation netlist as a graph G = (V, E)
with components as nodes and connections as edges. We provide a directed
view (driver→sink, used for in/out-degree and feedback-loop features) and an
undirected view (used for centralities and shortest paths), plus a sparse
connectivity matrix for the analytical placers.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.netlist.csr import get_csr
from repro.netlist.netlist import Netlist


def netlist_to_digraph(netlist: Netlist) -> nx.DiGraph:
    """Directed driver→sink multigraph collapsed to a weighted DiGraph.

    Parallel connections accumulate in the edge ``weight``. Node ids are cell
    indices; each node carries its ``ctype``.
    """
    g = nx.DiGraph()
    for cell in netlist.cells:
        g.add_node(cell.index, ctype=cell.ctype, name=cell.name)
    for u, v, w in netlist.iter_edges():
        if g.has_edge(u, v):
            g[u][v]["weight"] += w
        else:
            g.add_edge(u, v, weight=w)
    return g


def netlist_to_graph(netlist: Netlist) -> nx.Graph:
    """Undirected weighted graph view (centralities, shortest paths)."""
    return netlist_to_digraph(netlist).to_undirected(reciprocal=False)


def connectivity_matrix(
    netlist: Netlist, max_clique_degree: int = 32, use_net_weights: bool = True
) -> sp.csr_matrix:
    """Symmetric cell-to-cell connection-weight matrix.

    Each net of degree *d* contributes clique edges with weight
    ``w / (d - 1)`` (the standard clique net model). Nets wider than
    ``max_clique_degree`` contribute a star through their driver instead, to
    keep the matrix sparse on high-fanout control nets.

    ``use_net_weights=False`` ignores per-net criticality weights — the
    wirelength-only view a timing-blind placer optimizes.

    The net topology arrays come from the shared
    :class:`~repro.netlist.csr.NetlistCSR` context; per-net weights are read
    live from the weight column on every call because the timing-driven
    placers rescale them in place between iterations. Clique nets are
    expanded degree-group by degree-group through one ``np.triu_indices``
    batch each; star nets are two concatenated index gathers.
    """
    ctx = get_csr(netlist)
    n = ctx.n
    n_nets = ctx.net_driver.size
    if n_nets == 0:
        return sp.csr_matrix((n, n), dtype=np.float64)
    degree = ctx.net_nsinks + 1  # pins per net (driver + sinks)
    weight = netlist.net_weights() if use_net_weights else np.ones(n_nets)
    w_net = weight / np.maximum(degree - 1, 1)

    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []

    # star model for wide nets: driver↔sink pairs in one gather
    wide = degree > max_clique_degree
    if wide.any():
        sel = wide[ctx.sink_net]
        row_parts.append(ctx.edge_src[sel])
        col_parts.append(ctx.sink_flat[sel])
        val_parts.append(w_net[ctx.sink_net][sel])

    # clique model for small nets, batched per distinct degree so the pin
    # lists stack into rectangular matrices
    small = ~wide
    for d in np.unique(degree[small]):
        nets_d = np.flatnonzero(small & (degree == d))
        starts = ctx.sink_indptr[nets_d]
        pins = np.empty((nets_d.size, d), dtype=np.int64)
        pins[:, 0] = ctx.net_driver[nets_d]
        pins[:, 1:] = ctx.sink_flat[starts[:, None] + np.arange(d - 1)]
        iu, ju = np.triu_indices(d, k=1)
        row_parts.append(pins[:, iu].ravel())
        col_parts.append(pins[:, ju].ravel())
        val_parts.append(np.repeat(w_net[nets_d], iu.size))

    rows = np.concatenate(row_parts) if row_parts else np.empty(0, dtype=np.int64)
    cols = np.concatenate(col_parts) if col_parts else np.empty(0, dtype=np.int64)
    vals = np.concatenate(val_parts) if val_parts else np.empty(0)
    mat = sp.coo_matrix(
        (np.concatenate([vals, vals]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
        dtype=np.float64,
    )
    return mat.tocsr()
