"""Per-net loop oracles: the networkx graph views of a netlist, the
clique/star connectivity matrix and the validation problem list."""

from __future__ import annotations

import math
from collections import Counter

import networkx as nx
import numpy as np
import scipy.sparse as sp

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


def connectivity_matrix_loop(
    netlist: Netlist, max_clique_degree: int = 32, use_net_weights: bool = True
) -> sp.csr_matrix:
    """:func:`repro.netlist.connectivity_matrix`, one net at a time."""
    n = len(netlist.cells)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def _connect(a: int, b: int, w: float) -> None:
        rows.append(a)
        cols.append(b)
        vals.append(w)
        rows.append(b)
        cols.append(a)
        vals.append(w)

    for net in netlist.nets:
        pins = net.cells
        d = len(pins)
        if d < 2:
            continue
        w = (net.weight if use_net_weights else 1.0) / (d - 1)
        if d <= max_clique_degree:
            for i in range(d):
                for j in range(i + 1, d):
                    _connect(pins[i], pins[j], w)
        else:
            for sink in net.sinks:
                _connect(net.driver, sink, w)

    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64)
    return mat.tocsr()


def netlist_problems_loop(netlist: Netlist, device=None) -> list[str]:
    """:func:`repro.netlist.netlist_problems`, one cell, net and macro member
    at a time."""
    problems: list[str] = []
    n_cells = len(netlist.cells)

    dupes = [n for n, c in Counter(c.name for c in netlist.cells).items() if c > 1]
    for name in dupes:
        problems.append(
            f"duplicate cell name {name!r}: rename one instance — cell names "
            "must be unique"
        )

    for net in netlist.nets:
        bad = [i for i in net.cells if not 0 <= i < n_cells]
        if bad:
            problems.append(
                f"net {net.name!r} dangles: references missing cell index(es) "
                f"{bad} (netlist has {n_cells} cells) — drop the net or add "
                "the cells first"
            )
        if not net.sinks:
            problems.append(
                f"net {net.name!r} has a driver but no sinks — remove it or "
                "connect a load"
            )
        if not (math.isfinite(net.weight) and net.weight > 0):
            problems.append(
                f"net {net.name!r} has weight {net.weight!r} — net weights must "
                "be finite and positive; reset it to 1.0"
            )

    seen_members: set[int] = set()
    for macro in netlist.macros:
        for idx in macro.dsps:
            if not 0 <= idx < n_cells:
                problems.append(
                    f"macro {macro.macro_id} references missing cell index {idx}"
                )
                continue
            cell = netlist.cells[idx]
            if not cell.ctype.is_dsp:
                problems.append(
                    f"macro {macro.macro_id} member {cell.name!r} is a "
                    f"{cell.ctype.value}, not a DSP — cascade macros may only "
                    "contain DSP cells"
                )
            if idx in seen_members:
                problems.append(
                    f"DSP index {idx} appears in two cascade macros — a DSP "
                    "can join at most one chain"
                )
            seen_members.add(idx)

    if device is not None:
        # the cells the legalizer must find room for: every DSP and BRAM,
        # and the CLB-kind cells not pinned by fixed_xy; counted per
        # CellType, as a per-cell site_kind lookup costs several times the walk
        per_type = Counter(c.ctype for c in netlist.cells)
        per_type.subtract(
            c.ctype for c in netlist.cells if c.is_fixed and c.ctype.site_kind == "CLB"
        )
        need: Counter[str] = Counter()
        for ctype, k in per_type.items():
            need[ctype.site_kind] += k
        for kind, cells, room, unit in (
            ("DSP", "DSPs", device.n_dsp, "DSP sites"),
            ("BRAM", "BRAMs", device.n_sites("BRAM"), "BRAM sites"),
            ("CLB", "movable LUT/FF/CARRY/LUTRAM cells",
             device.n_sites("CLB") * device.clb_capacity, "CLB slots"),
        ):
            if need[kind] > room:
                problems.append(
                    f"netlist has {need[kind]} {cells} but device "
                    f"{device.name!r} only {room} {unit} — use a larger "
                    "device or shrink the design (lower --scale)"
                )
        cols = device.kind_columns("DSP")
        tallest = max((c.n_sites for c in cols), default=0)
        for macro in netlist.macros:
            if len(macro.dsps) > tallest:
                problems.append(
                    f"cascade macro {macro.macro_id} chains {len(macro.dsps)} "
                    f"DSPs but the tallest DSP column on {device.name!r} has "
                    f"{tallest} sites — split the chain or use a taller device"
                )
    return problems
