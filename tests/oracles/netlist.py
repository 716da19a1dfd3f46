"""Per-net loop oracle for the clique/star connectivity matrix."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.netlist.netlist import Netlist


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
