"""Bound2Bound (B2B) net model for quadratic placement.

The clique model the quadratic placer ships with is placement-independent:
every pin pair of a net gets a constant spring, so a p-pin net's quadratic
cost over-counts its HPWL by O(p). Spindler's Kraftwerk2 B2B model fixes
this: per axis, connect the net's two *boundary* pins to each other and
every internal pin to both boundary pins, each edge weighted

    w_edge = net_weight * 2 / ((p - 1) * max(|x_i - x_j|, eps))

so the quadratic form equals the net's HPWL exactly *at the linearization
point*. The model is rebuilt from current positions before every solve,
which is why assembly has to be loop-free: one boundary-pin reduction over
the flattened pin arrays plus one batched COO build. The per-net loop
oracle ``tests/oracles/placers.py`` produces the same edge multiset.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["b2b_adjacency"]


def b2b_adjacency(
    pin_cell: np.ndarray,
    pin_ptr: np.ndarray,
    pin_net: np.ndarray,
    coords: np.ndarray,
    net_weights: np.ndarray,
    n_cells: int,
    eps: float = 1.0,
) -> sp.csr_matrix:
    """Symmetric B2B adjacency for one axis at the current positions.

    Args:
        pin_cell / pin_ptr / pin_net: Flattened driver-first pin arrays
            (:class:`~repro.netlist.csr.NetlistCSR` layout).
        coords: Per-cell coordinate along this axis, shape ``(n_cells,)``.
        net_weights: Per-net weight, shape ``(n_nets,)``.
        eps: Distance clamp — collapsed pins get spring ``w·2/((p−1)·eps)``
            instead of a singularity.

    Returns:
        ``(n_cells, n_cells)`` symmetric CSR adjacency; duplicate pin pairs
        are summed and self-edges (a cell appearing twice in one net)
        dropped.
    """
    rows, cols, vals = _b2b_edges_vectorized(
        pin_cell, pin_ptr, pin_net, coords, net_weights, eps
    )
    adj = sp.coo_matrix((vals, (rows, cols)), shape=(n_cells, n_cells)).tocsr()
    return (adj + adj.T).tocsr()


def _b2b_edges_vectorized(
    pin_cell: np.ndarray,
    pin_ptr: np.ndarray,
    pin_net: np.ndarray,
    coords: np.ndarray,
    net_weights: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge list in one pass: reduceat boundary pins, masked gathers."""
    px = coords[pin_cell]
    starts = pin_ptr[:-1]
    npins = np.diff(pin_ptr)
    n_nets = npins.size
    if n_nets == 0 or px.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, np.empty(0, dtype=np.float64)

    lo_val = np.minimum.reduceat(px, starts)
    hi_val = np.maximum.reduceat(px, starts)
    # first-occurrence arg-extreme per net: reduce slot indices where the
    # value matches the extreme, +inf (here: n_pins) elsewhere
    slots = np.arange(px.size, dtype=np.int64)
    sentinel = px.size
    lo_pos = np.minimum.reduceat(
        np.where(px == lo_val[pin_net], slots, sentinel), starts
    )
    hi_pos = np.minimum.reduceat(
        np.where(px == hi_val[pin_net], slots, sentinel), starts
    )

    valid = npins >= 2
    scale = np.zeros(n_nets, dtype=np.float64)
    scale[valid] = 2.0 * net_weights[valid] / (npins[valid] - 1)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    # bound ↔ bound
    bb = valid & (pin_cell[lo_pos] != pin_cell[hi_pos])
    d_bb = np.maximum(hi_val[bb] - lo_val[bb], eps)
    rows.append(pin_cell[lo_pos[bb]])
    cols.append(pin_cell[hi_pos[bb]])
    vals.append(scale[bb] / d_bb)

    # internal → each bound
    is_bound = np.zeros(px.size, dtype=bool)
    is_bound[lo_pos[valid]] = True
    is_bound[hi_pos[valid]] = True
    internal = valid[pin_net] & ~is_bound
    if internal.any():
        u = np.flatnonzero(internal)
        k = pin_net[u]
        cu = pin_cell[u]
        for bound_pos, bound_val in ((lo_pos, lo_val), (hi_pos, hi_val)):
            cb = pin_cell[bound_pos[k]]
            keep = cu != cb
            d = np.maximum(np.abs(px[u[keep]] - bound_val[k[keep]]), eps)
            rows.append(cu[keep])
            cols.append(cb[keep])
            vals.append(scale[k[keep]] / d)

    return (
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )
