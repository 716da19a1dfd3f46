"""Independent output check for a placement.

Recomputes legality and HPWL from the netlist and device arrays alone. It
deliberately does not call ``Placement.legality_violations`` or
``Placement.is_legal``: a bug there must not be able to pass its own
output.
"""

from __future__ import annotations

import numpy as np

#: relative tolerance between the recomputed HPWL and ``Placement.hpwl()``
HPWL_RTOL = 1e-9
#: absolute tolerance (µm) for coordinates that must sit exactly on a site
XY_ATOL = 1e-9


def legality_problems(netlist, device, xy: np.ndarray, site: np.ndarray) -> list[str]:
    """Every legality problem of ``(xy, site)``; empty means legal.

    Checks that every movable cell sits on a site of its kind, that a DSP
    or BRAM site holds one cell and a CLB site at most ``clb_capacity``,
    that each cascade macro fills consecutive rows of one DSP column in
    chain order, and that fixed cells have not moved.
    """
    problems: list[str] = []
    by_kind: dict[str, list[int]] = {"DSP": [], "BRAM": [], "CLB": []}
    for cell in netlist.cells:
        if cell.fixed_xy is not None:
            if np.abs(xy[cell.index] - np.asarray(cell.fixed_xy)).max() > XY_ATOL:
                problems.append(f"fixed cell {cell.name} moved")
            continue
        by_kind[cell.ctype.site_kind].append(cell.index)

    for kind, cells in by_kind.items():
        if not cells:
            continue
        idx = np.asarray(cells, dtype=np.int64)
        sid = site[idx]
        bad = (sid < 0) | (sid >= device.n_sites(kind))
        problems.extend(f"cell {i} has no {kind} site" for i in idx[bad])
        idx, sid = idx[~bad], sid[~bad]
        off = np.abs(xy[idx] - device.site_xy(kind)[sid]).max(axis=1) > XY_ATOL
        problems.extend(f"cell {i} is off its {kind} site" for i in idx[off])
        cap = device.clb_capacity if kind == "CLB" else 1
        used, counts = np.unique(sid, return_counts=True)
        problems.extend(
            f"{kind} site {s} holds {c} cells (cap {cap})"
            for s, c in zip(used[counts > cap], counts[counts > cap])
        )

    dsp_sites = device.sites("DSP")
    n_dsp = len(dsp_sites)
    for macro in netlist.macros:
        sids = [int(site[i]) for i in macro.dsps]
        if any(s < 0 or s >= n_dsp for s in sids):
            problems.append(f"macro {macro.macro_id} has an unplaced member")
            continue
        cols = {dsp_sites[s].col for s in sids}
        rows = [dsp_sites[s].row for s in sids]
        if len(cols) != 1 or rows != list(range(rows[0], rows[0] + len(rows))):
            problems.append(f"macro {macro.macro_id} is split: columns {sorted(cols)} rows {rows}")
    return problems


def hpwl(netlist, xy: np.ndarray) -> float:
    """Unweighted half-perimeter wirelength recomputed from pin coordinates."""
    pins = [[net.driver, *net.sinks] for net in netlist.nets]
    sizes = np.fromiter((len(p) for p in pins), dtype=np.int64, count=len(pins))
    flat = np.fromiter((c for p in pins for c in p), dtype=np.int64, count=int(sizes.sum()))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    px, py = xy[flat, 0], xy[flat, 1]
    span_x = np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
    span_y = np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts)
    return float(span_x.sum() + span_y.sum())


def check_placement(placement) -> list[str]:
    """Legality problems plus an HPWL mismatch against ``placement.hpwl()``."""
    nl, dev = placement.netlist, placement.device
    problems = legality_problems(nl, dev, placement.xy, placement.site)
    mine, theirs = hpwl(nl, placement.xy), placement.hpwl()
    if abs(mine - theirs) > HPWL_RTOL * max(abs(mine), 1.0):
        problems.append(f"HPWL mismatch: recomputed {mine!r}, Placement.hpwl() {theirs!r}")
    return problems
