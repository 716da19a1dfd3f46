"""Loop oracles for the placer kernels: legalizer fills, swap refinement
and slab spreading."""

from __future__ import annotations

import numpy as np

from repro.fpga.device import Device
from repro.netlist.cell import CellType
from repro.placers import analytical
from repro.placers.analytical import QuadraticGlobalPlacer, _slab_of
from repro.placers.legalizer import Legalizer, _spiral
from repro.placers.placement import Placement


class ReferenceLegalizer(Legalizer):
    """Same greedy order; single sites and CLB slots found one cell at a time."""

    def _assign_singles(
        self, placement: Placement, kind: str, todo: list[int], occupied: np.ndarray
    ) -> None:
        for idx in todo:
            sid = self._nearest_free(kind, placement.xy[idx], occupied)
            occupied[sid] = True
            placement.assign_site(idx, sid)

    def _fill_clb_batched(
        self, placement, todo, xys, ci, cols, col_start, load, cap
    ) -> None:
        n_cols = len(cols)
        for pos, idx in enumerate(todo):
            c0 = int(ci[pos])
            y = xys[pos, 1]
            sid = self._clb_probe(c0, y, cols, col_start, load, cap, n_cols)
            load[sid] += 1
            placement.assign_site(idx, sid)

    def _clb_probe(self, c0, y, cols, col_start, load, cap, n_cols) -> int:
        """Find a CLB site with spare capacity, spiralling out from (c0, y)."""
        for dc in _spiral():
            c = c0 + dc
            if c < 0 or c >= n_cols:
                if abs(dc) > n_cols:
                    raise ValueError("CLB legalization ran out of sites")
                continue
            col = cols[c]
            ys = col.ys
            r0 = int(np.clip(np.searchsorted(ys, y), 0, len(ys) - 1))
            base = int(col_start[c])
            for dr in range(len(ys)):
                for r in (r0 - dr, r0 + dr) if dr else (r0,):
                    if 0 <= r < len(ys) and load[base + r] < cap:
                        return base + r
        raise ValueError("unreachable")


def _incident_nets(placement: Placement) -> list[list[int]]:
    return placement.netlist.nets_of_cell()


def _nets_cost(placement: Placement, net_ids: list[int]) -> float:
    nl = placement.netlist
    total = 0.0
    for nid in net_ids:
        net = nl.nets[nid]
        pts = placement.xy[list(net.cells)]
        total += net.weight * (
            (pts[:, 0].max() - pts[:, 0].min()) + (pts[:, 1].max() - pts[:, 1].min())
        )
    return total


def refine_sites_reference(
    placement: Placement,
    kinds: tuple[str, ...] = ("DSP", "BRAM"),
    passes: int = 2,
    n_candidates: int = 8,
    movable_mask: np.ndarray | None = None,
    seed: int = 0,
) -> int:
    """:func:`repro.placers.refine_sites` as a per-cell × per-candidate ×
    per-net loop that trial-moves cells and reverts."""
    nl, dev = placement.netlist, placement.device
    incident = _incident_nets(placement)
    rng = np.random.default_rng(seed)
    if movable_mask is None:
        movable_mask = np.array([not c.is_fixed for c in nl.cells])

    in_macro: set[int] = set()
    for macro in nl.macros:
        in_macro.update(macro.dsps)

    accepted = 0
    for kind in kinds:
        ctype = CellType.DSP if kind == "DSP" else CellType.BRAM
        cells = [
            c.index
            for c in nl.cells
            if c.ctype is ctype
            and c.index not in in_macro
            and movable_mask[c.index]
            and placement.site[c.index] >= 0
        ]
        if not cells:
            continue
        site_owner = np.full(dev.n_sites(kind), -1, dtype=np.int64)
        for c in nl.cells:
            if c.ctype is ctype and placement.site[c.index] >= 0:
                site_owner[placement.site[c.index]] = c.index

        for _ in range(passes):
            order = rng.permutation(len(cells))
            moved = 0
            for oi in order:
                idx = cells[oi]
                x, y = placement.xy[idx]
                cand = dev.nearest_sites(kind, x, y, k=n_candidates)
                base_nets = incident[idx]
                for sid in cand:
                    sid = int(sid)
                    if sid == placement.site[idx]:
                        continue
                    other = int(site_owner[sid])
                    if other >= 0 and (
                        other in in_macro or not movable_mask[other] or other == idx
                    ):
                        continue
                    nets = base_nets if other < 0 else list(set(base_nets) | set(incident[other]))
                    before = _nets_cost(placement, nets)
                    old_sid = int(placement.site[idx])
                    placement.assign_site(idx, sid)
                    if other >= 0:
                        placement.assign_site(other, old_sid)
                    after = _nets_cost(placement, nets)
                    if after < before - 1e-9:
                        site_owner[sid] = idx
                        site_owner[old_sid] = other if other >= 0 else -1
                        moved += 1
                        break
                    # revert
                    placement.assign_site(idx, old_sid)
                    if other >= 0:
                        placement.assign_site(other, sid)
            accepted += moved
            if moved == 0:
                break
    return accepted


def _equalize(coords: np.ndarray, areas: np.ndarray, lo: float, hi: float, n_bins: int) -> np.ndarray:
    """Monotone remap of coords so the area-weighted marginal is uniform."""
    if coords.size == 0:
        return coords
    edges = np.linspace(lo, hi, n_bins + 1)
    hist, _ = np.histogram(coords, bins=edges, weights=areas)
    cdf = np.concatenate(([0.0], np.cumsum(hist)))
    total = cdf[-1]
    if total <= 0:
        return coords
    cdf /= total
    # where each original edge should land so that density is uniform
    new_edges = lo + cdf * (hi - lo)
    # keep strictly monotone for interpolation
    new_edges = np.maximum.accumulate(new_edges + np.arange(n_bins + 1) * 1e-9)
    return np.interp(coords, edges, new_edges)


def _push_out_of_ps(pos: np.ndarray, device: Device) -> np.ndarray:
    """Project any point inside the PS block to its nearest outer edge."""
    ps = device.ps
    inside = (pos[:, 0] < ps.x1) & (pos[:, 1] < ps.y1)
    if not inside.any():
        return pos
    out = pos.copy()
    dx = ps.x1 - out[inside, 0]
    dy = ps.y1 - out[inside, 1]
    go_right = dx <= dy
    xs = out[inside, 0].copy()
    ys = out[inside, 1].copy()
    xs[go_right] = ps.x1 + 1.0
    ys[~go_right] = ps.y1 + 1.0
    out[inside, 0] = xs
    out[inside, 1] = ys
    return out


class ReferenceSpreadPlacer(QuadraticGlobalPlacer):
    """Same placer; each axis is equalized by ``np.histogram`` and
    ``np.interp``, the y axis slab by slab in a Python loop, and the PS
    push runs on the inside cells' own copies. The grid is read from
    ``analytical.N_BINS``/``N_SLABS`` at call time, so a test that patches
    them moves the product and this oracle together."""

    def _spread(self, pos: np.ndarray, areas: np.ndarray, device: Device) -> np.ndarray:
        cfg = self.config
        n_bins, n_slabs = analytical.N_BINS, analytical.N_SLABS
        w = device.width * cfg.fabric_scale
        h = device.height * cfg.fabric_scale
        out = pos.copy()
        out[:, 0] = _equalize(out[:, 0], areas, 0.0, w, n_bins)
        slab = _slab_of(out[:, 0], w, n_slabs)
        for s in range(n_slabs):
            sel = slab == s
            if sel.sum() > 2:
                out[sel, 1] = _equalize(out[sel, 1], areas[sel], 0.0, h, n_bins)
        out[:, 0] = np.clip(out[:, 0], 1.0, w - 1.0)
        out[:, 1] = np.clip(out[:, 1], 1.0, h - 1.0)
        if cfg.avoid_ps and device.ps is not None:
            out = _push_out_of_ps(out, device)
        return out

