"""Placement state: cell coordinates + site assignments + legality checks."""

from __future__ import annotations

import numpy as np

from repro.fpga.device import Device
from repro.netlist.csr import SITE_KIND_CODES, get_csr
from repro.netlist.netlist import Netlist


class Placement:
    """Coordinates and site assignments for every cell of a netlist.

    ``xy[i]`` is cell i's location in µm (continuous during global
    placement). ``site[i]`` is the site id *within the cell's site kind*
    after legalization, or −1. Fixed cells (PS, IO) are pinned at
    construction.
    """

    def __init__(self, netlist: Netlist, device: Device) -> None:
        self.netlist = netlist
        self.device = device
        n = len(netlist)
        self.xy = np.full((n, 2), (device.width / 2.0, device.height / 2.0), dtype=np.float64)
        self.site = np.full(n, -1, dtype=np.int64)
        fixed_idx, fixed_xy = netlist.fixed_cells()
        self.xy[fixed_idx] = fixed_xy

    def copy(self) -> "Placement":
        new = Placement.__new__(Placement)
        new.netlist = self.netlist
        new.device = self.device
        new.xy = self.xy.copy()
        new.site = self.site.copy()
        return new

    # ------------------------------------------------------------------
    def assign_site(self, cell_idx: int, site_id: int) -> None:
        """Pin a cell onto a site of its kind and update its coordinates."""
        kind = SITE_KIND_CODES[get_csr(self.netlist).site_code[cell_idx]]
        self.site[cell_idx] = site_id
        self.xy[cell_idx] = self.device.site_xy(kind)[site_id]

    def _pin_structure(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (pin_cell, net_ptr) arrays, borrowed from the shared
        :class:`~repro.netlist.csr.NetlistCSR` context (cached per netlist
        revision; nets store pins driver-first, matching ``net.cells``)."""
        ctx = get_csr(self.netlist)
        return ctx.pin_cell, ctx.pin_ptr

    def net_bboxes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(xmin, xmax, ymin, ymax) per net, vectorized."""
        pin_cell, ptr = self._pin_structure()
        px = self.xy[pin_cell, 0]
        py = self.xy[pin_cell, 1]
        starts = ptr[:-1]
        xmin = np.minimum.reduceat(px, starts)
        xmax = np.maximum.reduceat(px, starts)
        ymin = np.minimum.reduceat(py, starts)
        ymax = np.maximum.reduceat(py, starts)
        return xmin, xmax, ymin, ymax

    def hpwl(self, weighted: bool = False) -> float:
        """Total half-perimeter wirelength (µm); the paper's HPWL metric."""
        xmin, xmax, ymin, ymax = self.net_bboxes()
        lengths = (xmax - xmin) + (ymax - ymin)
        if weighted:  # live: timing-driven placers rescale weights between rounds
            lengths = lengths * self.netlist.net_weights()
        return float(lengths.sum())

    # ------------------------------------------------------------------
    def _legality_arrays(self) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """(fixed_idx, fixed_xy, {kind: placeable cell indices}): the fixed
        cells and kinds from the cached :class:`~repro.netlist.csr.NetlistCSR`
        masks, the fixed locations read live from the netlist's column."""
        ctx = get_csr(self.netlist)
        fixed_idx, fixed_xy = self.netlist.fixed_cells(np.flatnonzero(ctx.is_fixed))
        placeable = ~ctx.is_fixed
        kind_idx = {
            kind: np.flatnonzero(placeable & (ctx.site_code == SITE_KIND_CODES.index(kind)))
            for kind in ("DSP", "BRAM", "CLB")
        }
        return fixed_idx, fixed_xy, kind_idx

    def legality_violations(self) -> list[str]:
        """All legality violations (empty list ⇔ the placement is legal).

        Checks: every placeable cell sits on a site of its kind; DSP/BRAM
        sites hold one cell; CLB sites hold at most ``device.clb_capacity``
        cells; every cascade macro occupies consecutive rows of one DSP
        column, predecessor below successor; fixed cells untouched.

        All per-cell checks run as batched array comparisons; Python-level
        message formatting only happens for actual violators.
        """
        nl, dev = self.netlist, self.device
        cells = nl.cells
        fixed_idx, fixed_xy, kind_idx = self._legality_arrays()
        by_cell: list[tuple[int, str]] = []
        if fixed_idx.size:
            ok = np.isclose(self.xy[fixed_idx], fixed_xy).all(axis=1)
            for i in fixed_idx[~ok]:
                by_cell.append((int(i), f"fixed cell {cells[int(i)].name} moved"))
        cap_msgs: list[str] = []
        for kind, cap in (("DSP", 1), ("BRAM", 1), ("CLB", dev.clb_capacity)):
            idx = kind_idx[kind]
            if idx.size == 0:
                continue
            sid = self.site[idx]
            unsited = (sid < 0) | (sid >= dev.n_sites(kind))
            for i in idx[unsited]:
                by_cell.append((int(i), f"{cells[int(i)].name}: no legal {kind} site"))
            good_idx = idx[~unsited]
            good_sid = sid[~unsited]
            if good_idx.size == 0:
                continue
            ok = np.isclose(
                self.xy[good_idx], dev.site_xy(kind)[good_sid]
            ).all(axis=1)
            for i, s in zip(good_idx[~ok], good_sid[~ok]):
                by_cell.append(
                    (int(i), f"{cells[int(i)].name}: xy out of sync with site {int(s)}")
                )
            if np.bincount(good_sid).max() > cap:
                uniq, first, counts = np.unique(
                    good_sid, return_index=True, return_counts=True
                )
                over = counts > cap
                # first-seen (ascending-cell) order, matching the loop version
                order = np.argsort(first[over], kind="stable")
                for s, cnt in zip(uniq[over][order], counts[over][order]):
                    cap_msgs.append(
                        f"{kind} site {int(s)} holds {int(cnt)} cells (cap {cap})"
                    )
        by_cell.sort(key=lambda t: t[0])
        out = [msg for _, msg in by_cell]
        out.extend(cap_msgs)
        dsp_sites = dev.sites("DSP")
        n_dsp = dev.n_sites("DSP")
        for macro in nl.macros:
            sids = [int(self.site[i]) for i in macro.dsps]
            if any(s < 0 or s >= n_dsp for s in sids):
                continue  # already reported above as unsited
            cols = {dsp_sites[s].col for s in sids}
            if len(cols) != 1:
                out.append(f"macro {macro.macro_id} spans columns {sorted(cols)}")
                continue
            rows = [dsp_sites[s].row for s in sids]
            if any(r2 - r1 != 1 for r1, r2 in zip(rows, rows[1:])):
                out.append(f"macro {macro.macro_id} rows not consecutive: {rows}")
        return out

    def is_legal(self) -> bool:
        return not self.legality_violations()
