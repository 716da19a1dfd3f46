"""Resource-aware legalization: continuous coordinates → legal sites.

Handles the three site families separately:

- **DSP**: cascade macros first (each needs a run of consecutive free rows
  in one column — the device only wires PCOUT→PCIN between vertical
  neighbours), then single DSPs onto nearest free sites.
- **BRAM**: nearest-free-site assignment.
- **CLB** (LUT/LUTRAM/FF/CARRY): capacity-limited greedy onto CLB sites
  (``device.clb_capacity`` cells per site), with outward spiral search on
  overflow.

Cells outside ``movable_mask`` keep their existing site assignments and
block those sites — this is what lets DSPlacer freeze its datapath DSPs
while the rest of the design is re-legalized around them (paper Fig. 6).

Two engines (PR-6 style): ``method="vectorized"`` (default) batches the
nearest-site queries for all single DSP/BRAM cells into one distance
matrix and scans CLB rows with array reductions; ``method="reference"``
is the original per-cell loop kept as the equivalence-test oracle. Both
produce identical site assignments — the greedy order, tie-breaking, and
escalation sequences are replicated exactly.
"""

from __future__ import annotations

import numpy as np

from repro.fpga.device import Device
from repro.netlist.csr import SITE_KIND_CODES, get_csr
from repro.obs import metrics, trace
from repro.placers.placement import Placement


class Legalizer:
    """Legalizes placements on a fixed device.

    Args:
        device: Target device.
        method: ``"vectorized"`` (default) or ``"reference"`` — the
            original per-cell loops, kept for equivalence testing.
    """

    def __init__(self, device: Device, method: str = "vectorized") -> None:
        if method not in ("vectorized", "reference"):
            raise ValueError(f"unknown legalizer method {method!r}")
        self.device = device
        self.method = method

    # ------------------------------------------------------------------
    def legalize(self, placement: Placement, movable_mask: np.ndarray | None = None) -> Placement:
        """Legalize all placeable cells in-place; returns the placement."""
        if movable_mask is None:
            movable_mask = ~get_csr(placement.netlist).is_fixed
        movable_mask = np.asarray(movable_mask, dtype=bool)
        with trace.span("legalize", method=self.method):
            metrics.inc("legalize.passes")
            self.legalize_dsps(placement, movable_mask)
            self.legalize_brams(placement, movable_mask)
            self.legalize_clb(placement, movable_mask)
        return placement

    # ------------------------------------------------------------------
    def legalize_dsps(self, placement: Placement, movable_mask: np.ndarray) -> None:
        dev = self.device
        nl = placement.netlist
        occupied = np.zeros(dev.n_sites("DSP"), dtype=bool)
        movable, held = _release(placement, get_csr(nl).dsp_indices, movable_mask)
        occupied[held] = True

        # macros first, longest first (hardest to fit)
        in_macro: set[int] = set()
        todo_macros = []
        for macro in sorted(nl.macros, key=lambda m: -len(m)):
            in_macro.update(macro.dsps)
            locked = [i for i in macro.dsps if placement.site[i] >= 0]
            if locked:
                if len(locked) != len(macro.dsps):
                    raise ValueError(
                        f"macro {macro.macro_id} is partially locked; cascade "
                        "chains must be frozen or released as a whole"
                    )
                continue  # fully locked macro keeps its sites
            todo_macros.append(macro)
        # hoisted per-column gathers, shared by every macro placement
        cols = dev.kind_columns("DSP")
        col_ids = [
            np.asarray(dev.column_site_ids("DSP", c), dtype=np.int64)
            for c in range(len(cols))
        ]
        try:
            for macro in todo_macros:
                self._place_macro(placement, occupied, macro.dsps, cols, col_ids)
        except ValueError:
            # high utilization + fragmentation: restart with dense packing
            for macro in todo_macros:
                for i in macro.dsps:
                    if placement.site[i] >= 0:
                        occupied[placement.site[i]] = False
                        placement.site[i] = -1
            self._dense_pack_macros(placement, occupied, todo_macros)
        singles = [i for i in movable.tolist() if i not in in_macro]
        # bottom-up for deterministic packing
        singles.sort(key=lambda i: (placement.xy[i, 1], placement.xy[i, 0]))
        self._assign_singles(placement, "DSP", singles, occupied)

    def _place_macro(
        self,
        placement: Placement,
        occupied: np.ndarray,
        chain: tuple[int, ...],
        cols,
        col_ids: list[np.ndarray],
    ) -> None:
        length = len(chain)
        tx = float(placement.xy[list(chain), 0].mean())
        tys = placement.xy[list(chain), 1]
        order = sorted(range(len(cols)), key=lambda c: abs(cols[c].x - tx))
        best = None  # (cost, col, start_row)
        for rank, c in enumerate(order):
            col = cols[c]
            ids = col_ids[c]
            if len(ids) < length:
                continue
            free = ~occupied[ids]
            run = np.cumsum(free)
            col_pen = abs(col.x - tx) * length
            if best is not None and col_pen >= best[0] and rank > 2:
                break  # columns are sorted by distance; no better fit possible
            ys = col.ys
            n_rows = len(ids)
            pitch = float(ys[1] - ys[0]) if n_rows > 1 else 1.0
            for start in range(n_rows - length + 1):
                n_free = run[start + length - 1] - (run[start - 1] if start else 0)
                if n_free != length:
                    continue
                cost = col_pen + float(np.abs(ys[start : start + length] - tys).sum())
                # fragmentation guard: prefer windows flush against occupied
                # rows / column ends so free space stays in long runs
                below_open = start > 0 and not occupied[ids[start - 1]]
                above_open = start + length < n_rows and not occupied[ids[start + length]]
                if below_open and above_open:
                    cost += pitch * length * 0.5
                if best is None or cost < best[0]:
                    best = (cost, c, start)
        if best is None:
            raise ValueError(f"no room for a {length}-long DSP cascade macro")
        _, c, start = best
        ids = col_ids[c]
        for k, cell_idx in enumerate(chain):
            sid = int(ids[start + k])
            occupied[sid] = True
            placement.assign_site(cell_idx, sid)

    def _dense_pack_macros(self, placement: Placement, occupied: np.ndarray, macros) -> None:
        """Fallback for near-saturated devices: zero-fragmentation packing.

        Macros are ordered by target x then y, columns are filled
        bottom-to-top, skipping occupied rows; wasted space is at most the
        residue of each column, so this succeeds whenever the per-column
        capacities admit any packing of the chains.
        """
        dev = self.device
        ordered = sorted(
            macros,
            key=lambda m: (
                float(placement.xy[list(m.dsps), 0].mean()),
                float(placement.xy[list(m.dsps), 1].mean()),
            ),
        )
        n_cols = dev.n_dsp_columns
        cursor = [0] * n_cols
        col = 0
        for macro in ordered:
            length = len(macro.dsps)
            placed = False
            for _ in range(n_cols):
                ids = dev.column_site_ids("DSP", col)
                start = cursor[col]
                while start + length <= len(ids):
                    window = ids[start : start + length]
                    if not occupied[window].any():
                        for k, cell_idx in enumerate(macro.dsps):
                            occupied[window[k]] = True
                            placement.assign_site(cell_idx, window[k])
                        cursor[col] = start + length
                        placed = True
                        break
                    start += 1
                if placed:
                    break
                col = (col + 1) % n_cols
            if not placed:
                raise ValueError(
                    f"device cannot fit a {length}-long DSP cascade macro even densely packed"
                )

    # ------------------------------------------------------------------
    def legalize_brams(self, placement: Placement, movable_mask: np.ndarray) -> None:
        dev = self.device
        ctx = get_csr(placement.netlist)
        occupied = np.zeros(dev.n_sites("BRAM"), dtype=bool)
        bram = np.flatnonzero(ctx.site_code == SITE_KIND_CODES.index("BRAM"))
        todo_arr, held = _release(placement, bram, movable_mask)
        occupied[held] = True
        todo = todo_arr.tolist()
        todo.sort(key=lambda i: (placement.xy[i, 1], placement.xy[i, 0]))
        self._assign_singles(placement, "BRAM", todo, occupied)

    def _assign_singles(
        self, placement: Placement, kind: str, todo: list[int], occupied: np.ndarray
    ) -> None:
        """Assign each cell of ``todo`` (in order) its nearest free site.

        The greedy order is sequential — each assignment occupies a site the
        next cell can no longer take — but all query coordinates are known
        up front (cells keep their pre-legalization xy until assigned), so
        the vectorized engine batches the initial k-nearest query for every
        cell into one distance matrix and only falls back to the escalating
        per-cell search when a cell's whole candidate prefix is occupied.
        """
        if not todo:
            return
        if self.method == "reference":
            for idx in todo:
                sid = self._nearest_free(kind, placement.xy[idx], occupied)
                occupied[sid] = True
                placement.assign_site(idx, sid)
            return
        dev = self.device
        sxy = dev.site_xy(kind)
        n = occupied.size
        k = min(32, n)
        xys = placement.xy[todo]
        # same op order as Device.nearest_sites: (site - query)**2 per axis
        d2 = (sxy[None, :, 0] - xys[:, 0:1]) ** 2 + (sxy[None, :, 1] - xys[:, 1:2]) ** 2
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        ranks = np.argsort(np.take_along_axis(d2, part, axis=1), axis=1)
        cand = np.take_along_axis(part, ranks, axis=1)
        for row, idx in enumerate(todo):
            sid = -1
            for s in cand[row]:
                if not occupied[s]:
                    sid = int(s)
                    break
            if sid < 0:
                sid = self._nearest_free(kind, xys[row], occupied, skip=k)
            occupied[sid] = True
            placement.assign_site(idx, sid)

    def _nearest_free(
        self, kind: str, xy: np.ndarray, occupied: np.ndarray, skip: int = 0
    ) -> int:
        """Nearest unoccupied site, escalating the query size as needed.

        ``skip`` candidates are known-occupied from a previous (possibly
        batched) query and are not rechecked — each escalation only scans
        the newly revealed suffix instead of restarting from the closest
        site.
        """
        n = occupied.size
        k = min(max(32, skip * 4), n)
        while True:
            cand = self.device.nearest_sites(kind, xy[0], xy[1], k=k)
            for sid in cand[skip:]:
                if not occupied[sid]:
                    return int(sid)
            if k >= n:
                raise ValueError(f"no free {kind} site left")
            skip = k
            k = min(n, k * 4)

    # ------------------------------------------------------------------
    def legalize_clb(self, placement: Placement, movable_mask: np.ndarray) -> None:
        dev = self.device
        ctx = get_csr(placement.netlist)
        cap = dev.clb_capacity
        cols = dev.kind_columns("CLB")
        col_x = np.array([c.x for c in cols])
        col_start = np.cumsum([0] + [c.n_sites for c in cols])

        clb = np.flatnonzero((ctx.site_code == SITE_KIND_CODES.index("CLB")) & ~ctx.is_fixed)
        todo_arr, held = _release(placement, clb, movable_mask)
        load = np.bincount(held, minlength=dev.n_sites("CLB"))
        todo = todo_arr.tolist()
        if sum(c.n_sites for c in cols) * cap < load.sum() + len(todo):
            raise ValueError("design does not fit the device's CLB capacity")

        xys = placement.xy[todo] if todo else np.zeros((0, 2))
        # nearest column and row per cell, vectorized
        ci = np.searchsorted(col_x, xys[:, 0])
        ci = np.clip(ci, 0, len(cols) - 1)
        left = np.clip(ci - 1, 0, len(cols) - 1)
        pick_left = np.abs(col_x[left] - xys[:, 0]) < np.abs(col_x[ci] - xys[:, 0])
        ci = np.where(pick_left, left, ci)

        n_cols = len(cols)
        if self.method == "reference":
            for pos, idx in enumerate(todo):
                c0 = int(ci[pos])
                y = xys[pos, 1]
                sid = self._clb_probe(c0, y, cols, col_start, load, cap, n_cols)
                load[sid] += 1
                placement.assign_site(idx, sid)
        else:
            self._fill_clb_batched(placement, todo, xys, ci, cols, col_start, load, cap)

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

    def _fill_clb_batched(
        self, placement, todo, xys, ci, cols, col_start, load, cap
    ) -> None:
        """Batched CLB fill, identical decisions to the per-cell probe.

        The capacity fill is inherently sequential (each placement consumes
        a slot the next cell can no longer take), so the batching happens
        around it: the home-column row targets are computed with one
        ``searchsorted`` per column, the fill itself runs on plain Python
        lists (constant-time slot checks, no per-cell array dispatch), and
        the resulting sites are written back to the placement in one gather.
        """
        n_cols = len(cols)
        r0s = np.empty(len(todo), dtype=np.int64)
        for c in np.unique(ci):
            m = ci == c
            ys = cols[c].ys
            r0s[m] = np.clip(np.searchsorted(ys, xys[m, 1]), 0, len(ys) - 1)
        load_l = load.tolist()
        col_ys = [col.ys for col in cols]
        nrows = [len(ys) for ys in col_ys]
        bases = [int(b) for b in col_start[:-1]]
        ci_l = ci.tolist()
        r0_l = r0s.tolist()
        y_l = xys[:, 1].tolist()
        sites = np.empty(len(todo), dtype=np.int64)
        for pos in range(len(todo)):
            c0 = ci_l[pos]
            y = y_l[pos]
            sid = -1
            for dc in _spiral():
                c = c0 + dc
                if c < 0 or c >= n_cols:
                    if abs(dc) > n_cols:
                        raise ValueError("CLB legalization ran out of sites")
                    continue
                nr = nrows[c]
                base = bases[c]
                if dc == 0:
                    r0 = r0_l[pos]
                else:
                    r0 = int(np.clip(np.searchsorted(col_ys[c], y), 0, nr - 1))
                found = -1
                for dr in range(nr):
                    r = r0 - dr
                    if r >= 0 and load_l[base + r] < cap:
                        found = r
                        break
                    if dr:
                        r = r0 + dr
                        if r < nr and load_l[base + r] < cap:
                            found = r
                            break
                if found >= 0:
                    sid = base + found
                    break
            load_l[sid] += 1
            sites[pos] = sid
        load[:] = load_l
        if todo:
            idx_arr = np.asarray(todo, dtype=np.int64)
            placement.site[idx_arr] = sites
            placement.xy[idx_arr] = self.device.site_xy("CLB")[sites]


def _release(
    placement: Placement, cells: np.ndarray, movable_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clear the sites of the movable ``cells``; ``(todo, held)``.

    ``todo`` is every cell of ``cells`` now without a site, ascending: the
    movable ones plus locked cells that were never legalized. ``held`` is
    the sites the locked, sited cells keep — they block those sites.
    """
    site = placement.site
    site[cells[movable_mask[cells]]] = -1
    own = site[cells]
    return cells[own < 0], own[own >= 0]


def _spiral():
    """0, -1, +1, -2, +2, ... column offsets."""
    yield 0
    d = 1
    while True:
        yield -d
        yield d
        d += 1
