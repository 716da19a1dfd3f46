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

The nearest-site queries for all single DSP/BRAM cells are batched into
one distance matrix. The CLB fill gives every cell its home site in one
vectorized pass and runs the sequential spiral only on the cells homed at
contested sites (the *conflict set*, a few percent of the cells), skipping
full rows through per-column pointers. The per-cell loop oracle
``tests/oracles/placers.py`` produces identical site assignments — the
greedy order, tie-breaking, and escalation sequences are replicated
exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LegalizationError
from repro.fpga.device import Device
from repro.netlist.csr import SITE_KIND_CODES, get_csr
from repro.obs import metrics, trace
from repro.placers.placement import Placement


class Legalizer:
    """Legalizes placements on a fixed device."""

    def __init__(self, device: Device) -> None:
        self.device = device

    # ------------------------------------------------------------------
    def legalize(self, placement: Placement, movable_mask: np.ndarray | None = None) -> Placement:
        """Legalize all placeable cells in-place; returns the placement."""
        if movable_mask is None:
            movable_mask = ~get_csr(placement.netlist).is_fixed
        movable_mask = np.asarray(movable_mask, dtype=bool)
        with trace.span("legalize"):
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
                    raise LegalizationError(
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
            raise LegalizationError(f"no room for a {length}-long DSP cascade macro")
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
                raise LegalizationError(
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
        the initial k-nearest query for every cell is batched into one
        distance matrix, falling back to the escalating per-cell search only
        when a cell's whole candidate prefix is occupied.
        """
        if not todo:
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
                raise LegalizationError(f"no free {kind} site left")
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
        todo, held = _release(placement, clb, movable_mask)
        load = np.bincount(held, minlength=dev.n_sites("CLB"))
        if sum(c.n_sites for c in cols) * cap < load.sum() + len(todo):
            raise LegalizationError("design does not fit the device's CLB capacity")

        xys = placement.xy[todo]
        # nearest column and row per cell, vectorized
        ci = np.searchsorted(col_x, xys[:, 0])
        ci = np.clip(ci, 0, len(cols) - 1)
        left = np.clip(ci - 1, 0, len(cols) - 1)
        pick_left = np.abs(col_x[left] - xys[:, 0]) < np.abs(col_x[ci] - xys[:, 0])
        ci = np.where(pick_left, left, ci)

        self._fill_clb_batched(placement, todo, xys, ci, cols, col_start, load, cap)

    def _fill_clb_batched(
        self, placement, todo, xys, ci, cols, col_start, load, cap
    ) -> None:
        """CLB fill: each cell, in ascending order, takes the nearest row
        with spare capacity, spiralling out column by column from its home
        site (nearest column, ``searchsorted`` row).

        Only contested sites need that sequential spiral. With *demand(s)*
        = held load + cells homed at s, every site with demand > cap starts
        *dirty*, widened within its column to the smallest symmetric window
        whose total slack (cap − demand) is non-negative. The spiral runs,
        from the held loads, on the cells homed at dirty sites only (the
        conflict set); a clean site t whose demand plus the a(t) spills it
        received exceeds cap turns dirty, and the round repeats. At the
        fixed point every other cell takes its home site. If some column's
        demand exceeds its capacity, cells spill across columns and the
        spiral runs over all cells.

        Why this equals the spiral over all cells: at the fixed point a
        clean site t takes at most demand(t) + a(t) <= cap cells in both
        runs, so it has room whenever a cell probes it. Its own cells
        therefore never spill, and every spill that probes it stops there in
        both runs. Dirty sites see the same cells in the same order, so each
        conflict cell meets the same loads and stops at the same site.
        """
        n_sites = int(col_start[-1])
        r0s = np.empty(len(todo), dtype=np.int64)
        by_col = np.argsort(ci, kind="stable")
        bounds = np.searchsorted(ci[by_col], np.arange(len(cols) + 1))
        for c, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            m, ys = by_col[a:b], cols[c].ys
            r0s[m] = np.clip(np.searchsorted(ys, xys[m, 1]), 0, len(ys) - 1)
        home = col_start[ci] + r0s
        slack = cap - load - np.bincount(home, minlength=n_sites)
        ps = np.concatenate(([0], np.cumsum(slack)))

        def fill(cells: np.ndarray) -> np.ndarray:
            metrics.inc("legalize.clb_conflict_cells", cells.size)
            return _spiral_fill(ci[cells], r0s[cells], xys[cells, 1], load, cap, cols, col_start)

        sites = home.copy()
        if (ps[col_start[1:]] < ps[col_start[:-1]]).any():
            sites = fill(np.arange(len(todo)))
        else:
            dirty = _widen(slack < 0, ps, col_start)
            while True:
                cells = np.flatnonzero(dirty[home])
                spilled = fill(cells)
                over = ~dirty & (np.bincount(spilled, minlength=n_sites) > slack)
                if not over.any():
                    break
                dirty |= over
            sites[cells] = spilled
        placement.site[todo] = sites
        placement.xy[todo] = self.device.site_xy("CLB")[sites]


def _spiral_fill(ci, r0s, ys, load, cap, cols, col_start) -> np.ndarray:
    """Sites of the given cells, placed in turn from the ``load`` per site:
    each probes rows r0, r0 − 1, r0 + 1, ... of its home column ``ci``,
    then of columns ci − 1, ci + 1, ... (row nearest its y there), and takes
    the first row below ``cap``.

    Per-column skip pointers jump over full rows: ``up[c][r]`` leads to the
    lowest free row >= r (``n_rows`` if none) and ``dn[c][r + 1]`` to the
    highest free row <= r, plus one (0 if none).
    """
    full = load >= cap
    up, dn = [], []
    for lo, hi in zip(col_start[:-1], col_start[1:]):
        u, d = np.arange(hi - lo + 1), np.arange(hi - lo + 1)
        u[:-1][full[lo:hi]] += 1
        d[1:][full[lo:hi]] -= 1
        up.append(u.tolist())
        dn.append(d.tolist())
    load_l = load.tolist()
    bases = col_start[:-1].tolist()
    n_cols = len(cols)
    sites = []
    for c0, r0, y in zip(ci.tolist(), r0s.tolist(), ys.tolist()):
        for dc in _spiral():
            c = c0 + dc
            if c < 0 or c >= n_cols:
                if abs(dc) > n_cols:
                    raise LegalizationError("CLB legalization ran out of sites")
                continue
            nr = len(up[c]) - 1
            if dc:
                r0 = int(np.clip(np.searchsorted(cols[c].ys, y), 0, nr - 1))
            above = _root(up[c], r0)
            below = _root(dn[c], r0 + 1) - 1
            if below >= 0 and (above == nr or r0 - below <= above - r0):
                r = below
            elif above < nr:
                r = above
            else:
                continue
            sid = bases[c] + r
            load_l[sid] += 1
            if load_l[sid] >= cap:
                up[c][r], dn[c][r + 1] = r + 1, r
            sites.append(sid)
            break
    return np.asarray(sites, dtype=np.int64)


def _root(ptr: list[int], i: int) -> int:
    """Follow skip pointers from ``i`` to a free row, compressing the path."""
    r = i
    while ptr[r] != r:
        r = ptr[r]
    while ptr[i] != r:
        ptr[i], i = r, ptr[i]
    return r


def _widen(dirty: np.ndarray, ps: np.ndarray, col_start: np.ndarray) -> np.ndarray:
    """Grow each dirty site to the smallest window [s − w, s + w] of its
    column (clipped at the column ends) whose total slack is non-negative;
    ``ps`` is the slack's prefix sum. Returns the sites the windows cover."""
    sid = np.flatnonzero(dirty)
    col = np.searchsorted(col_start, sid, side="right") - 1
    lo_c, hi_c = col_start[col], col_start[col + 1]
    cover = np.zeros(ps.size, dtype=np.int64)
    w = 0
    while sid.size:
        lo, hi = np.maximum(sid - w, lo_c), np.minimum(sid + w + 1, hi_c)
        ok = ps[hi] >= ps[lo]
        np.add.at(cover, lo[ok], 1)
        np.add.at(cover, hi[ok], -1)
        sid, lo_c, hi_c = sid[~ok], lo_c[~ok], hi_c[~ok]
        w += 1
    return np.cumsum(cover[:-1]) > 0


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
