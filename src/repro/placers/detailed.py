"""Detailed placement: local swap refinement on legalized DSP/BRAM sites.

A cheap post-legalization cleanup pass in the spirit of commercial placers'
detailed placement: each single (non-macro) DSP or BRAM tries moving to
nearby free sites or swapping with nearby peers, accepting changes that
reduce weighted HPWL of the incident nets. Macro members are left alone —
moving them would break cascade legality (handled by the ILP stage instead).

Per cell, the incident nets' pin positions are gathered once and every
free candidate site is scored in a single broadcast ``reduceat`` pass; swap
candidates are scored with one masked-substitution gather instead of four
``assign_site`` round-trips. Accept decisions are bitwise-identical to the
per-cell × per-candidate × per-net loop oracle in
``tests/oracles/placers.py`` — candidate evaluation has no side effects,
term expressions match op-for-op, and ``np.cumsum`` reproduces Python's
left-to-right float accumulation.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.csr import SITE_KIND_CODES, get_csr
from repro.obs import metrics, trace
from repro.placers.placement import Placement


def refine_sites(
    placement: Placement,
    kinds: tuple[str, ...] = ("DSP", "BRAM"),
    passes: int = 2,
    n_candidates: int = 8,
    movable_mask: np.ndarray | None = None,
    seed: int = 0,
) -> int:
    """Greedy move/swap refinement; returns the number of accepted moves."""
    with trace.span("refine", passes=passes) as sp:
        accepted = _refine_vectorized(
            placement, kinds, passes, n_candidates, movable_mask, seed
        )
        sp.set(accepted_moves=accepted)
        metrics.inc("refine.accepted_moves", accepted)
    return accepted


def _flat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], ends[i])`` without a Python loop."""
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    csum = np.cumsum(lens)
    shift = np.repeat(starts - (csum - lens), lens)
    return np.arange(total, dtype=np.int64) + shift


def _refine_vectorized(
    placement: Placement,
    kinds: tuple[str, ...],
    passes: int,
    n_candidates: int,
    movable_mask: np.ndarray | None,
    seed: int,
) -> int:
    """Batched engine: same cell order, same accept decisions, no rescans."""
    nl, dev = placement.netlist, placement.device
    rng = np.random.default_rng(seed)
    n = len(nl)
    ctx = get_csr(nl)
    if movable_mask is None:
        movable_mask = ~ctx.is_fixed
    movable_arr = np.asarray(movable_mask, dtype=bool)

    in_macro: set[int] = set()
    for macro in nl.macros:
        in_macro.update(macro.dsps)
    in_macro_arr = np.zeros(n, dtype=bool)
    if in_macro:
        in_macro_arr[list(in_macro)] = True

    pin_cell, pin_ptr = ctx.pin_cell, ctx.pin_ptr

    # per-cell incident nets, grouped once from the flat pin arrays: net ids
    # ascending with one entry per pin — exactly ``Netlist.nets_of_cell``
    grp = np.lexsort((ctx.pin_net, pin_cell))
    inc_net = ctx.pin_net[grp]
    inc_counts = np.bincount(pin_cell, minlength=n)
    inc_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(inc_counts, out=inc_ptr[1:])

    inc_list_cache: dict[int, list[int]] = {}

    def _incident_list(cell: int) -> list[int]:
        got = inc_list_cache.get(cell)
        if got is None:
            got = inc_net[inc_ptr[cell] : inc_ptr[cell + 1]].tolist()
            inc_list_cache[cell] = got
        return got

    def _concat(net_ids: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pins, net_starts, net_weights) for nets in list order; pin order
        per net matches ``net.cells`` (the CSR layout is driver-first).

        Net lists here are tiny (one or two cells' incident nets), so plain
        slice-and-concatenate beats the batched ``_flat_ranges`` gather."""
        if not net_ids:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), np.empty(0, dtype=np.float64)
        segs = [pin_cell[pin_ptr[k] : pin_ptr[k + 1]] for k in net_ids]
        starts = np.zeros(len(segs), dtype=np.int64)
        off = 0
        for i, seg in enumerate(segs):
            starts[i] = off
            off += seg.size
        nid = np.asarray(net_ids, dtype=np.int64)
        # live weights: only the few nets incident to refined cells
        return np.concatenate(segs), starts, nl.net_weights(nid)

    is_dsp_cell = ctx.is_dsp
    is_bram_cell = ctx.site_code == SITE_KIND_CODES.index("BRAM")
    swap_cache: dict[tuple[int, int], tuple] = {}

    accepted = 0
    for kind in kinds:
        kind_mask = is_dsp_cell if kind == "DSP" else is_bram_cell
        sited = kind_mask & (placement.site >= 0)
        cells_arr = np.flatnonzero(sited & ~in_macro_arr & movable_arr)
        if cells_arr.size == 0:
            continue
        site_owner = np.full(dev.n_sites(kind), -1, dtype=np.int64)
        sited_idx = np.flatnonzero(sited)
        site_owner[placement.site[sited_idx]] = sited_idx
        site_xy = dev.site_xy(kind)

        # flat incident-net pin structure for all refined cells at once
        # (structure is static; positions are always read fresh)
        nid_all = inc_net[_flat_ranges(inc_ptr[cells_arr], inc_ptr[cells_arr + 1])]
        net_off = np.zeros(cells_arr.size + 1, dtype=np.int64)
        np.cumsum(inc_counts[cells_arr], out=net_off[1:])
        plen = pin_ptr[nid_all + 1] - pin_ptr[nid_all]
        pins_all = pin_cell[_flat_ranges(pin_ptr[nid_all], pin_ptr[nid_all + 1])]
        pin_csum = np.concatenate(([0], np.cumsum(plen)))
        pin_off = pin_csum[net_off]
        # each net's pin offset *within its cell's block*
        starts_all = pin_csum[:-1] - np.repeat(pin_off[:-1], inc_counts[cells_arr])
        w_all = nl.net_weights(nid_all)
        # mask of each cell's own slots in its flat pin block: max/min are
        # exact under any grouping, so a net's bbox with the cell at a trial
        # position is max(rest, trial) where "rest" excludes the cell's pins
        is_own_all = pins_all == np.repeat(cells_arr, pin_off[1:] - pin_off[:-1])

        k_eff = min(n_candidates, dev.n_sites(kind))
        sx_col = site_xy[:, 0][None, :]
        sy_col = site_xy[:, 1][None, :]

        # sites whose owner can never participate (macro member / immovable):
        # such owners are never refined and never swapped, so this is
        # invariant for the whole run
        bad_sites = np.zeros(site_owner.size, dtype=bool)
        owned0 = np.flatnonzero(site_owner >= 0)
        bad_owner = site_owner[owned0]
        bad_sites[owned0] = in_macro_arr[bad_owner] | ~movable_arr[bad_owner]

        for _ in range(passes):
            order = rng.permutation(cells_arr.size)
            moved = 0
            # batched k-nearest candidates at pass-start positions; rows of
            # argpartition/argsort on 2D equal the per-cell 1D calls
            pass_xy = placement.xy[cells_arr]
            d2 = (sx_col - pass_xy[:, 0:1]) ** 2 + (sy_col - pass_xy[:, 1:2]) ** 2
            part = np.argpartition(d2, k_eff - 1, axis=1)[:, :k_eff]
            ranks = np.argsort(np.take_along_axis(d2, part, axis=1), axis=1)
            cand_all = np.take_along_axis(part, ranks, axis=1)
            # per-(cell, net) rest extremes at pass-start positions, one
            # reduceat per bound; a net goes stale ("dirty") when any cell
            # on it moves, and only then is its rest recomputed at a visit
            if pins_all.size:
                pxa = placement.xy[pins_all, 0]
                pya = placement.xy[pins_all, 1]
                abs_starts = pin_csum[:-1]
                rest_mxx = np.maximum.reduceat(np.where(is_own_all, -np.inf, pxa), abs_starts)
                rest_mnx = np.minimum.reduceat(np.where(is_own_all, np.inf, pxa), abs_starts)
                rest_mxy = np.maximum.reduceat(np.where(is_own_all, -np.inf, pya), abs_starts)
                rest_mny = np.minimum.reduceat(np.where(is_own_all, np.inf, pya), abs_starts)
            dirty_net = np.zeros(ctx.net_driver.size, dtype=bool)
            # every (cell, candidate) improvement verdict in one batch at
            # pass-start state: candidate scores are independent of which
            # other candidates are free, so a clean visit (cell unmoved, no
            # net-mate moved) just gathers its precomputed row. Padded net
            # slots carry weight 0 and ±inf rests — their terms are exactly
            # 0.0 and cannot perturb the sequential cumsum.
            nc = cells_arr.size
            nnets_arr = inc_counts[cells_arr]
            nmax = int(nnets_arr.max()) if nc else 0
            if pins_all.size and nmax:
                row_i = np.repeat(np.arange(nc), nnets_arr)
                col_i = np.arange(nid_all.size) - np.repeat(net_off[:-1], nnets_arr)
                r_xx = np.full((nc, nmax), -np.inf)
                r_nx = np.full((nc, nmax), np.inf)
                r_xy = np.full((nc, nmax), -np.inf)
                r_ny = np.full((nc, nmax), np.inf)
                w_m = np.zeros((nc, nmax))
                r_xx[row_i, col_i] = rest_mxx
                r_nx[row_i, col_i] = rest_mnx
                r_xy[row_i, col_i] = rest_mxy
                r_ny[row_i, col_i] = rest_mny
                w_m[row_i, col_i] = w_all
                c_x = np.empty((nc, k_eff + 1))
                c_y = np.empty((nc, k_eff + 1))
                c_x[:, 0] = pass_xy[:, 0]
                c_y[:, 0] = pass_xy[:, 1]
                sc = site_xy[cand_all]
                c_x[:, 1:] = sc[:, :, 0]
                c_y[:, 1:] = sc[:, :, 1]
                bdx = np.maximum(r_xx[:, :, None], c_x[:, None, :]) - np.minimum(
                    r_nx[:, :, None], c_x[:, None, :]
                )
                bdy = np.maximum(r_xy[:, :, None], c_y[:, None, :]) - np.minimum(
                    r_ny[:, :, None], c_y[:, None, :]
                )
                allcost = np.cumsum(w_m[:, :, None] * (bdx + bdy), axis=1)[:, -1, :]
                improve_all = allcost[:, 1:] < allcost[:, 0:1] - 1e-9
            # per-candidate owner state at pass start, split into free and
            # occupied runs with two batched nonzero calls; a row stays valid
            # until one of its candidate sites changes owner ("touched") or
            # the cell itself moves — then the visit recomputes live
            own_sid_all = placement.site[cells_arr]
            owner_all = site_owner[cand_all]
            usable_all = (cand_all != own_sid_all[:, None]) & ~bad_sites[cand_all]
            free_rows, free_cols = np.nonzero(usable_all & (owner_all < 0))
            fptr = np.zeros(nc + 1, dtype=np.int64)
            np.cumsum(np.bincount(free_rows, minlength=nc), out=fptr[1:])
            occ_rows, occ_cols = np.nonzero(usable_all & (owner_all >= 0))
            optr = np.zeros(nc + 1, dtype=np.int64)
            np.cumsum(np.bincount(occ_rows, minlength=nc), out=optr[1:])
            cand_lists = cand_all.tolist()
            touched: set[int] = set()
            moved_cells: set[int] = set()
            for oi in order:
                idx = int(cells_arr[oi])
                s0, s1 = net_off[oi], net_off[oi + 1]
                if idx in moved_cells:  # moved this pass (swap partner)
                    x, y = placement.xy[idx]
                    cand = np.asarray(dev.nearest_sites(kind, x, y, k=n_candidates))
                    moved_xy = True
                    own_sid = int(placement.site[idx])
                    owner = site_owner[cand]
                    # owner == idx ⇔ cand == own_sid (a cell owns only its
                    # site), so the loop oracle's owner-skip rules reduce to this
                    ucs = np.flatnonzero((cand != own_sid) & ~bad_sites[cand])
                    uo = owner[ucs]
                    free_cs = ucs[uo < 0]
                    occ_cs = ucs[uo >= 0]
                else:
                    x, y = pass_xy[oi]
                    cand = cand_all[oi]
                    moved_xy = False
                    own_sid = int(own_sid_all[oi])
                    if touched and not touched.isdisjoint(cand_lists[oi]):
                        owner = site_owner[cand]
                        ucs = np.flatnonzero((cand != own_sid) & ~bad_sites[cand])
                        uo = owner[ucs]
                        free_cs = ucs[uo < 0]
                        occ_cs = ucs[uo >= 0]
                    else:
                        owner = owner_all[oi]
                        free_cs = free_cols[fptr[oi] : fptr[oi + 1]]
                        occ_cs = occ_cols[optr[oi] : optr[oi + 1]]

                # first free candidate that improves, or cand.size if none;
                # column 0 scores the current position (the shared "before"),
                # remaining columns score every free candidate site at once
                # against the cell's per-net rest extremes
                f0 = cand.size
                if s1 > s0 and free_cs.size:
                    if not moved_xy and not dirty_net[nid_all[s0:s1]].any():
                        # clean: the batched pass-start row is still valid
                        hit = np.flatnonzero(improve_all[oi, free_cs])
                        if hit.size:
                            f0 = int(free_cs[hit[0]])
                    else:
                        if dirty_net[nid_all[s0:s1]].any():
                            # a net-mate moved this pass: redo this cell's
                            # rests at the live positions
                            pins = pins_all[pin_off[oi] : pin_off[oi + 1]]
                            lpx = placement.xy[pins, 0]
                            lpy = placement.xy[pins, 1]
                            lio = is_own_all[pin_off[oi] : pin_off[oi + 1]]
                            lst = starts_all[s0:s1]
                            mxx = np.maximum.reduceat(np.where(lio, -np.inf, lpx), lst)
                            mnx = np.minimum.reduceat(np.where(lio, np.inf, lpx), lst)
                            mxy = np.maximum.reduceat(np.where(lio, -np.inf, lpy), lst)
                            mny = np.minimum.reduceat(np.where(lio, np.inf, lpy), lst)
                        else:
                            mxx = rest_mxx[s0:s1]
                            mnx = rest_mnx[s0:s1]
                            mxy = rest_mxy[s0:s1]
                            mny = rest_mny[s0:s1]
                        w = w_all[s0:s1]
                        csz = free_cs.size + 1
                        cxs = np.empty(csz)
                        cys = np.empty(csz)
                        cxs[0] = x
                        cys[0] = y
                        cxy = site_xy[cand[free_cs]]
                        cxs[1:] = cxy[:, 0]
                        cys[1:] = cxy[:, 1]
                        dx = np.maximum(mxx[:, None], cxs[None, :]) - np.minimum(
                            mnx[:, None], cxs[None, :]
                        )
                        dy = np.maximum(mxy[:, None], cys[None, :]) - np.minimum(
                            mny[:, None], cys[None, :]
                        )
                        cost_rows = np.cumsum(w[:, None] * (dx + dy), axis=0)[-1]
                        acc = np.flatnonzero(cost_rows[1:] < cost_rows[0] - 1e-9)
                        if acc.size:
                            f0 = int(free_cs[acc[0]])

                chosen = -1
                swap_other = -1
                for ci in occ_cs.tolist():
                    if ci > f0:
                        break
                    other = int(owner[ci])
                    # swap: score with a masked-substitution gather over the
                    # union net list (same expression → same net order);
                    # row 0 = before, row 1 = after the position exchange.
                    # The structure (nets, pins, masks, weights) is constant
                    # for the whole run — cache it per (cell, partner) pair.
                    pair = swap_cache.get((idx, other))
                    if pair is None:
                        nets = list(
                            set(_incident_list(idx)) | set(_incident_list(other))
                        )
                        spins, sstarts, sw = _concat(nets)
                        pair = (
                            spins,
                            sstarts,
                            sw,
                            np.flatnonzero(spins == idx),
                            np.flatnonzero(spins == other),
                        )
                        swap_cache[(idx, other)] = pair
                    spins, sstarts, sw, mine_ix, theirs_ix = pair
                    if sw.size == 0:
                        continue  # both cells netless: 0.0 < -1e-9 never holds
                    sxy = placement.xy[spins]
                    nxy = site_xy[int(cand[ci])]
                    oxy = site_xy[own_sid]
                    # rows: before-x, after-x, before-y, after-y; the "after"
                    # rows substitute the exchanged positions in place
                    sm = np.empty((4, spins.size))
                    sm[0] = sxy[:, 0]
                    sm[2] = sxy[:, 1]
                    sm[1] = sm[0]
                    sm[3] = sm[2]
                    sm[1, mine_ix] = nxy[0]
                    sm[1, theirs_ix] = oxy[0]
                    sm[3, mine_ix] = nxy[1]
                    sm[3, theirs_ix] = oxy[1]
                    sd = np.maximum.reduceat(sm, sstarts, axis=1) - np.minimum.reduceat(
                        sm, sstarts, axis=1
                    )
                    sterms = sw[None, :] * (sd[:2] + sd[2:])
                    before_s, after_s = np.cumsum(sterms, axis=1)[:, -1]
                    if after_s < before_s - 1e-9:
                        chosen = ci
                        swap_other = other
                        break

                if chosen < 0 and f0 < cand.size:
                    chosen = f0
                if chosen >= 0:
                    sid = int(cand[chosen])
                    placement.assign_site(idx, sid)
                    dirty_net[_incident_list(idx)] = True
                    moved_cells.add(idx)
                    if swap_other >= 0:
                        placement.assign_site(swap_other, own_sid)
                        dirty_net[_incident_list(swap_other)] = True
                        moved_cells.add(swap_other)
                    site_owner[sid] = idx
                    site_owner[own_sid] = swap_other if swap_other >= 0 else -1
                    touched.add(sid)
                    touched.add(own_sid)
                    moved += 1
            accepted += moved
            if moved == 0:
                break
    return accepted
