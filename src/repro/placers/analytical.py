"""Quadratic analytical global placement with density spreading.

The classic analytical-placer loop (Section I's scalable family: RippleFPGA,
UTPlaceF, AMF-Placer all share this skeleton):

1. minimize quadratic wirelength ``Σ w_ij ((x_i−x_j)² + (y_i−y_j)²)`` with
   fixed cells as boundary conditions (sparse Jacobi-PCG solves,
   :func:`jacobi_pcg`);
2. spread overlapping cells by histogram-equalizing the placement
   marginals (x globally, then y within vertical slabs);
3. re-solve with pseudo-anchors of growing weight pulling cells toward
   their spread positions, and iterate.

The engine also supports *incremental* mode: an arbitrary movable mask plus
warm-start positions, which is how DSPlacer alternates "fix datapath DSPs,
re-place everything else" (paper Fig. 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.fpga.device import Device
from repro.netlist.csr import CELL_TYPE_CODES, get_csr
from repro.netlist.graph import connectivity_matrix
from repro.netlist.netlist import Netlist
from repro.obs import metrics, trace
from repro.placers.b2b import b2b_adjacency
from repro.placers.placement import Placement

#: Approximate site area demand per cell kind, in CLB-cell units.
CELL_AREA = {"LUT": 1.0, "LUTRAM": 1.5, "FF": 1.0, "CARRY": 1.0, "DSP": 8.0, "BRAM": 12.0}
#: ``CELL_AREA`` per :data:`~repro.netlist.csr.CELL_TYPE_CODES` entry.
_AREA_OF = np.array([CELL_AREA.get(t.value, 1.0) for t in CELL_TYPE_CODES])


def inverse_diagonal(a: sp.csr_matrix) -> np.ndarray:
    """The Jacobi preconditioner ``1 / max(diag(a), 1e-12)``."""
    return 1.0 / np.maximum(a.diagonal(), 1e-12)


def jacobi_pcg(
    a: sp.csr_matrix,
    b: np.ndarray,
    x0: np.ndarray,
    inv_diag: np.ndarray,
    rtol: float,
    maxiter: int,
) -> tuple[np.ndarray, int, bool]:
    """CG for the SPD system ``a x = b``, preconditioned by ``inv_diag``.

    Runs ``scipy.sparse.linalg.cg(a, b, x0, rtol=rtol, maxiter=maxiter,
    M=diags(inv_diag))``'s recurrences operation for operation: the stop
    test ``‖r‖ < rtol·‖b‖`` before each iteration, the ``r = b`` shortcut
    for an all-zero ``x0``, zeros for ``b == 0``. The iterates are
    therefore scipy's bit for bit; only its ``LinearOperator``/
    ``dia_matrix`` dispatch around every product is gone.

    Returns:
        ``(x, iterations, converged)``; ``converged`` is False when
        ``maxiter`` iterations ran out first (scipy's ``info > 0``).
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return np.zeros_like(b), 0, True
    atol = rtol * bnrm2
    x = np.array(x0, dtype=np.float64)
    r = b - a @ x if x.any() else b.copy()
    rho_prev, p = None, None
    for it in range(maxiter):
        if math.sqrt(r.dot(r)) < atol:
            return x, it, True
        z = inv_diag * r
        rho = np.dot(r, z)
        if it > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = a @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, False


@dataclass(frozen=True)
class GlobalPlaceConfig:
    """Knobs of the quadratic placement loop."""

    n_iterations: int = 6
    n_bins: int = 32
    n_slabs: int = 4
    anchor_weight: float = 0.02
    anchor_growth: float = 1.8
    cg_rtol: float = 1e-5
    cg_maxiter: int = 500
    avoid_ps: bool = True
    use_net_weights: bool = True
    #: The fabric extent the spreading *believes* in, relative to the real
    #: device. 1.0 = calibrated. >1 models a placer tuned for a larger part
    #: (AMF-Placer's VCU108 heritage): spread targets overshoot the fabric
    #: and legalization has to drag everything back in.
    fabric_scale: float = 1.0
    #: "vectorized" (grouped equalization over all slabs at once) or
    #: "reference" (per-slab Python loop, the equivalence-test oracle)
    spread_method: str = "vectorized"
    #: Wirelength model: "clique" (fixed connectivity Laplacian, built
    #: once) or "b2b" (Bound2Bound — rebuilt from current positions before
    #: every solve; the first solve bootstraps from the clique model since
    #: all movable cells start collapsed at the fabric centre).
    net_model: str = "clique"
    #: B2B assembly engine: "vectorized" or "reference" (per-net loop).
    b2b_method: str = "vectorized"
    #: B2B pin-distance clamp (µm) — collapsed pins keep finite springs.
    b2b_eps: float = 1.0
    seed: int = 0


class QuadraticGlobalPlacer:
    """Reusable quadratic global placement engine."""

    def __init__(self, config: GlobalPlaceConfig | None = None) -> None:
        self.config = config or GlobalPlaceConfig()
        if self.config.spread_method not in ("vectorized", "reference"):
            raise ValueError(f"unknown spread_method {self.config.spread_method!r}")
        if self.config.net_model not in ("clique", "b2b"):
            raise ValueError(f"unknown net_model {self.config.net_model!r}")
        if self.config.b2b_method not in ("vectorized", "reference"):
            raise ValueError(f"unknown b2b_method {self.config.b2b_method!r}")

    # ------------------------------------------------------------------
    def place(
        self,
        netlist: Netlist,
        device: Device,
        placement: Placement | None = None,
        movable_mask: np.ndarray | None = None,
    ) -> Placement:
        """Produce a (continuous, possibly overlapping) global placement.

        Args:
            placement: Warm start; non-movable cells keep these coordinates
                and act as fixed boundary conditions.
            movable_mask: Which cells to move. Defaults to all non-fixed
                cells.

        Returns:
            A new :class:`Placement` with updated coordinates for movable
            cells (sites are *not* assigned — run a legalizer next).
        """
        with trace.span("global_place", n_iterations=self.config.n_iterations):
            metrics.inc("global_place.solves")
            return self._place_impl(netlist, device, placement, movable_mask)

    def _place_impl(
        self,
        netlist: Netlist,
        device: Device,
        placement: Placement | None,
        movable_mask: np.ndarray | None,
    ) -> Placement:
        cfg = self.config
        n = len(netlist.cells)
        ctx = get_csr(netlist)
        place = placement.copy() if placement is not None else Placement(netlist, device)
        # a fresh mask: fixed cells can never move, and the caller's array
        # is left as it was
        if movable_mask is None:
            movable_mask = ~ctx.is_fixed
        else:
            movable_mask = np.asarray(movable_mask, dtype=bool) & ~ctx.is_fixed
        mov = np.flatnonzero(movable_mask)
        if mov.size == 0:
            return place

        w = connectivity_matrix(netlist, use_net_weights=cfg.use_net_weights)
        deg = np.asarray(w.sum(axis=1)).ravel()
        lap = sp.diags(deg) - w
        lap_mm = lap[mov][:, mov].tocsr()
        fix = np.flatnonzero(~movable_mask)
        w_mf = w[mov][:, fix].tocsr()

        areas = _AREA_OF[ctx.ctype_code[mov]]
        rng = np.random.default_rng(cfg.seed)
        # tiny jitter breaks exact ties so the spreading has gradients to use
        xy_f = place.xy[fix]
        bx = w_mf @ xy_f[:, 0]
        by = w_mf @ xy_f[:, 1]

        def _cg(
            a: sp.csr_matrix, rhs: np.ndarray, x0: np.ndarray, inv_diag: np.ndarray
        ) -> tuple[np.ndarray, int]:
            sol, iters, converged = jacobi_pcg(
                a, rhs, x0, inv_diag, cfg.cg_rtol, cfg.cg_maxiter
            )
            metrics.inc("global_place.cg_iterations", iters)
            if not converged:
                metrics.inc("global_place.cg_unconverged")
            return sol, iters

        def _solve(alpha: float, target: np.ndarray | None) -> tuple[np.ndarray, int]:
            a = lap_mm + sp.diags(np.full(mov.size, alpha + 1e-9))
            rhs_x = bx + (alpha * target[:, 0] if target is not None else 0.0)
            rhs_y = by + (alpha * target[:, 1] if target is not None else 0.0)
            # one preconditioner for both axes. Allocating it and both start
            # vectors before either solve keeps the heap compact: allocated
            # between the solves, they leave holes that lift the flow's peak
            # RSS (reached later, in the IDDFS path search) by about 2%
            inv_diag = inverse_diagonal(a)
            x0 = place.xy[mov, 0]
            y0 = place.xy[mov, 1]
            sol_x, it_x = _cg(a, rhs_x, x0, inv_diag)
            sol_y, it_y = _cg(a, rhs_y, y0, inv_diag)
            return np.column_stack([sol_x, sol_y]), it_x + it_y

        use_b2b = cfg.net_model == "b2b"
        if use_b2b:
            if cfg.use_net_weights:
                net_w = np.fromiter(
                    (net.weight for net in netlist.nets),
                    dtype=np.float64,
                    count=len(netlist.nets),
                )
            else:
                net_w = np.ones(len(netlist.nets), dtype=np.float64)

        def _solve_b2b(
            alpha: float, target: np.ndarray, xy_cur: np.ndarray
        ) -> tuple[np.ndarray, int]:
            sols = []
            iters = 0
            for axis in (0, 1):
                adj = b2b_adjacency(
                    ctx.pin_cell,
                    ctx.pin_ptr,
                    ctx.pin_net,
                    xy_cur[:, axis],
                    net_w,
                    n,
                    eps=cfg.b2b_eps,
                    method=cfg.b2b_method,
                )
                deg = np.asarray(adj.sum(axis=1)).ravel()
                lap_ax = sp.diags(deg) - adj
                a = lap_ax[mov][:, mov].tocsr() + sp.diags(
                    np.full(mov.size, alpha + 1e-9)
                )
                rhs = adj[mov][:, fix].tocsr() @ xy_f[:, axis] + alpha * target[:, axis]
                sol, it = _cg(a, rhs, xy_cur[mov, axis], inverse_diagonal(a))
                sols.append(sol)
                iters += it
            return np.column_stack(sols), iters

        # bootstrap solve: always the clique model (B2B has no gradients while
        # every movable cell still sits collapsed at the fabric centre)
        with trace.span("global_place.solve", net_model="clique", bootstrap=True) as span:
            pos, iters = _solve(0.0, None)
            span.set(iterations=iters)
        pos += rng.normal(scale=1.0, size=pos.shape)
        alpha = cfg.anchor_weight
        for _ in range(cfg.n_iterations):
            spread = self._spread(pos, areas, device)
            if use_b2b:
                xy_cur = place.xy.copy()
                xy_cur[mov] = pos
                with trace.span(
                    "global_place.solve", net_model="b2b", method=cfg.b2b_method
                ) as span:
                    pos, iters = _solve_b2b(alpha, spread, xy_cur)
                    span.set(iterations=iters)
            else:
                with trace.span("global_place.solve", net_model="clique") as span:
                    pos, iters = _solve(alpha, spread)
                    span.set(iterations=iters)
            alpha *= cfg.anchor_growth
        pos = self._spread(pos, areas, device)
        place.xy[mov] = pos
        return place

    # ------------------------------------------------------------------
    def _spread(self, pos: np.ndarray, areas: np.ndarray, device: Device) -> np.ndarray:
        """Histogram-equalize x globally, then y within vertical slabs.

        Slab membership uses clipped ``np.digitize`` so every cell lands in
        exactly one slab. The previous ``>= edge[s] & < edge[s+1]`` scan
        silently skipped cells sitting at (or, via the ``_equalize``
        monotonicity epsilon, just above) the last slab edge — their y was
        never equalized.
        """
        cfg = self.config
        w = device.width * cfg.fabric_scale
        h = device.height * cfg.fabric_scale
        out = pos.copy()
        out[:, 0] = _equalize(out[:, 0], areas, 0.0, w, cfg.n_bins)
        slab = _slab_of(out[:, 0], w, cfg.n_slabs)
        if cfg.spread_method == "vectorized":
            out[:, 1] = _equalize_grouped(
                out[:, 1], areas, slab, cfg.n_slabs, 0.0, h, cfg.n_bins
            )
        else:
            for s in range(cfg.n_slabs):
                sel = slab == s
                if sel.sum() > 2:
                    out[sel, 1] = _equalize(out[sel, 1], areas[sel], 0.0, h, cfg.n_bins)
        out[:, 0] = np.clip(out[:, 0], 1.0, w - 1.0)
        out[:, 1] = np.clip(out[:, 1], 1.0, h - 1.0)
        if cfg.avoid_ps and device.ps is not None:
            out = _push_out_of_ps(out, device)
        return out


def _slab_of(x: np.ndarray, width: float, n_slabs: int) -> np.ndarray:
    """Slab index per cell — clipped digitize, so out-of-range x (possible
    after the epsilon-padded x equalization) still maps to an edge slab."""
    inner = np.linspace(0.0, width, n_slabs + 1)[1:-1]
    return np.digitize(x, inner)


def _equalize_grouped(
    coords: np.ndarray,
    areas: np.ndarray,
    group: np.ndarray,
    n_groups: int,
    lo: float,
    hi: float,
    n_bins: int,
) -> np.ndarray:
    """Equalize each group's coords like ``_equalize``, all groups at once.

    One flat ``np.bincount`` builds every group's area marginal; the interp
    back onto the warped edges is a gathered form of ``np.interp`` (same
    ``fp[j] + slope · (x − xp[j])`` evaluation). Groups with ≤ 2 members or
    zero in-range area keep their coords, matching the loop reference.
    """
    if coords.size == 0:
        return coords
    edges = np.linspace(lo, hi, n_bins + 1)
    # np.histogram semantics: half-open bins, closed last bin, and values
    # outside [lo, hi] contribute no weight
    b = np.searchsorted(edges, coords, side="right") - 1
    j = np.clip(b, 0, n_bins - 1)
    in_range = (coords >= lo) & (coords <= hi)
    hist = np.bincount(
        (group * n_bins + j)[in_range],
        weights=areas[in_range],
        minlength=n_groups * n_bins,
    ).reshape(n_groups, n_bins)
    counts = np.bincount(group, minlength=n_groups)
    cdf = np.concatenate([np.zeros((n_groups, 1)), np.cumsum(hist, axis=1)], axis=1)
    total = cdf[:, -1]
    active = (counts > 2) & (total > 0)
    if not active.any():
        return coords.copy()
    safe_total = np.where(total > 0, total, 1.0)
    new_edges = lo + (cdf / safe_total[:, None]) * (hi - lo)
    new_edges = np.maximum.accumulate(new_edges + np.arange(n_bins + 1) * 1e-9, axis=1)
    fp0 = new_edges[group, j]
    slope = (new_edges[group, j + 1] - fp0) / (edges[j + 1] - edges[j])
    res = slope * (coords - edges[j]) + fp0
    res = np.where(b < 0, new_edges[group, 0], res)
    res = np.where(b >= n_bins, new_edges[group, -1], res)
    return np.where(active[group], res, coords)


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
