"""Quadratic analytical global placement with density spreading.

The classic analytical-placer loop (Section I's scalable family: RippleFPGA,
UTPlaceF, AMF-Placer all share this skeleton):

1. minimize quadratic wirelength ``Σ w_ij ((x_i−x_j)² + (y_i−y_j)²)`` with
   fixed cells as boundary conditions (register chains eliminated exactly,
   :class:`ChainElimination`; Jacobi-PCG on the remaining hub core,
   :func:`jacobi_pcg`);
2. spread overlapping cells by histogram-equalizing the placement
   marginals (x globally, then y within vertical slabs; :func:`_equalize`);
3. re-solve with pseudo-anchors of growing weight pulling cells toward
   their spread positions, and iterate.

The loop runs on plain arrays, bit for bit equal to scipy's ``cg`` and to
``np.histogram`` + ``np.interp`` spreading (see the two functions).

The engine also supports *incremental* mode: an arbitrary movable mask plus
warm-start positions, which is how DSPlacer alternates "fix datapath DSPs,
re-place everything else" (paper Fig. 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from repro.errors import SolverConvergenceError
from repro.fpga.device import Device
from repro.netlist.csr import CELL_TYPE_CODES, connectivity_matrix, get_csr
from repro.netlist.netlist import Netlist
from repro.obs import metrics, trace
from repro.placers.placement import Placement

#: Approximate site area demand per cell kind, in CLB-cell units.
CELL_AREA = {"LUT": 1.0, "LUTRAM": 1.5, "FF": 1.0, "CARRY": 1.0, "DSP": 8.0, "BRAM": 12.0}
#: ``CELL_AREA`` per :data:`~repro.netlist.csr.CELL_TYPE_CODES` entry.
_AREA_OF = np.array([CELL_AREA.get(t.value, 1.0) for t in CELL_TYPE_CODES])
#: Weight ε of the regularizer in every solve, ``(A + ε I) x = b + ε x0``:
#: it keeps the system SPD and holds a cell with no path to a fixed cell at
#: its start ``x0`` (a floating component at its start centroid), where a
#: bare ``ε I`` would pull it to the origin.
SOLVE_EPS = 1e-9
#: Pseudo-anchor weight α of the first re-solve, and its growth per re-solve.
ANCHOR_WEIGHT, ANCHOR_GROWTH = 0.02, 1.8
#: Spreading grid: uniform bins per axis, and vertical slabs for the y pass.
N_BINS = 32
N_SLABS = 4
#: Each clique solve stops at ``‖b − A x‖ ≤ CG_RTOL·‖b‖`` on the full
#: system, or after ``CG_MAXITER`` core CG iterations per axis.
CG_RTOL = 1e-5
CG_MAXITER = 500


def jacobi_pcg(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    inv_diag: np.ndarray,
    rtol: float,
    maxiter: int,
    atol: float = 0.0,
) -> tuple[np.ndarray, int, bool]:
    """CG for the SPD system ``a x = b``, preconditioned by ``inv_diag``;
    ``a`` is square and given by its CSR arrays ``(indptr, indices, data)``.

    Runs ``scipy.sparse.linalg.cg(a, b, x0, rtol=rtol, atol=atol,
    maxiter=maxiter, M=diags(inv_diag))``'s recurrences operation for
    operation: the stop test ``‖r‖ < max(atol, rtol·‖b‖)`` before each
    iteration, the ``r = b`` shortcut for an all-zero ``x0``, zeros for
    ``b == 0``. The iterates are therefore scipy's bit for bit. ``a @ p``
    is ``csr_matvec``, the compiled routine scipy's ``@`` ends in, into a
    zeroed buffer reused across iterations; ``z``, ``x``, ``r`` update in
    place.

    Returns:
        ``(x, iterations, converged)``; ``converged`` is False when
        ``maxiter`` iterations ran out first (scipy's ``info > 0``).
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return np.zeros_like(b), 0, True
    atol = max(atol, rtol * bnrm2)
    n = b.size
    x = np.array(x0, dtype=np.float64)
    # csr_matvec checks no size: a mismatch would read past an array
    if x.shape != (n,) or indptr.shape != (n + 1,) or indptr[-1] > min(indices.size, data.size):
        raise ValueError("jacobi_pcg: the CSR arrays, b and x0 disagree in size")
    q = np.zeros(n)
    if x.any():
        csr_matvec(n, n, indptr, indices, data, x, q)
        r = b - q
    else:
        r = b.copy()
    z, p, step = np.empty(n), np.empty(n), np.empty(n)
    rho_prev = None
    for it in range(maxiter):
        if math.sqrt(r.dot(r)) < atol:
            return x, it, True
        np.multiply(inv_diag, r, out=z)
        rho = np.dot(r, z)
        if it > 0:
            p *= rho / rho_prev
            p += z
        else:
            p[:] = z
        q.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, p, q)
        alpha = rho / np.dot(p, q)
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, q, out=step)
        rho_prev = rho
    return x, maxiter, False


class ChainElimination:
    """Exact elimination of an SPD system's chain cells; CG on the hub core.

    A *chain cell* has at most two off-diagonal nonzeros in its row
    (explicit zeros are ignored); every other cell is a *hub*. Induced on
    the chain cells, the graph is a union of paths and pure cycles. The
    lowest-index cell of each pure cycle joins the hubs, so the chain block
    ``T`` is tridiagonal once each path is numbered contiguously. A path
    touches the hubs only at its two end cells, through at most two *ports*
    (chain-end to hub edges), so the Schur complement
    ``S = A_HH − A_HC T⁻¹ A_CH`` needs just the corner entries of each
    path's ``T⁻¹`` and adds at most one fill entry per path.

    The structure depends only on the sparsity pattern, and a diagonal
    shift keeps it: one instance solves every system ``a + shift·I``. The
    placer's solves differ only in the anchor weight, so one instance serves
    every solve on one clique system (see ``QuadraticGlobalPlacer``).
    """

    def __init__(self, a: sp.csr_matrix) -> None:
        from scipy.sparse import csgraph

        def _ptr(counts: np.ndarray) -> np.ndarray:
            return np.concatenate([[0], np.cumsum(counts)])

        m = a.shape[0]
        rows = np.repeat(np.arange(m), np.diff(a.indptr))
        cols = a.indices
        on_diag = rows == cols
        off = ~on_diag & (a.data != 0)
        chain = np.bincount(rows[off], minlength=m) <= 2
        # a pure cycle has as many edges as cells; its lowest-index cell
        # joins the hubs, which leaves a path with both ends on that hub
        links = off & chain[rows] & chain[cols]
        link_deg = np.bincount(rows[links], minlength=m)
        n_comp, comp = csgraph.connected_components(
            sp.csr_matrix((np.ones(links.sum()), cols[links], _ptr(link_deg)), (m, m)),
            directed=False,
        )
        cells = np.bincount(comp[chain], minlength=n_comp)
        edges = np.bincount(comp, weights=link_deg, minlength=n_comp) // 2
        _, lowest = np.unique(comp, return_index=True)
        chain[lowest[(edges == cells) & (cells > 0)]] = False
        links &= chain[rows] & chain[cols]
        link_deg = np.bincount(rows[links], minlength=m)

        # number each path contiguously: a depth-first order entering every
        # path at its lowest-index end from a spine of virtual nodes m, m+1,
        # ... (one virtual root linked to every path would make scipy rescan
        # the root's edges after each path, quadratic in the path count)
        ends = np.flatnonzero(chain & (link_deg <= 1))
        _, first_end = np.unique(comp[ends], return_index=True)
        starts = ends[first_end]
        k = starts.size
        graph = sp.csr_matrix(
            (
                np.ones(links.sum() + 2 * k),
                np.concatenate(
                    [cols[links], np.column_stack([starts, m + 1 + np.arange(k)]).ravel()]
                ),
                _ptr(np.concatenate([link_deg, np.full(k, 2), [0]])),
            ),
            (m + k + 1, m + k + 1),
        )
        order, pred = csgraph.depth_first_order(graph, m, return_predecessors=True)
        order = order[order < m]
        n_chain = order.size
        pos = np.full(m, -1)
        pos[order] = np.arange(n_chain)
        head = pred[order] >= m
        self.order = order
        self.n_chains = int(head.sum())
        chain_of = np.cumsum(head) - 1
        # per chain cell, its path's slot for the first-cell port; + 1 for
        # the last-cell port
        self._slot_first = 2 * chain_of

        # the tridiagonal T: the chain cells' diagonal, and each path's
        # (cell, next cell) entries, zero between paths (LAPACK's wrapper
        # wants at least one off-diagonal entry)
        self._t_diag = a.diagonal()[order]
        self._t_off = np.zeros(max(n_chain - 1, 1))
        step = links & (pos[cols] == pos[rows] + 1)
        self._t_off[pos[rows[step]]] = a.data[step]
        # indicators of each path's first and last cell
        self._ends = np.array([head, np.roll(head, -1)], dtype=np.float64)

        hubs = np.flatnonzero(~chain)
        hub_of = np.full(m, -1)
        hub_of[hubs] = np.arange(hubs.size)
        self.hubs = hubs
        # ports: (chain cell, hub) entries, on a path's first or last cell
        port = off & chain[rows] & ~chain[cols]
        self._port_a = a.data[port]
        self._port_pos = pos[rows[port]]
        self._port_hub = hub_of[cols[port]]
        port_chain = chain_of[self._port_pos]
        # which indicator column holds T⁻¹ of the port's cell
        port_side = (~head[self._port_pos]).astype(np.intp)
        self._port_slot = 2 * port_chain + port_side
        # Schur fill: each ordered pair (p, q) of one path's ports adds
        # −a_p·a_q·T⁻¹[cell_p, cell_q] at (hub_p, hub_q)
        by_path = np.argsort(port_chain, kind="stable")
        twin = port_chain[by_path[1:]] == port_chain[by_path[:-1]]
        lo, hi = by_path[:-1][twin], by_path[1:][twin]
        p = np.concatenate([by_path, lo, hi])
        q = np.concatenate([by_path, hi, lo])
        self._fill_weight = -self._port_a[p] * self._port_a[q]
        self._fill_at = (self._port_pos[p], port_side[q])

        # the core's fixed CSR pattern: the hub block plus the Schur fill
        block = (on_diag | off) & ~chain[rows] & ~chain[cols]
        self._block_data = a.data[block]
        self._block_diag = on_diag[block]
        n_hub = max(hubs.size, 1)
        keys = np.concatenate(
            [
                hub_of[rows[block]] * n_hub + hub_of[cols[block]],
                self._port_hub[p] * n_hub + self._port_hub[q],
            ]
        )
        uniq, self._core_slot = np.unique(keys, return_inverse=True)
        self._core_indices = uniq % n_hub
        self._core_indptr = _ptr(np.bincount(uniq // n_hub, minlength=hubs.size))
        # each hub row's diagonal slot (an SPD matrix stores every diagonal)
        self._core_diag = np.flatnonzero(uniq // n_hub == self._core_indices)

    def solve(
        self,
        b: np.ndarray,
        x0: np.ndarray,
        rtol: float,
        maxiter: int,
        shift: float = 0.0,
    ) -> tuple[np.ndarray, int, int]:
        """Solve ``(a + shift·I) x = b`` column by column.

        One ``dpttrf`` factors every path's tridiagonal block, one
        ``dpttrs`` solves for the end indicators and all of ``b`` at once,
        and Jacobi-PCG solves the Schur complement on the hub core, one
        preconditioner for all columns. ``b`` and ``x0`` are ``(cells, k)``.
        Each column meets ``‖b − (a + shift·I) x‖ ≤ rtol·‖b‖`` on the full
        system: the chains are solved exactly, so the full residual is the
        core's, and the core CG (started from ``x0``'s hub rows) stops at
        that absolute tolerance.

        Returns:
            ``(x, iterations, unconverged)``: CG iterations summed over the
            columns, and how many columns ran out of ``maxiter``.

        Raises:
            SolverConvergenceError: a chain block is not positive definite.
        """
        from scipy.linalg import lapack

        n_chain = self.order.size
        # columns: T⁻¹ of the first-cell and last-cell indicators, then T⁻¹ b
        rhs = np.empty((2 + b.shape[1], n_chain))
        rhs[:2] = self._ends
        rhs[2:] = b[self.order].T
        sol = rhs.T
        if n_chain:
            d, e, info = lapack.dpttrf(self._t_diag + shift, self._t_off)
            if info != 0:
                raise SolverConvergenceError(
                    f"chain block not positive definite (dpttrf info {info})"
                )
            sol, _ = lapack.dpttrs(d, e, sol, overwrite_b=True)
        weights = np.concatenate(
            [self._block_data + shift * self._block_diag, self._fill_weight * sol[self._fill_at]]
        )
        n_hub = self.hubs.size
        s = np.bincount(self._core_slot, weights=weights, minlength=self._core_indices.size)
        inv_diag = 1.0 / np.maximum(s[self._core_diag], 1e-12)
        x = np.empty(b.shape)
        iterations = unconverged = 0
        for j in range(b.shape[1]):
            b_core = b[self.hubs, j] - np.bincount(
                self._port_hub,
                weights=self._port_a * sol[self._port_pos, 2 + j],
                minlength=n_hub,
            )
            x_hub, iters, converged = jacobi_pcg(
                self._core_indptr,
                self._core_indices,
                s,
                b_core,
                x0[self.hubs, j],
                inv_diag,
                0.0,
                maxiter,
                atol=rtol * np.linalg.norm(b[:, j]),
            )
            iterations += iters
            unconverged += not converged
            # chain cells: T⁻¹ b plus w·x_hub times the indicator columns
            coef = np.bincount(
                self._port_slot,
                weights=-self._port_a * x_hub[self._port_hub],
                minlength=2 * self.n_chains,
            )
            x[self.order, j] = (
                sol[:, 2 + j]
                + coef[self._slot_first] * sol[:, 0]
                + coef[self._slot_first + 1] * sol[:, 1]
            )
            x[self.hubs, j] = x_hub
        return x, iterations, unconverged


@dataclass(frozen=True)
class GlobalPlaceConfig:
    """Knobs of the quadratic placement loop, each set by a real caller.

    The spreading grid (:data:`N_BINS`, :data:`N_SLABS`) and the CG stop
    (:data:`CG_RTOL`, :data:`CG_MAXITER`) are module constants.
    """

    n_iterations: int = 6
    avoid_ps: bool = True
    use_net_weights: bool = True
    #: The fabric extent the spreading *believes* in, relative to the real
    #: device. 1.0 = calibrated. >1 models a placer tuned for a larger part
    #: (AMF-Placer's VCU108 heritage): spread targets overshoot the fabric
    #: and legalization has to drag everything back in.
    fabric_scale: float = 1.0
    seed: int = 0


class QuadraticGlobalPlacer:
    """Reusable quadratic global placement engine; it reuses its last call's
    clique system on an identical call (:meth:`_clique_system`)."""

    def __init__(self, config: GlobalPlaceConfig | None = None) -> None:
        self.config = config or GlobalPlaceConfig()
        #: ``(key, system)`` of the last call; see :meth:`_clique_system`
        self._system: tuple | None = None

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
        with trace.span("global_place", n_iterations=self.config.n_iterations) as span:
            metrics.inc("global_place.solves")
            return self._place_impl(netlist, device, placement, movable_mask, span)

    def _place_impl(
        self,
        netlist: Netlist,
        device: Device,
        placement: Placement | None,
        movable_mask: np.ndarray | None,
        place_span: trace.Span,
    ) -> Placement:
        cfg = self.config
        ctx = get_csr(netlist)
        place = placement.copy() if placement is not None else Placement(netlist, device)
        # a fresh mask: fixed cells can never move, and the caller's array
        # is left as it was
        if movable_mask is None:
            movable_mask = ~ctx.is_fixed
        else:
            movable_mask = np.asarray(movable_mask, dtype=bool) & ~ctx.is_fixed
        if not movable_mask.any():
            return place

        mov, fix, w_mf, elim = self._clique_system(netlist, ctx.version, movable_mask)
        place_span.set(cells=int(mov.size), core_cells=int(elim.hubs.size))
        areas = _AREA_OF[ctx.ctype_code[mov]]
        rng = np.random.default_rng(cfg.seed)
        # tiny jitter breaks exact ties so the spreading has gradients to use
        xy_f = place.xy[fix]
        start = place.xy[mov]
        rhs_fixed = w_mf @ xy_f + SOLVE_EPS * start

        def _solve(alpha: float, target: np.ndarray | None) -> tuple[np.ndarray, int]:
            rhs = rhs_fixed if target is None else rhs_fixed + alpha * target
            sol, iters, unconverged = elim.solve(rhs, start, CG_RTOL, CG_MAXITER, shift=alpha)
            metrics.inc("global_place.cg_iterations", iters)
            if unconverged:
                metrics.inc("global_place.cg_unconverged", unconverged)
            return sol, iters

        with trace.span("global_place.solve", bootstrap=True) as span:
            pos, iters = _solve(0.0, None)
            span.set(iterations=iters)
        pos += rng.normal(scale=1.0, size=pos.shape)
        alpha = ANCHOR_WEIGHT
        for _ in range(cfg.n_iterations):
            spread = self._spread(pos, areas, device)
            with trace.span("global_place.solve") as span:
                pos, iters = _solve(alpha, spread)
                span.set(iterations=iters)
            alpha *= ANCHOR_GROWTH
        pos = self._spread(pos, areas, device)
        place.xy[mov] = pos
        return place

    def _clique_system(
        self, netlist: Netlist, version: int, movable_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix, ChainElimination]:
        """``(mov, fix, w_mf, elim)``: the movable and fixed cell indices,
        the movable-to-fixed block of the connectivity matrix, and the
        :class:`ChainElimination` of ``L_mm + εI``. The last call's system is
        reused when the netlist object, its revision, the movable mask and
        the live net weights (if used) all equal its inputs; else rebuilt."""
        use_weights = self.config.use_net_weights
        weights = netlist.net_weights() if use_weights else None
        mask = movable_mask.tobytes()
        if self._system is not None:
            (last_nl, last_version, last_mask, last_weights), system = self._system
            if (
                last_nl is netlist
                and last_version == version
                and last_mask == mask
                and (not use_weights or np.array_equal(last_weights, weights))
            ):
                return system
        metrics.inc("global_place.system_builds")
        mov = np.flatnonzero(movable_mask)
        fix = np.flatnonzero(~movable_mask)
        w = connectivity_matrix(netlist, use_net_weights=use_weights)
        deg = np.asarray(w.sum(axis=1)).ravel()
        lap_mm = (sp.diags(deg) - w)[mov][:, mov].tocsr()
        w_mf = w[mov][:, fix].tocsr()
        # one chain structure for every clique solve: their systems differ
        # only in the anchor weight on the diagonal
        elim = ChainElimination(lap_mm + sp.diags(np.full(mov.size, SOLVE_EPS)))
        system = (mov, fix, w_mf, elim)
        self._system = ((netlist, version, mask, weights), system)
        return system

    # ------------------------------------------------------------------
    def _spread(self, pos: np.ndarray, areas: np.ndarray, device: Device) -> np.ndarray:
        """Histogram-equalize x globally, then y within vertical slabs, clip
        into the fabric, and push cells out of the PS block.

        Slab membership uses clipped ``np.digitize`` so every cell lands in
        exactly one slab. The previous ``>= edge[s] & < edge[s+1]`` scan
        silently skipped cells sitting at (or, via the ``_equalize``
        monotonicity epsilon, just above) the last slab edge — their y was
        never equalized. A cell in the PS block moves past its nearer edge.
        """
        cfg = self.config
        w = device.width * cfg.fabric_scale
        h = device.height * cfg.fabric_scale
        out = pos.copy()
        out[:, 0] = _equalize(out[:, 0], areas, 0.0, w, N_BINS)
        slab = _slab_of(out[:, 0], w, N_SLABS)
        out[:, 1] = _equalize(out[:, 1], areas, 0.0, h, N_BINS, slab, N_SLABS)
        out[:, 0] = np.clip(out[:, 0], 1.0, w - 1.0)
        out[:, 1] = np.clip(out[:, 1], 1.0, h - 1.0)
        ps = device.ps
        if cfg.avoid_ps and ps is not None:
            x, y = out[:, 0], out[:, 1]
            inside = (x < ps.x1) & (y < ps.y1)
            right = ps.x1 - x <= ps.y1 - y
            x[inside & right] = ps.x1 + 1.0
            y[inside & ~right] = ps.y1 + 1.0
        return out


def _slab_of(x: np.ndarray, width: float, n_slabs: int) -> np.ndarray:
    """Slab index per cell — clipped digitize, so out-of-range x (possible
    after the epsilon-padded x equalization) still maps to an edge slab."""
    inner = np.linspace(0.0, width, n_slabs + 1)[1:-1]
    return np.digitize(x, inner)


def _equalize(
    coords: np.ndarray,
    areas: np.ndarray,
    lo: float,
    hi: float,
    n_bins: int,
    group: np.ndarray | None = None,
    n_groups: int = 1,
) -> np.ndarray:
    """Monotone remap of coords so each group's area-weighted marginal on
    ``[lo, hi]`` is uniform; one group without ``group``. Groups of two or
    fewer cells (when grouped) and groups with no area keep their coords.

    Per group this is ``np.histogram`` on ``n_bins`` uniform bins, then
    ``np.interp`` onto the equalized edges, bit for bit when every partial
    sum of ``areas`` is exact in float64 (``CELL_AREA``'s multiples of 0.5):
    then summation order cannot change a bit, and one ``bincount`` gives the
    histogram. Bin ``j = searchsorted(edges, c, "right") − 1`` comes from
    ``floor((c − lo)·n_bins/(hi − lo))`` clamped to ``[−1, n_bins]`` and one
    correction step against the ±inf-padded edges (np.histogram's uniform
    method); ``c == hi`` counts in the last bin. The remap is np.interp's
    ``slope[j]·(c − edges[j]) + new_edges[j]``; below ``lo`` it gives
    ``new_edges[0]``, at or above ``hi`` ``new_edges[-1]``. Coords must be
    finite or NaN; a NaN adds no area and maps to NaN, as in numpy.
    """
    if coords.size == 0:
        return coords
    edges = np.linspace(lo, hi, n_bins + 1)
    padded = np.concatenate(([-np.inf], edges, [np.inf]))
    # k = j + 1 indexes ``padded``; fmax sends NaN to k = 0, where no
    # correction fires
    t = np.floor((coords - lo) * (n_bins / (hi - lo)))
    k = np.fmin(np.fmax(t, -1.0), n_bins).astype(np.intp) + 1
    k -= coords < padded[k]
    k += coords >= padded[k + 1]
    # per group, slot k of n_bins + 2: below lo, the bins, at or above hi
    stride = n_bins + 2
    base = 0 if group is None else group * stride
    slot = k + base
    keep = (coords >= lo) & (coords <= hi)
    hist = np.bincount(
        (np.minimum(k, n_bins) + base)[keep], weights=areas[keep], minlength=n_groups * stride
    ).reshape(n_groups, stride)
    cdf = np.cumsum(hist[:, : n_bins + 1], axis=1)  # slot 0 holds no area
    total = cdf[:, -1]
    active = total > 0
    if group is not None:
        active &= np.bincount(group, minlength=n_groups) > 2
    if not active.any():
        return coords
    new_edges = lo + (cdf / np.where(active, total, 1.0)[:, None]) * (hi - lo)
    # keep strictly monotone for interpolation
    new_edges = np.maximum.accumulate(new_edges + np.arange(n_bins + 1) * 1e-9, axis=1)
    # slot tables: zero slope outside the range, so 0·(c − edge) + end edge
    slope = np.zeros((n_groups, stride))
    slope[:, 1:-1] = np.diff(new_edges, axis=1) / np.diff(edges)
    start = np.concatenate([new_edges[:, :1], new_edges], axis=1).ravel()
    at = np.concatenate([edges[:1], edges])
    out = slope.ravel()[slot] * (coords - at[k]) + start[slot]
    return out if active.all() else np.where(active[group], out, coords)
