"""Linearized DSP assignment (paper Section IV-A).

The 0-1 quadratic program (eq. 7/8) is linearized around the previous
iterate (eq. 9, TILA-style), giving each (DSP i, site j) pair a closed-form
cost:

- **wirelength**: ``Σ_p w_ip · ‖site_j − pos'(p)‖²`` over i's netlist
  neighbours p at their previous positions — expanded to
  ``W_i·|s_j|² − 2·s_j·m_i + q_i`` so the whole N×M cost matrix is three
  rank-1 numpy operations;
- **datapath angle** (eq. 6): ``λ·(outdeg_D(i) − indeg_D(i))·cos θ_j`` with
  ``cos θ_j = x_j/√(x_j²+y_j²)`` measured from the PS corner — DSP-graph
  predecessors prefer small cos (above the PS), successors large cos
  (right of the PS);
- **cascade** (eq. 5 relaxed with η): a reward for landing next to the
  previous position of a cascade partner.

Each iterate is an assignment problem under constraints (4); its constraint
matrix is totally unimodular, so any exact assignment solver reaches the
optimum of the min-cost flow the paper solves with LEMON.
:func:`solve_iterate` runs scipy's dense ``linear_sum_assignment`` on the
full N × M cost matrix, every site a candidate; ``tests.oracles.hungarian``
cross-checks it.

The whole iterate is vectorized (see ``docs/PERFORMANCE.md``): neighbour
lists live in padded ``(N, K)`` index/weight matrices built once in
``__init__`` and reused across all iterates, the cascade penalty is a
scatter-add over precomputed partner index arrays, and the true objective
is a gather/einsum over a canonical DSP–DSP pair list.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from repro.core.extraction.dsp_graph import DSPGraph
from repro.errors import (
    ConfigurationError,
    SolverError,
    SolverInfeasibleError,
    SolverInputError,
)
from repro.fpga.device import Device
from repro.netlist.csr import connectivity_matrix
from repro.netlist.netlist import Netlist
from repro.obs import metrics, trace
from repro.placers.placement import Placement
from repro.robustness.faults import maybe_fault
from repro.robustness.guard import SolverGuard

#: µm² → cost units of the wirelength term (100 µm ≡ 1)
WL_SCALE = 1e-4
#: stop when the true eq. (7) objective has not improved for this many
#: consecutive linearization iterates
PATIENCE = 3
#: netlist neighbours kept per DSP: the top-weighted ones
MAX_NEIGHBORS = 32
#: timing-driven extension: a neighbour's weight is scaled by
#: ``1 + CRITICALITY_BOOST·crit`` (:meth:`DatapathDSPAssigner.set_criticality`)
CRITICALITY_BOOST = 2.0


@dataclass(frozen=True)
class AssignmentConfig:
    """Knobs of the linearized assignment loop.

    ``lam`` is the paper's λ (set to 100 in Section V-C); ``eta`` the
    cascade penalty η; ``max_iterations`` the internal MCF iteration count
    (the paper uses 50; the loop stops early once the assignment is stable).
    Building one checks every knob, and :class:`~repro.core.DSPlacerConfig`
    builds one to check its own.
    """

    lam: float = 100.0
    eta: float = 25.0
    max_iterations: int = 50
    #: extension beyond the paper: penalize sites whose clock arrival (from
    #: the skew model passed to the assigner) strays from the weighted mean
    #: arrival of the DSP's netlist neighbours — keeps tightly coupled
    #: logic under nearby clock taps. 0 = off; needs a skew model exposing
    #: per-point arrivals (HTreeSkew) to have any effect.
    skew_weight: float = 0.0

    def __post_init__(self) -> None:
        for knob in ("lam", "eta"):
            value = getattr(self, knob)
            if not _finite(value):
                raise ConfigurationError(f"{knob} must be finite, got {value!r}")
        if not _finite(self.skew_weight) or self.skew_weight < 0.0:
            raise ConfigurationError(
                f"skew_weight must be finite and non-negative, got {self.skew_weight!r}"
            )
        if not isinstance(self.max_iterations, numbers.Integral) or self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations!r} "
                "(the loop needs at least one linearization iterate)"
            )


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


def solve_iterate(cost: np.ndarray) -> np.ndarray:
    """One linearized iterate: the site of each DSP row at least total cost.

    An exact dense solve over all M sites. The fault stage ``assignment``
    is checked first; a fault raises like any stage failure, and the flow
    rolls back.
    """
    maybe_fault("assignment")
    _, cols = scipy.optimize.linear_sum_assignment(cost)
    return np.asarray(cols, dtype=np.int64)


class DatapathDSPAssigner:
    """Iterative linearized MCF assignment of datapath DSPs to device sites."""

    def __init__(
        self,
        netlist: Netlist,
        device: Device,
        dsp_graph: DSPGraph,
        datapath_dsps: list[int],
        config: AssignmentConfig | None = None,
        skew_model=None,
    ) -> None:
        self.netlist = netlist
        self.device = device
        self.config = config or AssignmentConfig()
        self.dsps = list(datapath_dsps)
        if not self.dsps:
            raise SolverInputError("no datapath DSPs to assign")

        self.site_xy = device.site_xy("DSP")
        m = self.site_xy.shape[0]
        if len(self.dsps) > m:
            raise SolverInfeasibleError(
                f"{len(self.dsps)} datapath DSPs exceed {m} device sites"
            )
        self._site_sq = (self.site_xy**2).sum(axis=1)
        norms = np.sqrt(np.maximum(self._site_sq, 1e-12))
        self._site_cos = self.site_xy[:, 0] / norms
        self._site_col = device.site_col("DSP")
        # per-site clock arrival for the skew-aware term; stays None when
        # the term is off or the model has no per-point arrival notion
        self._skew_model = skew_model
        self._site_skew: np.ndarray | None = None
        if self.config.skew_weight > 0 and skew_model is not None:
            self._site_skew = skew_model.arrivals_at(device, self.site_xy)

        # netlist neighbourhoods (top-weighted, bounded): CSR row slices,
        # each in column order
        w = connectivity_matrix(netlist)
        ptr = w.indptr
        self._base_neighbors: list[tuple[np.ndarray, np.ndarray]] = []
        for i in self.dsps:
            idx = w.indices[ptr[i] : ptr[i + 1]].copy()
            val = w.data[ptr[i] : ptr[i + 1]].copy()
            if idx.size > MAX_NEIGHBORS:
                top = np.argpartition(val, -MAX_NEIGHBORS)[-MAX_NEIGHBORS:]
                idx, val = idx[top], val[top]
            self._base_neighbors.append((idx, val))
        self._neighbors = list(self._base_neighbors)

        # datapath-angle coefficient per DSP: λ·(outdeg − indeg) in E_D
        pos_in_dsps = {d: k for k, d in enumerate(self.dsps)}
        n_cells = len(netlist)
        degree = np.bincount(dsp_graph.src, minlength=n_cells) - np.bincount(
            dsp_graph.dst, minlength=n_cells
        )
        self._angle_coef = degree[self.dsps].astype(np.float64) * self.config.lam

        # cascade partners among the assigned DSPs. The linearized *cost*
        # only pulls the successor toward (site of pred)+1 — a symmetric
        # pull makes the pair chase each other's previous site and cycle;
        # one-sided anchoring converges. The true objective still scores
        # every pair.
        self._partners: list[list[tuple[int, int]]] = [[] for _ in self.dsps]
        self._pairs: list[tuple[int, int]] = []  # (pred_k, succ_k)
        for pred, succ in netlist.cascade_pairs():
            if pred in pos_in_dsps and succ in pos_in_dsps:
                kp, ks = pos_in_dsps[pred], pos_in_dsps[succ]
                self._partners[ks].append((kp, +1))
                self._pairs.append((kp, ks))
        self._pos_in_dsps = pos_in_dsps
        # flattened cascade-pull arrays for the cost matrix's scatter-add:
        # row k of the cost gets +η and −η at (prev site of partner)+offset
        casc = [
            (k, partner, offset)
            for k, plist in enumerate(self._partners)
            for partner, offset in plist
        ]
        self._casc_row = np.array([c[0] for c in casc], dtype=np.int64)
        self._casc_partner = np.array([c[1] for c in casc], dtype=np.int64)
        self._casc_offset = np.array([c[2] for c in casc], dtype=np.int64)
        # (pred_k, succ_k) arrays for the objective's adjacency check
        self._pair_kp = np.array([p[0] for p in self._pairs], dtype=np.int64)
        self._pair_ks = np.array([p[1] for p in self._pairs], dtype=np.int64)
        self._rebuild_neighbor_arrays()

    def _rebuild_neighbor_arrays(self) -> None:
        """Derive the vectorized views of ``self._neighbors``.

        Called at construction and whenever the neighbour weights change
        (:meth:`set_criticality`):

        - ``_nbr_idx`` / ``_nbr_w``: the ragged neighbour lists padded into
          ``(N, K)`` matrices (pad weight 0 ⇒ padded entries contribute
          nothing), so the linearized wirelength is three stacked rank-1
          numpy ops per iterate;
        - ``_ext_*``: flattened (row, neighbour-cell, weight) triples for
          neighbours *outside* the assigned DSP set;
        - ``_dd_a``/``_dd_b``/``_dd_w``: the canonical DSP–DSP pair list.
          Each unordered pair appears exactly once with the mean of the
          per-side weights that survived top-K truncation — equal to the
          old both-sides-halved accounting when both sides are present, and
          the full weight (not half) when truncation kept only one side.
        """
        n = len(self.dsps)
        kmax = max((idx.size for idx, _ in self._neighbors), default=1)
        self._nbr_idx = np.zeros((n, max(kmax, 1)), dtype=np.int64)
        self._nbr_w = np.zeros((n, max(kmax, 1)))
        ext_k: list[int] = []
        ext_j: list[int] = []
        ext_w: list[float] = []
        pair_acc: dict[tuple[int, int], tuple[float, int]] = {}
        for k, (idx, val) in enumerate(self._neighbors):
            self._nbr_idx[k, : idx.size] = idx
            self._nbr_w[k, : idx.size] = val
            for j, w in zip(idx.tolist(), val.tolist()):
                kj = self._pos_in_dsps.get(j)
                if kj is None:
                    ext_k.append(k)
                    ext_j.append(j)
                    ext_w.append(w)
                elif kj != k:
                    key = (k, kj) if k < kj else (kj, k)
                    acc, cnt = pair_acc.get(key, (0.0, 0))
                    pair_acc[key] = (acc + w, cnt + 1)
        self._ext_k = np.array(ext_k, dtype=np.int64)
        self._ext_j = np.array(ext_j, dtype=np.int64)
        self._ext_w = np.array(ext_w)
        keys = sorted(pair_acc)
        self._dd_a = np.array([a for a, _ in keys], dtype=np.int64)
        self._dd_b = np.array([b for _, b in keys], dtype=np.int64)
        self._dd_w = np.array([pair_acc[k][0] / pair_acc[k][1] for k in keys])

    # ------------------------------------------------------------------
    def set_criticality(self, cell_output_slack: np.ndarray, period_ns: float) -> None:
        """Timing-driven extension: upweight attraction to critical neighbours.

        ``cell_output_slack`` comes from
        :meth:`repro.timing.StaticTimingAnalyzer.analyze` with
        ``with_slacks=True``; a neighbour with slack s gets its base
        connection weight scaled by
        ``1 + CRITICALITY_BOOST·clip(1 − s/period, 0, 1)``, so DSPs are
        pulled harder toward the cells on failing paths.
        """
        scaled: list[tuple[np.ndarray, np.ndarray]] = []
        for idx, val in self._base_neighbors:
            s = cell_output_slack[idx]
            crit = np.clip(1.0 - s / period_ns, 0.0, 1.0)
            crit = np.where(np.isnan(crit), 0.0, crit)
            scaled.append((idx, val * (1.0 + CRITICALITY_BOOST * crit)))
        self._neighbors = scaled
        self._rebuild_neighbor_arrays()

    def cost_matrix(
        self, placement: Placement, prev_sites: np.ndarray | None
    ) -> np.ndarray:
        """Linearized (N, M) cost of placing DSP k on site j (eq. 9).

        Fully batched: the wirelength expansion
        ``W_k·|s_j|² − 2·s_j·m_k + q_k`` runs as three stacked rank-1 numpy
        ops over the padded ``(N, K)`` neighbour matrices, and the cascade
        reward is a scatter-add over the precomputed partner index arrays.
        """
        cfg = self.config
        n = len(self.dsps)
        m = self.site_xy.shape[0]
        pts = placement.xy[self._nbr_idx]  # (n, K, 2); padded weights are 0
        w = self._nbr_w
        w_sum = w.sum(axis=1)
        mvec = np.einsum("nk,nkd->nd", w, pts)
        q = np.einsum("nk,nkd->n", w, pts**2)
        cost = WL_SCALE * (
            w_sum[:, None] * self._site_sq[None, :]
            - 2.0 * (mvec @ self.site_xy.T)
            + q[:, None]
        )
        cost += self._angle_coef[:, None] * self._site_cos[None, :]
        if self._site_skew is not None:
            # skew-aware pull: per DSP, the weighted-mean clock arrival of
            # its neighbours is the reference; sites whose arrival strays
            # from it are surcharged. Rows with no neighbours are skipped.
            nbr_arr = self._skew_model.arrivals_at(
                self.device, pts
            ).reshape(w.shape)
            ref = (w * nbr_arr).sum(axis=1) / np.maximum(w_sum, 1e-12)
            pen = cfg.skew_weight * np.abs(self._site_skew[None, :] - ref[:, None])
            cost += np.where(w_sum[:, None] > 0, pen, 0.0)
        if prev_sites is not None and cfg.eta > 0 and self._casc_row.size:
            ps = prev_sites[self._casc_partner]
            live = ps >= 0
            rows, ps = self._casc_row[live], ps[live]
            row_bias = np.zeros(n)
            np.add.at(row_bias, rows, cfg.eta)
            cost += row_bias[:, None]
            target = ps + self._casc_offset[live]
            ok = (target >= 0) & (target < m)
            ok[ok] &= self._site_col[target[ok]] == self._site_col[ps[ok]]
            np.subtract.at(cost, (rows[ok], target[ok]), cfg.eta)
        return cost

    # ------------------------------------------------------------------
    def objective(self, sites: np.ndarray, placement: Placement) -> float:
        """True eq. (7) objective of an assignment (not the linearization).

        Wirelength is evaluated with every datapath DSP moved to its
        assigned site (other cells at their placement coordinates); the
        angle term is λ·Σ(cos θ_pred − cos θ_succ) over DSP-graph edges and
        the cascade term charges η per non-adjacent cascade pair.

        DSP–DSP wirelength runs over the canonical pair list built in
        :meth:`_rebuild_neighbor_arrays`, charging each unordered pair
        exactly once. (Until PR 3 every DSP–DSP term was halved on the
        assumption the pair shows up in both neighbour lists; top-K
        truncation can keep the edge on one side only, which undercounted
        that connection's wirelength by 2×.)
        """
        cfg = self.config
        dsp_xy = self.site_xy[sites]  # (n, 2): assigned coordinates
        total = 0.0
        if self._ext_k.size:
            d = dsp_xy[self._ext_k] - placement.xy[self._ext_j]
            total += float(self._ext_w @ np.einsum("ij,ij->i", d, d))
        if self._dd_a.size:
            d = dsp_xy[self._dd_a] - dsp_xy[self._dd_b]
            total += float(self._dd_w @ np.einsum("ij,ij->i", d, d))
        total *= WL_SCALE
        total += float(self._angle_coef @ self._site_cos[sites])
        if cfg.eta > 0 and self._pair_kp.size:
            sp_, ss_ = sites[self._pair_kp], sites[self._pair_ks]
            adjacent = (ss_ == sp_ + 1) & (self._site_col[ss_] == self._site_col[sp_])
            total += cfg.eta * float(np.count_nonzero(~adjacent))
        return total

    def solve(
        self, placement: Placement, guard: SolverGuard | None = None
    ) -> tuple[dict[int, int], int]:
        """Run the linearization loop from the current placement.

        Returns ``({dsp_cell_index: dsp_site_id}, iterations_used)``. The
        placement's coordinates are updated to the assigned sites (callers
        still must run cascade legalization — the η term is soft).

        With a ``guard``, the loop honours the stage's wall-clock budget:
        once the budget is exhausted the best-so-far assignment is returned
        (or, if there is none yet, :class:`~repro.errors.StageBudgetExceeded`
        is raised). A failed solve raises.
        """
        cfg = self.config
        place = placement
        prev_sites: np.ndarray | None = None
        best_sites: np.ndarray | None = None
        best_cost = np.inf
        seen: set[bytes] = set()
        iters = 0
        stale = 0
        for iters in range(1, cfg.max_iterations + 1):
            if guard is not None and guard.over_budget:
                if best_sites is None:
                    guard.check_budget()  # no iterate finished: raises
                iters -= 1  # this iterate never ran
                break
            with trace.span("assignment.iterate", i=iters) as it_sp:
                with trace.span("assignment.cost_matrix"):
                    cost = self.cost_matrix(place, prev_sites)
                with trace.span("assignment.solve"):
                    sites = solve_iterate(cost)
                with trace.span("assignment.objective"):
                    true_obj = self.objective(sites, placement)
                it_sp.set(objective=true_obj)
            metrics.inc("assignment.iterates")
            metrics.observe("assignment.objective", true_obj)
            if true_obj < best_cost - 1e-9:
                best_cost = true_obj
                best_sites = sites
                stale = 0
            else:
                stale += 1
            key = sites.tobytes()
            if (
                (prev_sites is not None and np.array_equal(sites, prev_sites))
                or key in seen
                or stale >= PATIENCE
            ):
                break  # converged, cycled, or stopped improving
            seen.add(key)
            prev_sites = sites
            place.xy[self.dsps] = self.site_xy[sites]
        if guard is not None and guard.over_budget:
            # the budget is cooperative: the solve that overran it finished
            guard.note_budget(
                f"{guard.budget_s:.3g}s budget exhausted after "
                f"{guard.elapsed_s:.3g}s; returning the best-so-far assignment"
            )
        if best_sites is None:
            # unreachable while AssignmentConfig enforces max_iterations >= 1
            # (the guard's budget path breaks out only with a best-so-far);
            # kept so a future loop edit fails loudly instead of with a
            # TypeError on the dereference below.
            raise SolverError(
                "assignment loop finished without completing a single iterate"
            )
        place.xy[self.dsps] = self.site_xy[best_sites]
        result = {cell: int(best_sites[k]) for k, cell in enumerate(self.dsps)}
        return result, iters
