"""Edge-capacity pattern router (L and Z shapes with rip-up & re-route).

A step up in fidelity from the RUDY estimator: the fabric is a grid of
routing bins with per-edge wire capacity; every driver→sink connection is
routed as an L (1 bend) or Z (2 bends) pattern chosen by congestion-aware
cost; overloaded edges raise their history cost and every connection is
ripped up and re-routed against the updated grids (classic negotiated
congestion, PathFinder style, restricted to pattern routes for speed).

Negotiation semantics: each round scores **all** connections against the
usage grids frozen at the start of the round — with a connection's own
previous route ripped up for its own scoring — then applies every chosen
route in one batch. This Jacobi-style formulation is what makes the hot
path a handful of gathers and one scatter-add per round; the oracle
``tests/oracles/router.py`` runs the same semantics as per-connection
Python loops. In the uncongested regime (no edge above capacity, the
early-exit case) both are also behavior-identical to the historical
sequential router: every candidate of a connection crosses the same number
of bins, so with no overload term the first candidate wins either way.

The result carries actual per-net routed lengths and an edge-utilization
map; :meth:`PatternRouter.route` returns the same
:class:`~repro.router.global_router.RoutingResult` interface so it can be
swapped into any flow (`GlobalRouter` remains the default — it is still
faster and Table II's shape does not depend on the difference; the router
bench quantifies the correlation between the two).
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics, trace
from repro.placers.placement import Placement
from repro.router.estimator import steiner_factor
from repro.router.global_router import RoutingResult

#: candidate pattern order (index = candidate id, scoring tie-break order)
_CAND_L_XY = 0  # L: x then y
_CAND_L_YX = 1  # L: y then x
_CAND_Z_H = 2  # Z with a horizontal middle leg
_CAND_Z_V = 3  # Z with a vertical middle leg
N_CANDIDATES = 4


class _ConnectionBatch:
    """All driver→sink connections of a placement as flat bin-edge arrays.

    Candidate geometry is static across negotiation rounds, so the edge
    index arrays are built once: every candidate of a connection crosses
    exactly ``|dx|`` horizontal and ``|dy|`` vertical bin boundaries — the
    candidates only differ in *which row* each horizontal edge uses (and
    which column each vertical edge uses). ``h_y[cand, e]`` / ``v_x[cand,
    e]`` hold those per-candidate coordinates for every flat edge.
    """

    def __init__(self, net_id: np.ndarray, bx0, by0, bx1, by1) -> None:
        self.net_id = net_id
        self.x0, self.y0, self.x1, self.y1 = bx0, by0, bx1, by1
        c = len(net_id)
        self.n = c
        dx = bx1 - bx0
        dy = by1 - by0
        self.nh = np.abs(dx)
        self.nv = np.abs(dy)
        xm = (bx0 + bx1) // 2
        ym = (by0 + by1) // 2

        # candidate validity (duplicates of earlier candidates are invalid)
        self.valid = np.column_stack(
            [
                np.ones(c, dtype=bool),
                (dx != 0) & (dy != 0),
                (self.nh >= 2) & (dy != 0),
                (self.nv >= 2) & (dx != 0),
            ]
        )

        # flat horizontal edges: connection id + x, plus per-candidate y
        self.h_conn = np.repeat(np.arange(c, dtype=np.int64), self.nh)
        off = np.arange(self.h_conn.size, dtype=np.int64) - np.repeat(
            np.cumsum(self.nh) - self.nh, self.nh
        )
        self.h_x = np.minimum(bx0, bx1)[self.h_conn] + off
        y0e = by0[self.h_conn]
        y1e = by1[self.h_conn]
        self.h_y = np.empty((N_CANDIDATES, self.h_conn.size), dtype=np.int64)
        self.h_y[_CAND_L_XY] = y0e
        self.h_y[_CAND_L_YX] = y1e
        first_leg = (self.h_x < xm[self.h_conn]) != (bx0 > bx1)[self.h_conn]
        self.h_y[_CAND_Z_H] = np.where(first_leg, y0e, y1e)
        self.h_y[_CAND_Z_V] = ym[self.h_conn]

        # flat vertical edges: connection id + y, plus per-candidate x
        self.v_conn = np.repeat(np.arange(c, dtype=np.int64), self.nv)
        off = np.arange(self.v_conn.size, dtype=np.int64) - np.repeat(
            np.cumsum(self.nv) - self.nv, self.nv
        )
        self.v_y = np.minimum(by0, by1)[self.v_conn] + off
        x0e = bx0[self.v_conn]
        x1e = bx1[self.v_conn]
        self.v_x = np.empty((N_CANDIDATES, self.v_conn.size), dtype=np.int64)
        self.v_x[_CAND_L_XY] = x1e
        self.v_x[_CAND_L_YX] = x0e
        self.v_x[_CAND_Z_H] = xm[self.v_conn]
        first_leg = (self.v_y < ym[self.v_conn]) != (by0 > by1)[self.v_conn]
        self.v_x[_CAND_Z_V] = np.where(first_leg, x0e, x1e)


class PatternRouter:
    """L/Z pattern router over a bin-edge capacity grid."""

    def __init__(
        self,
        grid: tuple[int, int] = (32, 32),
        capacity_per_edge: float = 110.0,
        n_rounds: int = 3,
        history_cost: float = 0.5,
        detour_strength: float = 0.6,
        max_connections: int = 250_000,
    ) -> None:
        self.grid = grid
        self.capacity_per_edge = capacity_per_edge
        self.n_rounds = n_rounds
        self.history_cost = history_cost
        self.detour_strength = detour_strength
        self.max_connections = max_connections

    # ------------------------------------------------------------------
    def route(self, placement: Placement) -> RoutingResult:
        with trace.span("router.route", grid=list(self.grid)) as sp:
            result = self._route_impl(placement)
            sp.set(
                wirelength_um=result.total_wirelength,
                overflow_frac=result.overflow_frac,
            )
        metrics.inc("router.pattern_routes")
        metrics.gauge("router.wirelength_um", result.total_wirelength)
        metrics.gauge("router.overflow_frac", result.overflow_frac)
        return result

    def _route_impl(self, placement: Placement) -> RoutingResult:
        batch = self._connections(placement)
        if batch.n > self.max_connections:
            raise ValueError(
                f"{batch.n} connections exceed max_connections; raise the cap "
                "or use the RUDY GlobalRouter at this scale"
            )
        usage_h, usage_v = self._negotiate_vectorized(batch)
        return self._finish(placement, batch, usage_h, usage_v)

    def _connections(self, placement: Placement) -> _ConnectionBatch:
        """One connection per driver→sink pair, in net order, as bin coords."""
        dev = placement.device
        gx, gy = self.grid
        bw = dev.width / gx
        bh = dev.height / gy
        nets = placement.netlist.nets
        n_sinks = np.array([len(net.sinks) for net in nets], dtype=np.int64)
        drivers = np.array([net.driver for net in nets], dtype=np.int64)
        sinks = np.fromiter(
            (s for net in nets for s in net.sinks), dtype=np.int64, count=int(n_sinks.sum())
        )
        net_id = np.repeat(np.arange(len(nets), dtype=np.int64), n_sinks)
        dxy = placement.xy[drivers[net_id]]
        sxy = placement.xy[sinks]
        bx0 = np.clip((dxy[:, 0] // bw).astype(np.int64), 0, gx - 1)
        by0 = np.clip((dxy[:, 1] // bh).astype(np.int64), 0, gy - 1)
        bx1 = np.clip((sxy[:, 0] // bw).astype(np.int64), 0, gx - 1)
        by1 = np.clip((sxy[:, 1] // bh).astype(np.int64), 0, gy - 1)
        return _ConnectionBatch(net_id, bx0, by0, bx1, by1)

    # ------------------------------------------------------------------
    def _negotiate_vectorized(self, batch: _ConnectionBatch):
        gx, gy = self.grid
        cap = self.capacity_per_edge
        history_h = np.zeros((gx - 1) * gy)
        history_v = np.zeros(gx * (gy - 1))
        usage_h = np.zeros((gx - 1) * gy)
        usage_v = np.zeros(gx * (gy - 1))

        h_flat = batch.h_x * gy + batch.h_y  # (4, H) flat edge ids
        v_flat = batch.v_x * (gy - 1) + batch.v_y  # (4, V)
        arange_h = np.arange(batch.h_conn.size)
        arange_v = np.arange(batch.v_conn.size)
        cand_cost = np.empty((batch.n, N_CANDIDATES))
        choice: np.ndarray | None = None

        for rnd in range(self.n_rounds):
            # per-edge cost seen by a connection: 1 + history + overload of
            # the frozen round-start usage (own previous route ripped up)
            full_h = 1.0 + history_h + np.maximum(0.0, usage_h + 1.0 - cap)
            full_v = 1.0 + history_v + np.maximum(0.0, usage_v + 1.0 - cap)
            ripped_h = 1.0 + history_h + np.maximum(0.0, usage_h - cap)
            ripped_v = 1.0 + history_v + np.maximum(0.0, usage_v - cap)
            if choice is not None:
                h_old = h_flat[choice[batch.h_conn], arange_h]
                v_old = v_flat[choice[batch.v_conn], arange_v]
            for j in range(N_CANDIDATES):
                cost_h = full_h[h_flat[j]]
                cost_v = full_v[v_flat[j]]
                if choice is not None:
                    own = h_flat[j] == h_old
                    cost_h = np.where(own, ripped_h[h_flat[j]], cost_h)
                    own = v_flat[j] == v_old
                    cost_v = np.where(own, ripped_v[v_flat[j]], cost_v)
                cand_cost[:, j] = np.bincount(
                    batch.h_conn, weights=cost_h, minlength=batch.n
                ) + np.bincount(batch.v_conn, weights=cost_v, minlength=batch.n)
            cand_cost[~batch.valid] = np.inf
            choice = np.argmin(cand_cost, axis=1)

            usage_h = np.bincount(
                h_flat[choice[batch.h_conn], arange_h], minlength=usage_h.size
            ).astype(np.float64)
            usage_v = np.bincount(
                v_flat[choice[batch.v_conn], arange_v], minlength=usage_v.size
            ).astype(np.float64)
            history_h += self.history_cost * np.maximum(0.0, usage_h - cap) / max(cap, 1.0)
            history_v += self.history_cost * np.maximum(0.0, usage_v - cap) / max(cap, 1.0)
            if (usage_h.size == 0 or usage_h.max() <= cap) and (
                usage_v.size == 0 or usage_v.max() <= cap
            ):
                break
        return usage_h.reshape(gx - 1, gy), usage_v.reshape(gx, gy - 1)

    # ------------------------------------------------------------------
    def _finish(
        self,
        placement: Placement,
        batch: _ConnectionBatch,
        usage_h: np.ndarray,
        usage_v: np.ndarray,
    ) -> RoutingResult:
        dev = placement.device
        gx, gy = self.grid
        bw = dev.width / gx
        bh = dev.height / gy
        nets = placement.netlist.nets

        xmin, xmax, ymin, ymax = placement.net_bboxes()
        hp = (xmax - xmin) + (ymax - ymin)
        fanouts = np.array([n.degree for n in nets], dtype=np.float64)
        base = hp * steiner_factor(fanouts)
        # every candidate of a connection crosses |dx| h- and |dy| v-edges,
        # so routed bin length is independent of which pattern won
        routed_bins = np.bincount(
            batch.net_id, weights=batch.nh * bw + batch.nv * bh, minlength=len(nets)
        )
        # a net's pattern length across sinks double-counts shared trunks;
        # scale to the Steiner estimate and never report below it
        routed = np.maximum(base, np.minimum(routed_bins, base * 2.5))
        with np.errstate(divide="ignore", invalid="ignore"):
            detour = np.where(base > 0, routed / base, 1.0)

        cong_h = usage_h / self.capacity_per_edge
        cong_v = usage_v / self.capacity_per_edge
        congestion = np.zeros((gx, gy))
        congestion[: gx - 1, :] = np.maximum(congestion[: gx - 1, :], cong_h)
        congestion[1:, :] = np.maximum(congestion[1:, :], cong_h)
        congestion[:, : gy - 1] = np.maximum(congestion[:, : gy - 1], cong_v)
        congestion[:, 1:] = np.maximum(congestion[:, 1:], cong_v)
        overflow = float(
            ((cong_h > 1.0).sum() + (cong_v > 1.0).sum())
            / max(cong_h.size + cong_v.size, 1)
        )
        return RoutingResult(
            net_detour=np.clip(detour, 1.0, 2.5),
            net_routed_len=routed,
            congestion=congestion,
            total_wirelength=float(routed.sum()),
            overflow_frac=overflow,
        )
