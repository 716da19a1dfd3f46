"""Per-cell loop STA, the oracle for the array-built timing graph and the
level-batched analysis."""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.placers.placement import Placement
from repro.router.global_router import RoutingResult
from repro.timing import StaticTimingAnalyzer, TimingReport


class ReferenceSTA(StaticTimingAnalyzer):
    """The timing graph built from per-cell lists (Kahn order, then
    longest-path levels); the analysis walks it one cell and edge at a time."""

    def _build_graph(self) -> None:
        netlist = self.netlist
        dm = self.dm
        self._cascade_pairs = set(netlist.cascade_pairs())
        # dtype=bool keeps ``~self._seq`` valid on an empty netlist
        self._seq = np.array(
            [self.dm.is_sequential(c.ctype) for c in netlist.cells], dtype=bool
        )

        # edge lists: (src, dst, net_id); plus per-node fanin adjacency
        self._fanin: list[list[tuple[int, int]]] = [[] for _ in netlist.cells]
        self._fanout: list[list[tuple[int, int]]] = [[] for _ in netlist.cells]
        for net in netlist.nets:
            for s in net.sinks:
                self._fanin[s].append((net.driver, net.index))
                self._fanout[net.driver].append((s, net.index))

        # topological order of combinational cells (Kahn over comb preds)
        n = len(netlist.cells)
        indeg = np.zeros(n, dtype=np.int64)
        for u in range(n):
            if self._seq[u]:
                continue
            indeg[u] = sum(1 for (v, _) in self._fanin[u] if not self._seq[v])
        queue = deque(u for u in range(n) if not self._seq[u] and indeg[u] == 0)
        order: list[int] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for w, _ in self._fanout[u]:
                if not self._seq[w]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        queue.append(w)
        n_comb = int((~self._seq).sum())
        self.has_comb_cycles = len(order) < n_comb
        n_dag = len(order)
        if self.has_comb_cycles:
            # break cycles by appending the leftovers in index order; their
            # arrivals are then lower bounds (one relaxation round)
            seen = set(order)
            order.extend(u for u in range(n) if not self._seq[u] and u not in seen)
        self._topo = order

        nl = netlist
        self._prop_arr = np.array([dm.prop.get(c.ctype, 0.0) for c in nl.cells])
        self._clk2q_arr = np.array([dm.clk_to_q.get(c.ctype, 0.0) for c in nl.cells])
        self._setup_arr = np.array([dm.setup.get(c.ctype, 0.0) for c in nl.cells])

        n_sinks = np.array([len(net.sinks) for net in nl.nets], dtype=np.int64)
        n_edges = int(n_sinks.sum())
        self._e_src = np.repeat(
            np.array([net.driver for net in nl.nets], dtype=np.int64), n_sinks
        )
        self._e_dst = np.fromiter(
            (s for net in nl.nets for s in net.sinks), dtype=np.int64, count=n_edges
        )
        self._e_net = np.repeat(np.arange(len(nl.nets), dtype=np.int64), n_sinks)

        # cascade edges (set C of eq. 5) as a mask over the flat edge list
        if self._cascade_pairs:
            keys = self._e_src * n + self._e_dst
            pair_keys = np.array(
                [s * n + d for s, d in self._cascade_pairs], dtype=np.int64
            )
            self._casc_idx = np.flatnonzero(np.isin(keys, pair_keys))
        else:
            self._casc_idx = np.zeros(0, dtype=np.int64)

        # levelization: DAG cells get longest-path levels (all combinational
        # predecessors strictly earlier); cycle leftovers each get their own
        # level in topo order, replicating the loop oracle's sequential sweep
        level = np.zeros(n, dtype=np.int64)
        for u in self._topo[:n_dag]:
            lv = 0
            for v, _ in self._fanin[u]:
                if not self._seq[v]:
                    lv = max(lv, level[v] + 1)
            level[u] = lv
        nxt = (max((level[u] for u in self._topo[:n_dag]), default=-1)) + 1
        for u in self._topo[n_dag:]:
            level[u] = nxt
            nxt += 1
        self._level = level

    def _edge_delay(
        self,
        src: int,
        dst: int,
        net_id: int,
        placement: Placement,
        detour: np.ndarray | None,
    ) -> float:
        dxy = placement.xy[src] - placement.xy[dst]
        dist = abs(float(dxy[0])) + abs(float(dxy[1]))
        det = float(detour[net_id]) if detour is not None else 1.0
        if (src, dst) in self._cascade_pairs and getattr(
            placement.device, "has_cascades", True
        ):
            site_s = int(placement.site[src])
            site_d = int(placement.site[dst])
            adjacent = (
                site_s >= 0
                and site_d == site_s + 1
                and placement.device.site_col("DSP")[site_s]
                == placement.device.site_col("DSP")[site_d]
            )
            return self.dm.cascade_delay(adjacent, dist, det)
        return self.dm.net_delay(dist, det)

    def _skew_penalty_scalar(
        self, placement: Placement, launch_cell: int, capture_cell: int
    ) -> float:
        """One (launch, capture) skew charge."""
        p = self.skew.arrival_penalty(
            placement,
            np.array([launch_cell], dtype=np.int64),
            np.array([capture_cell], dtype=np.int64),
        )
        return float(p[0]) if isinstance(p, np.ndarray) else float(p)

    def _analyze_vectorized(
        self,
        placement: Placement,
        routing: RoutingResult | None,
        period_ns: float | None,
        with_slacks: bool,
    ) -> TimingReport:
        nl = self.netlist
        period_ns = self._resolve_period(period_ns)
        detour = routing.net_detour if routing is not None else None
        dm = self.dm

        n = len(nl.cells)
        arrival = np.zeros(n)
        best_pred = np.full(n, -1, dtype=np.int64)
        launch = np.arange(n, dtype=np.int64)  # launch register of worst path
        for u in range(n):
            if self._seq[u]:
                arrival[u] = dm.clk_to_q[nl.cells[u].ctype]

        for u in self._topo:
            best = 0.0
            pred = -1
            for v, nid in self._fanin[u]:
                a = arrival[v] + self._edge_delay(v, u, nid, placement, detour)
                if a > best:
                    best = a
                    pred = v
            arrival[u] = best + dm.prop.get(nl.cells[u].ctype, 0.0)
            best_pred[u] = pred
            if pred >= 0:
                launch[u] = launch[pred]

        # endpoints: every sequential cell with fanin
        slacks: list[float] = []
        ends: list[int] = []
        end_pred: list[int] = []
        for u in range(n):
            if not self._seq[u] or not self._fanin[u]:
                continue
            worst = None
            wpred = -1
            for v, nid in self._fanin[u]:
                a = arrival[v] + self._edge_delay(v, u, nid, placement, detour)
                a += self._skew_penalty_scalar(placement, int(launch[v]), u)
                if worst is None or a > worst:
                    worst = a
                    wpred = v
            slack = period_ns - dm.setup[nl.cells[u].ctype] - worst
            slacks.append(slack)
            ends.append(u)
            end_pred.append(wpred)

        slack_arr = np.array(slacks) if slacks else np.array([period_ns])
        wns = float(slack_arr.min())
        tns = float(np.minimum(slack_arr, 0.0).sum())
        worst_i = int(np.argmin(slack_arr)) if slacks else 0

        crit: list[int] = []
        if slacks:
            crit = [ends[worst_i]]
            seen = set(crit)  # best_pred can cycle on comb-cycle netlists
            u = end_pred[worst_i]
            while u >= 0 and u not in seen:
                seen.add(u)
                crit.append(u)
                if self._seq[u]:
                    break
                u = int(best_pred[u])
            crit.reverse()

        cell_slack = None
        if with_slacks:
            # backward pass: required time at each cell's output pin
            required = np.full(n, np.inf)
            for u in range(n):
                if not self._seq[u]:
                    continue
                for v, nid in self._fanin[u]:
                    r = (
                        period_ns
                        - dm.setup[nl.cells[u].ctype]
                        - self._edge_delay(v, u, nid, placement, detour)
                    )
                    r -= self._skew_penalty_scalar(placement, int(launch[v]), u)
                    required[v] = min(required[v], r)
            for u in reversed(self._topo):
                for w, nid in self._fanout[u]:
                    if self._seq[w]:
                        continue  # handled above via w's fanin
                    r = (
                        required[w]
                        - dm.prop.get(nl.cells[w].ctype, 0.0)
                        - self._edge_delay(u, w, nid, placement, detour)
                    )
                    required[u] = min(required[u], r)
            # sequential startpoints: pull required back through their
            # combinational fanout (all comb required times are final now)
            for u in range(n):
                if not self._seq[u]:
                    continue
                for w, nid in self._fanout[u]:
                    if self._seq[w]:
                        continue
                    r = (
                        required[w]
                        - dm.prop.get(nl.cells[w].ctype, 0.0)
                        - self._edge_delay(u, w, nid, placement, detour)
                    )
                    required[u] = min(required[u], r)
            with np.errstate(invalid="ignore"):
                cell_slack = required - arrival
            cell_slack[~np.isfinite(required)] = np.nan  # no downstream endpoint

        return TimingReport(
            period_ns=float(period_ns),
            wns_ns=wns,
            tns_ns=tns,
            n_endpoints=len(slacks),
            n_failing=int((slack_arr < 0).sum()),
            endpoint_slack=slack_arr,
            critical_path=crit,
            endpoint_cells=np.array(ends, dtype=np.int64) if ends else None,
            _end_pred=np.array(end_pred, dtype=np.int64) if ends else None,
            _best_pred=best_pred,
            cell_output_slack=cell_slack,
        )
