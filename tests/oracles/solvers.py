"""Assignment oracles: a successive-shortest-paths min-cost flow network
and a dense O(n³) Hungarian solver, both in pure Python."""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import SolverInfeasibleError, SolverInputError
from repro.solvers.mcf import ArcArrays, _normalize_arcs


class MinCostFlow:
    """A directed flow network with per-edge capacity and cost.

    Edges are stored pairwise (forward at even ids, residual at odd ids) in
    flat lists — the classic forward-star layout.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise SolverInputError("network needs at least one node")
        self.n = n_nodes
        self._to: list[int] = []
        self._cap: list[float] = []
        self._cost: list[float] = []
        self._adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: float, cost: float) -> int:
        """Add edge u→v; returns the forward edge id (use with :meth:`flow_on`)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"edge ({u}, {v}) out of range")
        if cap < 0:
            raise SolverInputError("negative capacity")
        eid = len(self._to)
        self._to.extend((v, u))
        self._cap.extend((float(cap), 0.0))
        self._cost.extend((float(cost), -float(cost)))
        self._adj[u].append(eid)
        self._adj[v].append(eid + 1)
        return eid

    def flow_on(self, eid: int) -> float:
        """Flow currently routed through forward edge ``eid``."""
        return self._cap[eid ^ 1]

    # ------------------------------------------------------------------
    def _bellman_ford_potentials(self, s: int) -> list[float]:
        """Initial potentials; needed when edges carry negative costs."""
        dist = [math.inf] * self.n
        dist[s] = 0.0
        for _ in range(self.n - 1):
            changed = False
            for u in range(self.n):
                du = dist[u]
                if du == math.inf:
                    continue
                for eid in self._adj[u]:
                    if self._cap[eid] > 1e-12:
                        v = self._to[eid]
                        nd = du + self._cost[eid]
                        if nd < dist[v] - 1e-12:
                            dist[v] = nd
                            changed = True
            if not changed:
                break
        return [d if d < math.inf else 0.0 for d in dist]

    def min_cost_flow(
        self, s: int, t: int, max_flow: float = math.inf
    ) -> tuple[float, float]:
        """Send up to ``max_flow`` units from ``s`` to ``t`` at minimum cost.

        Returns ``(flow_sent, total_cost)``. The network keeps its residual
        state, so edge flows can be read back via :meth:`flow_on`.
        """
        if s == t:
            raise SolverInputError("source equals sink")
        has_negative = any(
            self._cost[eid] < 0 and self._cap[eid] > 0 for eid in range(0, len(self._to), 2)
        )
        potential = self._bellman_ford_potentials(s) if has_negative else [0.0] * self.n

        total_flow = 0.0
        total_cost = 0.0
        prev_edge = [-1] * self.n

        while total_flow < max_flow:
            dist = [math.inf] * self.n
            dist[s] = 0.0
            prev_edge = [-1] * self.n
            heap: list[tuple[float, int]] = [(0.0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u] + 1e-12:
                    continue
                for eid in self._adj[u]:
                    if self._cap[eid] <= 1e-12:
                        continue
                    v = self._to[eid]
                    nd = d + self._cost[eid] + potential[u] - potential[v]
                    if nd < dist[v] - 1e-12:
                        dist[v] = nd
                        prev_edge[v] = eid
                        heapq.heappush(heap, (nd, v))
            if dist[t] == math.inf:
                break  # no more augmenting paths
            for v in range(self.n):
                if dist[v] < math.inf:
                    potential[v] += dist[v]
            # bottleneck along the path
            push = max_flow - total_flow
            v = t
            while v != s:
                eid = prev_edge[v]
                push = min(push, self._cap[eid])
                v = self._to[eid ^ 1]
            # apply
            v = t
            while v != s:
                eid = prev_edge[v]
                self._cap[eid] -= push
                self._cap[eid ^ 1] += push
                total_cost += push * self._cost[eid]
                v = self._to[eid ^ 1]
            total_flow += push
        return total_flow, total_cost


def min_cost_assignment_ssp(
    n_agents: int,
    n_slots: int,
    arcs: list[tuple[int, int, float]] | ArcArrays,
    slot_capacity: int = 1,
) -> dict[int, int]:
    """:func:`repro.solvers.min_cost_assignment` on the successive-shortest-
    paths flow network; slots may take up to ``slot_capacity`` agents."""
    if n_agents == 0:
        return {}
    agents, slots, costs = _normalize_arcs(n_agents, n_slots, arcs)
    s = n_agents + n_slots
    t = s + 1
    net = MinCostFlow(n_agents + n_slots + 2)
    for a in range(n_agents):
        net.add_edge(s, a, 1, 0.0)
    edge_ids: dict[tuple[int, int], int] = {}
    for agent, slot, cost in zip(agents.tolist(), slots.tolist(), costs.tolist()):
        edge_ids[(agent, slot)] = net.add_edge(agent, n_agents + slot, 1, cost)
    for slot in np.unique(slots).tolist():
        net.add_edge(n_agents + slot, t, slot_capacity, 0.0)

    flow, _cost = net.min_cost_flow(s, t, n_agents)
    if flow < n_agents - 1e-9:
        raise SolverInfeasibleError(
            f"infeasible assignment: only {flow:.0f} of {n_agents} agents placeable"
        )
    result: dict[int, int] = {}
    for (agent, slot), eid in edge_ids.items():
        if net.flow_on(eid) > 0.5:
            result[agent] = slot
    return result


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve the rectangular assignment problem.

    Args:
        cost: ``(n_rows, n_cols)`` cost matrix with ``n_rows <= n_cols``.

    Returns:
        ``(col_of_row, total_cost)`` where ``col_of_row[i]`` is the column
        assigned to row ``i``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n > m:
        raise SolverInputError("hungarian() requires n_rows <= n_cols")
    INF = math.inf
    # 1-based potentials over rows (u) and columns (v); p[j] = row matched to col j
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    col_of_row = np.full(n, -1, dtype=np.int64)
    for j in range(1, m + 1):
        if p[j]:
            col_of_row[p[j] - 1] = j - 1
    total = float(sum(cost[i, col_of_row[i]] for i in range(n)))
    return col_of_row, total
