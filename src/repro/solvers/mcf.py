"""Unit-capacity min-cost assignment: the linearized DSP assignment kernel.

This replaces the LEMON min-cost-flow solver the paper uses for the
linearized DSP assignment (eq. 8/9): the weighted-sum-of-``x_ij`` objective
under the assignment constraints (eq. 4) is a unit-capacity transportation
problem, whose constraint matrix is totally unimodular, so the LP optimum —
and hence the flow optimum — is integral (Section IV-A).

:func:`min_cost_assignment` — the per-iterate kernel of the linearized DSP
assignment loop — solves it with scipy's sparse LAPJVsp
(``csgraph.min_weight_full_bipartite_matching``) in compiled code. The
pure-Python successive-shortest-paths flow network and a dense Hungarian
solver are its test oracles (``tests/oracles/solvers.py``); all three see
the same deduplicated arc set, so their optima coincide.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.errors import SolverInfeasibleError
from repro.obs import metrics


ArcArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _normalize_arcs(
    n_agents: int, n_slots: int, arcs: list[tuple[int, int, float]] | ArcArrays
) -> ArcArrays:
    """Validate arcs and deduplicate ``(agent, slot)`` keys keeping the
    *minimum* cost.

    Duplicate arcs arise in the DSP loop when the previous-site feasibility
    arc coincides with a candidate-window arc; keeping the first listed cost
    (the pre-PR-3 behaviour) could shadow a cheaper duplicate, so the min
    wins regardless of listing order.
    """
    if isinstance(arcs, tuple) and len(arcs) == 3:
        agents = np.asarray(arcs[0], dtype=np.int64)
        slots = np.asarray(arcs[1], dtype=np.int64)
        costs = np.asarray(arcs[2], dtype=np.float64)
    else:
        agents = np.fromiter((a for a, _, _ in arcs), dtype=np.int64, count=len(arcs))
        slots = np.fromiter((s for _, s, _ in arcs), dtype=np.int64, count=len(arcs))
        costs = np.fromiter((c for _, _, c in arcs), dtype=np.float64, count=len(arcs))
    if agents.size and (
        agents.min() < 0
        or agents.max() >= n_agents
        or slots.min() < 0
        or slots.max() >= n_slots
    ):
        bad = np.flatnonzero(
            (agents < 0) | (agents >= n_agents) | (slots < 0) | (slots >= n_slots)
        )[0]
        raise IndexError(f"arc ({agents[bad]}, {slots[bad]}) out of range")
    order = np.lexsort((costs, slots, agents))
    agents, slots, costs = agents[order], slots[order], costs[order]
    keep = np.ones(agents.size, dtype=bool)
    keep[1:] = (agents[1:] != agents[:-1]) | (slots[1:] != slots[:-1])
    return agents[keep], slots[keep], costs[keep]


def _assignment_lapjvsp(
    n_agents: int, n_slots: int, agents: np.ndarray, slots: np.ndarray, costs: np.ndarray
) -> dict[int, int]:
    """Unit-capacity assignment via scipy's sparse LAPJVsp, on integer costs.

    LAPJVsp drops explicit zeros, so costs are shifted to at least 1 (a
    uniform shift keeps the argmin). On float costs its loop can also spin
    forever on rounding in the dual updates (``tests/test_solvers_mcf.py``
    holds a 6 × 6 matrix that never returned). So the shifted costs are
    rounded to multiples of ``2**-s`` and scaled by ``2**s`` into integers,
    ``s`` the largest value up to 20 with ``n_agents · max(cost) < 2**53``:
    every sum the solver forms is then an exact float64 integer, and it
    terminates. When no ``s >= 0`` fits, a dense Hungarian solve runs.
    """
    lo = float(costs.min())
    shifted = costs + (1.0 - lo) if lo < 1.0 else costs
    hi = float(shifted.max())
    s = 20
    while s >= 0 and n_agents * np.rint(hi * 2.0**s) >= 2.0**53:
        s -= 1
    try:
        if s < 0:
            from scipy.optimize import linear_sum_assignment

            dense = np.full((n_agents, n_slots), np.inf)
            dense[agents, slots] = costs
            rows, cols = linear_sum_assignment(dense)
        else:
            scaled = np.maximum(np.rint(shifted * 2.0**s), 1.0)
            graph = sp.csr_matrix((scaled, (agents, slots)), shape=(n_agents, n_slots))
            rows, cols = csgraph.min_weight_full_bipartite_matching(graph)
            metrics.inc("mcf.lapjvsp_solves")
    except ValueError as exc:
        raise SolverInfeasibleError(f"infeasible assignment: {exc}") from exc
    return {int(r): int(c) for r, c in zip(rows, cols)}


def min_cost_assignment(
    n_agents: int,
    n_slots: int,
    arcs: list[tuple[int, int, float]] | ArcArrays,
) -> dict[int, int]:
    """Assign every agent to a slot at minimum total cost.

    Args:
        n_agents: Agents 0..n_agents-1; each must receive exactly one slot.
        n_slots: Slots 0..n_slots-1; each takes at most one agent.
        arcs: Candidate ``(agent, slot, cost)`` triples — either a list of
            tuples or a ``(agents, slots, costs)`` array triple (the DSP
            loop passes arrays to avoid materialising tuples). Duplicate
            ``(agent, slot)`` keys keep the minimum cost. Agents may only
            be assigned along a listed arc (the DSP placement restricts
            each DSP to a candidate window of sites).

    Returns:
        ``{agent: slot}`` covering all agents.

    Raises:
        SolverInfeasibleError: If no feasible complete assignment exists.
    """
    if n_agents == 0:
        return {}
    agents, slots, costs = _normalize_arcs(n_agents, n_slots, arcs)
    metrics.inc("mcf.arcs", int(agents.size))
    if np.unique(agents).size < n_agents:
        raise SolverInfeasibleError(
            f"infeasible assignment: {n_agents - np.unique(agents).size} of "
            f"{n_agents} agents have no candidate arc"
        )
    return _assignment_lapjvsp(n_agents, n_slots, agents, slots, costs)
