"""Optimization substrate.

From-scratch implementations of every solver the paper outsources:

- :mod:`repro.solvers.mcf` — min-cost flow (the paper uses LEMON) via
  successive shortest paths with Johnson potentials, plus a bipartite
  assignment front-end used by the linearized DSP placement (eq. 8/9).
- :mod:`repro.solvers.hungarian` — O(n³) Hungarian assignment, the reference
  oracle for the MCF assignment front-end.
- :mod:`repro.solvers.isotonic` — exact intra-column row legalization
  (eq. 11) by cascade-block collapsing + dynamic programming, and an L1
  isotonic (PAVA-median) fast path.

The eq. (10) inter-column ILP (the paper uses Gurobi) has no module here: it
is a HiGHS MILP via :func:`scipy.optimize.milp`, built as sparse constraints
in :mod:`repro.core.placement.legalization`.
"""

from repro.solvers.auction import auction_assignment
from repro.solvers.mcf import MinCostFlow, min_cost_assignment
from repro.solvers.hungarian import hungarian
from repro.solvers.isotonic import ColumnBlock, l1_isotonic, legalize_column_rows

__all__ = [
    "MinCostFlow",
    "min_cost_assignment",
    "auction_assignment",
    "hungarian",
    "ColumnBlock",
    "l1_isotonic",
    "legalize_column_rows",
]
