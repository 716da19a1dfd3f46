"""Optimization substrate.

Solvers for the optimization problems the paper outsources:

- :mod:`repro.solvers.mcf` — the unit-capacity min-cost assignment of the
  linearized DSP placement (eq. 8/9; the paper uses LEMON's min-cost flow),
  solved by scipy's sparse LAPJVsp.
- :mod:`repro.solvers.isotonic` — exact intra-column row legalization
  (eq. 11) by cascade-block collapsing + dynamic programming, and an L1
  isotonic (PAVA-median) fast path.

The eq. (10) inter-column ILP (the paper uses Gurobi) has no module here: it
is a HiGHS MILP via :func:`scipy.optimize.milp`, built as sparse constraints
in :mod:`repro.core.placement.legalization`.
"""

from repro.solvers.mcf import min_cost_assignment
from repro.solvers.isotonic import ColumnBlock, l1_isotonic, legalize_column_rows

__all__ = [
    "min_cost_assignment",
    "ColumnBlock",
    "l1_isotonic",
    "legalize_column_rows",
]
