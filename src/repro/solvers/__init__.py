"""Optimization substrate.

Solvers for the optimization problems the paper outsources:

- :mod:`repro.solvers.isotonic` — exact intra-column row legalization
  (eq. 11) by cascade-block collapsing + dynamic programming, and an L1
  isotonic (PAVA-median) fast path.

The linearized DSP assignment (eq. 8/9; the paper uses LEMON's min-cost
flow) has no module here: each iterate is one dense
:func:`scipy.optimize.linear_sum_assignment`, called by
:func:`repro.core.placement.assignment.solve_iterate`. The eq. (10)
inter-column ILP (the paper uses Gurobi) has none either: it is a HiGHS
MILP via :func:`scipy.optimize.milp`, built as sparse constraints in
:mod:`repro.core.placement.legalization`.
"""

from repro.solvers.isotonic import ColumnBlock, l1_isotonic, legalize_column_rows

__all__ = [
    "ColumnBlock",
    "l1_isotonic",
    "legalize_column_rows",
]
