"""Evaluation harness: regenerates every table and figure of Section V.

- :mod:`repro.eval.experiments` — one runner per experiment (Table I,
  Table II, Fig. 7(a), Fig. 7(b), Fig. 8, Fig. 9) plus the ablations
  listed in DESIGN.md.
- :mod:`repro.eval.tables` — ASCII / markdown / CSV rendering.
- :mod:`repro.eval.visualization` — SVG layout dumps (Fig. 9).
- :mod:`repro.eval.profiling` — runtime breakdowns (Fig. 8).
"""

from repro.eval.experiments import (
    ExperimentSettings,
    run_table1,
    run_table2,
    run_fig7,
    run_fig8,
    run_fig9,
)
from repro.eval.tables import render_table

__all__ = [
    "ExperimentSettings",
    "run_table1",
    "run_table2",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "render_table",
]
