"""Fig. 8 — runtime profiling of the DSPlacer flow.

The paper profiles iSmartDNN and SkyNet: prototype placement + other
component placement dominate (≈90% of total), datapath DSP extraction is
small, and routing takes the rest. We reproduce the same breakdown from the
run's spans (``repro.eval.profiling``): each ``place.<stage>`` span is a
row, the rest of the ``place`` wall is ``unattributed``, and the ``route``
span is ``routing``. EXPERIMENTS.md compares the shares with the paper's.
"""

from repro.eval import render_table, run_fig8
from repro.eval.profiling import FIG8_STAGES


def test_fig8_runtime_breakdown(benchmark, settings, emit):
    breakdowns = benchmark.pedantic(
        run_fig8, args=(settings,), rounds=1, iterations=1
    )
    rows = []
    for rb in breakdowns:
        for phase, sec, pct in rb.rows():
            rows.append([rb.benchmark, phase, f"{sec:.3f}", f"{pct:.1f}%"])
        rows.append([rb.benchmark, "total", f"{rb.total:.3f}", "100%"])
    emit(
        "fig8",
        render_table(
            ["Benchmark", "Phase", "seconds", "share"],
            rows,
            title=f"Fig. 8 (reproduced): Runtime profiling at scale {settings.scale}.",
        ),
    )

    for rb in breakdowns:
        pct = rb.percentages
        # placement stages (prototype + incremental other-components)
        # dominate the flow, as in the paper (90.6% / 88.3%)
        assert pct["prototype"] + pct["incremental"] > 40.0
        # extraction is a small slice (paper: ~2%)
        assert pct["extraction"] < 15.0
        assert set(pct) == {*FIG8_STAGES, "unattributed", "routing"}
