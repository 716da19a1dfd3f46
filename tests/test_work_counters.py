"""Work-counter gate: the deterministic work of one cold default ``place``.

Each case runs one :meth:`DSPlacer.place` under ``obs.observe()`` on a
fresh netlist (netlist seed 0, ``fabric_device(fabric, scale)``) and
compares the report's whole ``metrics["counters"]`` dict with the literal
committed below, for exact equality. The counters (CG iterations, solves,
assignment iterates, ILP nodes, refine moves, ...) depend on the code and
the input, not on the machine's speed or load, so there is no tolerance.
They read the same under every OpenBLAS core type and thread count and
with numpy's AVX-512 loops on or off; numpy's pre-AVX2 baseline loops
round differently and move ``refine.accepted_moves`` on both skynet cases
(see docs/PERFORMANCE.md, "Regression gates"). Wall time is gated by perfbench alone.

A change that moves the work of the shipped flow fails here, once per
case. If the change is intended, paste the measured values into the
literal and record the old and new readings in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.accelgen import generate_suite
from repro.core import DSPlacer, DSPlacerConfig
from repro.fpga import fabric_device

CASES = [
    # (suite, scale, fabric, DSPlacerConfig overrides, committed counters)
    pytest.param("skynet", 0.05, "zcu104", {}, {
        "assignment.iterates": 8,
        "extraction.iddfs.paths": 15,
        "global_place.cg_iterations": 626,
        "global_place.solves": 2,
        "global_place.system_builds": 2,
        "ilp.nodes_explored": 0,
        "ilp.solves": 2,
        "ilp.variables": 24,
        "incremental.replaces": 1,
        "isotonic.blocks": 8,
        "isotonic.columns": 2,
        "legalization.ilp_used": 2,
        "legalize.clb_conflict_cells": 471,
        "legalize.passes": 2,
        "refine.accepted_moves": 17,
    }, id="skynet@0.05-zcu104"),
    pytest.param("skynet", 0.05, "slot_fabric", {"skew_model": "htree", "skew_weight": 5.0}, {
        "assignment.iterates": 10,
        "extraction.iddfs.paths": 15,
        "global_place.cg_iterations": 626,
        "global_place.solves": 2,
        "global_place.system_builds": 2,
        "ilp.nodes_explored": 0,
        "ilp.solves": 2,
        "ilp.variables": 16,
        "incremental.replaces": 1,
        "isotonic.blocks": 8,
        "isotonic.columns": 2,
        "legalization.ilp_used": 2,
        "legalize.clb_conflict_cells": 1441,
        "legalize.passes": 2,
        "refine.accepted_moves": 20,
    }, id="skynet@0.05-slot_fabric-htree"),
    pytest.param("skrskr2", 0.25, "zcu104", {}, {
        "assignment.iterates": 8,
        "extraction.iddfs.paths": 304,
        "global_place.cg_iterations": 1047,
        "global_place.solves": 3,
        "global_place.system_builds": 2,
        "ilp.nodes_explored": 2,
        "ilp.solves": 2,
        "ilp.variables": 600,
        "incremental.replaces": 2,
        "isotonic.blocks": 100,
        "isotonic.columns": 10,
        "legalization.ilp_used": 2,
        "legalize.clb_conflict_cells": 7810,
        "legalize.passes": 3,
        "refine.accepted_moves": 142,
    }, id="skrskr2@0.25-zcu104"),
]


def measure_counters(suite: str, scale: float, fabric: str, overrides: dict) -> dict:
    """The counters of one cold ``place``, as its RunReport records them."""
    device = fabric_device(fabric, scale)
    netlist = generate_suite(suite, scale=scale, device=device, seed=0)
    with obs.observe():
        result = DSPlacer(device, DSPlacerConfig(**overrides)).place(netlist)
    return result.report.metrics["counters"]


@pytest.mark.parametrize("suite, scale, fabric, overrides, committed", CASES)
def test_counters_match_committed(suite, scale, fabric, overrides, committed):
    measured = measure_counters(suite, scale, fabric, overrides)
    diff = [
        f"{name}: {committed.get(name, '-')} → {measured.get(name, '-')}"
        for name in sorted(committed.keys() | measured.keys())
        if committed.get(name) != measured.get(name)
    ]
    assert measured == committed, (
        f"work counters of {suite}@{scale:g} on {fabric} moved:\n  "
        + "\n  ".join(diff)
        + "\nIf the change is intended, update the literal in "
        "tests/test_work_counters.py and record it in CHANGES.md."
    )
