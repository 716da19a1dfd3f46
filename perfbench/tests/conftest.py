"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests`` from the repo root."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]


@pytest.fixture(scope="session")
def placed():
    """A legal baseline placement of a mini accelerator on a small device."""
    from repro.accelgen import generate_suite
    from repro.fpga import small_device
    from repro.placers.vivado_like import VivadoLikePlacer

    dev = small_device(n_dsp_cols=3, dsp_rows=12)
    netlist = generate_suite("ismartdnn", scale=0.02, device=dev)
    return VivadoLikePlacer(seed=0, device=dev).place(netlist)
