"""Shared fixtures: small devices and netlists every suite can afford."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelgen import generate_suite
from repro.fpga import small_device
from repro.netlist import CellType, Netlist


@pytest.fixture(scope="session")
def small_dev():
    """A tiny PS-bearing device (3 DSP columns × 12 rows)."""
    return small_device(n_dsp_cols=3, dsp_rows=12)


@pytest.fixture(scope="session")
def no_ps_dev():
    return small_device(n_dsp_cols=2, dsp_rows=8, with_ps=False, name="nops")


@pytest.fixture()
def tiny_netlist():
    """Hand-built netlist: PS + IO + 2 DSP macros + logic + BRAM.

    Small enough to reason about by hand in assertions; contains every cell
    kind and both macro and single DSPs.
    """
    nl = Netlist("tiny")
    nl.target_freq_mhz = 100.0
    ps = nl.add_cell("ps", CellType.PS, fixed_xy=(10.0, 10.0))
    io = nl.add_cell("pad", CellType.IO, fixed_xy=(700.0, 400.0))
    luts = [nl.add_cell(f"lut{i}", CellType.LUT) for i in range(6)]
    ffs = [nl.add_cell(f"ff{i}", CellType.FF) for i in range(6)]
    lr = nl.add_cell("lram", CellType.LUTRAM)
    br = nl.add_cell("bram", CellType.BRAM)
    dsps = [nl.add_cell(f"dsp{i}", CellType.DSP, is_datapath=(i < 5)) for i in range(6)]

    nl.add_net("ps_out", ps, [luts[0]])
    for i in range(5):
        nl.add_net(f"l{i}", luts[i], [ffs[i]])
        nl.add_net(f"f{i}", ffs[i], [luts[i + 1]])
    nl.add_net("lut5_q", luts[5], [ffs[5]])
    nl.add_net("to_lram", ffs[5], [lr])
    nl.add_net("lram_q", lr, [dsps[0]])
    nl.add_net("c01", dsps[0], [dsps[1]])
    nl.add_net("c12", dsps[1], [dsps[2]])
    nl.add_net("c34", dsps[3], [dsps[4]])
    nl.add_net("tree", dsps[2], [dsps[3]])
    nl.add_net("dsp_out", dsps[4], [br])
    nl.add_net("bram_q", br, [io])
    nl.add_net("ctl", dsps[5], [ffs[0], ffs[1]])
    nl.add_net("ctl_in", ffs[2], [dsps[5]])
    nl.add_macro([dsps[0], dsps[1], dsps[2]])
    nl.add_macro([dsps[3], dsps[4]])
    nl.validate()
    return nl


@pytest.fixture()
def every_kind_netlist():
    """Two cells of every CellType, interleaved, plus a DSP and a LUT
    pinned by ``fixed_xy`` (fixed although their kinds are placeable)."""
    nl = Netlist("every_kind")
    for rnd in range(2):
        for k, ctype in enumerate(CellType):
            xy = (10.0 * k + rnd, 5.0) if ctype.is_fixed else None
            nl.add_cell(f"{ctype.value.lower()}{rnd}", ctype, fixed_xy=xy)
    nl.add_cell("pinned_dsp", CellType.DSP, fixed_xy=(300.0, 40.0))
    nl.add_cell("pinned_lut", CellType.LUT, fixed_xy=(200.0, 60.0))
    nl.add_net("n", 0, list(range(1, len(nl.cells))))
    return nl


@pytest.fixture(scope="session")
def mini_accel(small_dev):
    """A generated mini accelerator that fits the small device."""
    return generate_suite("ismartdnn", scale=0.02, device=small_dev)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
