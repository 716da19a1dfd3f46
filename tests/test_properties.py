"""Cross-cutting property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accelgen import AcceleratorConfig, generate_accelerator
from repro.fpga import small_device
from repro.netlist import CellType, Netlist
from repro.placers import Legalizer, Placement
from repro.timing import DelayModel


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    total_dsps=st.integers(6, 30),
    chain_len=st.integers(2, 6),
    pes_per_pu=st.integers(1, 4),
    ctrl=st.floats(0.02, 0.3),
    seed=st.integers(0, 100),
)
def test_generator_always_valid(total_dsps, chain_len, pes_per_pu, ctrl, seed):
    """Property: any config yields a validating netlist with exact totals
    and fully-labeled DSPs."""
    cfg = AcceleratorConfig(
        name="prop",
        total_dsps=total_dsps,
        chain_len=chain_len,
        pes_per_pu=pes_per_pu,
        n_lut=400,
        n_lutram=40,
        n_ff=450,
        n_bram=10,
        freq_mhz=100.0,
        control_dsp_frac=ctrl,
        seed=seed,
    )
    nl = generate_accelerator(cfg)
    nl.validate()
    st_ = nl.stats()
    assert st_.n_dsp == total_dsps
    assert st_.n_lut == 400 and st_.n_ff == 450
    assert all(c.is_datapath is not None for c in nl.cells if c.ctype.is_dsp)
    for m in nl.macros:
        m.validate()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 1000), n_dsp=st.integers(1, 30), n_bram=st.integers(0, 8))
def test_legalizer_always_legal(seed, n_dsp, n_bram):
    """Property: random continuous placements legalize to legal states."""
    dev = small_device(n_dsp_cols=3, dsp_rows=12)
    rng = np.random.default_rng(seed)
    nl = Netlist("prop")
    anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(1.0, 1.0))
    cells = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(n_dsp)]
    cells += [nl.add_cell(f"b{i}", CellType.BRAM) for i in range(n_bram)]
    cells += [nl.add_cell(f"l{i}", CellType.LUT) for i in range(10)]
    nl.add_net("seed", anchor, [cells[0]])
    # random macros over a prefix of the DSPs
    i = 0
    while i + 2 <= n_dsp and rng.random() < 0.6:
        length = int(rng.integers(2, min(5, n_dsp - i) + 1))
        nl.add_macro(list(range(1, 1 + n_dsp))[i : i + length])
        i += length
    p = Placement(nl, dev)
    mov = nl.movable_indices()
    p.xy[mov] = rng.uniform([0, 0], [dev.width, dev.height], (len(mov), 2))
    Legalizer(dev).legalize(p)
    assert p.is_legal(), p.legality_violations()[:3]


@settings(max_examples=30, deadline=None)
@given(
    d1=st.floats(0, 5000, allow_nan=False),
    d2=st.floats(0, 5000, allow_nan=False),
    det=st.floats(1.0, 2.5, allow_nan=False),
)
def test_delay_model_monotone(d1, d2, det):
    """Property: net delay is monotone in distance and detour."""
    dm = DelayModel()
    lo, hi = sorted([d1, d2])
    assert dm.net_delay(lo) <= dm.net_delay(hi) + 1e-12
    assert dm.net_delay(hi, det) >= dm.net_delay(hi) - 1e-12
    assert dm.cascade_delay(True, hi, det) <= dm.cascade_delay(False, hi, det)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), shift=st.floats(-50, 50, allow_nan=False))
def test_hpwl_translation_invariance(seed, shift):
    """Property: HPWL is invariant under global translation."""
    dev = small_device()
    rng = np.random.default_rng(seed)
    nl = Netlist("p")
    for i in range(8):
        nl.add_cell(f"c{i}", CellType.LUT)
    for j in range(6):
        a, b = rng.integers(0, 8, 2)
        if a != b:
            nl.add_net(f"n{j}", int(a), [int(b)])
    if not nl.nets:
        return
    p = Placement(nl, dev)
    p.xy[:] = rng.uniform(0, 500, p.xy.shape)
    h = p.hpwl()
    p2 = p.copy()
    p2.xy += shift
    assert p2.hpwl() == pytest.approx(h, rel=1e-9, abs=1e-6)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sta_slack_antitone_in_net_stretch(seed):
    """Property: moving one cell farther from its driver cannot improve WNS."""
    from repro.timing import StaticTimingAnalyzer

    dev = small_device()
    rng = np.random.default_rng(seed)
    nl = Netlist("sta")
    a = nl.add_cell("ffa", CellType.FF)
    b = nl.add_cell("ffb", CellType.FF)
    anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
    nl.add_net("n0", anchor, [a])
    nl.add_net("n1", a, [b])
    p = Placement(nl, dev)
    p.xy[a] = rng.uniform(0, 200, 2)
    p.xy[b] = p.xy[a] + rng.uniform(0, 50, 2)
    sta = StaticTimingAnalyzer(nl)
    w1 = sta.analyze(p, period_ns=5.0).wns_ns
    p.xy[b] = p.xy[a] + rng.uniform(100, 400, 2)
    w2 = sta.analyze(p, period_ns=5.0).wns_ns
    assert w2 <= w1 + 1e-12
