"""The planned filler emits the netlist the per-cell build emits.

The generator plans its filler section (cluster sizes, pool picks, the
LUTRAM/BRAM coin flips) and then emits it in blocks. Its netlists must equal
those of the per-cell generator in ``tests/oracles/accelgen.py``, on drawn
budgets and seeds, and the hashes committed from the per-cell build.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accelgen import AcceleratorConfig, generate_accelerator, generate_suite
from repro.fpga import fabric_device, small_device
from repro.serve import netlist_content_hash
from tests.oracles import generate_accelerator_reference

DEV = small_device(n_dsp_cols=3, dsp_rows=12)

#: ``netlist_content_hash`` of ``generate_suite(suite, scale, zcu104 fabric,
#: seed)`` from the per-cell generator
GOLDEN = {
    ("ismartdnn", 0.05, 0): "e3e35dc62f15b04386f9854f3967cebd9ed8603a3e732ee53643e9e3dcad9639",
    ("ismartdnn", 0.05, 1): "58f64def25c542ddc4c153258ab89906293b295d93f952ca141bd15eab8251f6",
    ("skynet", 0.05, 0): "514ba7926f945dcf0c0e55c113c156f9b6de414ebf90ac8b6a7ce0c82dae5fa7",
    ("skynet", 0.05, 1): "774534277c0f07b0db09fc7160152edb74212094bbe982deb5925aef73943ed9",
    ("skrskr1", 0.05, 0): "81687227ed285aa622d65b2dce676b3008ac4271b7dffafadabe8b7fbe3ba6a4",
    ("skrskr1", 0.05, 1): "a5cb80fbc84e178e11906ea59a720a65fa465f4daf1632f1371e469a65ceb22d",
    ("skrskr2", 0.05, 0): "e2a521b6e652d85e6f67f3ab31abddeb913e8d287d1eb367c2f0e9ebb6df120c",
    ("skrskr2", 0.05, 1): "9ddcdb0ed7dcc94d1b5856d88ce4c70abcecffdd074f569ea6741a25b595e2b7",
    ("skrskr3", 0.05, 0): "f0b09b73d43273b5afee65c1d058d88a02c343716b81a4f9b6be5ecd495c9fb6",
    ("skrskr3", 0.05, 1): "b6f5f48a4a50fc6ebe1c73b9572d8d0bcaba1246ae1e8c34781eb290858ea434",
    ("skrskr2", 0.25, 0): "0b1aa54033f634652d9052915e023a9608c7919e10edcce6de7b59c1b3b8141a",
}


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{s}@{sc:g}/seed{n}" for s, sc, n in GOLDEN])
def test_golden_hashes(case):
    suite, scale, seed = case
    netlist = generate_suite(suite, scale=scale, device=fabric_device("zcu104", scale), seed=seed)
    assert netlist_content_hash(netlist) == GOLDEN[case]


def _tiny(**budgets) -> AcceleratorConfig:
    """24 DSPs whose structure alone takes 56 LUTs, 95 FFs, 9 LUTRAMs and
    5 BRAMs."""
    shape = dict(name="tiny", total_dsps=24, chain_len=4, pes_per_pu=2, freq_mhz=150.0, seed=3)
    return AcceleratorConfig(**shape, **budgets)


configs = st.builds(
    AcceleratorConfig,
    name=st.just("drawn"),
    total_dsps=st.integers(2, 48),
    chain_len=st.integers(2, 8),
    pes_per_pu=st.integers(1, 6),
    n_lut=st.integers(0, 900),
    n_lutram=st.integers(0, 60),
    n_ff=st.integers(0, 900),
    n_bram=st.integers(0, 24),
    freq_mhz=st.just(150.0),
    control_dsp_frac=st.sampled_from([0.0, 0.05, 0.2, 0.45]),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=150, deadline=None)
@given(configs, st.booleans())
# LUTRAM and BRAM budgets spent before the filler: no coin is flipped
@example(_tiny(n_lut=600, n_lutram=9, n_ff=600, n_bram=0), False)
# 7 LUTs and 9 FFs left: one cluster, cut short by the budgets
@example(_tiny(n_lut=63, n_lutram=40, n_ff=104, n_bram=12), True)
# 3 LUTs left: no cluster, only shift-register FFs and route-through LUTs
@example(_tiny(n_lut=59, n_lutram=20, n_ff=400, n_bram=9), False)
@example(
    AcceleratorConfig("no_ctrl", 30, 5, 3, 700, 50, 700, 20, 150.0, control_dsp_frac=0.0), True
)
def test_matches_per_cell_generator(cfg, with_device):
    device = DEV if with_device else None
    assert netlist_content_hash(generate_accelerator(cfg, device)) == netlist_content_hash(
        generate_accelerator_reference(cfg, device)
    )
