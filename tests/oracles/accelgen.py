"""The accelerator generator, one cell and one net at a time: the filler
section draws and emits each cluster in turn. The product plans the same
draws first and emits the section in blocks; its netlists must equal
these."""

from __future__ import annotations

import numpy as np

from repro.accelgen.config import AcceleratorConfig
from repro.accelgen.generator import (
    CASCADE_NET_WEIGHT,
    CONTROL_NET_WEIGHT,
    DATA_NET_WEIGHT,
    _Builder,
    _chain_plan,
)
from repro.fpga.device import Device
from repro.netlist.cell import CellType
from repro.netlist.netlist import Netlist


def generate_accelerator_reference(
    cfg: AcceleratorConfig,
    device: Device | None = None,
    seed: int | None = None,
) -> Netlist:
    """Generate one CNN-accelerator netlist.

    Args:
        cfg: Shape/budget configuration (see :class:`AcceleratorConfig`).
        device: Target device; used to pin the PS cell and IO pads to real
            coordinates. Without a device, fixed cells sit on a synthetic
            1000×1000 µm frame.
        seed: Overrides ``cfg.seed``.

    Returns:
        A validated :class:`~repro.netlist.Netlist` with ground-truth
        ``is_datapath`` labels on every DSP cell.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    b = _Builder(cfg, rng)

    if device is not None:
        frame_w, frame_h = device.width, device.height
        if device.ps is not None:
            ps_xy = device.ps.ps_to_pl_xy
        else:
            # PS-less fabric (e.g. slot_fabric): anchor the PS cell near the
            # bottom-left corner so the datapath-angle geometry still holds
            ps_xy = (frame_w / 20.0, frame_h / 20.0)
    else:
        ps_xy = (100.0, 100.0)
        frame_w = frame_h = 1000.0
    ps = b.cell("ps", CellType.PS, fixed_xy=ps_xy, role="ps")

    # ------------------------------------------------------------------
    # AXI-in pipeline: PS -> LUT -> FF (two stages, bus width 16)
    # ------------------------------------------------------------------
    bus_w = 16
    axi_in_ffs: list[int] = []
    stage_src = [ps] * bus_w
    for stage in range(2):
        next_src: list[int] = []
        for lane in range(bus_w):
            lut = b.cell("axi_in/lut", CellType.LUT, role="axi_in")
            ff = b.cell("axi_in/ff", CellType.FF, role="axi_in")
            b.net("axi_in", stage_src[lane], [lut])
            b.net("axi_in_q", lut, [ff])
            next_src.append(ff)
        stage_src = next_src
    axi_in_ffs = stage_src

    # ------------------------------------------------------------------
    # Buffers: split the BRAM budget
    # ------------------------------------------------------------------
    bram_budget = cfg.n_bram
    n_act = max(2, int(bram_budget * 0.35))
    n_wt = max(2, int(bram_budget * 0.40))
    n_out = max(1, int(bram_budget * 0.10))

    act_brams = [b.cell("buf/act", CellType.BRAM, role="act_buf") for _ in range(n_act)]
    wt_brams = [b.cell("buf/wt", CellType.BRAM, role="wt_buf") for _ in range(n_wt)]
    out_brams = [b.cell("buf/out", CellType.BRAM, role="out_buf") for _ in range(n_out)]
    for i, bram in enumerate(act_brams + wt_brams):
        b.net("axi_wr", axi_in_ffs[i % bus_w], [bram])

    # ------------------------------------------------------------------
    # Processing units: a layer pipeline PS → PU0 → PU1 → ... → PS.
    # Each PU's activation BRAMs are written by the previous PU's
    # accumulator (PU0's by the AXI-in stage) and read by its PEs — the
    # inter-PU hops are the PS↔PL datapath DSPlacer orders (Fig. 5(a)).
    # ------------------------------------------------------------------
    chains, n_postproc = _chain_plan(cfg)
    n_pu = max(1, (len(chains) + cfg.pes_per_pu - 1) // cfg.pes_per_pu)
    # post-processing (bias add / quantization) DSP budget per PU
    pp_per_pu = [n_postproc // n_pu + (1 if i < n_postproc % n_pu else 0) for i in range(n_pu)]
    weight_regs: list[int] = []  # control fanout targets
    acc_ffs: list[int] = []
    chain_i = 0
    prev_stage_out: int | None = None  # accumulator FF of the previous PU
    # distribute activation BRAMs across PUs
    act_of_pu: list[list[int]] = [[] for _ in range(n_pu)]
    for i, bram in enumerate(act_brams):
        act_of_pu[i % n_pu].append(bram)
    for pu in range(n_pu):
        pu_chains = chains[chain_i : chain_i + cfg.pes_per_pu]
        chain_i += len(pu_chains)
        if not pu_chains:
            break
        pu_acts = act_of_pu[pu] or [act_brams[pu % len(act_brams)]]
        # fill the PU's activation buffers from the previous pipeline stage
        if prev_stage_out is None:
            for i, bram in enumerate(pu_acts):
                b.net("act_wr", axi_in_ffs[i % bus_w], [bram], weight=CASCADE_NET_WEIGHT)
        else:
            b.net("act_wr", prev_stage_out, pu_acts, weight=CASCADE_NET_WEIGHT)
        pe_outs: list[int] = []
        for pe, length in enumerate(pu_chains):
            # line buffer: act BRAM -> im2col LUT -> LUTRAM -> first DSP
            pu_act = pu_acts[pe % len(pu_acts)]
            im2col = b.cell(f"pu{pu}/pe{pe}/im2col", CellType.LUT, role="im2col", pu=pu, pe=pe)
            lb = b.cell(f"pu{pu}/pe{pe}/linebuf", CellType.LUTRAM, role="linebuf", pu=pu, pe=pe)
            b.net("act_rd", pu_act, [im2col], weight=CASCADE_NET_WEIGHT)
            b.net("im2col", im2col, [lb], weight=CASCADE_NET_WEIGHT)

            dsps: list[int] = []
            wt_bram = wt_brams[(pu * cfg.pes_per_pu + pe) % len(wt_brams)]
            stage1: list[int] = []
            for k in range(length):
                dsp = b.cell(
                    f"pu{pu}/pe{pe}/dsp",
                    CellType.DSP,
                    is_datapath=True,
                    role="pe_dsp",
                    pu=pu,
                    pe=pe,
                    k=k,
                )
                # double-buffered weight fetch: BRAM -> wbuf -> wreg -> DSP,
                # so the slow global fetch is decoupled from the DSP input
                wbuf = b.cell(f"pu{pu}/pe{pe}/wbuf", CellType.FF, role="wt_buf_reg", pu=pu, pe=pe)
                wff = b.cell(f"pu{pu}/pe{pe}/wreg", CellType.FF, role="wt_reg", pu=pu, pe=pe)
                b.net("wbuf_q", wbuf, [wff], weight=0.5)
                b.net("wreg_q", wff, [dsp], weight=DATA_NET_WEIGHT)
                stage1.append(wbuf)
                weight_regs.append(wff)
                dsps.append(dsp)
            b.net("wt_rd", wt_bram, stage1, weight=0.5)
            b.net("act_in", lb, [dsps[0]], weight=CASCADE_NET_WEIGHT)
            for k in range(length - 1):
                b.net("cascade", dsps[k], [dsps[k + 1]], weight=CASCADE_NET_WEIGHT)
            b.nl.add_macro(dsps)
            pe_outs.append(dsps[-1])

        # adder tree: reduce PE outputs pairwise with CARRY (+helper LUT)
        level = pe_outs
        while len(level) > 1:
            nxt: list[int] = []
            for i in range(0, len(level) - 1, 2):
                carry = b.cell(f"pu{pu}/add/carry", CellType.CARRY, role="adder", pu=pu)
                helper = b.cell(f"pu{pu}/add/lut", CellType.LUT, role="adder", pu=pu)
                b.net("add_a", level[i], [carry, helper], weight=CASCADE_NET_WEIGHT)
                b.net("add_b", level[i + 1], [carry], weight=CASCADE_NET_WEIGHT)
                b.net("add_h", helper, [carry])
                nxt.append(carry)
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        acc = b.cell(f"pu{pu}/acc", CellType.FF, role="acc", pu=pu)
        b.net("acc_d", level[0], [acc], weight=CASCADE_NET_WEIGHT)
        acc_ffs.append(acc)
        # post-processing stage: bias add / re-quantization DSPs between the
        # accumulator and the next pipeline stage. Genuinely datapath (they
        # sit on the PS↔PL stream) but storage-flanked like control DSPs —
        # the "gray zone" the identification study has to resolve.
        stage_out = acc
        for q in range(pp_per_pu[pu]):
            pp = b.cell(
                f"pu{pu}/postproc/dsp",
                CellType.DSP,
                is_datapath=True,
                role="pp_dsp",
                pu=pu,
            )
            bias = b.cell(f"pu{pu}/postproc/bias", CellType.LUTRAM, role="bias", pu=pu)
            b.net("bias_rd", bias, [pp], weight=DATA_NET_WEIGHT)
            b.net("pp_d", stage_out, [pp], weight=CASCADE_NET_WEIGHT)
            if q == 0:
                b.net("pp_out", pp, [out_brams[pu % len(out_brams)]], weight=DATA_NET_WEIGHT)
            stage_out = pp
        prev_stage_out = stage_out
    # the last pipeline stage drains into the output buffers
    if prev_stage_out is not None:
        b.net("stage_out", prev_stage_out, out_brams, weight=CASCADE_NET_WEIGHT)

    # ------------------------------------------------------------------
    # AXI-out pipeline: out BRAMs -> LUT -> FF -> PS
    # ------------------------------------------------------------------
    for i, bram in enumerate(out_brams):
        lut = b.cell("axi_out/lut", CellType.LUT, role="axi_out")
        ff = b.cell("axi_out/ff", CellType.FF, role="axi_out")
        b.net("axi_rd", bram, [lut])
        b.net("axi_rd_q", lut, [ff])
        b.net("axi_out", ff, [ps])

    # ------------------------------------------------------------------
    # Control path: FSM ring with feedback + storage-heavy control DSPs
    # ------------------------------------------------------------------
    n_fsm = int(np.clip(cfg.total_dsps // 8, 16, 96))
    fsm_luts = [b.cell("ctrl/fsm/lut", CellType.LUT, role="fsm") for _ in range(n_fsm)]
    fsm_ffs = [b.cell("ctrl/fsm/ff", CellType.FF, role="fsm") for _ in range(n_fsm)]
    for i in range(n_fsm):
        sinks = [fsm_ffs[i]]
        b.net("fsm_d", fsm_luts[i], sinks, weight=CONTROL_NET_WEIGHT)
        nxt = [fsm_luts[(i + 1) % n_fsm]]
        if i % 4 == 0:
            nxt.append(fsm_luts[i])  # feedback loop (control-path hallmark)
        b.net("fsm_q", fsm_ffs[i], nxt, weight=CONTROL_NET_WEIGHT)

    all_brams = act_brams + wt_brams + out_brams
    n_ctrl = cfg.n_control_dsps
    counters = [
        b.cell("ctrl/counter", CellType.LUTRAM, role="counter") for _ in range(max(2, n_ctrl))
    ]
    for i, ctr in enumerate(counters):
        b.net("ctr_en", fsm_ffs[i % n_fsm], [ctr], weight=CONTROL_NET_WEIGHT)

    # Control DSPs are address generators / loop-bound multipliers. Locally
    # they are wired like datapath DSPs (2-3 inputs, 1-2 outputs; the wide
    # address/enable fan-out hides behind a register layer, and some pairs
    # even cascade) — distinguishing them requires the global graph view,
    # which is exactly Fig. 7's point.
    prev_ctrl: int | None = None
    for c in range(n_ctrl):
        dsp = b.cell("ctrl/dsp", CellType.DSP, is_datapath=False, role="ctrl_dsp")
        if prev_ctrl is not None:
            # cascaded address-generator pair
            b.net("ctrl_cascade", prev_ctrl, [dsp], weight=CONTROL_NET_WEIGHT)
            b.nl.add_macro([prev_ctrl, dsp])
            srcs = [counters[c % len(counters)]]
            prev_ctrl = None
        else:
            srcs = [fsm_ffs[(2 * c) % n_fsm], counters[c % len(counters)]]
            if c % 4 == 0 and c + 1 < n_ctrl:
                prev_ctrl = dsp  # head of a cascaded pair
        for s in srcs:
            b.net("ctrl_in", s, [dsp], weight=CONTROL_NET_WEIGHT)
        # one registered output; the wide fan-out hangs off the register
        addr_ff = b.cell("ctrl/addr_ff", CellType.FF, role="ctrl")
        b.net("ctrl_addr_d", dsp, [addr_ff], weight=CONTROL_NET_WEIGHT)
        n_addr = min(len(all_brams), int(rng.integers(4, 9)))
        addr_sinks = list(rng.choice(all_brams, size=n_addr, replace=False))
        n_en = min(len(weight_regs), int(rng.integers(12, 33)))
        en_sinks = list(rng.choice(weight_regs, size=n_en, replace=False)) if n_en else []
        sinks = addr_sinks + en_sinks
        if acc_ffs:
            sinks.append(acc_ffs[c % len(acc_ffs)])
        sinks.append(fsm_luts[c % n_fsm])  # status feedback into the FSM
        b.net("ctrl_addr_q", addr_ff, sinks, weight=CONTROL_NET_WEIGHT)

    # one global enable with very high fanout
    if weight_regs:
        n_en = min(len(weight_regs), 256)
        sinks = list(rng.choice(weight_regs, size=n_en, replace=False))
        b.net("global_en", fsm_ffs[0], sinks + acc_ffs, weight=CONTROL_NET_WEIGHT)

    # ------------------------------------------------------------------
    # Filler logic: bring LUT/FF/LUTRAM/BRAM totals to the Table I targets
    # ------------------------------------------------------------------
    def _pick(pool: list[int]) -> int:
        return pool[int(rng.integers(len(pool)))]

    while b.remaining(CellType.LUT, cfg.n_lut) > 4 and b.remaining(CellType.FF, cfg.n_ff) > 4:
        size = int(rng.integers(6, 18))
        size = min(
            size,
            b.remaining(CellType.LUT, cfg.n_lut),
            b.remaining(CellType.FF, cfg.n_ff),
        )
        prev = _pick(b.ff_pool)
        cluster_ffs: list[int] = []
        for _ in range(size):
            lut = b.cell("fill/lut", CellType.LUT, role="filler")
            ff = b.cell("fill/ff", CellType.FF, role="filler")
            b.net("fill", prev, [lut])
            b.net("fill_q", lut, [ff])
            prev = ff
            cluster_ffs.append(ff)
        if b.remaining(CellType.LUTRAM, cfg.n_lutram) > 0 and rng.random() < 0.35:
            lr = b.cell("fill/lutram", CellType.LUTRAM, role="filler")
            b.net("fill_lr", cluster_ffs[0], [lr])
            b.net("fill_lr_q", lr, [cluster_ffs[-1]])
        if b.remaining(CellType.BRAM, cfg.n_bram) > 0 and rng.random() < 0.02:
            br = b.cell("fill/bram", CellType.BRAM, role="filler")
            b.net("fill_br", cluster_ffs[0], [br])
        b.net("fill_out", prev, [_pick(b.lut_pool)])
    # burn down whichever of the LUT/FF budgets is still open (shift-register
    # chains for FFs, route-through logic for LUTs)
    while b.remaining(CellType.FF, cfg.n_ff) > 0:
        prev = _pick(b.ff_pool)
        for _ in range(min(16, b.remaining(CellType.FF, cfg.n_ff))):
            ff = b.cell("fill/srff", CellType.FF, role="filler")
            b.net("sr", prev, [ff])
            prev = ff
    while b.remaining(CellType.LUT, cfg.n_lut) > 0:
        # short combinational route-throughs anchored at a register so the
        # filler never creates deep unregistered paths
        prev = _pick(b.ff_pool)
        for _ in range(min(4, b.remaining(CellType.LUT, cfg.n_lut))):
            lut = b.cell("fill/rtlut", CellType.LUT, role="filler")
            b.net("rt", prev, [lut])
            prev = lut
    # and the leftover LUTRAM/BRAM budgets
    while b.remaining(CellType.LUTRAM, cfg.n_lutram) > 0:
        lr = b.cell("fill/lutram", CellType.LUTRAM, role="filler")
        b.net("fill_lr", _pick(b.ff_pool), [lr])
        b.net("fill_lr_q", lr, [_pick(b.lut_pool)])
    while b.remaining(CellType.BRAM, cfg.n_bram) > 0:
        br = b.cell("fill/bram", CellType.BRAM, role="filler")
        b.net("fill_br", _pick(b.ff_pool), [br])
        b.net("fill_br_q", br, [int(rng.choice(b.lut_pool))])

    # ------------------------------------------------------------------
    # IO pads around the frame, hooked into the fabric
    # ------------------------------------------------------------------
    n_io = 32
    for i in range(n_io):
        t = i / n_io
        if i % 2 == 0:
            xy = (frame_w * t, frame_h - 1.0)
        else:
            xy = (frame_w - 1.0, frame_h * t)
        pad = b.cell("io/pad", CellType.IO, fixed_xy=xy, role="io")
        if i % 2 == 0:
            b.net("io_in", pad, [_pick(b.lut_pool)])
        else:
            b.net("io_out", _pick(b.ff_pool), [pad])

    b.nl.validate()
    return b.nl
