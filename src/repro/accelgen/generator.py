"""CNN-accelerator netlist generation.

Builds a pre-implementation netlist with the structure of Fig. 1(b):

```
PS ─ AXI-in ─ act/weight BRAM buffers ─ line buffers ─ PU[ PE[ DSP cascade ]
     ... adder tree ─ accumulator ─ output BRAM ] ─ AXI-out ─ PS
FSM ─ control DSPs (address generators) ─ buffers / weight regs / accumulators
```

Datapath DSPs sit in cascade chains with few storage neighbours; control
DSPs fan out to many BRAMs/FFs/LUTRAMs and sit between the FSM and the
datapath — reproducing the structural signal Section III of the paper
exploits (centrality separation, storage-element association).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.accelgen.config import AcceleratorConfig
from repro.fpga.device import Device
from repro.netlist.cell import CellType
from repro.netlist.netlist import Netlist

#: Net weights by role: cascade nets are the timing-critical datapath.
CASCADE_NET_WEIGHT = 3.0
DATA_NET_WEIGHT = 1.0
CONTROL_NET_WEIGHT = 0.5


class _Builder:
    """Incremental netlist builder with per-prefix name counters and budgets."""

    def __init__(self, cfg: AcceleratorConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        self.rng = rng
        self.nl = Netlist(cfg.name)
        self.nl.target_freq_mhz = cfg.freq_mhz
        self._name_counts: Counter[str] = Counter()
        self.used: Counter[CellType] = Counter()
        self.ff_pool: list[int] = []  # anchor candidates for filler/IO hookup
        self.lut_pool: list[int] = []

    def cell(
        self,
        prefix: str,
        ctype: CellType,
        *,
        is_datapath: bool | None = None,
        fixed_xy: tuple[float, float] | None = None,
        **attrs,
    ) -> int:
        n = self._name_counts[prefix]
        self._name_counts[prefix] += 1
        idx = self.nl.add_cell(
            f"{prefix}_{n}", ctype, is_datapath=is_datapath, fixed_xy=fixed_xy, attrs=attrs
        )
        self.used[ctype] += 1
        if ctype is CellType.FF:
            self.ff_pool.append(idx)
        elif ctype is CellType.LUT:
            self.lut_pool.append(idx)
        return idx

    def net(self, name: str, driver: int, sinks, weight: float = DATA_NET_WEIGHT) -> int:
        n = self._name_counts[f"net:{name}"]
        self._name_counts[f"net:{name}"] += 1
        return self.nl.add_net(f"{name}_{n}", driver, sinks, weight=weight)

    def remaining(self, ctype: CellType, target: int) -> int:
        return max(0, target - self.used[ctype])

    def pick(self, pool: list[int]) -> int:
        return pool[int(self.rng.integers(len(pool)))]

    def names(self, prefixes: tuple[str, ...], codes: list[int], key: str = "") -> list[str]:
        """Names of a planned block whose item k has prefix
        ``prefixes[codes[k]]``; each prefix's counter goes on from
        :meth:`cell` / :meth:`net` (``key="net:"`` for nets)."""
        codes_arr = np.array(codes, dtype=np.int64)
        out = np.empty(codes_arr.size, dtype=object)
        for k, prefix in enumerate(prefixes):
            at = np.flatnonzero(codes_arr == k)
            n0 = self._name_counts[key + prefix]
            self._name_counts[key + prefix] += at.size
            out[at] = [f"{prefix}_{n}" for n in range(n0, n0 + at.size)]
        return out.tolist()


#: filler cells by plan code: kinds, and name prefixes
_FILL_KINDS = (CellType.LUT, CellType.FF, CellType.LUTRAM, CellType.BRAM, CellType.FF, CellType.LUT)
_FILL_CELLS = ("fill/lut", "fill/ff", "fill/lutram", "fill/bram", "fill/srff", "fill/rtlut")
#: filler net names by plan code (every filler net has one sink)
_FILL_NETS = (
    "fill", "fill_q", "fill_lr", "fill_lr_q", "fill_br", "fill_br_q", "fill_out", "sr", "rt"
)


def _filler(b: _Builder, cfg: AcceleratorConfig) -> None:
    """Bring the LUT/FF/LUTRAM/BRAM totals to the Table I targets: LUT/FF
    clusters with occasional LUTRAM/BRAM taps, then shift-register FFs,
    route-through LUTs and the leftover LUTRAMs/BRAMs.

    The RNG draws (cluster sizes, pool picks, coin flips) depend only on
    budgets and pool lengths, never on the cells. So the section is planned
    first, with the same draws in the same order as a cell-by-cell build (a
    coin is not flipped once its budget is spent), and then emitted as one
    block of cells and one of nets: the same netlist.
    """
    LUT, FF, LR, BR, SRFF, RTLUT = range(6)
    FILL, FILL_Q, FILL_LR, FILL_LR_Q, FILL_BR, FILL_BR_Q, FILL_OUT, SR, RT = range(9)
    rng, ff_pool, lut_pool = b.rng, b.ff_pool, b.lut_pool
    budgets = dict(zip(_FILL_KINDS[:4], (cfg.n_lut, cfg.n_ff, cfg.n_lutram, cfg.n_bram)))
    n_lut, n_ff, n_lr, n_br = (b.remaining(t, n) for t, n in budgets.items())
    cells: list[int] = []  # plan code per cell
    nets: list[int] = []  # plan code per net
    drivers: list[int] = []
    sinks: list[int] = []  # every filler net has one sink
    nxt = len(b.nl)  # index of the next cell

    def net(code: int, driver: int, sink: int) -> None:
        nets.append(code)
        drivers.append(driver)
        sinks.append(sink)

    def chain(codes: list[int], net_codes: list[int], src: int) -> int:
        """Cells in a row, each driven by the one before and the first by
        ``src``; returns the first one's index."""
        nonlocal nxt
        first, nxt = nxt, nxt + len(codes)
        cells.extend(codes)
        nets.extend(net_codes)
        drivers.append(src)
        drivers.extend(range(first, nxt - 1))
        sinks.extend(range(first, nxt))
        return first

    while n_lut > 4 and n_ff > 4:
        size = min(int(rng.integers(6, 18)), n_lut, n_ff)
        n_lut, n_ff = n_lut - size, n_ff - size
        # LUT i at first + 2i feeds FF i at first + 2i + 1, which feeds LUT i + 1
        first = chain([LUT, FF] * size, [FILL, FILL_Q] * size, b.pick(ff_pool))
        lut_pool.extend(range(first, nxt, 2))
        ff_pool.extend(range(first + 1, nxt, 2))
        head, tail = first + 1, nxt - 1
        if n_lr > 0 and rng.random() < 0.35:
            cells.append(LR)
            net(FILL_LR, head, nxt)
            net(FILL_LR_Q, nxt, tail)
            nxt, n_lr = nxt + 1, n_lr - 1
        if n_br > 0 and rng.random() < 0.02:
            cells.append(BR)
            net(FILL_BR, head, nxt)
            nxt, n_br = nxt + 1, n_br - 1
        net(FILL_OUT, tail, b.pick(lut_pool))
    # burn down whichever of the LUT/FF budgets is still open (shift-register
    # chains for FFs; for LUTs, short route-throughs anchored at a register so
    # the filler never creates deep unregistered paths)
    while n_ff > 0:
        k = min(16, n_ff)
        n_ff -= k
        ff_pool.extend(range(chain([SRFF] * k, [SR] * k, b.pick(ff_pool)), nxt))
    while n_lut > 0:
        k = min(4, n_lut)
        n_lut -= k
        lut_pool.extend(range(chain([RTLUT] * k, [RT] * k, b.pick(ff_pool)), nxt))
    # and the leftover LUTRAM/BRAM budgets
    for _ in range(n_lr):
        cells.append(LR)
        net(FILL_LR, b.pick(ff_pool), nxt)
        net(FILL_LR_Q, nxt, b.pick(lut_pool))
        nxt += 1
    for _ in range(n_br):
        cells.append(BR)
        net(FILL_BR, b.pick(ff_pool), nxt)
        net(FILL_BR_Q, nxt, int(rng.choice(lut_pool)))
        nxt += 1
    for t, n in budgets.items():
        b.used[t] = max(b.used[t], n)

    b.nl.add_cells(
        b.names(_FILL_CELLS, cells),
        [_FILL_KINDS[k] for k in cells],
        attrs=[{"role": "filler"} for _ in cells],
    )
    b.nl.add_nets(b.names(_FILL_NETS, nets, key="net:"), drivers, list(zip(sinks)))


def _chain_plan(cfg: AcceleratorConfig) -> tuple[list[int], int]:
    """Split the datapath DSP budget into PE cascade chains + post-processing DSPs.

    Roughly one post-processing (bias/quantization) DSP per PU is reserved;
    whatever the chain split leaves over joins the post-processing pool so
    the total datapath DSP count is exact.
    """
    budget = cfg.n_datapath_dsps
    if budget < 2:
        # degenerate tiny config; borrow control DSP slots for one chain
        return [cfg.chain_len], 0
    reserve = max(1, budget // (cfg.chain_len * cfg.pes_per_pu))
    if budget - reserve < 2:
        reserve = budget - 2  # shrink the reserve before overflowing the budget
    n = budget - reserve
    chains: list[int] = []
    while n >= cfg.chain_len:
        chains.append(cfg.chain_len)
        n -= cfg.chain_len
    if n >= 2:
        chains.append(n)  # one truncated chain when the budget is short
        n = 0
    if n == 1:
        chains[-1] += 1  # a single leftover DSP joins the last chain
    n_postproc = budget - sum(chains)
    return chains, n_postproc


def generate_accelerator(
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
    _filler(b, cfg)

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
            b.net("io_in", pad, [b.pick(b.lut_pool)])
        else:
            b.net("io_out", b.pick(b.ff_pool), [pad])

    b.nl.validate()
    return b.nl
