"""Vivado-like baseline placer.

Stands in for AMD Xilinx Vivado 2020.2 in the Table II comparison: a
competent, fast, wirelength-driven flow — quadratic global placement with
PS-aware spreading, macro-aware legalization, then swap refinement. It has
no notion of datapath order (that is DSPlacer's contribution), so cascade
macros land wherever wirelength pulls them.
"""

from __future__ import annotations

import numpy as np

from repro.fpga.device import Device
from repro.netlist.csr import get_csr
from repro.netlist.netlist import Netlist
from repro.obs import trace
from repro.placers.analytical import GlobalPlaceConfig, QuadraticGlobalPlacer
from repro.placers.detailed import refine_sites
from repro.placers.legalizer import Legalizer
from repro.placers.placement import Placement


def td_criticality_weights(
    slack: np.ndarray,
    net_driver: np.ndarray,
    base_weights: np.ndarray,
    current_weights: np.ndarray,
    period: float,
    boost: float,
) -> np.ndarray:
    """Per-net timing-driven weights, one gather over the net→driver array.

    ``crit = clip(1 − slack/period, 0, 1)`` of each net's driver scales the
    net's *base* (pre-reweighting) weight by ``1 + boost·crit``. Drivers
    with NaN slack (cells outside the timed graph) keep the net's *current*
    weight — matching the per-net loop this replaces, which skipped those
    nets and thereby preserved whatever weight the previous round set.
    """
    s = slack[net_driver]
    crit = np.clip(1.0 - s / period, 0.0, 1.0)
    boosted = base_weights * (1.0 + boost * crit)
    return np.where(np.isnan(s), current_weights, boosted)


class VivadoLikePlacer:
    """Wirelength-driven analytical flow (global → legalize → refine).

    With ``timing_driven=True`` the flow adds Vivado-style net reweighting
    rounds: STA computes every cell's output slack (backward required-time
    pass), each net's weight is scaled by its driver's criticality, and the
    design is re-placed. Off by default — the paper evaluates against
    Vivado's stock placement at the break frequency, and Table II's shape
    is defined against that baseline; the ablation bench measures what the
    extra rounds buy.
    """

    name = "vivado"

    def __init__(
        self,
        seed: int = 0,
        n_iterations: int = 6,
        refine_passes: int = 2,
        timing_driven: bool = False,
        td_rounds: int = 1,
        td_boost: float = 2.0,
        pack_ble: bool = False,
        *,
        device: Device,
    ) -> None:
        self.seed = seed
        self.n_iterations = n_iterations
        self.refine_passes = refine_passes
        self.timing_driven = timing_driven
        self.td_rounds = td_rounds
        self.td_boost = td_boost
        self.pack_ble = pack_ble
        self.device = device

    def place(
        self,
        netlist: Netlist,
        placement: Placement | None = None,
        movable_mask: np.ndarray | None = None,
    ) -> Placement:
        """Full placement of all movable cells; returns a legal placement."""
        with trace.span("placer.vivado", timing_driven=self.timing_driven):
            place = self._one_pass(netlist, placement, movable_mask)
            if not self.timing_driven:
                return place
            from repro.timing.sta import StaticTimingAnalyzer

            sta = StaticTimingAnalyzer(netlist)
            period = 1e3 / netlist.target_freq_mhz if netlist.target_freq_mhz else 5.0
            original = [net.weight for net in netlist.nets]
            try:
                for _ in range(self.td_rounds):
                    report = sta.analyze(place, period_ns=period, with_slacks=True)
                    slack = report.cell_output_slack
                    nets = netlist.nets
                    current = np.fromiter(
                        (net.weight for net in nets), dtype=np.float64, count=len(nets)
                    )
                    new_w = td_criticality_weights(
                        np.asarray(slack, dtype=np.float64),
                        get_csr(netlist).net_driver,
                        np.asarray(original, dtype=np.float64),
                        current,
                        period,
                        self.td_boost,
                    )
                    for net, w in zip(nets, new_w.tolist()):
                        net.weight = w
                    place = self._one_pass(netlist, place, movable_mask)
            finally:
                for net, w0 in zip(netlist.nets, original):
                    net.weight = w0
            return place

    def _one_pass(self, netlist, placement, movable_mask) -> Placement:
        # a temporary engine: its clique system is freed before legalization
        place = QuadraticGlobalPlacer(
            GlobalPlaceConfig(n_iterations=self.n_iterations, avoid_ps=True, seed=self.seed)
        ).place(netlist, self.device, placement=placement, movable_mask=movable_mask)
        if self.pack_ble:
            from repro.placers.packing import apply_packing, pack_lut_ff_pairs

            apply_packing(place, pack_lut_ff_pairs(netlist))
        Legalizer(self.device).legalize(place, movable_mask=movable_mask)
        refine_sites(
            place, passes=self.refine_passes, movable_mask=movable_mask, seed=self.seed
        )
        return place
