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

#: Global-placement iterations of one pass.
N_ITERATIONS = 6
#: Swap-refinement passes after legalization.
REFINE_PASSES = 2
#: Criticality boost of the timing-driven round (:func:`td_criticality_weights`).
TD_BOOST = 2.0


def td_criticality_weights(
    slack: np.ndarray,
    net_driver: np.ndarray,
    weights: np.ndarray,
    period: float,
    boost: float,
) -> np.ndarray:
    """Per-net timing-driven weights, one gather over the net→driver array.

    ``crit = clip(1 − slack/period, 0, 1)`` of each net's driver scales the
    net's weight by ``1 + boost·crit``. Nets whose driver has NaN slack
    (a cell outside the timed graph) keep their weight.
    """
    s = slack[net_driver]
    crit = np.clip(1.0 - s / period, 0.0, 1.0)
    return np.where(np.isnan(s), weights, weights * (1.0 + boost * crit))


class VivadoLikePlacer:
    """Wirelength-driven analytical flow (global → legalize → refine).

    With ``timing_driven=True`` the flow adds one Vivado-style net
    reweighting round: STA computes every cell's output slack (backward
    required-time pass), each net's weight is scaled by its driver's
    criticality, and the design is re-placed. Off by default — the paper
    evaluates against Vivado's stock placement at the break frequency, and
    Table II's shape is defined against that baseline; ablation A6
    measures what the extra round buys.
    """

    name = "vivado"

    def __init__(self, seed: int = 0, timing_driven: bool = False, *, device: Device) -> None:
        self.seed = seed
        self.timing_driven = timing_driven
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

            period = 1e3 / netlist.target_freq_mhz if netlist.target_freq_mhz else 5.0
            report = StaticTimingAnalyzer(netlist).analyze(
                place, period_ns=period, with_slacks=True
            )
            nets = netlist.nets
            original = [net.weight for net in nets]
            new_w = td_criticality_weights(
                np.asarray(report.cell_output_slack, dtype=np.float64),
                get_csr(netlist).net_driver,
                np.asarray(original, dtype=np.float64),
                period,
                TD_BOOST,
            )
            try:
                for net, w in zip(nets, new_w.tolist()):
                    net.weight = w
                return self._one_pass(netlist, place, movable_mask)
            finally:
                for net, w0 in zip(nets, original):
                    net.weight = w0

    def _one_pass(self, netlist, placement, movable_mask) -> Placement:
        # a temporary engine: its clique system is freed before legalization
        place = QuadraticGlobalPlacer(
            GlobalPlaceConfig(n_iterations=N_ITERATIONS, avoid_ps=True, seed=self.seed)
        ).place(netlist, self.device, placement=placement, movable_mask=movable_mask)
        Legalizer(self.device).legalize(place, movable_mask=movable_mask)
        refine_sites(place, passes=REFINE_PASSES, movable_mask=movable_mask, seed=self.seed)
        return place
