"""AMF-Placer-2.0-like baseline.

Models the published behaviour the paper observed when running AMF-Placer
2.0 (tuned for the PS-less VCU108) on the ZCU104 (Section V-D / Fig. 9):

- **strong mixed-size packing** — each cascade macro is collapsed to its
  centroid before legalization, so DSP chains come out very compact
  (Fig. 9(b): "a compact layout similar to DSPlacer");
- **no PS-corner awareness** — spreading ignores the PS keep-out, so the
  logic that lands in the PS shadow is displaced during legalization and
  the PS↔PL datapath ordering is destroyed ("fails to maintain the
  datapath information between PS and PL, resulting in a disordered
  datapath"), costing wirelength and timing;
- **heavier optimization loop** — more global-placement iterations, which
  is where its larger runtime in Table II comes from.
"""

from __future__ import annotations

import numpy as np

from repro.fpga.device import Device
from repro.netlist.netlist import Netlist
from repro.obs import trace
from repro.placers.analytical import GlobalPlaceConfig, QuadraticGlobalPlacer
from repro.placers.detailed import refine_sites
from repro.placers.legalizer import Legalizer
from repro.placers.placement import Placement

#: Global-placement iterations: more than the Vivado-like flow runs.
N_ITERATIONS = 14
#: Swap-refinement passes after legalization.
REFINE_PASSES = 1
#: VCU108 has ~1.5× the ZCU104's fabric in each dimension; AMF's density
#: targets assume that larger part.
FABRIC_SCALE = 1.5


class AMFLikePlacer:
    """Mixed-size analytical flow without PS awareness."""

    name = "amf"

    def __init__(self, seed: int = 0, *, device: Device) -> None:
        self.seed = seed
        self.device = device

    def place(
        self,
        netlist: Netlist,
        placement: Placement | None = None,
        movable_mask: np.ndarray | None = None,
    ) -> Placement:
        """Full placement of all movable cells; returns a legal placement."""
        with trace.span("placer.amf"):
            # a temporary engine: its clique system is freed before legalization
            place = QuadraticGlobalPlacer(
                GlobalPlaceConfig(
                    n_iterations=N_ITERATIONS,
                    avoid_ps=False,  # VCU108 tuning: no PS keep-out
                    use_net_weights=False,  # wirelength-only, criticality-blind
                    fabric_scale=FABRIC_SCALE,
                    seed=self.seed,
                )
            ).place(netlist, self.device, placement=placement, movable_mask=movable_mask)
            # mixed-size packing: rigid macros collapse onto their centroid so
            # the legalizer stacks each chain as compactly as possible
            for macro in netlist.macros:
                members = list(macro.dsps)
                if movable_mask is not None and not all(movable_mask[i] for i in members):
                    continue
                centroid = place.xy[members].mean(axis=0)
                place.xy[members] = centroid
            Legalizer(self.device).legalize(place, movable_mask=movable_mask)
            refine_sites(place, passes=REFINE_PASSES, movable_mask=movable_mask, seed=self.seed)
            return place
