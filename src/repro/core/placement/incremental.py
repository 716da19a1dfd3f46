"""Incremental alternation (paper Fig. 6).

DSPlacer's outer loop alternates between (a) placing the datapath DSPs with
everything else fixed — the assignment + legalization stages — and
(b) fixing the datapath DSPs and re-placing the remaining components, which
lets the rest of the design contract around the new DSP skeleton and
"alleviat[es] detours caused by the datapath-driven approach".
"""

from __future__ import annotations

from repro.fpga.device import Device
from repro.netlist.csr import get_csr
from repro.netlist.netlist import Netlist
from repro.obs import metrics
from repro.placers.analytical import GlobalPlaceConfig, QuadraticGlobalPlacer
from repro.placers.detailed import refine_sites
from repro.placers.legalizer import Legalizer
from repro.placers.placement import Placement


def replace_other_components(
    netlist: Netlist,
    device: Device,
    placement: Placement,
    frozen_dsps: list[int],
    n_iterations: int = 3,
    seed: int = 0,
) -> Placement:
    """Re-place every movable cell except the frozen datapath DSPs.

    The frozen DSPs keep their legalized sites and act as fixed anchors for
    the quadratic solve; everything else (logic, BRAM, control DSPs) is
    globally re-placed, legalized around them and locally refined.
    """
    movable = ~get_csr(netlist).is_fixed
    movable[list(frozen_dsps)] = False
    metrics.inc("incremental.replaces")
    metrics.gauge("incremental.frozen_dsps", len(frozen_dsps))
    engine = QuadraticGlobalPlacer(
        GlobalPlaceConfig(n_iterations=n_iterations, avoid_ps=True, seed=seed)
    )
    place = engine.place(netlist, device, placement=placement, movable_mask=movable)
    Legalizer(device).legalize(place, movable_mask=movable)
    refine_sites(place, passes=1, movable_mask=movable, seed=seed)
    return place
