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
from repro.placers.analytical import QuadraticGlobalPlacer
from repro.placers.detailed import refine_sites
from repro.placers.legalizer import Legalizer
from repro.placers.placement import Placement


def replace_other_components(
    netlist: Netlist,
    device: Device,
    placement: Placement,
    frozen_dsps: list[int],
    engine: QuadraticGlobalPlacer,
) -> Placement:
    """Re-place every movable cell except the frozen datapath DSPs.

    The frozen DSPs keep their legalized sites and act as fixed anchors for
    the quadratic solve; everything else (logic, BRAM, control DSPs) is
    globally re-placed by ``engine``, legalized around them and locally
    refined with the engine's seed. DSPlacer hands every pass the same
    engine, which builds the clique system once while the frozen set and
    the net weights stay the same.
    """
    movable = ~get_csr(netlist).is_fixed
    movable[list(frozen_dsps)] = False
    metrics.inc("incremental.replaces")
    metrics.gauge("incremental.frozen_dsps", len(frozen_dsps))
    place = engine.place(netlist, device, placement=placement, movable_mask=movable)
    Legalizer(device).legalize(place, movable_mask=movable)
    refine_sites(place, passes=1, movable_mask=movable, seed=engine.config.seed)
    return place
