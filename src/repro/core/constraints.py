"""DSP placement constraint export (the paper's output interface).

DSPlacer's product is a set of DSP location constraints consumed by the
downstream PnR tool ("Using our output DSP placement results as
constraints, the off-the-shelf FPGA PnR tool iteratively places other
components and performs routing"). This module emits them in Vivado XDC
form — ``set_property LOC DSP48E2_X<col>Y<row> [get_cells <name>]`` — and
parses them back, so a placement can round-trip through the constraint
file exactly like the real flow hands off to Vivado.
"""

from __future__ import annotations

import re

from repro.fpga.device import Device
from repro.netlist.netlist import Netlist
from repro.placers.placement import Placement

_LOC_RE = re.compile(
    r"set_property\s+LOC\s+DSP48E2_X(\d+)Y(\d+)\s+\[get_cells\s+\{?([^\}\]]+?)\}?\s*\]"
)


def dsp_constraints_to_xdc(
    placement: Placement, dsps: list[int] | None = None
) -> str:
    """Render DSP LOC constraints for (a subset of) placed DSP cells.

    Args:
        dsps: Cell indices to constrain; defaults to every DSP with an
            assigned site (DSPlacer passes its datapath set).

    Returns:
        XDC text, one ``set_property LOC`` line per DSP, sorted by site.
    """
    nl = placement.netlist
    dev = placement.device
    sites = dev.sites("DSP")
    if dsps is None:
        dsps = [c.index for c in nl.cells if c.ctype.is_dsp and placement.site[c.index] >= 0]
    lines = ["# DSP placement constraints emitted by DSPlacer (repro)"]
    rows = []
    for idx in dsps:
        sid = int(placement.site[idx])
        if sid < 0:
            raise ValueError(f"cell {nl.cells[idx].name!r} has no DSP site to constrain")
        site = sites[sid]
        rows.append((site.col, site.row, nl.cells[idx].name))
    for col, row, name in sorted(rows):
        lines.append(f"set_property LOC DSP48E2_X{col}Y{row} [get_cells {{{name}}}]")
    return "\n".join(lines) + "\n"


def apply_xdc_constraints(
    xdc_text: str, netlist: Netlist, device: Device, placement: Placement | None = None
) -> Placement:
    """Parse XDC LOC lines and pin the named DSPs onto their sites.

    Returns a placement with those DSPs site-assigned (other cells
    untouched); unknown cell names or out-of-range sites raise.
    """
    place = placement.copy() if placement is not None else Placement(netlist, device)
    for m in _LOC_RE.finditer(xdc_text):
        col, row, name = int(m.group(1)), int(m.group(2)), m.group(3).strip()
        cell = netlist.cell_by_name(name)
        if not cell.ctype.is_dsp:
            raise ValueError(f"constraint targets non-DSP cell {name!r}")
        ids = device.column_site_ids("DSP", col)
        if row >= len(ids):
            raise ValueError(f"DSP48E2_X{col}Y{row} does not exist on {device.name}")
        place.assign_site(cell.index, ids[row])
    return place
