"""Pre-implementation netlist substrate.

Models the post-synthesis, pre-placement netlist the paper takes as input:
heterogeneous cells (LUT, LUTRAM, FF, CARRY, DSP, BRAM, IO, PS), multi-pin
nets, and DSP cascade macros (chains that must occupy consecutive sites in
one device DSP column).
"""

from repro.netlist.cell import Cell, CellType
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist, NetlistStats
from repro.netlist.macros import CascadeMacro
from repro.netlist.csr import NetlistCSR, build_csr, connectivity_matrix, get_csr
from repro.netlist.io import netlist_to_json, netlist_from_json, save_netlist, load_netlist
from repro.netlist.validate import netlist_problems, validate_netlist
from repro.netlist.verilog import netlist_to_verilog, save_verilog

__all__ = [
    "Cell",
    "CellType",
    "Net",
    "Netlist",
    "NetlistStats",
    "CascadeMacro",
    "NetlistCSR",
    "build_csr",
    "get_csr",
    "connectivity_matrix",
    "netlist_to_json",
    "netlist_from_json",
    "save_netlist",
    "load_netlist",
    "netlist_problems",
    "validate_netlist",
    "netlist_to_verilog",
    "save_verilog",
]
