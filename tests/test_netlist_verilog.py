"""Structural Verilog exporter."""

import re

from repro.netlist.verilog import netlist_to_verilog, save_verilog
from repro.placers import VivadoLikePlacer


class TestVerilogExport:
    def test_module_wrapper(self, tiny_netlist):
        v = netlist_to_verilog(tiny_netlist)
        assert v.splitlines()[1].startswith("module tiny")
        assert v.rstrip().endswith("endmodule")

    def test_one_instance_per_cell(self, tiny_netlist):
        v = netlist_to_verilog(tiny_netlist)
        n_inst = len(re.findall(r"\b(LUT6|FDRE|DSP48E2|RAMB36E2|RAM64M8|IOBUF|PS8|CARRY8)\b", v))
        assert n_inst == len(tiny_netlist.cells)

    def test_one_wire_per_net(self, tiny_netlist):
        v = netlist_to_verilog(tiny_netlist)
        assert v.count("  wire ") == len(tiny_netlist.nets)

    def test_sequential_cells_get_clock(self, tiny_netlist):
        v = netlist_to_verilog(tiny_netlist)
        for line in v.splitlines():
            if "FDRE" in line or "DSP48E2" in line or "RAMB36E2" in line:
                assert ".CLK(clk)" in line

    def test_hierarchical_names_escaped(self, mini_accel):
        v = netlist_to_verilog(mini_accel)
        assert "\\u_pu0/pe0/dsp_0 " in v

    def test_loc_attributes_with_placement(self, mini_accel, small_dev):
        p = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        v = netlist_to_verilog(mini_accel, placement=p)
        locs = re.findall(r'\(\* LOC = "DSP48E2_X(\d+)Y(\d+)" \*\)', v)
        assert len(locs) == len(mini_accel.dsp_indices())
        # LOCs must be distinct legal sites
        assert len(set(locs)) == len(locs)

    def test_save(self, tiny_netlist, tmp_path):
        out = tmp_path / "t.v"
        save_verilog(tiny_netlist, out)
        assert out.read_text().startswith("// generated")

    def test_module_name_sanitized(self, mini_accel):
        v = netlist_to_verilog(mini_accel)  # name contains '@' and '.'
        header = v.splitlines()[1]
        assert "@" not in header and "." not in header
