"""Odds and ends: no-PS devices, SVG on PS-less fabrics, CLI verilog flag."""

from repro.cli import main
from repro.eval.visualization import placement_to_svg
from repro.netlist import CellType, Netlist
from repro.placers import Placement, VivadoLikePlacer
from repro.router import GlobalRouter
from repro.timing import StaticTimingAnalyzer


class TestNoPSDevice:
    def test_generator_without_device(self):
        from repro.accelgen import generate_suite

        nl = generate_suite("ismartdnn", scale=0.02)  # synthetic frame
        ps = nl.cells_of_type(CellType.PS)[0]
        assert ps.fixed_xy == (100.0, 100.0)

    def test_placement_flow_on_ps_less_fabric(self, no_ps_dev):
        nl = Netlist("nops")
        pad = nl.add_cell("pad", CellType.IO, fixed_xy=(5.0, 5.0))
        cells = [nl.add_cell(f"l{i}", CellType.LUT) for i in range(20)]
        dsps = [nl.add_cell(f"d{i}", CellType.DSP, is_datapath=True) for i in range(4)]
        nl.add_net("seed", pad, [cells[0]])
        for a, b in zip(cells, cells[1:]):
            nl.add_net(f"n{a}", a, [b])
        nl.add_net("x", cells[-1], [dsps[0]])
        for a, b in zip(dsps, dsps[1:]):
            nl.add_net(f"c{a}", a, [b])
        nl.add_macro(dsps)
        p = VivadoLikePlacer(seed=0, device=no_ps_dev).place(nl)
        assert p.is_legal()

    def test_svg_without_ps(self, no_ps_dev):
        nl = Netlist("nops2")
        pad = nl.add_cell("pad", CellType.IO, fixed_xy=(5.0, 5.0))
        d = nl.add_cell("d", CellType.DSP, is_datapath=True)
        nl.add_net("n", pad, [d])
        p = Placement(nl, no_ps_dev)
        p.assign_site(d, 0)
        svg = placement_to_svg(p, title="no-ps")
        assert svg.startswith("<svg")


class TestRoutingIntoSTA:
    def test_detour_array_alignment(self, mini_accel, small_dev):
        """Router detours index by net id — STA must consume them aligned."""
        p = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        r = GlobalRouter(grid=(8, 8), capacity=0.05, detour_strength=2.0).route(p)
        assert r.net_detour.shape[0] == len(mini_accel.nets)
        sta = StaticTimingAnalyzer(mini_accel)
        w_plain = sta.analyze(p, period_ns=8.0).wns_ns
        w_detour = sta.analyze(p, r, period_ns=8.0).wns_ns
        assert w_detour <= w_plain + 1e-12


class TestCLIVerilog:
    def test_generate_with_verilog(self, tmp_path, capsys):
        out = tmp_path / "n.json"
        v = tmp_path / "n.v"
        rc = main(
            [
                "generate",
                "--suite",
                "ismartdnn",
                "--scale",
                "0.02",
                "-o",
                str(out),
                "--verilog",
                str(v),
            ]
        )
        assert rc == 0
        assert v.exists()
        assert "module" in v.read_text()
