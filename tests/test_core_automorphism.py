"""Weisfeiler-Lehman automorphism features (the PADE baseline family)."""

import numpy as np
import pytest

from repro.core.extraction.automorphism import automorphism_features, wl_colors
from repro.netlist import CellType, Netlist


@pytest.fixture()
def twin_netlist():
    """Two isomorphic 'PE tiles' plus one irregular node."""
    nl = Netlist("twin")
    for tile in range(2):
        d = nl.add_cell(f"t{tile}_dsp", CellType.DSP, is_datapath=True)
        f = nl.add_cell(f"t{tile}_ff", CellType.FF)
        l = nl.add_cell(f"t{tile}_lut", CellType.LUT)
        nl.add_net(f"t{tile}_a", f, [d])
        nl.add_net(f"t{tile}_b", d, [l])
    odd = nl.add_cell("odd_dsp", CellType.DSP, is_datapath=False)
    hub = nl.add_cell("hub_ff", CellType.FF)
    nl.add_net("odd_in", hub, [odd])
    nl.add_net("hub_in", odd, [nl.cell_by_name("t0_lut").index])
    return nl


class TestWLColors:
    def test_round0_is_cell_kind(self, twin_netlist):
        colors = wl_colors(twin_netlist, n_rounds=0)
        kinds = {}
        for c in twin_netlist.cells:
            kinds.setdefault(c.ctype, set()).add(colors[c.index][0])
        for ctype, ids in kinds.items():
            assert len(ids) == 1  # one colour per kind

    def test_isomorphic_tiles_share_colors(self, twin_netlist):
        colors = wl_colors(twin_netlist, n_rounds=2)
        # t0_dsp's LUT has an extra fanin (hub edge) — compare the FFs,
        # whose 1-hop neighbourhoods are truly isomorphic
        fa = twin_netlist.cell_by_name("t0_ff").index
        fb = twin_netlist.cell_by_name("t1_ff").index
        assert colors[fa][1] == colors[fb][1]

    def test_irregular_node_distinct(self, twin_netlist):
        colors = wl_colors(twin_netlist, n_rounds=2)
        odd = twin_netlist.cell_by_name("odd_dsp").index
        regular = twin_netlist.cell_by_name("t1_dsp").index
        assert colors[odd][-1] != colors[regular][-1]

    def test_refinement_only_splits(self, twin_netlist):
        """Colour classes can only get finer with more rounds."""
        colors = wl_colors(twin_netlist, n_rounds=3)
        n = len(twin_netlist.cells)
        for r in range(3):
            # same colour at round r+1 implies same colour at round r
            by_next = {}
            for u in range(n):
                by_next.setdefault(colors[u][r + 1], set()).add(colors[u][r])
            for prev_set in by_next.values():
                assert len(prev_set) == 1


class TestAutomorphismFeatures:
    def test_shape(self, twin_netlist):
        x = automorphism_features(twin_netlist, n_rounds=2)
        assert x.shape[0] == len(twin_netlist.cells)
        assert np.isfinite(x).all()

    def test_degree_columns(self, twin_netlist):
        x = automorphism_features(twin_netlist)
        d = twin_netlist.cell_by_name("t0_dsp").index
        assert x[d, 0] == 1  # indegree (from ff)
        assert x[d, 1] == 1  # outdegree (to lut)

    def test_regular_nodes_large_class(self, mini_accel):
        """PE DSPs live in larger WL classes than control DSPs."""
        x = automorphism_features(mini_accel, n_rounds=2)
        class_col = x[:, -1]  # log class size after final round
        pe = [c.index for c in mini_accel.cells if c.attrs.get("role") == "pe_dsp"]
        ctrl = [c.index for c in mini_accel.cells if c.attrs.get("role") == "ctrl_dsp"]
        if pe and ctrl:
            assert np.median(class_col[pe]) >= np.median(class_col[ctrl])
