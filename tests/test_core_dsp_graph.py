"""DSP graph construction and control pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extraction import build_dsp_graph, iddfs_dsp_paths, prune_control_dsps
from repro.core.extraction.iddfs import DSPPath
from repro.core.placement.assignment import AssignmentConfig, DatapathDSPAssigner
from repro.fpga import small_device
from repro.netlist import CellType, Netlist
from tests.oracles import build_dsp_graph_reference, prune_control_dsps_reference


def _edge(g, u, v):
    """Position of edge u→v in the graph's arrays, or None."""
    hit = np.flatnonzero((g.src == u) & (g.dst == v))
    return int(hit[0]) if hit.size else None


@pytest.fixture()
def dsp_netlist():
    nl = Netlist("g")
    d = [nl.add_cell(f"d{i}", CellType.DSP, is_datapath=(i < 3)) for i in range(4)]
    l = nl.add_cell("l", CellType.LUT)
    nl.add_net("c0", d[0], [d[1]])
    nl.add_net("c1", d[1], [d[2]])
    nl.add_net("via", d[2], [l])
    nl.add_net("via2", l, [d[3]])
    nl.add_macro([d[0], d[1]])
    return nl, d


class TestBuildDSPGraph:
    def test_all_dsps_are_nodes(self, dsp_netlist):
        nl, d = dsp_netlist
        g = build_dsp_graph(nl)
        assert set(g.nodes.tolist()) == set(d)

    def test_edges_carry_dist(self, dsp_netlist):
        nl, d = dsp_netlist
        g = build_dsp_graph(nl)
        assert g.dist[_edge(g, d[0], d[1])] == 1
        assert g.dist[_edge(g, d[2], d[3])] == 2

    def test_cascade_marked(self, dsp_netlist):
        nl, d = dsp_netlist
        g = build_dsp_graph(nl)
        assert g.cascade[_edge(g, d[0], d[1])]
        assert not g.cascade[_edge(g, d[1], d[2])]

    def test_weight_inverse_dist(self, dsp_netlist):
        nl, d = dsp_netlist
        g = build_dsp_graph(nl)
        assert g.weight[_edge(g, d[2], d[3])] == pytest.approx(0.5)

    def test_precomputed_paths_respected(self, dsp_netlist):
        nl, d = dsp_netlist
        paths = iddfs_dsp_paths(nl, max_depth=1)  # only direct links
        g = build_dsp_graph(nl, paths)
        assert _edge(g, d[2], d[3]) is None

    def test_cascade_pairs_forced_into_graph(self):
        """Even when IDDFS finds nothing (depth 0-ish), cascade pairs stay."""
        nl = Netlist("t")
        a = nl.add_cell("a", CellType.DSP)
        b = nl.add_cell("b", CellType.DSP)
        anchor = nl.add_cell("l", CellType.LUT)
        nl.add_net("x", anchor, [a])
        nl.add_net("y", anchor, [b])
        nl.add_macro([a, b])
        g = build_dsp_graph(nl, paths=[])
        k = _edge(g, a, b)
        assert k is not None and g.cascade[k]


class TestPrune:
    def test_control_removed(self, dsp_netlist):
        nl, d = dsp_netlist
        g = build_dsp_graph(nl)
        flags = {i: bool(nl.cells[i].is_datapath) for i in nl.dsp_indices()}
        pruned = prune_control_dsps(g, flags)
        assert set(pruned.nodes.tolist()) == set(d[:3])

    def test_edges_to_control_dropped(self, dsp_netlist):
        nl, d = dsp_netlist
        g = build_dsp_graph(nl)
        pruned = prune_control_dsps(g, {d[0]: True, d[1]: True, d[2]: True, d[3]: False})
        assert _edge(pruned, d[2], d[3]) is None

    def test_original_untouched(self, dsp_netlist):
        nl, d = dsp_netlist
        g = build_dsp_graph(nl)
        n_before = g.number_of_nodes()
        prune_control_dsps(g, {i: False for i in nl.dsp_indices()})
        assert g.number_of_nodes() == n_before

    def test_missing_flags_treated_control(self, dsp_netlist):
        nl, d = dsp_netlist
        g = build_dsp_graph(nl)
        pruned = prune_control_dsps(g, {})
        assert pruned.number_of_nodes() == 0


# ----------------------------------------------------------------------
# the array graph against the networkx oracle
_DEVICE = small_device(n_dsp_cols=3, dsp_rows=12)


@st.composite
def _graph_case(draw):
    """A netlist with DSP cascades, a path list with duplicates and with
    cascade pairs present or absent, datapath flags and λ."""
    n_dsp = draw(st.integers(0, 10))
    nl = Netlist("h")
    lut = nl.add_cell("lut", CellType.LUT)
    dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(n_dsp)]
    nl.add_cell("ff", CellType.FF)
    order = draw(st.permutations(dsps))
    cut = 0
    while cut < len(order) - 1 and draw(st.booleans()):
        size = draw(st.integers(2, min(4, len(order) - cut)))
        nl.add_macro(list(order[cut : cut + size]))
        cut += size
    for i, d in enumerate(dsps):
        nl.add_net(f"n{i}", lut, [d])
    paths = []
    if dsps:
        ends = st.sampled_from(dsps)
        for src, dst in draw(st.lists(st.tuples(ends, ends), max_size=25)):
            for _ in range(draw(st.integers(1, 3))):  # duplicates
                paths.append(
                    DSPPath(src, dst, draw(st.integers(1, 6)), draw(st.integers(0, 3)))
                )
    for pred, succ in nl.cascade_pairs():
        if draw(st.booleans()):
            paths.append(DSPPath(pred, succ, draw(st.integers(1, 6)), draw(st.integers(0, 3))))
    paths = draw(st.permutations(paths))
    flags = {d: draw(st.booleans()) for d in dsps if draw(st.booleans())}
    lam = draw(st.sampled_from([0.0, 1.0, 100.0, 0.37]))
    return nl, paths, flags, lam


def _edge_dict(g):
    return {
        (u, v): (dist, storage, weight, cascade)
        for u, v, dist, storage, weight, cascade in zip(
            g.src.tolist(),
            g.dst.tolist(),
            g.dist.tolist(),
            g.n_storage.tolist(),
            g.weight.tolist(),
            g.cascade.tolist(),
        )
    }


def _ref_edge_dict(ref):
    return {
        (u, v): (a["dist"], a["n_storage"], a["weight"], bool(a.get("cascade", False)))
        for u, v, a in ref.edges(data=True)
    }


def _angle_ref(ref, dsps, lam):
    """The assigner's per-DSP λ·(outdeg − indeg), edge by edge."""
    pos = {d: k for k, d in enumerate(dsps)}
    coef = np.zeros(len(dsps))
    for u, v in ref.edges:
        if u in pos:
            coef[pos[u]] += 1.0
        if v in pos:
            coef[pos[v]] -= 1.0
    return coef * lam


class TestMatchesNetworkxOracle:
    @settings(max_examples=80, deadline=None)
    @given(_graph_case())
    def test_graph_prune_and_angle_match(self, case):
        nl, paths, flags, lam = case
        g = build_dsp_graph(nl, paths)
        ref = build_dsp_graph_reference(nl, paths)
        assert g.nodes.tolist() == sorted(ref.nodes)
        assert _edge_dict(g) == _ref_edge_dict(ref)
        assert list(zip(g.src.tolist(), g.dst.tolist())) == sorted(ref.edges)
        assert (g.number_of_nodes(), g.number_of_edges()) == (
            ref.number_of_nodes(),
            ref.number_of_edges(),
        )

        pruned = prune_control_dsps(g, flags)
        ref_pruned = prune_control_dsps_reference(ref, flags)
        assert pruned.nodes.tolist() == sorted(ref_pruned.nodes)
        assert _edge_dict(pruned) == _ref_edge_dict(ref_pruned)
        assert list(zip(pruned.src.tolist(), pruned.dst.tolist())) == sorted(ref_pruned.edges)

        dsps = pruned.nodes.tolist()
        if not dsps:
            return
        cfg = AssignmentConfig(lam=lam)
        for graph, oracle in ((pruned, ref_pruned), (g, ref)):
            asg = DatapathDSPAssigner(nl, _DEVICE, graph, dsps, cfg)
            assert asg._angle_coef.tolist() == _angle_ref(oracle, dsps, lam).tolist()
