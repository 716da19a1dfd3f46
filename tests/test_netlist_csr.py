"""NetlistCSR shared graph context: construction, caching, invalidation."""

import numpy as np
import pytest

from repro.netlist import CellType, Netlist, build_csr, get_csr, netlist_to_digraph
from repro.netlist.csr import CELL_TYPE_CODES, SITE_KIND_CODES


@pytest.fixture()
def nl():
    n = Netlist("ctx")
    cells = [n.add_cell(f"c{i}", CellType.LUT) for i in range(4)]
    d = n.add_cell("d", CellType.DSP)
    f = n.add_cell("f", CellType.FF)
    n.add_net("a", cells[0], [cells[1], cells[2]])
    n.add_net("b", cells[1], [cells[3]])
    n.add_net("b2", cells[1], [cells[3]])  # parallel edge
    n.add_net("c", cells[3], [d])
    n.add_net("e", d, [f])
    return n


class TestConstruction:
    def test_degrees_match_digraph(self, nl):
        ctx = get_csr(nl)
        g = netlist_to_digraph(nl)
        assert ctx.indegree.tolist() == [g.in_degree(i) for i in range(len(nl))]
        assert ctx.outdegree.tolist() == [g.out_degree(i) for i in range(len(nl))]

    def test_directed_adjacency_binary_and_deduped(self, nl):
        ctx = get_csr(nl)
        a = ctx.directed.toarray()
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert a[1, 3] == 1.0  # parallel nets collapse to one edge
        assert a[3, 1] == 0.0  # direction preserved

    def test_undirected_symmetric(self, nl):
        ctx = get_csr(nl)
        u = ctx.undirected.toarray()
        assert (u == u.T).all()
        assert u[1, 3] == 1.0 and u[3, 1] == 1.0

    def test_cell_masks(self, nl):
        ctx = get_csr(nl)
        assert ctx.dsp_indices.tolist() == [4]
        assert ctx.is_dsp[4] and not ctx.is_dsp[0]
        assert ctx.is_storage[5] and not ctx.is_storage[4]

    def test_per_cell_arrays_match_cell_loop(self, every_kind_netlist):
        cells = every_kind_netlist.cells
        ctx = get_csr(every_kind_netlist)
        assert [CELL_TYPE_CODES[k] for k in ctx.ctype_code] == [c.ctype for c in cells]
        assert ctx.is_dsp.tolist() == [c.ctype.is_dsp for c in cells]
        assert ctx.is_storage.tolist() == [c.ctype.is_storage for c in cells]
        assert ctx.is_fixed.tolist() == [c.is_fixed for c in cells]
        assert [SITE_KIND_CODES[k] for k in ctx.site_code] == [
            c.ctype.site_kind for c in cells
        ]
        assert ctx.dsp_indices.tolist() == every_kind_netlist.dsp_indices()

    def test_edge_arrays_keep_multi_edges(self, nl):
        ctx = get_csr(nl)
        pairs = list(zip(ctx.edge_src.tolist(), ctx.edge_dst.tolist()))
        assert pairs.count((1, 3)) == 2  # one entry per (net, sink) pin pair

    def test_net_arrays_roundtrip(self, nl):
        ctx = get_csr(nl)
        for i, net in enumerate(nl.nets):
            lo, hi = ctx.sink_indptr[i], ctx.sink_indptr[i + 1]
            assert ctx.net_driver[i] == net.driver
            assert tuple(ctx.sink_flat[lo:hi]) == net.sinks
            assert (ctx.sink_net[lo:hi] == i).all()


class TestCache:
    def test_same_object_for_unmodified_netlist(self, nl):
        assert get_csr(nl) is get_csr(nl)

    def test_mutation_rebuilds_context(self, nl):
        before = get_csr(nl)
        nl.add_net("new", 0, [5])
        after = get_csr(nl)
        assert after is not before
        assert after.version > before.version
        assert after.directed[0, 5] == 1.0 and before.directed[0, 5] == 0.0

    def test_add_cell_invalidates(self, nl):
        before = get_csr(nl)
        nl.add_cell("x", CellType.LUT)
        after = get_csr(nl)
        assert after is not before and after.n == before.n + 1

    def test_add_macro_invalidates(self):
        n = Netlist("m")
        a = n.add_cell("a", CellType.DSP)
        b = n.add_cell("b", CellType.DSP)
        n.add_net("x", a, [b])
        before = get_csr(n)
        n.add_macro([a, b])
        assert get_csr(n) is not before

    def test_build_csr_uncached(self, nl):
        assert build_csr(nl) is not build_csr(nl)


class TestFanoutFiltered:
    def test_filters_wide_nets(self):
        n = Netlist("w")
        d0 = n.add_cell("d0", CellType.DSP)
        sinks = [n.add_cell(f"s{i}", CellType.LUT) for i in range(5)]
        d1 = n.add_cell("d1", CellType.DSP)
        n.add_net("wide", d0, sinks)
        n.add_net("narrow", sinks[0], [d1])
        ctx = get_csr(n)
        filt = ctx.fanout_filtered(2)
        assert filt[d0, sinks[0]] == 0.0  # wide net dropped
        assert filt[sinks[0], d1] == 1.0
        assert ctx.directed[d0, sinks[0]] == 1.0  # unfiltered view untouched

    def test_cached_per_fanout(self, nl):
        ctx = get_csr(nl)
        assert ctx.fanout_filtered(1) is ctx.fanout_filtered(1)

    def test_wide_threshold_reuses_directed(self, nl):
        ctx = get_csr(nl)
        assert ctx.fanout_filtered(10_000) is ctx.directed
