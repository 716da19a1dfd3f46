"""Vectorized-vs-reference STA equivalence + cascade-adjacency regression.

The level-batched analysis must reproduce the per-cell loop oracle
(``tests.oracles.ReferenceSTA``) to 1e-9 on every report field, across
random netlists (including combinational cycles), random placements,
detoured routing, and skewed/skew-free delay models. The timing graph the
product builds from the netlist's ``NetlistCSR`` (delay arrays, flat edges,
cascade edges, levels) must equal the oracle's per-cell-list build exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import small_device
from repro.netlist import CellType, Netlist, get_csr, netlist_from_json, netlist_to_json
from repro.placers import Placement
from repro.router.global_router import RoutingResult
from repro.timing import DelayModel, StaticTimingAnalyzer
from tests.oracles import ReferenceSTA

DEV = small_device(n_dsp_cols=3, dsp_rows=12)


@st.composite
def sta_case(draw):
    """Random netlist + placement + optional routing/skew/cascades."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_seq = draw(st.integers(1, 8))
    n_comb = draw(st.integers(0, 12))
    n_dsp = draw(st.integers(0, 4))
    nl = Netlist("h")
    nl.target_freq_mhz = 200.0
    seq_kinds = [CellType.FF, CellType.BRAM]
    cells = [nl.add_cell(f"s{i}", seq_kinds[i % 2]) for i in range(n_seq)]
    cells.append(nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0)))
    cells += [nl.add_cell(f"c{i}", CellType.LUT) for i in range(n_comb)]
    dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(n_dsp)]
    if n_dsp >= 2:
        nl.add_macro(dsps)
    cells += dsps
    n = len(cells)
    n_nets = draw(st.integers(1, 2 * n))
    for k in range(n_nets):
        driver = int(rng.integers(0, n))
        fanout = int(rng.integers(1, 4))
        sinks = [int(s) for s in rng.integers(0, n, fanout) if int(s) != driver]
        if not sinks:
            continue
        nl.add_net(f"n{k}", driver, sinks)
    for i in range(1, n_dsp):  # cascade nets along the macro chain
        nl.add_net(f"casc{i}", dsps[i - 1], [dsps[i]])

    place = Placement(nl, DEV)
    place.xy[:] = rng.uniform(0.0, [DEV.width, DEV.height], (n, 2))
    n_sites = DEV.site_col("DSP").size
    if n_sites and n_dsp:
        for i, d in enumerate(dsps):
            if draw(st.booleans()):
                place.site[d] = int(rng.integers(0, n_sites))
    routing = None
    if draw(st.booleans()) and nl.nets:
        det = rng.uniform(1.0, 2.5, len(nl.nets))
        routing = RoutingResult(
            net_detour=det,
            net_routed_len=det,
            congestion=np.zeros((4, 4)),
            total_wirelength=1.0,
            overflow_frac=0.0,
        )
    skew = draw(st.sampled_from([0.0, 0.03, 0.1]))
    return nl, place, routing, DelayModel(clock_skew_per_region=skew)


def _assert_reports_match(a, b):
    assert a.wns_ns == pytest.approx(b.wns_ns, abs=1e-9)
    assert a.tns_ns == pytest.approx(b.tns_ns, abs=1e-9)
    assert a.n_endpoints == b.n_endpoints
    assert a.n_failing == b.n_failing
    np.testing.assert_allclose(a.endpoint_slack, b.endpoint_slack, rtol=0, atol=1e-9)
    assert a.critical_path == b.critical_path
    if a.endpoint_cells is None:
        assert b.endpoint_cells is None
    else:
        np.testing.assert_array_equal(a.endpoint_cells, b.endpoint_cells)
        np.testing.assert_array_equal(a._end_pred, b._end_pred)
    np.testing.assert_array_equal(a._best_pred, b._best_pred)
    if a.cell_output_slack is not None:
        np.testing.assert_allclose(
            a.cell_output_slack, b.cell_output_slack, rtol=0, atol=1e-9
        )


class TestVectorizedEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(sta_case(), st.booleans())
    def test_matches_reference(self, case, with_slacks):
        nl, place, routing, dm = case
        ref = ReferenceSTA(nl, dm)
        vec = StaticTimingAnalyzer(nl, dm)
        a = ref.analyze(place, routing, with_slacks=with_slacks)
        b = vec.analyze(place, routing, with_slacks=with_slacks)
        _assert_reports_match(a, b)

    @settings(max_examples=20, deadline=None)
    @given(sta_case())
    def test_path_of_matches(self, case):
        nl, place, routing, dm = case
        ref = ReferenceSTA(nl, dm)
        a = ref.analyze(place, routing)
        b = StaticTimingAnalyzer(nl, dm).analyze(place, routing)
        for k in range(min(3, a.n_endpoints)):
            assert a.path_of(k) == b.path_of(k)

    def test_generated_suite_matches(self, mini_accel):
        place = Placement(mini_accel, DEV)
        rng = np.random.default_rng(7)
        place.xy[:] = rng.uniform(0.0, [DEV.width, DEV.height], (len(mini_accel), 2))
        a = ReferenceSTA(mini_accel).analyze(
            place, with_slacks=True
        )
        b = StaticTimingAnalyzer(mini_accel).analyze(
            place, with_slacks=True
        )
        _assert_reports_match(a, b)

    def test_unknown_method_rejected(self, mini_accel):
        """The analysis has one engine: no ``method`` knob is accepted."""
        with pytest.raises(TypeError, match="method"):
            StaticTimingAnalyzer(mini_accel, method="banana")


def _cascade_netlist():
    nl = Netlist("casc")
    nl.target_freq_mhz = 200.0
    dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(4)]
    nl.add_macro(dsps)
    for i in range(1, 4):
        nl.add_net(f"c{i}", dsps[i - 1], [dsps[i]])
    return nl, dsps


class TestCascadeAdjacency:
    """Regression: cascade adjacency used to re-derive the device's DSP
    column array via ``site_col("DSP")`` twice per cascade edge per pass."""

    def _placed(self):
        nl, dsps = _cascade_netlist()
        place = Placement(nl, DEV)
        col = DEV.site_col("DSP")
        # d0→d1 adjacent (consecutive sites, same column); d1→d2 same column
        # but not consecutive; d2→d3 crosses columns; d3 unplaced for one edge
        first_col = np.flatnonzero(col == col[0])
        other_col = np.flatnonzero(col != col[0])
        place.site[dsps[0]] = int(first_col[0])
        place.site[dsps[1]] = int(first_col[1])
        place.site[dsps[2]] = int(first_col[3])
        place.site[dsps[3]] = int(other_col[0])
        return nl, place

    def test_adjacency_matches_reference_rule(self):
        nl, place = self._placed()
        sta = StaticTimingAnalyzer(nl)
        got = sta.cascade_adjacent(place)
        col = place.device.site_col("DSP")
        expect = []
        for e in sta._casc_idx:
            s = int(place.site[sta._e_src[e]])
            d = int(place.site[sta._e_dst[e]])
            expect.append(s >= 0 and d == s + 1 and col[s] == col[d])
        assert got.tolist() == expect
        assert got.tolist() == [True, False, False]

    def test_site_col_fetched_once_per_analysis(self, monkeypatch):
        nl, place = self._placed()
        sta = StaticTimingAnalyzer(nl)
        calls = {"n": 0}
        orig = type(place.device).site_col

        def counting(self, kind):
            calls["n"] += 1
            return orig(self, kind)

        monkeypatch.setattr(type(place.device), "site_col", counting)
        sta.analyze(place, with_slacks=True)
        # forward + endpoint + backward passes share one precomputed
        # adjacency; the reference did 2 lookups × cascade edge × pass
        assert calls["n"] <= 2

    def test_adjacent_cascade_is_cheaper(self):
        nl, place = self._placed()
        rep = StaticTimingAnalyzer(nl).analyze(place, period_ns=10.0)
        ref = ReferenceSTA(nl).analyze(place, period_ns=10.0)
        assert rep.wns_ns == pytest.approx(ref.wns_ns, abs=1e-9)


class TestCyclicBacktraceRegression:
    """The critical-path backtrace (analyze() and ``path_of``) used to spin
    forever when ``best_pred`` formed a cycle among combinational-cycle
    cells on the worst path; it now stops at the first revisited cell."""

    def _cyclic_case(self):
        nl = Netlist("cyc")
        nl.target_freq_mhz = 200.0
        f0 = nl.add_cell("f0", CellType.FF)
        a = nl.add_cell("a", CellType.LUT)
        b = nl.add_cell("b", CellType.LUT)
        f1 = nl.add_cell("f1", CellType.FF)
        nl.add_net("launch", f0, [a])
        nl.add_net("ab", a, [b])
        nl.add_net("ba", b, [a])
        nl.add_net("capture", b, [f1])
        place = Placement(nl, DEV)
        # b is far from a, so when a is relaxed first the b->a edge (from
        # b's zero-init arrival) beats the short f0->a edge and
        # best_pred[a] == b while best_pred[b] == a
        place.xy[:] = [(0.0, 0.0), (0.0, 1.0), (800.0, 440.0), (801.0, 440.0)]
        return nl, place

    @pytest.mark.parametrize(
        "sta_cls", [ReferenceSTA, StaticTimingAnalyzer], ids=["reference", "vectorized"]
    )
    def test_analyze_and_path_of_terminate(self, sta_cls):
        nl, place = self._cyclic_case()
        sta = sta_cls(nl)
        assert sta.has_comb_cycles
        rep = sta.analyze(place, with_slacks=True)
        assert len(rep.critical_path) <= len(nl.cells)
        assert len(set(rep.critical_path)) == len(rep.critical_path)
        for k in range(rep.n_endpoints):
            p = rep.path_of(k)
            assert len(p) <= len(nl.cells)

    def test_cycle_actually_forms(self):
        nl, place = self._cyclic_case()
        rep = ReferenceSTA(nl).analyze(place)
        a, b = 1, 2
        assert rep._best_pred[a] == b and rep._best_pred[b] == a


COMB_KINDS = [CellType.LUT, CellType.CARRY, CellType.LUTRAM]
SEQ_KINDS = [CellType.FF, CellType.DSP, CellType.BRAM]
DELAY = st.floats(0.0, 2.0, allow_nan=False)


@st.composite
def graph_case(draw):
    """A netlist drawn to stress levelization: combinational rings and
    their fan-out, parallel nets, unfed combinational cells, DSP cascades
    and the empty netlist; plus a delay model with sparse tables."""
    kinds = draw(st.lists(st.sampled_from(COMB_KINDS + SEQ_KINDS + [CellType.IO]), max_size=14))
    nl = Netlist("g")
    nl.target_freq_mhz = 250.0
    for i, kind in enumerate(kinds):
        nl.add_cell(f"c{i}", kind, fixed_xy=(0.0, 0.0) if kind.is_fixed else None)
    n = len(kinds)
    cell = st.integers(0, max(n - 1, 0))

    def add(driver, sinks):
        sinks = [s for s in sinks if s != driver]
        if sinks:
            nl.add_net(f"n{len(nl.nets)}", driver, sinks)

    if n:
        for driver, sinks in draw(st.lists(st.tuples(cell, st.lists(cell, min_size=1, max_size=3)),
                                           max_size=2 * n)):
            add(driver, sinks)
    comb = [i for i, kind in enumerate(kinds) if kind in COMB_KINDS]
    if len(comb) >= 2 and draw(st.booleans()):
        ring = draw(st.permutations(comb))[: draw(st.integers(2, len(comb)))]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            add(a, [b])
        add(ring[0], draw(st.lists(cell, min_size=1, max_size=3)))  # the ring's fan-out
    if nl.nets:
        for k in draw(st.lists(st.integers(0, len(nl.nets) - 1), max_size=3)):
            add(nl.nets[k].driver, nl.nets[k].sinks)  # a parallel net
    dsps = [i for i, kind in enumerate(kinds) if kind is CellType.DSP]
    if len(dsps) >= 2 and draw(st.booleans()):
        nl.add_macro(dsps)
        for a, b in zip(dsps, dsps[1:]):
            add(a, [b])
    dm = DelayModel(
        prop=draw(st.dictionaries(st.sampled_from(COMB_KINDS + SEQ_KINDS), DELAY)),
        clk_to_q=draw(st.dictionaries(st.sampled_from(list(CellType)), DELAY)),
        setup=draw(st.dictionaries(st.sampled_from(list(CellType)), DELAY)),
    )
    return nl, dm


GRAPH_ARRAYS = (
    "_seq", "_prop_arr", "_clk2q_arr", "_setup_arr",
    "_e_src", "_e_dst", "_e_net", "_casc_idx", "_level",
)


class TestGraphArrays:
    """The CSR-built timing graph against the per-cell-list build."""

    @settings(max_examples=200, deadline=None)
    @given(graph_case())
    def test_graph_matches_loop_build(self, case):
        nl, dm = case
        ref, vec = ReferenceSTA(nl, dm), StaticTimingAnalyzer(nl, dm)
        for name in GRAPH_ARRAYS:
            a, b = getattr(vec, name), getattr(ref, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert vec.has_comb_cycles == ref.has_comb_cycles

    def test_parallel_nets_count_twice(self):
        """A cell fed twice by one driver becomes ready only once both
        edges are gone: a unique-neighbour count would misplace it."""
        nl = Netlist("par")
        a, b, c = (nl.add_cell(x, CellType.LUT) for x in "abc")
        nl.add_net("ab0", a, [b])
        nl.add_net("ab1", a, [b])
        nl.add_net("bc", b, [c])
        sta = StaticTimingAnalyzer(nl)
        assert sta._level.tolist() == [0, 1, 2]
        assert not sta.has_comb_cycles

    def test_cycle_leftovers_levelled_in_index_order(self):
        """Ring cells and their fan-out each take one level past the DAG's
        deepest, by cell index — not in the order a sweep would reach them."""
        nl = Netlist("ring")
        z, x, r1, r0, q = (nl.add_cell(name, CellType.LUT) for name in ("z", "x", "r1", "r0", "q"))
        nl.add_net("zq", z, [q])
        nl.add_net("r0r1", r0, [r1, x])
        nl.add_net("r1r0", r1, [r0, x])  # x waits on two ring cells, each ring cell on one
        sta = StaticTimingAnalyzer(nl)
        assert sta.has_comb_cycles
        # DAG levels 0 (z) and 1 (q); then x, r1, r0 by index
        assert sta._level.tolist() == [0, 2, 3, 4, 1]
        np.testing.assert_array_equal(sta._level, ReferenceSTA(nl)._level)

    def test_empty_netlist(self):
        nl = Netlist("empty")
        nl.target_freq_mhz = 100.0
        sta = StaticTimingAnalyzer(nl)
        assert sta._level.size == 0 and not sta.has_comb_cycles
        rep = sta.analyze(Placement(nl, DEV))
        assert rep.n_endpoints == 0 and rep.wns_ns == pytest.approx(10.0)

    def test_build_reads_no_cell_or_net_objects(self, mini_accel):
        """Once ``get_csr`` has run, the build and the analysis never walk
        ``netlist.cells`` or ``netlist.nets``."""

        class Unwalkable(list):
            def __iter__(self):
                raise AssertionError("walked a per-object list")

        nl = netlist_from_json(netlist_to_json(mini_accel))
        place = Placement(nl, DEV)
        place.xy[:] = np.random.default_rng(3).uniform(
            0.0, [DEV.width, DEV.height], (len(nl.cells), 2)
        )
        expect = StaticTimingAnalyzer(nl).analyze(place, with_slacks=True)
        get_csr(nl)
        nl.cells, nl.nets = Unwalkable(nl.cells), Unwalkable(nl.nets)
        with pytest.raises(AssertionError, match="walked"):
            list(nl.cells)
        got = StaticTimingAnalyzer(nl).analyze(place, with_slacks=True)
        _assert_reports_match(got, expect)
