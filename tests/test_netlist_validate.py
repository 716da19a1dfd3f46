"""Netlist/device validation: actionable diagnostics, permissive downgrade,
and exact agreement with the per-item loop oracle on broken netlists."""

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DSPlacer, DSPlacerConfig
from repro.errors import NetlistValidationError, ReproError
from repro.netlist import (
    CascadeMacro,
    CellType,
    Netlist,
    load_netlist,
    netlist_from_json,
    netlist_problems,
    netlist_to_json,
    validate_netlist,
)
from repro.placers.api import PlacementRequest
from repro.serve import PlacementServer
from tests.oracles import netlist_problems_loop


def _base_netlist():
    nl = Netlist("v")
    pad = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
    dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(3)]
    nl.add_net("seed", pad, [dsps[0]])
    nl.add_net("c0", dsps[0], [dsps[1]])
    return nl, dsps


def _lut_chain(device, extra: int = 1) -> Netlist:
    """A LUT chain ``extra`` cells longer than the device's CLB capacity."""
    nl = Netlist("lut_chain")
    n = device.n_sites("CLB") * device.clb_capacity + extra
    luts = [nl.add_cell(f"l{i}", CellType.LUT) for i in range(n)]
    for i in range(n - 1):
        nl.add_net(f"n{i}", luts[i], [luts[i + 1]])
    return nl


def _bram_fanout(device) -> Netlist:
    """One DSP feeding two more BRAMs than the device has BRAM sites."""
    nl = Netlist("bram_fanout")
    dsp = nl.add_cell("d", CellType.DSP)
    brams = [
        nl.add_cell(f"b{i}", CellType.BRAM) for i in range(device.n_sites("BRAM") + 2)
    ]
    nl.add_net("out", dsp, brams)
    return nl


OVERSIZED = [
    pytest.param(_lut_chain, id="clb"),
    pytest.param(_bram_fanout, id="bram"),
]


class TestNetlistProblems:
    def test_clean_netlist_has_no_problems(self, mini_accel, small_dev):
        assert netlist_problems(mini_accel, small_dev) == []

    def test_dangling_net_reported(self):
        nl, _ = _base_netlist()
        # corrupt a net to dangle past the cell list (bypasses add_net checks)
        object.__setattr__(nl.nets[0], "sinks", (99,))
        problems = netlist_problems(nl)
        assert any("dangles" in p and "99" in p for p in problems)

    def test_duplicate_cell_names_reported(self):
        nl, _ = _base_netlist()
        nl.cells[1].name = "pad"  # collide with the IO pad
        problems = netlist_problems(nl)
        assert any("duplicate cell name 'pad'" in p for p in problems)

    def test_dsp_overflow_vs_device(self, small_dev):
        nl = Netlist("big")
        pad = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
        dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(small_dev.n_dsp + 1)]
        nl.add_net("seed", pad, [dsps[0]])
        problems = netlist_problems(nl, small_dev)
        assert any("DSP sites" in p and "--scale" in p for p in problems)

    def test_clb_overflow_vs_device(self, small_dev):
        problems = netlist_problems(_lut_chain(small_dev), small_dev)
        assert any("CLB" in p and "--scale" in p for p in problems)

    def test_bram_overflow_vs_device(self, small_dev):
        problems = netlist_problems(_bram_fanout(small_dev), small_dev)
        assert any("BRAM sites" in p and "--scale" in p for p in problems)

    def test_fixed_luts_do_not_count_against_clb_sites(self, small_dev):
        nl = _lut_chain(small_dev)
        nl.cells[-1].fixed_xy = (1.0, 1.0)  # the legalizer leaves it alone
        assert netlist_problems(nl, small_dev) == []

    def test_macro_longer_than_any_column(self, small_dev):
        tallest = max(c.n_sites for c in small_dev.kind_columns("DSP"))
        nl = Netlist("long")
        pad = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
        dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(tallest + 1)]
        nl.add_net("seed", pad, [dsps[0]])
        nl.add_macro(dsps)
        problems = netlist_problems(nl, small_dev)
        assert any("tallest DSP column" in p for p in problems)

    def test_validate_netlist_raises_with_all_problems(self, small_dev):
        nl, _ = _base_netlist()
        nl.cells[1].name = "pad"
        object.__setattr__(nl.nets[0], "sinks", (99,))
        with pytest.raises(NetlistValidationError) as err:
            validate_netlist(nl, small_dev)
        msg = str(err.value)
        assert "duplicate cell name" in msg and "dangles" in msg
        assert isinstance(err.value, ValueError)  # backward compatible
        assert isinstance(err.value, ReproError)


class TestLoadValidates:
    def test_load_netlist_rejects_dangling(self, tmp_path, mini_accel):
        doc = netlist_to_json(mini_accel)
        doc["nets"][0]["sinks"] = [len(doc["cells"]) + 7]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(NetlistValidationError, match="dangle"):
            load_netlist(p)

    def test_roundtrip_still_works(self, tmp_path, mini_accel):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(netlist_to_json(mini_accel)))
        assert len(load_netlist(p).cells) == len(mini_accel.cells)


class TestPlacerIntegration:
    def test_strict_placer_rejects_invalid(self, small_dev, mini_accel):
        nl = mini_accel
        # sneak in a duplicate name on a copy via JSON round-trip
        from repro.netlist import netlist_from_json

        bad = netlist_from_json(netlist_to_json(nl))
        bad.cells[1].name = bad.cells[0].name
        placer = DSPlacer(
            small_dev, DSPlacerConfig(identification="oracle", strict=True)
        )
        with pytest.raises(NetlistValidationError):
            placer.place(bad)

    def test_permissive_placer_downgrades_to_warning(self, small_dev, mini_accel):
        from repro.netlist import netlist_from_json

        bad = netlist_from_json(netlist_to_json(mini_accel))
        bad.cells[1].name = bad.cells[0].name
        placer = DSPlacer(
            small_dev, DSPlacerConfig(identification="oracle", mcf_iterations=3)
        )
        res = placer.place(bad)
        assert res.placement.is_legal()
        assert res.health.n_warnings >= 1
        assert any(e.stage == "validation" for e in res.health.events)


class TestOversizedNetlists:
    """A netlist too big for the fabric's CLBs or BRAMs fails with a typed
    error in every mode, never a bare ``ValueError`` from the legalizer."""

    @pytest.mark.parametrize("build", OVERSIZED)
    def test_strict_rejects_before_placing(self, build, small_dev):
        placer = DSPlacer(small_dev, DSPlacerConfig(strict=True))
        with pytest.raises(NetlistValidationError, match="--scale"):
            placer.place(build(small_dev))

    @pytest.mark.parametrize("build", OVERSIZED)
    def test_permissive_raises_typed_error(self, build, small_dev):
        with pytest.raises(ReproError):
            DSPlacer(small_dev, DSPlacerConfig()).place(build(small_dev))

    def test_serve_reports_typed_error(self, small_dev):
        request = PlacementRequest(scale=0.02, config={"outer_iterations": 1})
        with PlacementServer(workers=1) as server:
            job = server.submit(request, netlist=_bram_fanout(small_dev), device=small_dev)
            resp = job.result(timeout=120)
        assert resp.status == "failed"
        assert resp.error["type"] == "LegalizationError"
        assert "no free BRAM site left" in resp.error["message"]


BAD_WEIGHTS = pytest.mark.parametrize(
    "weight", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"]
)


class TestBadNetWeights:
    """A net weight that is not finite and positive is rejected when the net
    is built and reported when it is reassigned later, on every path."""

    @BAD_WEIGHTS
    def test_add_net_rejects(self, weight):
        nl, dsps = _base_netlist()
        with pytest.raises(ValueError, match="finite and positive"):
            nl.add_net("w", dsps[1], [dsps[2]], weight=weight)

    @BAD_WEIGHTS
    def test_load_netlist_rejects(self, weight, tmp_path, mini_accel):
        doc = netlist_to_json(mini_accel)
        doc["nets"][0]["weight"] = weight
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))  # NaN/Infinity are valid to json.loads
        with pytest.raises(NetlistValidationError, match="finite and positive"):
            load_netlist(p)

    @BAD_WEIGHTS
    def test_reassigned_weight_reported(self, weight):
        nl, _ = _base_netlist()
        nl.nets[1].weight = weight
        assert netlist_problems(nl) == [
            f"net 'c0' has weight {weight!r} — net weights must be finite and "
            "positive; reset it to 1.0"
        ]

    @BAD_WEIGHTS
    def test_strict_placer_rejects(self, weight, small_dev, mini_accel):
        bad = netlist_from_json(netlist_to_json(mini_accel))
        bad.nets[0].weight = weight
        placer = DSPlacer(small_dev, DSPlacerConfig(identification="oracle", strict=True))
        with pytest.raises(NetlistValidationError, match="finite and positive"):
            placer.place(bad)

    def test_permissive_placer_warns(self, small_dev, mini_accel):
        """The reproduced case: a NaN weight used to pass unnoticed."""
        bad = netlist_from_json(netlist_to_json(mini_accel))
        bad.nets[0].weight = math.nan
        placer = DSPlacer(
            small_dev, DSPlacerConfig(identification="oracle", outer_iterations=1)
        )
        res = placer.place(bad)
        assert any(
            e.stage == "validation" and "finite and positive" in e.detail
            for e in res.health.events
        )


def _stub_device(n_dsp, n_bram, n_clb, capacity, columns):
    """The device surface :func:`netlist_problems` reads, with drawn sizes."""
    sites = {"BRAM": n_bram, "CLB": n_clb}
    return SimpleNamespace(
        name="stub",
        n_dsp=n_dsp,
        clb_capacity=capacity,
        n_sites=sites.__getitem__,
        kind_columns=lambda kind: [SimpleNamespace(n_sites=h) for h in columns],
    )


@st.composite
def broken_netlist(draw):
    """A small netlist with drawn faults: dangling drivers and sinks, empty
    nets, bad weights, duplicate names, bad macros, fixed CLB-kind cells."""
    kinds = draw(st.lists(st.sampled_from(list(CellType)), max_size=10))
    nl = Netlist("broken")
    for i, kind in enumerate(kinds):
        pinned = kind.is_fixed or (kind.site_kind == "CLB" and draw(st.booleans()))
        nl.add_cell(f"c{i}", kind, fixed_xy=(1.0, 2.0) if pinned else None)
    n = len(kinds)
    cell = st.integers(0, max(n - 1, 0))
    if n >= 2:
        for driver, sinks in draw(st.lists(
            st.tuples(cell, st.lists(cell, min_size=1, max_size=3)), max_size=8
        )):
            sinks = [s for s in sinks if s != driver]
            if sinks:
                nl.add_net(f"n{len(nl.nets)}", driver, sinks)
    dsps = [i for i, kind in enumerate(kinds) if kind is CellType.DSP]
    if len(dsps) >= 2 and draw(st.booleans()):
        nl.add_macro(dsps[: draw(st.integers(2, len(dsps)))])

    missing = st.sampled_from([-2, -1, n, n + 4])
    for net in nl.nets:
        faults = draw(st.sets(st.sampled_from(["sink", "driver", "empty", "weight"])))
        if "sink" in faults:
            net.sinks = net.sinks + (draw(missing),)
        if "driver" in faults:
            net.driver = draw(missing)
        if "empty" in faults:
            net.sinks = ()
        if "weight" in faults:
            net.weight = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -2.5]))
    if n >= 2:
        for a, b in draw(st.lists(st.tuples(cell, cell), max_size=2)):
            nl.cells[a].name = nl.cells[b].name
    for _ in range(draw(st.integers(0, 2))):
        members = draw(st.lists(st.integers(-2, n + 2), min_size=1, max_size=4))
        nl.macros.append(CascadeMacro(macro_id=len(nl.macros), dsps=tuple(members)))
    device = _stub_device(
        draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3)),
        draw(st.integers(1, 2)), draw(st.lists(st.integers(1, 4), max_size=3)),
    )
    return nl, device


class TestMatchesLoopOracle:
    """The array checks list the same problems, in the same order and
    words, as the per-item loop oracle."""

    @settings(max_examples=300, deadline=None)
    @given(broken_netlist(), st.booleans())
    def test_problem_lists_equal(self, case, with_device):
        nl, device = case
        device = device if with_device else None
        assert netlist_problems(nl, device) == netlist_problems_loop(nl, device)

    def test_empty_netlist(self, small_dev):
        nl = Netlist("empty")
        assert netlist_problems(nl, small_dev) == netlist_problems_loop(nl, small_dev) == []

    @pytest.mark.parametrize("build", OVERSIZED)
    def test_oversized_netlists(self, build, small_dev):
        nl = build(small_dev)
        assert netlist_problems(nl, small_dev) == netlist_problems_loop(nl, small_dev)

    def test_generated_suite(self, mini_accel, small_dev):
        assert netlist_problems(mini_accel, small_dev) == netlist_problems_loop(
            mini_accel, small_dev
        ) == []
