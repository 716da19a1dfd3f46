"""The columnar netlist: row views that write through to the columns, bulk
builders under the per-item rules, atomic macros, versioned pickles, and a
cold flow that never walks ``netlist.cells`` or ``netlist.nets``."""

import copyreg
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelgen import generate_suite
from repro.clock import get_skew_model
from repro.core import DSPlacer, DSPlacerConfig
from repro.errors import NetlistValidationError
from repro.eval import experiments
from repro.fpga import fabric_device
from repro.netlist import (
    Cell,
    CellType,
    Net,
    Netlist,
    load_netlist,
    netlist_problems,
    netlist_to_json,
    save_netlist,
)
from repro.router import GlobalRouter
from repro.serve import netlist_content_hash
from repro.timing import StaticTimingAnalyzer, max_frequency


class TestRows:
    def test_sequence_protocol(self, tiny_netlist):
        cells, nets = tiny_netlist.cells, tiny_netlist.nets
        assert len(cells) == len(tiny_netlist) == 22 and len(nets) == 22
        assert [c.index for c in cells] == list(range(22))
        assert cells[-1].index == 21 and nets[-22].index == 0
        assert [c.name for c in cells[2:8:2]] == ["lut0", "lut2", "lut4"]
        assert cells[np.int64(3)].name == "lut1"
        for i in (22, -23):
            with pytest.raises(IndexError):
                cells[i]

    def test_every_field_writes_through(self, tiny_netlist):
        cell = tiny_netlist.cells[2]
        cell.name, cell.ctype, cell.is_datapath = "renamed", CellType.CARRY, True
        cell.fixed_xy, cell.attrs = (1.0, 2.0), {"role": "x"}
        again = tiny_netlist.cells[2]
        assert (again.name, again.ctype, again.is_datapath, again.fixed_xy, again.attrs) == (
            "renamed", CellType.CARRY, True, (1.0, 2.0), {"role": "x"},
        )
        assert again.is_fixed and again.macro_id is None
        net = tiny_netlist.nets[0]
        net.driver, net.sinks, net.weight = 3, (4, 5), 2.5
        again = tiny_netlist.nets[0]
        assert (again.cells, again.degree, again.weight) == ((3, 4, 5), 3, 2.5)
        assert netlist_to_json(tiny_netlist)["nets"][0] == {
            "name": "ps_out", "driver": 3, "sinks": [4, 5], "weight": 2.5,
        }

    def test_rows_are_cells_and_nets(self, tiny_netlist):
        cell, net = tiny_netlist.cells[0], tiny_netlist.nets[0]
        assert isinstance(cell, Cell) and isinstance(net, Net)
        assert repr(cell) == "Cell(0, 'ps', PS)"
        assert repr(net) == repr(Net(index=0, name="ps_out", driver=0, sinks=(2,)))
        assert cell == tiny_netlist.cells[0] and cell != tiny_netlist.cells[1]
        assert tiny_netlist.cells[-1].macro_id is None and tiny_netlist.cells[-2].macro_id == 1

    def test_standalone_cells_and_nets_still_validate(self):
        with pytest.raises(ValueError, match="needs fixed_xy"):
            Cell(0, "p", CellType.PS)
        with pytest.raises(ValueError, match="finite and positive"):
            Net(0, "n", 0, (1,), weight=math.nan)


def _dsps() -> tuple[Netlist, list[int], int]:
    nl = Netlist("m")
    dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(4)]
    lut = nl.add_cell("l", CellType.LUT)
    nl.add_macro(dsps[2:])  # macro 0
    return nl, dsps, lut


class TestAddMacroIsAtomic:
    """A refused chain leaves no member in a macro, so a legal call on the
    same DSPs still succeeds."""

    @pytest.mark.parametrize(
        "members, match",
        [
            (lambda d, lut: [d[0], d[1], lut], "'l' is not a DSP"),
            (lambda d, lut: [d[0], d[1], d[2]], "'d2' already belongs to macro 0"),
            (lambda d, lut: [d[0], d[1], d[0]], "'d0' appears twice in one macro chain"),
        ],
        ids=["not_dsp", "already_member", "repeated"],
    )
    def test_refused_chain_changes_nothing(self, members, match):
        nl, d, lut = _dsps()
        with pytest.raises(ValueError, match=match):
            nl.add_macro(members(d, lut))
        assert [c.macro_id for c in nl.cells] == [None, None, 0, 0, None]
        assert len(nl.macros) == 1
        nl.validate()
        assert nl.add_macro([d[0], d[1]]) == 1
        assert [c.macro_id for c in nl.cells] == [1, 1, 0, 0, None]
        nl.validate()
        assert netlist_problems(nl) == []


class TestNumpyDriver:
    def test_driver_is_cast_and_the_netlist_saves(self, tmp_path):
        nl = Netlist("np")
        a, b, c = (nl.add_cell(x, CellType.LUT) for x in "abc")
        nl.add_net("n0", np.int64(a), [np.int64(b)])
        nl.add_nets(["n1", "n2"], np.array([b, c]), [np.array([c]), (np.int32(a),)])
        assert all(type(n.driver) is int for n in nl.nets)
        assert all(type(s) is int for n in nl.nets for s in n.sinks)
        save_netlist(nl, tmp_path / "np.json")
        again = load_netlist(tmp_path / "np.json")
        assert netlist_to_json(again) == netlist_to_json(nl)
        assert netlist_content_hash(again) == netlist_content_hash(nl)


def _old_layout_pickle() -> bytes:
    """A netlist pickled with the dataclass layout: no columns."""
    state = {
        "name": "old", "cells": [], "nets": [], "macros": [], "_cell_names": {},
        "target_freq_mhz": None, "_version": 0,
    }

    class OldNetlist:
        def __reduce__(self):
            return copyreg._reconstructor, (Netlist, object, None), state

    return pickle.dumps(OldNetlist())


class TestPickle:
    def test_round_trip_keeps_content_and_rows(self, mini_accel):
        again = pickle.loads(pickle.dumps(mini_accel))
        assert netlist_content_hash(again) == netlist_content_hash(mini_accel)
        assert again.cells[5].name == mini_accel.cells[5].name
        again.nets[0].weight = 9.0
        assert again.nets[0].weight == 9.0 != mini_accel.nets[0].weight

    def test_old_layout_raises(self):
        with pytest.raises(NetlistValidationError, match="state layout None"):
            pickle.loads(_old_layout_pickle())

    def test_disk_cache_rebuilds_a_stale_netlist(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        built: list[Netlist] = []

        def build() -> Netlist:
            built.append(Netlist("fresh"))
            built[-1].add_cell("a", CellType.LUT)
            return built[-1]

        key = ("stale_netlist", 1)
        monkeypatch.setattr(experiments, "_CACHE", {})
        experiments._disk_cached(key, build)
        (path,) = tmp_path.glob("stale_netlist_*.pkl")
        path.write_bytes(_old_layout_pickle())
        monkeypatch.setattr(experiments, "_CACHE", {})
        assert experiments._disk_cached(key, build) is built[1]
        assert pickle.loads(path.read_bytes()).cells[0].name == "a"


# ----------------------------------------------------------------------
# bulk builders: the per-item rules, checked on arrays
# ----------------------------------------------------------------------
NAMES = [f"c{i}" for i in range(8)]
WEIGHTS = [1.0, 0.5, 3, math.nan, math.inf, 0.0, -1.0]


@st.composite
def blocks(draw):
    """A base netlist and blocks of cells and nets to append, with drawn
    faults: repeated names, fixed kinds without a location, repeated sinks,
    the driver among its sinks, empty nets, dangling pins, bad weights."""
    base = draw(st.lists(st.sampled_from(list(CellType)), max_size=4))
    cells = draw(st.lists(
        st.tuples(
            st.sampled_from(NAMES), st.sampled_from(list(CellType)),
            st.booleans(), st.sampled_from([None, True, False]),
        ),
        max_size=6,
    ))
    n = len(base) + len(cells)
    pin = st.builds(
        lambda i, cast: cast(i), st.integers(-2, n + 1), st.sampled_from([int, np.int64])
    )
    nets = draw(st.lists(
        st.tuples(pin, st.lists(pin, max_size=4), st.sampled_from(WEIGHTS)), max_size=6
    ))
    return base, cells, nets


def _base(kinds) -> Netlist:
    nl = Netlist("b")
    for i, kind in enumerate(kinds):
        nl.add_cell(f"c{i}", kind, fixed_xy=(1.0, 2.0) if kind.is_fixed else None)
    return nl


def _columns(nl: Netlist) -> str:
    """Every stored value with its type (``repr`` tells 1 from 1.0)."""
    return repr({k: v for k, v in vars(nl).items() if k not in ("cells", "nets", "_version")})


def _per_item(nl: Netlist, cells, xy, nets) -> None:
    for i, ((name, kind, _, dp), p) in enumerate(zip(cells, xy)):
        nl.add_cell(name, kind, is_datapath=dp, fixed_xy=p, attrs={"k": i})
    for k, (driver, sinks, weight) in enumerate(nets):
        nl.add_net(f"n{k}", driver, sinks, weight=weight)


def _bulk(nl: Netlist, cells, xy, nets) -> None:
    """Both blocks; a refused block must leave the netlist as it was."""
    before = _columns(nl)
    try:
        nl.add_cells(
            [c[0] for c in cells], [c[1] for c in cells],
            is_datapath=[c[3] for c in cells], fixed_xy=xy,
            attrs=[{"k": i} for i in range(len(cells))],
        )
        before = _columns(nl)
        nl.add_nets(
            [f"n{k}" for k in range(len(nets))], [d for d, _, _ in nets],
            [s for _, s, _ in nets], [w for _, _, w in nets],
        )
    except (ValueError, IndexError):
        assert _columns(nl) == before
        raise


def _build(case, add):
    """The netlist after ``add`` appends the blocks, and its first error."""
    base, cells, nets = case
    nl = _base(base)
    xy = [(3.0, 4.0) if pinned else None for _, _, pinned, _ in cells]
    try:
        add(nl, cells, xy, nets)
    except (ValueError, IndexError) as exc:
        return nl, (type(exc), str(exc))
    return nl, None


class TestBulkBuilders:
    @settings(max_examples=400, deadline=None)
    @given(blocks())
    def test_same_netlist_or_same_error_as_per_item(self, case):
        per_item, error = _build(case, _per_item)
        bulk, bulk_error = _build(case, _bulk)
        assert bulk_error == error
        if error is None:
            assert _columns(bulk) == _columns(per_item)

    def test_returns_the_new_indices(self):
        nl = _base([CellType.LUT])
        assert nl.add_cells(["x", "y"], [CellType.FF, CellType.DSP]) == range(1, 3)
        assert nl.add_nets(["a", "b"], [0, 1], [(1, 1, 0), [2]]) == range(0, 2)
        assert [n.sinks for n in nl.nets] == [(1,), (2,)]


# ----------------------------------------------------------------------
# the cold flow reads columns, not rows
# ----------------------------------------------------------------------
class Unwalkable(list):
    """Rows that may be read one at a time but never iterated."""

    def __iter__(self):
        raise AssertionError("walked netlist.cells or netlist.nets")


def _cold_run(netlist, device) -> dict:
    config = DSPlacerConfig()
    placement = DSPlacer(device, config).place(netlist).placement
    route = GlobalRouter().route(placement)
    sta = StaticTimingAnalyzer(netlist, skew_model=get_skew_model(config.skew_model, device))
    report = sta.analyze(placement, route)
    return {
        "site": placement.site.tolist(),
        "xy": placement.xy.tobytes(),
        "hpwl": placement.hpwl(),
        "legal": placement.is_legal(),
        "fmax": max_frequency(sta, placement, route),
        "slack": report.endpoint_slack.tobytes(),
        "problems": netlist_problems(netlist, device),
        "hash": netlist_content_hash(netlist),
    }


def test_cold_place_and_sign_off_never_walk_cells_or_nets():
    device = fabric_device("zcu104", 0.05)
    expect = _cold_run(generate_suite("skynet", scale=0.05, device=device, seed=0), device)
    netlist = generate_suite("skynet", scale=0.05, device=device, seed=0)
    netlist.cells, netlist.nets = Unwalkable(netlist.cells), Unwalkable(netlist.nets)
    with pytest.raises(AssertionError, match="walked"):
        list(netlist.nets)
    assert _cold_run(netlist, device) == expect
