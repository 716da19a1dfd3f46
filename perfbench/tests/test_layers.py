"""Self-time arithmetic, wrapper removal and forked-worker spans of the tracer."""

from __future__ import annotations

import importlib
import json
import multiprocessing
import types

import pytest

import layers


def _span(i, name, parent, start, end, **counts):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end, "counts": counts}


def test_self_times_subtract_child_cover():
    spans = [
        _span(0, "outer", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "a.inner", 1, 2.0, 3.0),
        _span(3, "b", 0, 5.0, 6.0),
    ]
    assert layers.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(layers.self_times(spans)) == pytest.approx(10.0)


def test_self_time_of_a_toy_nested_call(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(layers, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    tracer = layers.Tracer()

    def tick(dt):
        clock[0] += dt

    inner = tracer.wrap(lambda: tick(3.0), "inner")

    def outer_body():
        tick(1.0)
        inner()
        inner()
        tick(2.0)

    tracer.wrap(outer_body, "outer")()
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["outer"]["end"] - by_name["outer"]["start"] == 9.0
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    assert layers.self_times(tracer.spans) == [3.0, 3.0, 3.0]


def test_placement_layers_add_up_to_the_traced_place():
    spans = [
        _span(0, "dsplacer.place", None, 0.0, 10.0),
        _span(1, "placers.prototype", 0, 0.5, 3.0),
        _span(2, "placers.global_place", 1, 0.6, 2.0),
        _span(3, "placers.legalize", 1, 2.0, 2.5),
        _span(4, "cascade_legalize", 0, 3.0, 8.0, ilp_nodes=7, greedy_fallbacks=0),
        _span(5, "incremental", 0, 8.0, 9.5),
        _span(6, "placers.global_place", 5, 8.1, 9.0),
    ]
    m = layers.placement_layers(spans)
    assert m["placers.global_place_calls"] == 2
    assert m["placers.global_place_s"] == pytest.approx(2.3)
    assert m["placers.prototype_self_s"] == pytest.approx(0.6)
    assert m["incremental.self_s"] == pytest.approx(0.6)
    assert m["cascade_legalize.ilp_nodes"] == 7
    assert m["dsplacer.unattributed_s"] == pytest.approx(1.0)
    assert m["check.additivity_s"] == pytest.approx(0.0, abs=1e-12)


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_wrappers_are_removed_after_the_traced_run():
    before = []
    for module, path, _, _ in layers.TARGETS:
        owner, attr = _resolve(module, path)
        before.append((owner, attr, getattr(owner, attr), dict(vars(owner))))
    with pytest.raises(RuntimeError):
        with layers.Tracer():
            assert all(getattr(o, a) is not f for o, a, f, _ in before)
            raise RuntimeError("the traced run fails")
    for owner, attr, original, namespace in before:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} still wrapped"
        assert dict(vars(owner)).keys() == namespace.keys()


def test_traced_placement_records_every_layer(placed):
    from repro.core import DSPlacer, DSPlacerConfig

    with layers.Tracer() as tracer:
        DSPlacer(placed.device, DSPlacerConfig(outer_iterations=1)).place(placed.netlist)
    names = {s["name"] for s in tracer.spans}
    assert {"dsplacer.place", "placers.prototype", "placers.global_place"} <= names
    m = layers.placement_layers(tracer.spans)
    assert m["placers.global_place_calls"] == 2
    assert m["check.additivity_s"] == pytest.approx(0.0, abs=1e-9)


def _child(fn):
    fn()


def test_forked_worker_writes_its_own_spans(tmp_path):
    tracer = layers.Tracer(worker_dir=tmp_path)
    outer = tracer.wrap(lambda: None, "caller")
    outer()
    work = tracer.wrap(tracer.wrap(lambda: None, "inner"), "worker")
    proc = multiprocessing.get_context("fork").Process(target=_child, args=(work,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    (path,) = tmp_path.iterdir()
    spans = json.loads(path.read_text())
    assert [(s["name"], s["parent"]) for s in spans] == [("worker", None), ("inner", 0)]
    assert [s["name"] for s in tracer.spans] == ["caller"]
