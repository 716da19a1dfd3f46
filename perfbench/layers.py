"""Spans around the flow's public entry points, and the per-layer metrics.

The traced run installs a :class:`Tracer`: each entry point named in
:data:`TARGETS` is replaced by a wrapper that records one span (name,
start, end, parent) plus the counts read from its return value. Methods
are patched on their class; functions are patched where the flow looks
them up, e.g. ``repro.core.dsplacer.replace_other_components``.
:meth:`Tracer.uninstall` puts every original back.

Spans stay in memory. A process forked while the tracer is installed (a
serve worker) starts an empty span list of its own and, when
``worker_dir`` is set, writes its spans there each time its outermost
span closes, because a forked worker never returns to the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path


def _cascade_counts(res) -> dict:
    return {
        "ilp_nodes": int(res.ilp_nodes),
        "greedy_fallbacks": int(not res.used_ilp),
        "displacement_um": float(res.total_displacement_um),
    }


#: (module, attribute path, span name, counts read from the return value)
TARGETS = [
    ("repro.fpga", "fabric_device", "fpga.device", None),
    ("repro.accelgen", "generate_suite", "accelgen.generate", lambda n: {"cells": len(n.cells)}),
    ("repro.core.dsplacer", "DSPlacer.place", "dsplacer.place", None),
    ("repro.placers.vivado_like", "VivadoLikePlacer.place", "placers.prototype", None),
    ("repro.placers.analytical", "QuadraticGlobalPlacer.place", "placers.global_place", None),
    ("repro.placers.legalizer", "Legalizer.legalize", "placers.legalize", None),
    ("repro.placers.vivado_like", "refine_sites", "placers.refine", None),
    ("repro.core.placement.incremental", "refine_sites", "placers.refine", None),
    (
        "repro.core.extraction.identification",
        "DatapathIdentifier.predict",
        "extraction.identify",
        None,
    ),
    ("repro.core.dsplacer", "iddfs_dsp_paths", "extraction.paths", None),
    ("repro.core.dsplacer", "build_dsp_graph", "extraction.dsp_graph", None),
    ("repro.core.dsplacer", "prune_control_dsps", "extraction.dsp_graph", None),
    (
        "repro.core.placement.assignment",
        "DatapathDSPAssigner.solve",
        "assignment.solve",
        lambda r: {"iterates": int(r[1])},
    ),
    (
        "repro.core.placement.legalization",
        "CascadeLegalizer.legalize",
        "cascade_legalize",
        _cascade_counts,
    ),
    ("repro.core.dsplacer", "replace_other_components", "incremental", None),
    ("repro.router", "GlobalRouter.route", "router.route", None),
    ("repro.timing.sta", "StaticTimingAnalyzer.__init__", "timing.sta_build", None),
    ("repro.timing.sta", "StaticTimingAnalyzer.analyze", "timing.analyze", None),
    ("repro.timing", "max_frequency", "timing.max_frequency", None),
    ("repro.serve", "PlacementServer.submit", "serve.submit", None),
]


class Tracer:
    """Records spans from wrappers it installs; a context manager."""

    def __init__(self, worker_dir: str | os.PathLike | None = None) -> None:
        self.spans: list[dict] = []
        self.worker_dir = None if worker_dir is None else Path(worker_dir)
        self._stack: list[int] = []
        self._pid = self._root_pid = os.getpid()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------
    def _fork_check(self) -> None:
        if os.getpid() != self._pid:  # forked: the parent's spans are not ours
            self._pid = os.getpid()
            self.spans, self._stack = [], []

    def _open(self, name: str) -> dict:
        self._fork_check()
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if not self._stack and self.worker_dir is not None and self._pid != self._root_pid:
            path = self.worker_dir / f"worker-{self._pid}.json"
            path.write_text(json.dumps(self.spans))

    def wrap(self, fn, name: str, counts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts is not None:
                span["counts"].update(counts(out))
            return out

        return traced

    # -- patching -------------------------------------------------------
    def install(self) -> "Tracer":
        for module, path, name, counts in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, counts))
            self._patches.append((owner, attr, original, own))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- arithmetic ----------------------------------------------------------
def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"]) - covered)
    return out


def _total(spans, name, key=None):
    if key is None:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def placement_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts of the spans of one or more placements.

    ``check.additivity_s`` is the traced ``place`` time minus the layer
    self times and the unattributed residual; it is zero up to rounding.
    """
    own = self_times(spans)

    def self_of(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s["name"] == name)

    m = {
        "placers.prototype_s": _total(spans, "placers.prototype"),
        "placers.prototype_self_s": self_of("placers.prototype"),
        "placers.global_place_s": _total(spans, "placers.global_place"),
        "placers.global_place_calls": sum(s["name"] == "placers.global_place" for s in spans),
        "placers.legalize_s": _total(spans, "placers.legalize"),
        "placers.refine_s": _total(spans, "placers.refine"),
        "extraction.identify_s": _total(spans, "extraction.identify"),
        "extraction.paths_s": _total(spans, "extraction.paths"),
        "extraction.dsp_graph_s": _total(spans, "extraction.dsp_graph"),
        "assignment.solve_s": _total(spans, "assignment.solve"),
        "assignment.iterates": _total(spans, "assignment.solve", "iterates"),
        "cascade_legalize_s": _total(spans, "cascade_legalize"),
        "cascade_legalize.ilp_nodes": _total(spans, "cascade_legalize", "ilp_nodes"),
        "cascade_legalize.greedy_fallbacks": _total(spans, "cascade_legalize", "greedy_fallbacks"),
        "cascade_legalize.displacement_um": _total(spans, "cascade_legalize", "displacement_um"),
        "incremental.self_s": self_of("incremental"),
        "dsplacer.traced_place_s": _total(spans, "dsplacer.place"),
        "dsplacer.unattributed_s": self_of("dsplacer.place"),
        "router.route_s": _total(spans, "router.route"),
        "timing.sta_s": sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"].startswith("timing.")
            and (s["parent"] is None or not spans[s["parent"]]["name"].startswith("timing."))
        ),
        "timing.analyze_calls": sum(s["name"] == "timing.analyze" for s in spans),
    }
    layer_self = sum(
        m[k]
        for k in (
            "placers.prototype_self_s",
            "placers.global_place_s",
            "placers.legalize_s",
            "placers.refine_s",
            "extraction.identify_s",
            "extraction.paths_s",
            "extraction.dsp_graph_s",
            "assignment.solve_s",
            "cascade_legalize_s",
            "incremental.self_s",
            "dsplacer.unattributed_s",
        )
    )
    m["check.additivity_s"] = m["dsplacer.traced_place_s"] - layer_self
    return m


def setup_layers(spans: list[dict]) -> dict[str, float]:
    """Device building and netlist generation, wherever they ran."""
    return {
        "fpga.device_s": _total(spans, "fpga.device"),
        "accelgen.generate_s": _total(spans, "accelgen.generate"),
        "accelgen.cells": _total(spans, "accelgen.generate", "cells"),
    }


def serve_layers(spans: list[dict], responses: list, duplicates: int) -> dict[str, float]:
    """Caller-side serve spans plus the job timestamps of the responses."""
    cold = [r for r in responses if r.cache != "hit"]
    hits = sum(r.cache == "hit" for r in responses)
    return {
        "serve.submit_s": _total(spans, "serve.submit"),
        "serve.queue_wait_s": statistics.median(r.started_unix - r.submitted_unix for r in cold),
        "serve.attempt_s": statistics.median(r.finished_unix - r.started_unix for r in cold),
        "serve.cache_hits": hits,
        "serve.hit_ratio": hits / duplicates,
        "serve.makespan_s": max(r.finished_unix for r in responses)
        - min(r.submitted_unix for r in responses),
    }
