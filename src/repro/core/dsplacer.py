"""The DSPlacer facade (paper Fig. 2).

Ties the full flow together:

1. **prototype placement** — an off-the-shelf placer (the Vivado-like or
   AMF-like baseline) places everything;
2. **datapath DSP extraction** — node features + classifier identify the
   datapath DSPs; IDDFS builds the DSP graph; control DSPs are pruned;
3. **datapath-driven DSP placement** — iterate: linearized MCF assignment
   (λ datapath-angle, η cascade penalties) → ILP inter-column + exact
   intra-column cascade legalization → freeze the datapath DSPs and
   re-place the other components (Fig. 6 alternation). From the second
   iteration on, one whose assignment and legalization leave every DSP on
   its site has reached a fixed point: it skips its re-placement and ends
   the loop;
4. emit the final placement; routing/STA are the caller's (see
   :mod:`repro.eval`), matching the paper's use of external PnR.

Run under :func:`repro.obs.observe` the flow emits a full span tree
(``place`` → ``place.prototype`` / ``place.extraction`` / per-iteration
``place.outer`` → ``place.assignment`` / ``place.legalization`` /
``place.incremental``; each ``place.outer`` records ``dsps_moved`` and the
``hpwl_um`` of the iterate it produced) and attaches the
:class:`~repro.obs.RunReport` snapshot to ``result.report``.

Example:
    >>> from repro.fpga import small_device
    >>> from repro.accelgen import generate_suite
    >>> from repro.core import DSPlacer
    >>> dev = small_device()
    >>> netlist = generate_suite("ismartdnn", scale=0.02, device=dev)
    >>> result = DSPlacer(dev).place(netlist)
    >>> result.placement.is_legal()
    True
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from repro.clock import SKEW_MODEL_NAMES, get_skew_model, run_clock_section
from repro.core.extraction.dsp_graph import build_dsp_graph, prune_control_dsps
from repro.core.extraction.iddfs import iddfs_dsp_paths
from repro.core.extraction.identification import (
    METHODS,
    DatapathIdentifier,
    IdentificationResult,
)
from repro.core.placement.assignment import AssignmentConfig, DatapathDSPAssigner
from repro.core.placement.incremental import replace_other_components
from repro.core.placement.legalization import CascadeLegalizer
from repro.errors import (
    ConfigurationError,
    LegalizationError,
    NetlistValidationError,
    ReproError,
)
from repro.fpga.device import Device
from repro.ml.train import GraphSample
from repro.netlist.csr import get_csr
from repro.netlist.netlist import Netlist
from repro.netlist.validate import netlist_problems
from repro.obs import active as obs_active
from repro.obs import metrics, trace
from repro.obs.report import RunReport
from repro.placers.amf_like import AMFLikePlacer
from repro.placers.analytical import GlobalPlaceConfig, QuadraticGlobalPlacer
from repro.placers.placement import Placement
from repro.placers.vivado_like import VivadoLikePlacer
from repro.robustness import RunHealth, SolverGuard, maybe_fault

#: ``DSPlacerConfig.base_placer`` → the prototype placer it runs
BASE_PLACERS = {"vivado": VivadoLikePlacer, "amf": AMFLikePlacer}


@dataclass(frozen=True)
class DSPlacerConfig:
    """DSPlacer knobs (paper defaults where stated).

    Attributes:
        identification: Classifier used when no trained identifier is
            passed to :class:`DSPlacer` — ``"heuristic"`` (training-free
            storage rule) or ``"oracle"``. The paper's GCN requires
            training, so pass a fitted
            :class:`~repro.core.extraction.DatapathIdentifier` instead.
        lam: Datapath-angle trade-off λ (paper: 100).
        eta: Cascade penalty η.
        mcf_iterations: Internal MCF linearization iterations (paper: 50;
            the loop stops early on convergence).
        outer_iterations: Upper bound on the Fig. 6 alternations between
            DSP placement and other-component placement (an integer >= 1).
            The loop ends sooner when an iteration after the first moves
            no DSP: that iteration skips its re-placement.
    """

    identification: str = "heuristic"
    base_placer: str = "vivado"
    lam: float = 100.0
    eta: float = 25.0
    mcf_iterations: int = 50
    outer_iterations: int = 2
    #: enables the timing-driven extension: before each outer iteration an
    #: STA required-time pass computes per-cell slacks and the assignment
    #: pulls DSPs harder toward neighbours on failing paths.
    timing_driven: bool = False
    #: clock-skew model for STA and the skew-aware assignment term:
    #: "region" (historical per-clock-region penalty, the default),
    #: "htree" (per-sink arrivals from a synthesized H-tree — reuses the
    #: device's attached clock tree when one exists), or "zero" (ideal
    #: clock). See :mod:`repro.clock`.
    skew_model: str = "region"
    #: > 0 enables the skew-aware assignment term: DSP sites whose clock
    #: arrival strays from the weighted-mean arrival of the DSP's
    #: neighbours are surcharged. Only effective with ``skew_model="htree"``
    #: (the other models expose no per-point arrivals).
    skew_weight: float = 0.0
    seed: int = 0
    #: strict mode: stage failures, illegal iterates, budget overruns and
    #: validation problems raise their typed :class:`~repro.errors.ReproError`
    #: instead of rolling back to the last completed legal iterate. A run
    #: with none of these returns the same placement in both modes.
    strict: bool = False
    #: wall-clock budget (seconds, finite and > 0) for each assignment /
    #: legalization stage invocation; ``None`` disables budgets. Cooperative:
    #: checked between solver attempts and linearization iterates, never
    #: preemptive.
    stage_budget_s: float | None = None

    def __post_init__(self) -> None:
        for knob, choices in (
            ("identification", METHODS),
            ("base_placer", tuple(BASE_PLACERS)),
            ("skew_model", SKEW_MODEL_NAMES),
        ):
            value = getattr(self, knob)
            if value not in choices:
                raise ConfigurationError(
                    f"unknown {knob} {value!r}; choose from " + ", ".join(choices)
                )
        self.assignment_config()  # checks lam, eta, mcf_iterations, skew_weight
        if not isinstance(self.outer_iterations, numbers.Integral) or self.outer_iterations < 1:
            raise ConfigurationError(
                f"outer_iterations must be an integer >= 1, got {self.outer_iterations!r} "
                "(the flow needs at least one DSP-placement pass)"
            )
        budget = self.stage_budget_s
        if budget is not None and not (
            isinstance(budget, numbers.Real) and math.isfinite(budget) and budget > 0
        ):
            raise ConfigurationError(
                f"stage_budget_s must be None or a finite number > 0, got {budget!r}"
            )

    def assignment_config(self) -> AssignmentConfig:
        """The assignment stage's knobs; building them checks them."""
        return AssignmentConfig(
            lam=self.lam,
            eta=self.eta,
            max_iterations=self.mcf_iterations,
            skew_weight=self.skew_weight,
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical plain-dict view of every knob.

        Canonical means: **every** field present (defaults filled), keys
        sorted, and values coerced to the field's declared type — so
        ``from_dict({"lam": 100})`` (an int) and the default ``lam=100.0``
        serialize identically. The serve result cache hashes this form
        (:meth:`content_hash`); equivalent configs must collide there.
        Round-trips via :meth:`from_dict`.
        """
        hints = get_type_hints(type(self))
        doc: dict = {}
        for f in fields(self):
            v = getattr(self, f.name)
            t = hints.get(f.name)
            if v is not None:
                if t is bool:
                    v = bool(v)
                elif t is int:
                    v = int(v)
                elif t is float or t == float | None:
                    v = float(v)
                elif t is str:
                    v = str(v)
            doc[f.name] = v
        return dict(sorted(doc.items()))

    def canonical_json(self) -> str:
        """Deterministic JSON of :meth:`to_dict` (sorted keys, no spaces)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """SHA-256 of :meth:`canonical_json` — the cache-key config part."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, doc: dict) -> "DSPlacerConfig":
        """Build a config from a plain dict, rejecting unknown keys.

        Raises:
            ConfigurationError: If ``doc`` is not a mapping or contains a
                key that is not a :class:`DSPlacerConfig` field — typo
                protection for ``--config`` files.
        """
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"DSPlacer config must be a JSON object, got {type(doc).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(
                "unknown DSPlacer config key(s): "
                + ", ".join(repr(k) for k in unknown)
                + f"; known keys: {', '.join(sorted(known))}"
            )
        return cls(**doc)


@dataclass
class DSPlacerResult:
    """Everything DSPlacer produced.

    It carries no timings: spans are the flow's only clock. Run under
    :func:`repro.obs.observe` to time it (Fig. 8 folds the ``place`` span,
    see :mod:`repro.eval.profiling`).
    """

    placement: Placement
    identification: IdentificationResult
    n_datapath_dsps: int
    dsp_graph_nodes: int
    dsp_graph_edges: int
    #: incident log of the resilience layer; ``health.degraded`` is True
    #: when a stage failure/budget/rollback affected the result.
    health: RunHealth = field(default_factory=RunHealth)
    #: span/metric snapshot, attached when the run executed under an active
    #: :func:`repro.obs.observe` block; ``None`` otherwise.
    report: RunReport | None = None

    def _quality(self, legal: bool, hpwl_um: float) -> dict:
        return {
            "legal": bool(legal),
            "hpwl_um": float(hpwl_um),
            "n_datapath_dsps": int(self.n_datapath_dsps),
            "dsp_graph_nodes": int(self.dsp_graph_nodes),
            "dsp_graph_edges": int(self.dsp_graph_edges),
        }


class DSPlacer:
    """Datapath-driven DSP placement framework for CNN accelerators."""

    def __init__(
        self,
        device: Device,
        config: DSPlacerConfig | None = None,
        identifier: DatapathIdentifier | None = None,
    ) -> None:
        self.device = device
        self.config = config or DSPlacerConfig()
        self.identifier = identifier or DatapathIdentifier(
            method=self.config.identification, seed=self.config.seed
        )
        if self.identifier.method in ("gcn", "svm") and identifier is None:
            raise ConfigurationError(
                f"{self.identifier.method!r} identification needs a trained "
                "DatapathIdentifier passed in (see repro.eval.experiments for "
                "the leave-one-out training protocol)"
            )

    def _base_placer(self):
        placer = BASE_PLACERS[self.config.base_placer]
        return placer(seed=self.config.seed, device=self.device)

    # ------------------------------------------------------------------
    def place(
        self,
        netlist: Netlist,
        initial_placement: Placement | None = None,
        sample: GraphSample | None = None,
    ) -> DSPlacerResult:
        """Run the full Fig. 2 flow on a netlist.

        Args:
            initial_placement: Skip the prototype stage and start from this
                legal placement.
            sample: Pre-computed features/graph for the identifier (avoids
                recomputing features when the caller already has them).

        Returns:
            :class:`DSPlacerResult` with a fully legal placement: the last
            Fig. 6 iterate. A stage failure, an illegal iterate or a budget
            overrun ends the alternation; under the default permissive mode
            the run then keeps the last completed legal iterate and sets
            ``result.health.degraded``, and with
            ``DSPlacerConfig(strict=True)`` the typed
            :class:`~repro.errors.ReproError` propagates instead.
        """
        cfg = self.config
        with trace.span(
            "place", netlist=netlist.name, base_placer=cfg.base_placer
        ) as root:
            result = self._place_flow(netlist, initial_placement, sample)
            root.set(degraded=result.health.degraded)
        ob = obs_active()
        if ob is not None:
            hpwl = result.placement.hpwl()
            metrics.gauge("placement.hpwl_um", hpwl)
            result.report = ob.report(
                meta={
                    "tool": "dsplacer",
                    "netlist": netlist.name,
                    "config": cfg.to_dict(),
                },
                health=result.health.to_dict(),
                quality=result._quality(result.placement.is_legal(), hpwl),
            )
            result.report.clock = run_clock_section(cfg, result.placement, netlist)
        return result

    def _place_flow(
        self,
        netlist: Netlist,
        initial_placement: Placement | None,
        sample: GraphSample | None,
    ) -> DSPlacerResult:
        cfg = self.config
        health = RunHealth()

        # 0. input validation (strict raises; permissive downgrades)
        with trace.span("place.validation"):
            problems = netlist_problems(netlist, self.device)
        if problems:
            if cfg.strict:
                raise NetlistValidationError(
                    f"netlist {netlist.name!r} failed validation "
                    f"({len(problems)} problem(s)):\n"
                    + "\n".join(f"  - {p}" for p in problems)
                )
            for p in problems:
                health.warn("validation", p)

        # 1. prototype placement
        maybe_fault("prototype")
        with trace.span("place.prototype"):
            if initial_placement is None:
                placement = self._base_placer().place(netlist)
            else:
                placement = initial_placement.copy()

        # 2. datapath DSP extraction
        with trace.span("place.extraction") as ext_sp:
            ident = self.identifier.predict(netlist, sample=sample)
            # cascade macros are placement-atomic: harmonize the classifier's
            # per-DSP labels over each chain (majority vote) so a chain is
            # either fully datapath or fully control
            flags = dict(ident.flags)
            for macro in netlist.macros:
                votes = sum(1 for i in macro.dsps if flags.get(i, False))
                verdict = 2 * votes >= len(macro.dsps)
                for i in macro.dsps:
                    flags[i] = verdict
            paths = iddfs_dsp_paths(netlist)
            dsp_graph = build_dsp_graph(netlist, paths)
            datapath_graph = prune_control_dsps(dsp_graph, flags)
            datapath_dsps = datapath_graph.nodes.tolist()
            ext_sp.set(n_datapath_dsps=len(datapath_dsps))
        metrics.gauge("extraction.datapath_dsps", len(datapath_dsps))
        metrics.gauge("extraction.dsp_graph_nodes", dsp_graph.number_of_nodes())
        metrics.gauge("extraction.dsp_graph_edges", dsp_graph.number_of_edges())

        result = DSPlacerResult(
            placement=placement,
            identification=ident,
            n_datapath_dsps=len(datapath_dsps),
            dsp_graph_nodes=dsp_graph.number_of_nodes(),
            dsp_graph_edges=dsp_graph.number_of_edges(),
            health=health,
        )
        if not datapath_dsps:
            return result

        skew = get_skew_model(cfg.skew_model, self.device)
        assigner = DatapathDSPAssigner(
            netlist,
            self.device,
            datapath_graph,
            datapath_dsps,
            cfg.assignment_config(),
            skew_model=skew,
        )
        legalizer = CascadeLegalizer(netlist, self.device)
        # one engine for every Fig. 6 pass: they share one clique system
        replacer = QuadraticGlobalPlacer(
            GlobalPlaceConfig(n_iterations=3, avoid_ps=True, seed=cfg.seed)
        )
        site_xy = self.device.site_xy("DSP")
        dsp_idx = get_csr(netlist).dsp_indices
        dsp_cells = dsp_idx.tolist()

        # checkpoint: the last completed legal iterate, the rollback target
        # of a failed iteration. It starts at the prototype when that is
        # legal: the one input the flow's own legalizers did not produce.
        checkpoint = placement.copy() if placement.is_legal() else None

        # 3. incremental datapath-driven placement (Fig. 6)
        sta = None
        if cfg.timing_driven and netlist.target_freq_mhz:
            from repro.timing.sta import StaticTimingAnalyzer

            sta = StaticTimingAnalyzer(netlist, skew_model=skew)
        for outer in range(1, cfg.outer_iterations + 1):
            budget_hit = fixed_point = False
            with trace.span("place.outer", i=outer) as outer_sp:
                try:
                    start_sites = placement.site[dsp_idx]
                    if sta is not None:
                        period = 1e3 / netlist.target_freq_mhz
                        report = sta.analyze(
                            placement, period_ns=period, with_slacks=True
                        )
                        assigner.set_criticality(report.cell_output_slack, period)
                    assign_guard = SolverGuard("assignment", health, cfg.stage_budget_s)
                    with trace.span("place.assignment"):
                        assignment, _ = assigner.solve(placement, guard=assign_guard)
                    desired = {
                        cell: tuple(site_xy[sid]) for cell, sid in assignment.items()
                    }
                    # control DSPs join legalization at their current coordinates
                    # so the shared columns stay overlap-free
                    for i in dsp_cells:
                        if i not in desired:
                            desired[i] = (
                                float(placement.xy[i, 0]),
                                float(placement.xy[i, 1]),
                            )
                    legal_guard = SolverGuard("legalization", health, cfg.stage_budget_s)
                    with trace.span("place.legalization"):
                        legal = legalizer.legalize(desired, guard=legal_guard)
                        for cell, sid in legal.site_of.items():
                            placement.assign_site(cell, sid)
                    moved = int(np.count_nonzero(placement.site[dsp_idx] != start_sites))
                    outer_sp.set(dsps_moved=moved)
                    budget_hit = assign_guard.over_budget or legal_guard.over_budget
                    # every DSP kept its site: the skeleton the last pass was
                    # placed around is a fixed point, so another pass adds
                    # nothing and the loop ends here
                    fixed_point = outer > 1 and moved == 0

                    if not budget_hit and not fixed_point:
                        maybe_fault("incremental")
                        with trace.span("place.incremental"):
                            placement = replace_other_components(
                                netlist,
                                self.device,
                                placement,
                                datapath_dsps,
                                replacer,
                            )
                    # a fixed point moved nothing, so it is still the legal
                    # iterate it started from
                    if not fixed_point and not placement.is_legal():
                        raise LegalizationError(
                            f"outer iteration {outer} left the placement illegal"
                        )
                except ReproError as exc:
                    if cfg.strict or checkpoint is None:
                        raise
                    health.record(
                        "pipeline",
                        "rollback",
                        f"outer iteration {outer} failed ({exc}); rolled back to "
                        "the last completed legal iterate",
                    )
                    health.degraded = True
                    placement = checkpoint
                    break
                if trace.enabled():
                    outer_sp.set(hpwl_um=placement.hpwl())

            if budget_hit:
                # the stage budget truncated this iteration's work; stop
                # alternating and keep what is legal so far
                if cfg.strict:
                    assign_guard.check_budget()
                    legal_guard.check_budget()
                health.degraded = True
                break
            if fixed_point:
                break
            checkpoint = placement.copy()

        result.placement = placement
        return result
