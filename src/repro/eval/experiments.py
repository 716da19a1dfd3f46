"""Experiment runners for every table and figure of the paper's Section V.

Scale protocol
    Full-scale placement/routing/STA of 100k-cell netlists is hours of pure
    Python, so experiments default to ``scale=0.25`` (set ``REPRO_SCALE=1``
    for full scale): benchmark resource budgets shrink by the scale factor
    and the device shrinks geometrically to keep utilization — DSP% is the
    quantity the paper sweeps — faithful to Table I.

Frequency protocol (paper Section V-C)
    "We first use Vivado for placement while progressively increasing the
    clock frequency for each benchmark until a negative WNS is observed. At
    the same frequency, DSPlacer is then employed." We implement exactly
    that: the evaluation clock of each suite is the Vivado-like baseline's
    f_max × (1 + margin), which makes the baseline's WNS slightly negative;
    AMF and DSPlacer are then evaluated at the same clock.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.accelgen import SUITE_NAMES, generate_suite
from repro.core.dsplacer import DSPlacer, DSPlacerConfig
from repro.core.extraction.dsp_graph import build_dsp_graph, prune_control_dsps
from repro.core.extraction.features import FeatureConfig
from repro.core.extraction.iddfs import iddfs_dsp_paths
from repro.core.extraction.identification import (
    DatapathIdentifier,
    build_graph_sample,
)
from repro.eval.profiling import RuntimeBreakdown, traced
from repro.eval.visualization import DatapathLayoutMetrics, layout_metrics, placement_to_svg
from repro.fpga.builders import scaled_zcu104, zcu104
from repro.ml.train import GraphSample, leave_one_out
from repro.netlist.netlist import Netlist
from repro.placers.amf_like import AMFLikePlacer
from repro.placers.placement import Placement
from repro.placers.vivado_like import VivadoLikePlacer
from repro.router.global_router import GlobalRouter
from repro.timing.sta import StaticTimingAnalyzer

TOOLS = ("vivado", "amf", "dsplacer")


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared experiment configuration."""

    scale: float = float(os.environ.get("REPRO_SCALE", "0.25"))
    suites: tuple[str, ...] = SUITE_NAMES
    identification: str = os.environ.get("REPRO_IDENT", "gcn")
    gcn_epochs: int = int(os.environ.get("REPRO_GCN_EPOCHS", "100"))
    freq_margin: float = 0.03
    feature_pivots: int = 32
    seed: int = 0


# ----------------------------------------------------------------------
# shared per-process cache (netlists and features are expensive)
# ----------------------------------------------------------------------
_CACHE: dict = {}


def _cached(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _disk_cached(key, builder):
    """Pickle-backed cache for expensive artifacts (feature matrices,
    trained identification models). Controlled by ``REPRO_CACHE`` (set to
    ``0`` to disable) and ``REPRO_CACHE_DIR`` (default
    ``benchmarks/_cache`` next to this repo's benchmarks)."""
    if key in _CACHE:
        return _CACHE[key]
    if os.environ.get("REPRO_CACHE", "1") == "0":
        return _cached(key, builder)
    import hashlib
    import pathlib
    import pickle

    cache_dir = pathlib.Path(
        os.environ.get(
            "REPRO_CACHE_DIR",
            pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "_cache",
        )
    )
    cache_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha1(repr(key).encode()).hexdigest()[:16]
    path = cache_dir / f"{key[0]}_{digest}.pkl"
    if path.exists():
        try:
            with path.open("rb") as fh:
                _CACHE[key] = pickle.load(fh)
            return _CACHE[key]
        except Exception:
            path.unlink(missing_ok=True)
    value = builder()
    _CACHE[key] = value
    try:
        with path.open("wb") as fh:
            pickle.dump(value, fh)
    except Exception:
        path.unlink(missing_ok=True)
    return value


def get_device(settings: ExperimentSettings):
    return _cached(("device", settings.scale), lambda: scaled_zcu104(settings.scale))


def get_netlist(settings: ExperimentSettings, suite: str) -> Netlist:
    return _cached(
        ("netlist", suite, settings.scale),
        lambda: generate_suite(suite, scale=settings.scale, device=get_device(settings)),
    )


def get_sample(settings: ExperimentSettings, suite: str) -> GraphSample:
    return _disk_cached(
        ("sample", suite, settings.scale, settings.feature_pivots),
        lambda: build_graph_sample(
            get_netlist(settings, suite),
            feature_config=FeatureConfig(n_pivots=settings.feature_pivots, seed=settings.seed),
        ),
    )


# ======================================================================
# Table I — benchmark details
# ======================================================================
def run_table1(settings: ExperimentSettings | None = None) -> list[dict]:
    """Generate all suites at FULL scale and report Table I's columns."""
    settings = settings or ExperimentSettings()
    device = _cached(("device", 1.0), zcu104)
    rows = []
    for suite in settings.suites:
        netlist = _cached(
            ("netlist", suite, 1.0), lambda s=suite: generate_suite(s, 1.0, device=device)
        )
        st = netlist.stats(device.n_dsp)
        rows.append(
            {
                "design": st.name,
                "lut": st.n_lut,
                "lutram": st.n_lutram,
                "ff": st.n_ff,
                "bram": st.n_bram,
                "dsp": st.n_dsp,
                "dsp_pct": round(100 * st.dsp_pct),
                "freq_mhz": st.target_freq_mhz,
            }
        )
    return rows


# ======================================================================
# Fig. 7 — datapath DSP identification (GCN vs SVM, leave-one-out)
# ======================================================================
@dataclass
class Fig7Result:
    """Fig. 7(a) accuracies and Fig. 7(b) curves, plus reusable models."""

    gcn_accuracy: dict[str, float]
    svm_accuracy: dict[str, float]
    train_curves: dict[str, list[float]]
    test_curves: dict[str, list[float]]
    identifiers: dict[str, DatapathIdentifier] = field(default_factory=dict)

    @property
    def gcn_mean(self) -> float:
        return float(np.mean(list(self.gcn_accuracy.values())))

    @property
    def svm_mean(self) -> float:
        return float(np.mean(list(self.svm_accuracy.values())))


def run_fig7(settings: ExperimentSettings | None = None) -> Fig7Result:
    """Leave-one-out identification across the suites (paper Section V-B)."""
    settings = settings or ExperimentSettings()

    def build() -> Fig7Result:
        samples = [get_sample(settings, s) for s in settings.suites]
        loo = leave_one_out(samples, epochs=settings.gcn_epochs, seed=settings.seed)
        gcn_acc, curves_tr, curves_te, identifiers = {}, {}, {}, {}
        for name, result in loo.items():
            gcn_acc[name] = result.final_test_accuracy
            curves_tr[name] = result.train_curve
            curves_te[name] = result.test_curve
            ident = DatapathIdentifier(method="gcn", seed=settings.seed)
            ident._gcn = result
            identifiers[name] = ident
        svm_acc = {}
        for i, suite in enumerate(settings.suites):
            train = [s for j, s in enumerate(samples) if j != i]
            svm = DatapathIdentifier(method="svm", seed=settings.seed).fit(train)
            res = svm.predict(get_netlist(settings, suite), sample=samples[i])
            svm_acc[samples[i].name] = res.accuracy
        return Fig7Result(
            gcn_accuracy=gcn_acc,
            svm_accuracy=svm_acc,
            train_curves=curves_tr,
            test_curves=curves_te,
            identifiers=identifiers,
        )

    return _disk_cached(("fig7", settings.scale, settings.gcn_epochs), build)


def _identifier_for(settings: ExperimentSettings, suite: str) -> DatapathIdentifier:
    """The identifier DSPlacer uses for one suite under the settings."""
    method = settings.identification
    if method in ("oracle", "heuristic"):
        return DatapathIdentifier(method=method, seed=settings.seed)
    if method == "gcn":
        fig7 = run_fig7(settings)
        sample_name = get_sample(settings, suite).name
        return fig7.identifiers[sample_name]
    raise ValueError(f"unsupported identification {method!r} for placement runs")


# ======================================================================
# Table II — placement performance comparison
# ======================================================================
@dataclass
class ToolRow:
    """One (benchmark, tool) result row."""

    benchmark: str
    tool: str
    wns_ns: float
    tns_ns: float
    hpwl_um: float
    routed_wl_um: float
    runtime_s: float
    eval_freq_mhz: float
    placement: Placement | None = None


@dataclass
class Table2Result:
    """All rows + the paper's "Normalize" ratios (vs. DSPlacer = 1.0)."""

    rows: list[ToolRow]

    def tool_rows(self, tool: str) -> list[ToolRow]:
        return [r for r in self.rows if r.tool == tool]

    def normalize(self) -> dict[str, dict[str, float]]:
        """Per-tool ratios against DSPlacer (>1 ⇒ worse, as in Table II).

        WNS is normalized through the worst path delay (period − WNS), TNS
        through 1+|TNS| (both are scale-free and sign-safe); HPWL and
        runtime are plain sums.
        """
        out: dict[str, dict[str, float]] = {}
        ref = {r.benchmark: r for r in self.tool_rows("dsplacer")}
        for tool in TOOLS:
            wns_r, tns_r, hp, rt, hp_ref, rt_ref = [], [], 0.0, 0.0, 0.0, 0.0
            for r in self.tool_rows(tool):
                b = ref[r.benchmark]
                period = 1e3 / r.eval_freq_mhz
                wns_r.append((period - r.wns_ns) / (period - b.wns_ns))
                tns_r.append((1.0 + abs(r.tns_ns)) / (1.0 + abs(b.tns_ns)))
                hp += r.hpwl_um
                rt += r.runtime_s
                hp_ref += b.hpwl_um
                rt_ref += b.runtime_s
            out[tool] = {
                "wns": float(np.mean(wns_r)),
                "tns": float(np.mean(tns_r)),
                "hpwl": hp / hp_ref,
                "runtime": rt / rt_ref,
            }
        return out


def run_suite_tool(
    settings: ExperimentSettings, suite: str, tool: str
) -> tuple[Placement, float]:
    """Place one suite with one tool; returns (placement, wall seconds).

    Every tool is timed the same way, end to end, for Table II.
    """
    device = get_device(settings)
    netlist = get_netlist(settings, suite)
    # the GCN identifier trains (Fig. 7's leave-one-out) on first use: that
    # is set-up, so it is built before the clock starts
    identifier = _identifier_for(settings, suite) if tool == "dsplacer" else None
    t0 = time.perf_counter()
    if tool == "vivado":
        placement = VivadoLikePlacer(seed=settings.seed, device=device).place(netlist)
    elif tool == "amf":
        placement = AMFLikePlacer(seed=settings.seed, device=device).place(netlist)
    elif tool == "dsplacer":
        placer = DSPlacer(
            device,
            DSPlacerConfig(seed=settings.seed),
            identifier=identifier,
        )
        placement = placer.place(netlist, sample=get_sample(settings, suite)).placement
    else:
        raise ValueError(f"unknown tool {tool!r}")
    return placement, time.perf_counter() - t0


def run_table2(settings: ExperimentSettings | None = None) -> Table2Result:
    """The paper's headline comparison (Table II)."""
    settings = settings or ExperimentSettings()

    def build() -> Table2Result:
        router = GlobalRouter()
        rows: list[ToolRow] = []
        for suite in settings.suites:
            netlist = get_netlist(settings, suite)
            sta = StaticTimingAnalyzer(netlist)
            results: dict[str, tuple[Placement, float]] = {}
            for tool in TOOLS:
                results[tool] = run_suite_tool(settings, suite, tool)
            # frequency protocol: push the clock just past Vivado's f_max
            base_placement, _ = results["vivado"]
            base_route = router.route(base_placement)
            base_rep = sta.analyze(base_placement, base_route, period_ns=10.0)
            eval_freq = base_rep.freq_mhz_limit * (1.0 + settings.freq_margin)
            period = 1e3 / eval_freq
            for tool in TOOLS:
                placement, seconds = results[tool]
                route = router.route(placement)
                rep = sta.analyze(placement, route, period_ns=period)
                rows.append(
                    ToolRow(
                        benchmark=netlist.name,
                        tool=tool,
                        wns_ns=rep.wns_ns,
                        tns_ns=rep.tns_ns,
                        hpwl_um=placement.hpwl(),
                        routed_wl_um=route.total_wirelength,
                        runtime_s=seconds,
                        eval_freq_mhz=eval_freq,
                        placement=placement,
                    )
                )
        return Table2Result(rows=rows)

    return _cached(("table2", settings.scale, settings.identification), build)


# ======================================================================
# Fig. 8 — runtime profiling
# ======================================================================
def run_fig8(
    settings: ExperimentSettings | None = None,
    suites: tuple[str, ...] = ("ismartdnn", "skynet"),
) -> list[RuntimeBreakdown]:
    """Stage breakdown of a DSPlacer run (+ routing), per Fig. 8, read
    from the run's ``place`` and ``route`` spans."""
    settings = settings or ExperimentSettings()
    out = []
    router = GlobalRouter()
    for suite in suites:
        (placement, _), place = traced("place", run_suite_tool, settings, suite, "dsplacer")
        _, route = traced("route", router.route, placement)
        name = get_netlist(settings, suite).name
        out.append(RuntimeBreakdown.from_spans(name, place, route))
    return out


# ======================================================================
# Frequency sweep — the §V-C protocol as a curve (extension)
# ======================================================================
@dataclass
class FreqSweepResult:
    """WNS vs clock frequency per tool for one suite."""

    benchmark: str
    freqs_mhz: list[float]
    wns_by_tool: dict[str, list[float]]

    def break_frequency(self, tool: str) -> float:
        """Highest swept frequency with non-negative WNS for a tool."""
        best = 0.0
        for f, w in zip(self.freqs_mhz, self.wns_by_tool[tool]):
            if w >= 0:
                best = max(best, f)
        return best


def run_freq_sweep(
    settings: ExperimentSettings | None = None,
    suite: str = "skrskr1",
    n_points: int = 8,
) -> FreqSweepResult:
    """Sweep the clock across the three tools' feasible band.

    The paper applies its protocol at a single point (the Vivado break
    frequency); the sweep shows the whole crossover structure — where each
    tool's WNS crosses zero and how the gap between DSPlacer and the
    baselines widens with frequency.
    """
    settings = settings or ExperimentSettings()
    netlist = get_netlist(settings, suite)
    sta = StaticTimingAnalyzer(netlist)
    router = GlobalRouter()
    placements = {}
    for tool in TOOLS:
        placement, _ = run_suite_tool(settings, suite, tool)
        placements[tool] = (placement, router.route(placement))
    # band: spans every tool's f_max
    fmaxes = {
        tool: sta.analyze(p, r, period_ns=100.0).freq_mhz_limit
        for tool, (p, r) in placements.items()
    }
    lo = min(fmaxes.values()) * 0.85
    hi = max(fmaxes.values()) * 1.1
    freqs = list(np.linspace(lo, hi, n_points))
    wns_by_tool = {
        tool: [
            sta.analyze(p, r, period_ns=1e3 / f).wns_ns for f in freqs
        ]
        for tool, (p, r) in placements.items()
    }
    return FreqSweepResult(
        benchmark=netlist.name, freqs_mhz=freqs, wns_by_tool=wns_by_tool
    )


# ======================================================================
# Fig. 9 — layout visualization
# ======================================================================
@dataclass
class Fig9Result:
    """Fig. 9 for one benchmark: metrics + SVGs per tool."""

    benchmark: str
    metrics: dict[str, DatapathLayoutMetrics]
    svg_paths: dict[str, str]


def run_fig9(
    settings: ExperimentSettings | None = None,
    suite: str = "skrskr1",
    out_dir: str = "fig9_layouts",
) -> Fig9Result:
    """Generate the three SkrSkr-1 layouts and their order metrics."""
    import pathlib

    settings = settings or ExperimentSettings()
    netlist = get_netlist(settings, suite)
    paths = iddfs_dsp_paths(netlist)
    graph = build_dsp_graph(netlist, paths)
    oracle = {i: bool(netlist.cells[i].is_datapath) for i in netlist.dsp_indices()}
    datapath_graph = prune_control_dsps(graph, oracle)

    pathlib.Path(out_dir).mkdir(parents=True, exist_ok=True)
    metrics: dict[str, DatapathLayoutMetrics] = {}
    svgs: dict[str, str] = {}
    for tool in TOOLS:
        placement, _ = run_suite_tool(settings, suite, tool)
        metrics[tool] = layout_metrics(placement, datapath_graph)
        svg_path = str(pathlib.Path(out_dir) / f"{suite}_{tool}.svg")
        placement_to_svg(
            placement,
            datapath_graph,
            path=svg_path,
            title=f"{netlist.name} — {tool}",
        )
        svgs[tool] = svg_path
    return Fig9Result(benchmark=netlist.name, metrics=metrics, svg_paths=svgs)
