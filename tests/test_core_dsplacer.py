"""DSPlacer facade end-to-end tests on a small device."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.accelgen import generate_suite
from repro.core import DSPlacer, DSPlacerConfig
from repro.core.extraction import DatapathIdentifier, build_graph_sample
from repro.core.placement import replace_other_components
from repro.errors import ConfigurationError, LegalizationError, ReproError
from repro.fpga import fabric_device
from repro.netlist.csr import get_csr
from repro.placers.api import PlacementRequest
from repro.placers import GlobalPlaceConfig, Placement, QuadraticGlobalPlacer, VivadoLikePlacer
from repro.robustness import FaultInjector, inject
from repro.router import GlobalRouter
from repro.timing import StaticTimingAnalyzer


@pytest.fixture(scope="module")
def result(mini_accel, small_dev):
    placer = DSPlacer(small_dev, DSPlacerConfig(identification="oracle", mcf_iterations=6, seed=0))
    with obs.observe():
        return placer.place(mini_accel)


class TestDSPlacerFlow:
    def test_placement_is_legal(self, result):
        assert result.placement.is_legal(), result.placement.legality_violations()[:5]

    def test_identification_ran(self, result):
        assert result.identification.method == "oracle"
        assert result.identification.accuracy == 1.0

    def test_datapath_dsps_found(self, result, mini_accel):
        truth = sum(1 for c in mini_accel.cells if c.ctype.is_dsp and c.is_datapath)
        assert result.n_datapath_dsps == truth

    def test_dsp_graph_nontrivial(self, result):
        assert result.dsp_graph_nodes > 0
        assert result.dsp_graph_edges > 0

    def test_mcf_iterations_recorded(self, result):
        # one place.assignment span per outer iteration (outer_iterations
        # default), each holding the linearization iterates it ran
        per_outer = [
            sum(child["name"] == "assignment.iterate" for child in sp["children"])
            for sp in result.report.iter_spans()
            if sp["name"] == "place.assignment"
        ]
        assert len(per_outer) == 2
        assert all(i >= 1 for i in per_outer)
        assert sum(per_outer) == result.report.metrics["counters"]["assignment.iterates"]

    def test_cascades_all_adjacent(self, result, mini_accel, small_dev):
        sites = small_dev.sites("DSP")
        p = result.placement
        for pred, succ in mini_accel.cascade_pairs():
            sp, ss = int(p.site[pred]), int(p.site[succ])
            assert ss == sp + 1
            assert sites[sp].col == sites[ss].col


class TestDSPlacerQuality:
    def test_timing_not_worse_than_baseline(self, result, mini_accel, small_dev):
        base = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        sta = StaticTimingAnalyzer(mini_accel)
        router = GlobalRouter(grid=(16, 16))
        wns_base = sta.analyze(base, router.route(base), period_ns=8.0).wns_ns
        wns_dsp = sta.analyze(
            result.placement, router.route(result.placement), period_ns=8.0
        ).wns_ns
        assert wns_dsp >= wns_base - 0.15  # never catastrophically worse

    def test_heuristic_identification_flow(self, mini_accel, small_dev):
        placer = DSPlacer(small_dev, DSPlacerConfig(identification="heuristic", mcf_iterations=3))
        res = placer.place(mini_accel)
        assert res.placement.is_legal()

    def test_initial_placement_reused(self, mini_accel, small_dev):
        base = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        placer = DSPlacer(small_dev, DSPlacerConfig(identification="oracle", mcf_iterations=3))
        with obs.observe() as ob:
            res = placer.place(mini_accel, initial_placement=base)
        # the prototype stage copied the given placement instead of placing
        (prototype,) = ob.tracer.find("place.prototype")
        assert "placer.vivado" not in {sp.name for sp in prototype.iter()}
        assert res.placement.is_legal()

    def test_trained_identifier_flow(self, mini_accel, small_dev):
        sample = build_graph_sample(mini_accel)
        ident = DatapathIdentifier(method="gcn", epochs=30).fit([sample])
        placer = DSPlacer(small_dev, DSPlacerConfig(mcf_iterations=3), identifier=ident)
        res = placer.place(mini_accel, sample=sample)
        assert res.placement.is_legal()
        assert res.identification.method == "gcn"


class TestConfigValidation:
    def test_untrained_gcn_rejected_at_construction(self, small_dev):
        with pytest.raises(ValueError, match="trained"):
            DSPlacer(small_dev, DSPlacerConfig(identification="gcn"))

    @pytest.mark.parametrize(
        "knob, value",
        [
            pytest.param("identification", "banana", id="identification-banana"),
            pytest.param("base_placer", "banana", id="base_placer-banana"),
            pytest.param("skew_model", "banana", id="skew_model-banana"),
        ],
    )
    def test_unknown_assignment_engine_rejected(self, knob, value):
        """A misspelled identifier, base placer or skew model fails when the
        config is built — directly, from a dict, or as a serve request — not
        inside ``place()`` or a serve worker."""
        with pytest.raises(ConfigurationError, match=knob):
            DSPlacerConfig(**{knob: value})
        with pytest.raises(ConfigurationError, match=knob):
            DSPlacerConfig.from_dict({knob: value})
        request = PlacementRequest(suite="ismartdnn", config={knob: value})
        with pytest.raises(ConfigurationError, match=knob):
            request.resolved_config()

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            pytest.param("lam", float("nan"), "lam must be finite", id="lam-nan"),
            pytest.param("lam", float("inf"), "lam must be finite", id="lam-inf"),
            pytest.param("eta", float("nan"), "eta must be finite", id="eta-nan"),
            pytest.param("eta", -float("inf"), "eta must be finite", id="eta-minus-inf"),
            pytest.param("skew_weight", -1.0, "skew_weight", id="skew_weight-negative"),
            pytest.param("skew_weight", float("nan"), "skew_weight", id="skew_weight-nan"),
            pytest.param(
                "mcf_iterations", 0, "max_iterations must be an integer >= 1",
                id="mcf_iterations-0",
            ),
            pytest.param(
                "mcf_iterations", 2.5, "max_iterations must be an integer",
                id="mcf_iterations-float",
            ),
            pytest.param(
                "outer_iterations", 2.5, "outer_iterations must be an integer",
                id="outer_iterations-float",
            ),
            pytest.param(
                "outer_iterations", 0, "outer_iterations must be an integer >= 1",
                id="outer_iterations-0",
            ),
            pytest.param(
                "outer_iterations", -3, "outer_iterations must be an integer >= 1",
                id="outer_iterations-negative",
            ),
            pytest.param(
                "stage_budget_s", float("nan"), "stage_budget_s must be None or a finite",
                id="stage_budget_s-nan",
            ),
            pytest.param(
                "stage_budget_s", float("inf"), "stage_budget_s must be None or a finite",
                id="stage_budget_s-inf",
            ),
            pytest.param(
                "stage_budget_s", -1.0, "stage_budget_s must be None or a finite",
                id="stage_budget_s-negative",
            ),
            pytest.param(
                "stage_budget_s", "abc", "stage_budget_s must be None or a finite",
                id="stage_budget_s-str",
            ),
        ],
    )
    def test_bad_numeric_knob_rejected(self, knob, value, message):
        """A non-finite λ or η, a negative or non-finite skew weight, a
        linearization iterate count or outer-iteration count that is not an
        integer >= 1, and a stage budget that is not a finite number > 0
        fail when the config is built, the same three ways as above, before
        any placement runs."""
        with pytest.raises(ConfigurationError, match=message):
            DSPlacerConfig(**{knob: value})
        with pytest.raises(ConfigurationError, match=message):
            DSPlacerConfig.from_dict({knob: value})
        request = PlacementRequest(suite="ismartdnn", config={knob: value})
        with pytest.raises(ConfigurationError, match=message):
            request.resolved_config()

    def test_bad_base_placer(self):
        with pytest.raises(ConfigurationError, match="base_placer 'quartus'"):
            DSPlacerConfig(identification="oracle", base_placer="quartus")

    def test_amf_base_placer(self, small_dev, mini_accel):
        placer = DSPlacer(
            small_dev,
            DSPlacerConfig(identification="oracle", base_placer="amf", mcf_iterations=2),
        )
        assert placer.place(mini_accel).placement.is_legal()


class TestIncrementalReplace:
    def test_frozen_dsps_stay(self, mini_accel, small_dev):
        base = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        frozen = [c.index for c in mini_accel.cells if c.ctype.is_dsp and c.is_datapath]
        before = base.site[frozen].copy()
        engine = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=3))
        out = replace_other_components(mini_accel, small_dev, base, frozen, engine)
        assert np.array_equal(out.site[frozen], before)
        assert out.is_legal()


class TestCheckpoint:
    """The flow returns its last Fig. 6 iterate. Its one checkpoint, the last
    completed legal iterate (the prototype first), is the rollback target of
    a failed iteration and of nothing else, so a fault-free run logs no
    health event and is the same placement in permissive and strict mode."""

    @staticmethod
    def _case(suite, seed):
        device = fabric_device("zcu104", 0.05)
        return device, generate_suite(suite, scale=0.05, device=device, seed=seed)

    @staticmethod
    def _fingerprint(placement):
        """SHA-256 of the site and xy bytes (short failure messages)."""
        return tuple(
            hashlib.sha256(a.tobytes()).hexdigest() for a in (placement.site, placement.xy)
        )

    @pytest.mark.parametrize("suite", ["ismartdnn", "skynet"])
    def test_last_iterate_not_the_prototype(self, suite):
        # netlist seed 1: iteration 1 is worse in HPWL than the prototype,
        # which an HPWL rollback guard would have returned
        device, netlist = self._case(suite, 1)
        result = DSPlacer(device).place(netlist)
        prototype = VivadoLikePlacer(seed=0, device=device).place(netlist)
        assert self._fingerprint(result.placement) != self._fingerprint(prototype)
        strict = DSPlacer(device, DSPlacerConfig(strict=True)).place(netlist)
        assert self._fingerprint(strict.placement) == self._fingerprint(result.placement)
        assert result.health.events == [] and result.health.degraded is False

    def test_failure_rolls_back_to_last_completed_iterate(self):
        # skrskr2@0.05 (netlist seed 1) moves DSPs in iteration 2, so its
        # second re-placement runs and the fault fires there
        device, netlist = self._case("skrskr2", 1)
        with inject(FaultInjector().fail_on("incremental", call=2)):
            result = DSPlacer(device).place(netlist)
        assert result.health.n_rollbacks == 1
        assert result.health.degraded is True
        one_pass = DSPlacer(device, DSPlacerConfig(outer_iterations=1)).place(netlist)
        assert self._fingerprint(result.placement) == self._fingerprint(one_pass.placement)

    @staticmethod
    def _second_replacement_collides(monkeypatch):
        """Make the second re-placement put two DSPs on one site."""
        calls = 0

        def replace(netlist, device, placement, frozen, engine):
            nonlocal calls
            calls += 1
            out = replace_other_components(netlist, device, placement, frozen, engine)
            if calls == 2:
                a, b = get_csr(netlist).dsp_indices[:2].tolist()
                out.assign_site(b, int(out.site[a]))
            return out

        monkeypatch.setattr("repro.core.dsplacer.replace_other_components", replace)

    def test_illegal_iterate_rolls_back(self, monkeypatch):
        device, netlist = self._case("skrskr2", 1)
        one_pass = DSPlacer(device, DSPlacerConfig(outer_iterations=1)).place(netlist)
        self._second_replacement_collides(monkeypatch)
        result = DSPlacer(device).place(netlist)
        assert result.health.degraded is True
        assert result.health.n_rollbacks == 1
        assert result.placement.is_legal()
        assert self._fingerprint(result.placement) == self._fingerprint(one_pass.placement)

    def test_illegal_iterate_raises_in_strict_mode(self, monkeypatch):
        device, netlist = self._case("skrskr2", 1)
        self._second_replacement_collides(monkeypatch)
        with pytest.raises(LegalizationError, match="outer iteration 2"):
            DSPlacer(device, DSPlacerConfig(strict=True)).place(netlist)

    def test_no_legal_checkpoint_raises(self, mini_accel, small_dev):
        start = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        a, b = get_csr(mini_accel).dsp_indices[:2].tolist()
        start.assign_site(b, int(start.site[a]))
        assert not start.is_legal()
        with inject(FaultInjector().fail_on("incremental", call=1)):
            with pytest.raises(ReproError):
                DSPlacer(small_dev, DSPlacerConfig(identification="oracle")).place(
                    mini_accel, initial_placement=start
                )

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("is_legal", "hpwl"):
            def spy(self, *args, _name=name, _real=getattr(Placement, name), **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(Placement, name, spy)
        return calls

    @pytest.mark.parametrize(
        "suite, seed, passes",
        [("ismartdnn", 0, 1), ("skrskr2", 1, 2)],  # iteration 2 a fixed point, or not
    )
    def test_unobserved_place_checks_legality_only(self, calls, suite, seed, passes):
        device, netlist = self._case(suite, seed)
        result = DSPlacer(device).place(netlist)
        assert result.report is None and not result.health.degraded
        # the prototype, then each iteration that was not a fixed point
        assert calls == {"is_legal": 1 + passes}

    def test_observed_place_records_the_hpwl_trajectory(self, calls):
        device, netlist = self._case("skrskr2", 1)
        with obs.observe() as ob:
            result = DSPlacer(device).place(netlist)
        outers = ob.tracer.find("place.outer")
        # one HPWL per iterate, one more for the report's quality
        assert calls == {"is_legal": 4, "hpwl": len(outers) + 1}
        quality = result.report.quality
        assert quality["legal"] is True
        assert quality["hpwl_um"] == outers[-1].attrs["hpwl_um"] == result.placement.hpwl()
        assert result.report.metrics["gauges"]["placement.hpwl_um"] == quality["hpwl_um"]


class TestFixedPointStop:
    """From outer iteration 2 on, an iteration whose assignment and cascade
    legalization leave every DSP on its site skips its re-placement and
    ends the loop: ``outer_iterations`` is an upper bound."""

    @staticmethod
    def _place(suite, seed, **overrides):
        device = fabric_device("zcu104", 0.05)
        netlist = generate_suite(suite, scale=0.05, device=device, seed=seed)
        with obs.observe() as ob:
            result = DSPlacer(device, DSPlacerConfig(**overrides)).place(netlist)
        return result, ob.tracer.find("place.outer")

    def test_fixed_point_returns_the_one_pass_placement(self):
        # skynet@0.05 (netlist seed 0): iteration 2 moves no DSP
        result, outers = self._place("skynet", 0)
        assert result.report.metrics["counters"]["incremental.replaces"] == 1
        assert [sp.attrs["dsps_moved"] for sp in outers][1:] == [0]
        assert result.health.degraded is False
        assert result.health.count("rollback") == 0
        site, xy = result.placement.site.tobytes(), result.placement.xy.tobytes()
        for overrides in ({"outer_iterations": 1}, {"strict": True}, {"outer_iterations": 3}):
            other, _ = self._place("skynet", 0, **overrides)
            assert other.placement.site.tobytes() == site, overrides
            assert other.placement.xy.tobytes() == xy, overrides

    def test_moving_iteration_keeps_its_replacement(self):
        # skrskr2@0.05 (netlist seed 1): iteration 2 moves DSPs
        result, outers = self._place("skrskr2", 1)
        assert result.report.metrics["counters"]["incremental.replaces"] == 2
        assert len(outers) == 2
        assert all(sp.attrs["dsps_moved"] > 0 for sp in outers)
