"""DSPlacer facade end-to-end tests on a small device."""

import contextlib
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.accelgen import generate_suite
from repro.core import DSPlacer, DSPlacerConfig
from repro.core.extraction import DatapathIdentifier, build_graph_sample
from repro.core.placement import replace_other_components
from repro.errors import ConfigurationError
from repro.fpga import fabric_device
from repro.placers.api import PlacementRequest
from repro.placers import GlobalPlaceConfig, Placement, QuadraticGlobalPlacer, VivadoLikePlacer
from repro.robustness import FaultInjector, inject
from repro.router import GlobalRouter
from repro.timing import StaticTimingAnalyzer


@pytest.fixture(scope="module")
def result(mini_accel, small_dev):
    placer = DSPlacer(small_dev, DSPlacerConfig(identification="oracle", mcf_iterations=6, seed=0))
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
        assert len(result.mcf_iterations_used) == 2  # outer_iterations default
        assert all(i >= 1 for i in result.mcf_iterations_used)

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
            pytest.param("assignment_engine", "banana", id="banana"),
            pytest.param("assignment_engine", "auction", id="auction"),
            pytest.param("identification", "banana", id="identification-banana"),
            pytest.param("base_placer", "banana", id="base_placer-banana"),
            pytest.param("skew_model", "banana", id="skew_model-banana"),
        ],
    )
    def test_unknown_assignment_engine_rejected(self, knob, value):
        """A misspelled or retired engine, identifier, base placer or skew
        model fails when the config is built — directly, from a dict, or as
        a serve request — not inside ``place()`` or a serve worker."""
        with pytest.raises(ConfigurationError, match=knob):
            DSPlacerConfig(**{knob: value})
        with pytest.raises(ConfigurationError, match=knob):
            DSPlacerConfig.from_dict({knob: value})
        request = PlacementRequest(suite="ismartdnn", config={knob: value})
        with pytest.raises(ConfigurationError, match=knob):
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


class TestGuardChecks:
    """The rollback guard checks legality and HPWL once per placement it
    sees: the prototype and each outer iteration's result. The final
    selection and the observed report reuse the last verdict while the
    placement is that very object, and check a rolled-back copy afresh."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("is_legal", "hpwl"):
            def spy(self, *args, _name=name, _real=getattr(Placement, name), **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(Placement, name, spy)
        return calls

    @pytest.mark.parametrize("observed", [False, True])
    def test_three_checks_per_cold_place(self, calls, observed):
        # ismartdnn@0.05 ends on its last iterate: no rollback
        device = fabric_device("zcu104", 0.05)
        netlist = generate_suite("ismartdnn", scale=0.05, device=device, seed=0)
        with obs.observe() if observed else contextlib.nullcontext():
            result = DSPlacer(device).place(netlist)
        assert not result.health.degraded
        assert calls == {"is_legal": 3, "hpwl": 3}
        if observed:
            quality = result.report.quality
            assert quality["legal"] is True
            assert quality["hpwl_um"] == result.placement.hpwl()
            assert result.report.metrics["gauges"]["placement.hpwl_um"] == quality["hpwl_um"]

    def test_rollback_copy_checked_again(self, calls, small_dev, mini_accel):
        fi = FaultInjector().fail_on("incremental", call=2)
        with inject(fi), obs.observe():
            result = DSPlacer(small_dev).place(mini_accel)
        assert result.health.n_rollbacks == 1
        # prototype, iteration 1, the rolled-back copy at the final selection
        assert calls == {"is_legal": 3, "hpwl": 3}
        assert result.report.quality["hpwl_um"] == result.placement.hpwl()
