"""The unified Placer protocol: conformance, config hashing."""

import json

import pytest

from repro.core.dsplacer import DSPlacerConfig
from repro.errors import ConfigurationError
from repro.placers import (
    PLACER_NAMES,
    DSPlacerAdapter,
    Placer,
    get_placer,
)
from repro.placers.amf_like import AMFLikePlacer
from repro.placers.api import PlacementRequest, PlacementResponse
from repro.placers.vivado_like import VivadoLikePlacer


class TestProtocolConformance:
    @pytest.mark.parametrize("name", PLACER_NAMES)
    def test_every_engine_conforms(self, name, small_dev, mini_accel):
        placer = get_placer(name, small_dev, seed=0)
        assert isinstance(placer, Placer)
        assert placer.name == name
        placement = placer.place(mini_accel)
        assert placement.is_legal(), placement.legality_violations()[:3]

    def test_unknown_name_rejected(self, small_dev):
        with pytest.raises(ConfigurationError, match="unknown placer"):
            get_placer("quartus", small_dev)

    def test_adapter_keeps_full_result(self, small_dev, mini_accel):
        adapter = get_placer("dsplacer", small_dev, seed=0)
        assert isinstance(adapter, DSPlacerAdapter)
        assert adapter.last_result is None
        placement = adapter.place(mini_accel)
        result = adapter.last_result
        assert result is not None
        assert result.placement is placement
        assert result.identification is not None


class TestShimRemoved:
    """A baseline placer is bound to its device at construction."""

    def test_positional_device_rejected(self, small_dev, mini_accel):
        # the second positional is `placement`; a device passed there errors
        # loudly instead of silently re-binding
        for baseline in (VivadoLikePlacer, AMFLikePlacer):
            placer = baseline(seed=0, device=small_dev)
            with pytest.raises((TypeError, AttributeError, ConfigurationError)):
                placer.place(mini_accel, small_dev)

    def test_no_device_anywhere_is_an_error(self):
        for baseline in (VivadoLikePlacer, AMFLikePlacer):
            with pytest.raises(TypeError, match="device"):
                baseline(seed=0)

    @pytest.mark.parametrize(
        "baseline, knob, value",
        [
            pytest.param(VivadoLikePlacer, "n_iterations", 6, id="vivado-n_iterations"),
            pytest.param(VivadoLikePlacer, "refine_passes", 2, id="vivado-refine_passes"),
            pytest.param(VivadoLikePlacer, "td_rounds", 1, id="vivado-td_rounds"),
            pytest.param(VivadoLikePlacer, "td_boost", 2.0, id="vivado-td_boost"),
            pytest.param(VivadoLikePlacer, "pack_ble", True, id="vivado-pack_ble"),
            pytest.param(AMFLikePlacer, "n_iterations", 14, id="amf-n_iterations"),
            pytest.param(AMFLikePlacer, "refine_passes", 1, id="amf-refine_passes"),
            pytest.param(AMFLikePlacer, "fabric_scale", 1.5, id="amf-fabric_scale"),
        ],
    )
    def test_removed_keyword_rejected(self, small_dev, baseline, knob, value):
        """A baseline's loop counts are module constants, not keywords."""
        with pytest.raises(TypeError, match=knob):
            baseline(seed=0, device=small_dev, **{knob: value})


class TestConfigRoundTrip:
    def test_to_dict_from_dict(self):
        cfg = DSPlacerConfig(seed=3, outer_iterations=2)
        again = DSPlacerConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_partial_dict_uses_defaults(self):
        cfg = DSPlacerConfig.from_dict({"seed": 11})
        assert cfg.seed == 11
        assert cfg.outer_iterations == DSPlacerConfig().outer_iterations

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            DSPlacerConfig.from_dict({"seed": 1, "turbo": True})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigurationError):
            DSPlacerConfig.from_dict(["seed", 1])

    def test_config_flows_through_factory(self, small_dev):
        cfg = DSPlacerConfig(seed=5, outer_iterations=1)
        adapter = get_placer("dsplacer", small_dev, config=cfg)
        assert adapter.dsplacer.config is cfg


class TestConfigCanonicalForm:
    """to_dict is the canonical, hash-stable serve cache-key form."""

    def test_keys_sorted_and_defaults_filled(self):
        doc = DSPlacerConfig().to_dict()
        assert list(doc) == sorted(doc)
        assert set(doc) == {f for f in DSPlacerConfig.__dataclass_fields__}

    def test_equivalent_configs_hash_identically(self):
        # an int-valued float knob and a bool-as-int must normalize
        a = DSPlacerConfig.from_dict({"lam": 100, "strict": 0, "eta": 25})
        b = DSPlacerConfig(lam=100.0, strict=False, eta=25.0)
        assert a.to_dict() == b.to_dict()
        assert a.content_hash() == b.content_hash()

    def test_different_configs_hash_differently(self):
        assert (
            DSPlacerConfig(seed=0).content_hash()
            != DSPlacerConfig(seed=1).content_hash()
        )

    def test_round_trip_through_canonical_json(self):
        cfg = DSPlacerConfig(seed=9, lam=7.5, stage_budget_s=2)
        doc = json.loads(cfg.canonical_json())
        again = DSPlacerConfig.from_dict(doc)
        assert again == cfg
        assert again.content_hash() == cfg.content_hash()

    def test_optional_float_normalizes(self):
        a = DSPlacerConfig.from_dict({"stage_budget_s": 2})
        b = DSPlacerConfig(stage_budget_s=2.0)
        assert a.content_hash() == b.content_hash()
        assert DSPlacerConfig().to_dict()["stage_budget_s"] is None


class TestPlacementRequest:
    def test_defaults_and_validation(self):
        req = PlacementRequest()
        assert req.tool == "dsplacer" and req.race_k == 1
        with pytest.raises(ConfigurationError, match="unknown tool"):
            PlacementRequest(tool="quartus")
        with pytest.raises(ConfigurationError, match="race policy"):
            PlacementRequest(race_policy="lottery")
        with pytest.raises(ConfigurationError, match="race_k"):
            PlacementRequest(race_k=0)

    def test_round_trip(self):
        req = PlacementRequest(
            suite="skrskr1", scale=0.05, seed=3, race_k=3, race_policy="first",
            config={"outer_iterations": 1},
        )
        again = PlacementRequest.from_dict(req.to_dict())
        assert again == req
        with pytest.raises(ConfigurationError, match="unknown PlacementRequest"):
            PlacementRequest.from_dict({"sweet": "skynet"})

    def test_attempt_seeds_and_with_seed(self):
        req = PlacementRequest(seed=10, race_k=3)
        assert req.attempt_seeds() == [10, 11, 12]
        pinned = req.with_seed(12)
        assert pinned.seed == 12
        # the workload netlist stays pinned to the base seed
        assert pinned.effective_netlist_seed == 10
        assert pinned.resolved_config().seed == 12

    def test_config_overrides_flow_into_resolved_config(self):
        req = PlacementRequest(seed=2, config={"lam": 50, "outer_iterations": 1})
        cfg = req.resolved_config()
        assert cfg.lam == 50.0 and cfg.outer_iterations == 1 and cfg.seed == 2


class TestPlacementResponse:
    def test_ok_and_wall_time(self):
        resp = PlacementResponse(
            job_id="j1", status="ok", submitted_unix=1.0, finished_unix=3.5
        )
        assert resp.ok and resp.wall_s == pytest.approx(2.5)
        assert resp.raise_for_status() is resp

    def test_raise_for_status_rehydrates_typed_error(self):
        from repro.errors import ServeError, WorkerCrashError

        resp = PlacementResponse(
            job_id="j2",
            status="failed",
            error={"type": "WorkerCrashError", "message": "worker died"},
        )
        with pytest.raises(WorkerCrashError, match="worker died"):
            resp.raise_for_status()
        bare = PlacementResponse(job_id="j3", status="cancelled")
        with pytest.raises(ServeError):
            bare.raise_for_status()

    def test_to_dict_is_json_ready(self):
        resp = PlacementResponse(job_id="j4", status="ok", request=PlacementRequest())
        doc = json.loads(json.dumps(resp.to_dict()))
        assert doc["job_id"] == "j4" and doc["request"]["tool"] == "dsplacer"
