"""Placement-as-a-service: cache keys, job lifecycle, racing, workers."""

import pytest

from repro.accelgen import generate_suite
from repro.clock import clock_report_section, get_skew_model
from repro.errors import JobCancelledError, ServeError
from repro.fpga import fabric_device
from repro.netlist import CascadeMacro, CellType, netlist_from_json, netlist_to_json
from repro.obs import SCHEMA_VERSION, validate_report
from repro.placers.api import PlacementRequest
from repro.router import GlobalRouter
from repro.serve import (
    CacheEntry,
    PlacementServer,
    ResultCache,
    cache_key,
    device_id,
    netlist_content_hash,
)
from repro.timing import StaticTimingAnalyzer, max_frequency

#: one outer iteration keeps each worker placement well under a second
FAST = {"outer_iterations": 1}


def fast_request(**overrides) -> PlacementRequest:
    doc = {"suite": "ismartdnn", "scale": 0.02, "seed": 0, "config": FAST}
    doc.update(overrides)
    return PlacementRequest(**doc)


@pytest.fixture()
def server():
    with PlacementServer(workers=2) as srv:
        yield srv


class TestCacheKey:
    def test_identical_inputs_collide(self, small_dev, mini_accel):
        a = cache_key(mini_accel, small_dev, fast_request())
        b = cache_key(mini_accel, small_dev, fast_request())
        assert a == b

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 1},
            {"tool": "vivado"},
            {"race_k": 3},
            {"race_policy": "first", "race_k": 2},
            {"with_timing": True},
            {"config": {"outer_iterations": 2}},
        ],
    )
    def test_request_changes_change_the_key(self, small_dev, mini_accel, override):
        base = cache_key(mini_accel, small_dev, fast_request())
        assert cache_key(mini_accel, small_dev, fast_request(**override)) != base

    def test_netlist_content_drives_the_key(self, small_dev, mini_accel, tiny_netlist):
        req = fast_request()
        assert cache_key(mini_accel, small_dev, req) != cache_key(
            tiny_netlist, small_dev, req
        )

    def test_device_identity(self, small_dev, no_ps_dev, tiny_netlist):
        assert device_id(small_dev) != device_id(no_ps_dev)
        req = fast_request()
        assert cache_key(tiny_netlist, small_dev, req) != cache_key(
            tiny_netlist, no_ps_dev, req
        )

    def test_equivalent_configs_collide(self, small_dev, mini_accel):
        a = fast_request(config={"outer_iterations": 1, "lam": 100})
        b = fast_request(config={"lam": 100.0, "outer_iterations": 1})
        assert cache_key(mini_accel, small_dev, a) == cache_key(mini_accel, small_dev, b)

    def test_netlist_hash_is_stable(self, mini_accel):
        assert netlist_content_hash(mini_accel) == netlist_content_hash(mini_accel)


def _swap(cells, field):
    a, b = cells
    va, vb = getattr(a, field), getattr(b, field)
    setattr(a, field, vb)
    setattr(b, field, va)


def _move_last_sink(nl):
    """``ctl`` (dsp5 → ff0, ff1) hands ff1 to ``ctl_in`` (ff2 → ff1, dsp5):
    the flat sink list is unchanged, only which net owns ff1 moves."""
    ctl, ctl_in = nl.nets[-2], nl.nets[-1]
    ctl_in.sinks = ctl.sinks[-1:] + ctl_in.sinks
    ctl.sinks = ctl.sinks[:-1]


#: one mutation per field the netlist JSON document carries
MUTATIONS = {
    "name": lambda nl: setattr(nl, "name", "other"),
    "target_freq_mhz": lambda nl: setattr(nl, "target_freq_mhz", 100.5),
    "cell_name": lambda nl: setattr(nl.cells[2], "name", "renamed"),
    "cell_ctype": lambda nl: setattr(nl.cells[2], "ctype", CellType.CARRY),
    "cell_is_datapath": lambda nl: setattr(nl.cells[-1], "is_datapath", None),
    "cell_fixed_xy_value": lambda nl: setattr(nl.cells[0], "fixed_xy", (10.0, 10.5)),
    "cell_fixed_xy_swap": lambda nl: _swap(nl.cells[:2], "fixed_xy"),
    # the pad's location moves to the next cell: same values, same order
    "cell_fixed_xy_owner": lambda nl: _swap(nl.cells[1:3], "fixed_xy"),
    "cell_fixed_xy_added": lambda nl: setattr(nl.cells[2], "fixed_xy", (1.0, 1.0)),
    "cell_attrs": lambda nl: setattr(nl.cells[3], "attrs", {"role": "pe"}),
    "cell_is_datapath_owner": lambda nl: _swap(nl.cells[-2:], "is_datapath"),
    "net_name": lambda nl: setattr(nl.nets[0], "name", "renamed"),
    "net_driver": lambda nl: setattr(nl.nets[1], "driver", 3),
    "net_sink_order": lambda nl: setattr(nl.nets[-2], "sinks", nl.nets[-2].sinks[::-1]),
    "net_sink_owner": _move_last_sink,
    "net_weight": lambda nl: setattr(nl.nets[0], "weight", 2.0),
    "macro_split": lambda nl: nl.macros.__setitem__(
        slice(None),
        [CascadeMacro(0, nl.macros[0].dsps[:2]),
         CascadeMacro(1, nl.macros[0].dsps[2:] + nl.macros[1].dsps)],
    ),
    "macro_dropped": lambda nl: nl.macros.pop(),
}


class TestNetlistContentHash:
    """Every field ``netlist_to_json`` writes moves the hash, bound to its
    cell or net; equal netlists collide; the caller's netlist keeps no
    derived arrays."""

    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
    def test_each_field_moves_the_hash(self, tiny_netlist, mutate):
        before = netlist_content_hash(tiny_netlist)
        doc = netlist_to_json(tiny_netlist)
        mutate(tiny_netlist)
        assert netlist_to_json(tiny_netlist) != doc  # the mutation is real
        assert netlist_content_hash(tiny_netlist) != before

    def test_json_round_trip_collides(self, tiny_netlist, mini_accel):
        for nl in (tiny_netlist, mini_accel):
            again = netlist_from_json(netlist_to_json(nl))
            assert netlist_content_hash(again) == netlist_content_hash(nl)

    def test_regenerated_netlist_collides(self, small_dev):
        a, b = (generate_suite("skynet", scale=0.02, device=small_dev, seed=3) for _ in "ab")
        assert netlist_content_hash(a) == netlist_content_hash(b)

    def test_hash_leaves_nothing_on_the_netlist(self, tiny_netlist):
        before = set(vars(tiny_netlist))
        netlist_content_hash(tiny_netlist)
        assert set(vars(tiny_netlist)) == before
        assert not hasattr(tiny_netlist, "_csr_context")

    def test_submit_leaves_no_context_on_the_callers_netlist(self, small_dev, mini_accel):
        nl = netlist_from_json(netlist_to_json(mini_accel))
        with PlacementServer(workers=1) as srv:
            job = srv.submit(fast_request(), netlist=nl, device=small_dev)
            assert job.key is not None
            assert not hasattr(nl, "_csr_context")
            job.result(timeout=120).raise_for_status()
        assert not hasattr(nl, "_csr_context")


class TestResultCache:
    def _entry(self, tag: int) -> CacheEntry:
        return CacheEntry(
            quality={"hpwl_um": float(tag)}, report=None, placement=None,
            seed_used=tag, cold_wall_s=1.0,
        )

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", self._entry(1))
        cache.put("b", self._entry(2))
        assert cache.get("a") is not None  # refresh 'a'
        cache.put("c", self._entry(3))  # evicts 'b'
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_stats(self):
        cache = ResultCache()
        cache.put("k", self._entry(1))
        cache.get("k")
        cache.get("nope")
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}


class TestJobLifecycle:
    def test_miss_then_hit_is_deterministic(self, server, small_dev, mini_accel):
        req = fast_request()
        cold = server.submit(req, netlist=mini_accel, device=small_dev).result(timeout=120)
        cold.raise_for_status()
        assert cold.cache == "miss" and cold.ok
        assert cold.placement.is_legal()
        assert cold.quality["hpwl_um"] == pytest.approx(cold.placement.hpwl())

        hot_job = server.submit(req, netlist=mini_accel, device=small_dev)
        hot = hot_job.result(timeout=10)
        assert hot.cache == "hit"
        assert hot_job.attempts == []  # nothing was placed
        assert hot.quality == cold.quality
        assert (hot.placement.xy == cold.placement.xy).all()
        assert (hot.placement.site == cold.placement.site).all()

    def test_reports_carry_current_schema(self, server, small_dev, mini_accel):
        resp = server.submit(
            fast_request(), netlist=mini_accel, device=small_dev
        ).result(timeout=120)
        report = resp.report
        assert report["schema_version"] == SCHEMA_VERSION
        assert validate_report(report) == []
        job = report["job"]
        assert job["id"] == resp.job_id and job["cache"] == "miss"
        assert job["submitted_unix"] <= job["started_unix"] <= job["finished_unix"]

    def test_no_cache_bypasses(self, server, small_dev, mini_accel):
        req = fast_request(use_cache=False)
        first = server.submit(req, netlist=mini_accel, device=small_dev)
        second = server.submit(req, netlist=mini_accel, device=small_dev)
        server.drain(timeout=240)
        assert first.result().cache == "bypass"
        assert second.result().cache == "bypass"
        assert second.attempts, "bypass must recompute, not reuse"

    def test_concurrent_duplicates_coalesce(self, server, small_dev, mini_accel):
        req = fast_request(seed=5)
        leader = server.submit(req, netlist=mini_accel, device=small_dev)
        follower = server.submit(req, netlist=mini_accel, device=small_dev)
        server.drain(timeout=240)
        assert follower.attempts == [], "duplicate of an in-flight job must not re-place"
        lead, follow = leader.result(), follower.result()
        assert lead.cache == "miss" and follow.cache == "hit"
        assert follow.quality == lead.quality

    def test_cancel_queued_job(self, small_dev, mini_accel):
        with PlacementServer(workers=1) as srv:
            running = srv.submit(fast_request(), netlist=mini_accel, device=small_dev)
            queued = srv.submit(fast_request(seed=9), netlist=mini_accel, device=small_dev)
            queued.cancel()
            resp = queued.result(timeout=10)
            assert resp.status == "cancelled"
            with pytest.raises(JobCancelledError):
                resp.raise_for_status()
            assert running.result(timeout=120).ok

    def test_submit_after_close_rejected(self, small_dev, mini_accel):
        srv = PlacementServer(workers=1)
        srv.close()
        with pytest.raises(ServeError, match="closed"):
            srv.submit(fast_request(), netlist=mini_accel, device=small_dev)

    def test_close_cancels_in_flight(self, small_dev, mini_accel):
        srv = PlacementServer(workers=1)
        job = srv.submit(fast_request(), netlist=mini_accel, device=small_dev)
        srv.close()
        assert job.result(timeout=5).status == "cancelled"

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ServeError, match="workers"):
            PlacementServer(workers=0)

    def test_stats_shape(self, server, small_dev, mini_accel):
        server.submit(fast_request(), netlist=mini_accel, device=small_dev)
        assert server.drain(timeout=240)
        stats = server.stats()
        assert stats["jobs"] == {"ok": 1}
        assert stats["running_attempts"] == 0
        assert stats["cache"]["entries"] == 1


class TestRacing:
    def test_best_policy_beats_or_ties_single_seed(self, server, small_dev, mini_accel):
        single = server.submit(
            fast_request(), netlist=mini_accel, device=small_dev
        ).result(timeout=120)
        raced = server.submit(
            fast_request(race_k=3), netlist=mini_accel, device=small_dev
        ).result(timeout=360)
        raced.raise_for_status()
        assert raced.quality["hpwl_um"] <= single.quality["hpwl_um"]

    def test_best_policy_race_is_recorded(self, server, small_dev, mini_accel):
        resp = server.submit(
            fast_request(seed=3, race_k=3), netlist=mini_accel, device=small_dev
        ).result(timeout=360)
        race = resp.report["job"]["race"]
        assert race["k"] == 3 and race["policy"] == "best"
        assert race["winner_seed"] == resp.seed_used
        seeds = sorted(a["seed"] for a in race["attempts"])
        assert seeds == [3, 4, 5]
        assert all(a["status"] == "ok" for a in race["attempts"])
        # winner's hpwl is the minimum of the portfolio
        assert resp.quality["hpwl_um"] == min(a["hpwl_um"] for a in race["attempts"])
        # losers are recorded in the winner's RunHealth
        events = resp.report["health"]["events"]
        assert sum(e["stage"] == "serve.race" for e in events) == 2
        assert validate_report(resp.report) == []

    def test_first_policy_cancels_losers(self, small_dev, mini_accel):
        with PlacementServer(workers=2) as srv:
            resp = srv.submit(
                fast_request(race_k=3, race_policy="first"),
                netlist=mini_accel,
                device=small_dev,
            ).result(timeout=360)
            resp.raise_for_status()
            race = resp.report["job"]["race"]
            statuses = sorted(a["status"] for a in race["attempts"])
            assert "ok" in statuses
            # with 2 workers and k=3 at least the queued attempt dies unrun
            assert race["cancelled"] >= 1
            assert race["cancelled"] == statuses.count("cancelled")
            cancelled_events = [
                e
                for e in resp.report["health"]["events"]
                if e["stage"] == "serve.race" and e["kind"] == "cancelled"
            ]
            assert len(cancelled_events) == race["cancelled"]

    def test_race_response_placement_matches_quality(self, server, small_dev, mini_accel):
        resp = server.submit(
            fast_request(seed=1, race_k=2), netlist=mini_accel, device=small_dev
        ).result(timeout=360)
        assert resp.placement.is_legal()
        assert resp.placement.hpwl() == pytest.approx(resp.quality["hpwl_um"])


class TestBaselineTools:
    @pytest.mark.parametrize("tool", ["vivado", "amf"])
    def test_baselines_serve_too(self, server, small_dev, mini_accel, tool):
        resp = server.submit(
            fast_request(tool=tool), netlist=mini_accel, device=small_dev
        ).result(timeout=120)
        resp.raise_for_status()
        assert resp.quality["legal"]
        assert resp.report["meta"]["tool"] == tool


class TestSignOff:
    @pytest.mark.parametrize("skew_model", ["region", "zero", "htree"])
    def test_quality_matches_cli_sign_off(self, skew_model):
        """A ``with_timing`` job signs off under the request's skew model,
        as ``repro place`` does: its quality equals routing and timing the
        returned placement here."""
        device = fabric_device("slot_fabric", 0.02)
        netlist = generate_suite("ismartdnn", scale=0.02, device=device, seed=0)
        request = fast_request(
            fabric="slot_fabric", with_timing=True, config={**FAST, "skew_model": skew_model}
        )
        with PlacementServer(workers=1) as srv:
            resp = srv.submit(request, netlist=netlist, device=device).result(timeout=120)
        resp.raise_for_status()
        placement = resp.placement
        route = GlobalRouter().route(placement)
        sta = StaticTimingAnalyzer(netlist, skew_model=get_skew_model(skew_model, device))
        rep = sta.analyze(placement, route)
        assert resp.quality["routed_wl_um"] == route.total_wirelength
        assert resp.quality["wns_ns"] == rep.wns_ns
        assert resp.quality["tns_ns"] == rep.tns_ns
        assert resp.quality["fmax_mhz"] == max_frequency(sta, placement, route)

    def test_htree_job_reports_its_clock(self):
        """A served job with non-default clocking records the ``clock``
        section that ``DSPlacer.place`` and ``repro place`` record."""
        device = fabric_device("slot_fabric", 0.05)
        netlist = generate_suite("skynet", scale=0.05, device=device, seed=0)
        request = PlacementRequest(
            suite="skynet", scale=0.05, fabric="slot_fabric", config={"skew_model": "htree"}
        )
        with PlacementServer(workers=1) as srv:
            resp = srv.submit(request, netlist=netlist, device=device).result(timeout=120)
        resp.raise_for_status()
        expected = clock_report_section(
            get_skew_model("htree", device), resp.placement, netlist
        )
        assert resp.report["clock"] == expected
        assert validate_report(resp.report) == []
