"""Tests for virtual-time tracing and the end-to-end determinism
contract: N-shard == 1-shard == plain-run canonical obs snapshots."""

from __future__ import annotations

import functools

import pytest

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxyConfig,
    PerPatientLink,
    SchedulerConfig,
    ShardHooks,
    ShardedFleetRunner,
    make_cohort,
)
from repro.obs import (
    KIND_INSTANT,
    KIND_SPAN,
    Observability,
    ObsConfig,
    SCOPE_SHARD,
    TraceError,
    TraceRecorder,
    canonical_bundle_json,
    canonical_trace_json,
    canonical_view,
    merge_trace_snapshots,
)
from repro.power import Battery, BatteryModel
from repro.power.governor import (
    EnergyGovernor,
    GovernorConfig,
    ModePowerTable,
)
from repro.scenarios import LinkSpec, derive_seed
from repro.scenarios.channel import ImpairedLink

COHORT = make_cohort(CohortConfig(n_patients=4, seed=7))
RUN_KW = dict(
    config=SchedulerConfig(duration_s=60.0, fs=250.0),
    node_config=NodeProxyConfig(stream_telemetry=False),
    gateway_config=GatewayConfig(n_iter=50),
)
OBS_KW = dict(RUN_KW, obs_config=ObsConfig())


class TestTraceRecorder:
    def test_instant_and_span_shapes(self):
        rec = TraceRecorder()
        rec.instant(1.0, "gateway.ingest", subject="p0", kind_attr="x")
        rec.span(2.0, "scheduler.tick", 0.5, subject="p0")
        events = rec.snapshot()["events"]
        assert events[0]["kind"] == KIND_INSTANT
        assert "dur_s" not in events[0]
        assert events[0]["attrs"] == {"kind_attr": "x"}
        assert events[1]["kind"] == KIND_SPAN
        assert events[1]["dur_s"] == 0.5

    def test_fleet_scope_requires_subject(self):
        rec = TraceRecorder()
        with pytest.raises(TraceError, match="subject"):
            rec.instant(1.0, "gateway.ingest")
        rec.instant(1.0, "shard.tick", scope=SCOPE_SHARD)  # fine

    def test_unknown_scope_rejected(self):
        with pytest.raises(TraceError, match="scope"):
            TraceRecorder().instant(0.0, "x", subject="p0",
                                    scope="galaxy")

    def test_snapshot_orders_by_time_subject_seq(self):
        rec = TraceRecorder()
        rec.instant(2.0, "b", subject="p1")
        rec.instant(1.0, "a", subject="p1")
        rec.instant(1.0, "c", subject="p0")
        names = [e["name"] for e in rec.snapshot()["events"]]
        assert names == ["c", "a", "b"]

    def test_same_timestamp_keeps_emission_order_per_subject(self):
        rec = TraceRecorder()
        rec.instant(1.0, "first", subject="p0")
        rec.instant(1.0, "second", subject="p0")
        names = [e["name"] for e in rec.snapshot()["events"]]
        assert names == ["first", "second"]

    def test_merge_equals_single_recorder(self):
        # Split one emission stream by subject (as sharding does) and
        # merge — byte-identical to recording everything in one place.
        whole, part_a, part_b = (TraceRecorder() for _ in range(3))
        for t, subject in ((1.0, "p0"), (1.0, "p1"), (2.0, "p0"),
                           (2.0, "p1"), (3.0, "p1")):
            whole.instant(t, "e", subject=subject)
            part = part_a if subject == "p0" else part_b
            part.instant(t, "e", subject=subject)
        merged = merge_trace_snapshots(
            [part_b.snapshot(), part_a.snapshot()])
        assert canonical_trace_json(merged) \
            == canonical_trace_json(whole.snapshot())


def _impaired_governed_hooks(spec: LinkSpec, profiles,
                             master_seed: int) -> ShardHooks:
    """Module-level hook factory (picklable) for the equivalence test."""

    def link_for(patient_id: str):
        return ImpairedLink(spec, seed=derive_seed(master_seed, "link",
                                                   patient_id))

    def factory(profile):
        frac = derive_seed(master_seed, "soc",
                           profile.patient_id) % 1000 / 1000.0
        return EnergyGovernor(
            config=GovernorConfig(min_dwell_s=0.0),
            table=ModePowerTable(),
            battery=BatteryModel(cell=Battery(capacity_mah=0.05),
                                 soc=max(0.05, 0.9 - 0.5 * frac)))

    return ShardHooks(link=PerPatientLink(link_for),
                      governor_factory=factory)


class TestShardEquivalence:
    """Canonical obs snapshots are shard-layout independent."""

    @pytest.fixture(scope="class")
    def plain_obs(self):
        obs = Observability()
        FleetScheduler(
            COHORT, RUN_KW["config"],
            node_config=RUN_KW["node_config"],
            gateway=Gateway(RUN_KW["gateway_config"], obs=obs),
            obs=obs).run()
        return obs

    @pytest.fixture(scope="class")
    def one_shard(self):
        return ShardedFleetRunner(COHORT, n_shards=1, **OBS_KW).run()

    @pytest.fixture(scope="class")
    def three_shard(self):
        return ShardedFleetRunner(COHORT, n_shards=3, **OBS_KW).run()

    def test_one_shard_matches_plain(self, plain_obs, one_shard):
        assert one_shard.canonical_obs_json() == plain_obs.canonical_json()

    def test_three_shards_match_one(self, one_shard, three_shard):
        assert three_shard.canonical_obs_json() \
            == one_shard.canonical_obs_json()

    def test_summary_unchanged_by_observation(self, one_shard):
        unobserved = ShardedFleetRunner(COHORT, n_shards=1,
                                        **RUN_KW).run()
        assert one_shard.summary.to_json() \
            == unobserved.summary.to_json()
        assert unobserved.obs_bundle is None
        with pytest.raises(ValueError, match="obs_config"):
            unobserved.canonical_obs_json()

    def test_shard_scope_series_may_differ_but_are_excluded(
            self, one_shard, three_shard):
        # The full bundles differ (per-shard wall clocks etc.); only
        # the canonical fleet-scope view is layout-independent.
        shard_names = {
            s["name"] for s in three_shard.obs_bundle["metrics"]["series"]
            if s["scope"] == SCOPE_SHARD}
        assert "shard_wall_seconds" in shard_names
        view = canonical_view(three_shard.obs_bundle)
        assert all(s["scope"] == "fleet"
                   for s in view["metrics"]["series"])

    def test_governed_impaired_equivalence(self):
        spec = LinkSpec(loss_rate=0.15, duplicate_rate=0.1,
                        reorder_rate=0.2, jitter_s=2.0,
                        reorder_delay_s=65.0)
        kw = dict(OBS_KW, master_seed=99,
                  hook_factory=functools.partial(
                      _impaired_governed_hooks, spec))
        one = ShardedFleetRunner(COHORT, n_shards=1, **kw).run()
        three = ShardedFleetRunner(COHORT, n_shards=3, **kw).run()
        assert three.canonical_obs_json() == one.canonical_obs_json()
        assert one.summary.governed
        # Impairment must actually exercise the reassembly counters.
        names = {(s["name"], tuple(sorted(s["labels"].items())))
                 for s in one.obs_bundle["metrics"]["series"]}
        assert any(n == "gateway_reassembly_events_total"
                   for n, _ in names)
        assert any(n == "governor_transitions_total" for n, _ in names)

    def test_byte_reproducible_from_master_seed(self):
        def run():
            return ShardedFleetRunner(COHORT, n_shards=2,
                                      **OBS_KW).run()

        assert run().canonical_obs_json() == run().canonical_obs_json()

    def test_trace_events_are_virtual_time_only(self, three_shard):
        events = canonical_view(three_shard.obs_bundle)["trace"]["events"]
        assert events, "fleet run should emit fleet-scope trace events"
        duration = RUN_KW["config"].duration_s
        assert all(0.0 <= e["t_s"] <= duration + 1e-9 for e in events)
        assert all(e["subject"] for e in events)

    def test_bundle_json_roundtrip_preserves_bytes(self, three_shard):
        import json

        view = canonical_view(three_shard.obs_bundle)
        rebuilt = json.loads(json.dumps(view))
        assert canonical_bundle_json(rebuilt) \
            == canonical_bundle_json(view)
