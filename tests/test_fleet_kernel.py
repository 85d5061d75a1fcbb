"""Tests for the event-heap simulation kernel (`repro.fleet.kernel`).

Three layers:

* kernel unit tests — the ``(t_s, priority, subject, seq)`` total
  order, scheduling validation, bounded runs;
* a fuzzed total-order property over real governed + impaired fleet
  runs (no two events may ever share an ordering key);
* the façade equivalence contract — the kernel engines must reproduce
  the legacy tick loop byte for byte: plain, governed + impaired +
  wire-loopback, sharded, campaign-level, and with uniform per-node
  period overrides.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.fleet import (
    CohortConfig,
    EventKernel,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    KernelError,
    NodeProxyConfig,
    PRIORITIES,
    PatientProfile,
    PerPatientLink,
    SchedulerConfig,
    ShardHooks,
    ShardedFleetRunner,
    make_cohort,
)
from repro.fleet.kernel import (
    PRIO_DELIVERY,
    PRIO_GOVERNOR,
    PRIO_TRIAGE,
    PRIO_UPLINK,
)
from repro.obs import Observability, ObsConfig
from repro.power import (
    Battery,
    BatteryModel,
    EnergyGovernor,
    GovernorConfig,
    ModePowerTable,
)
from repro.scenarios import LinkSpec, derive_seed
from repro.scenarios.channel import ImpairedLink

FAST_NODE = NodeProxyConfig(stream_telemetry=False)


class TestEventKernelUnit:
    def test_fires_in_total_key_order(self):
        kernel = EventKernel(record_keys=True)
        fired: list[str] = []
        # Scheduled deliberately out of order on every key component.
        kernel.schedule(20.0, PRIO_UPLINK, "b-up",
                        lambda: fired.append("b-up"), subject="b")
        kernel.schedule(10.0, PRIO_TRIAGE, "sweep",
                        lambda: fired.append("sweep"))
        kernel.schedule(10.0, PRIO_GOVERNOR, "b-gov",
                        lambda: fired.append("b-gov"), subject="b")
        kernel.schedule(10.0, PRIO_GOVERNOR, "a-gov",
                        lambda: fired.append("a-gov"), subject="a")
        kernel.schedule(10.0, PRIO_GOVERNOR, "a-gov2",
                        lambda: fired.append("a-gov2"), subject="a")
        assert kernel.run() == 5
        assert fired == ["a-gov", "a-gov2", "b-gov", "sweep", "b-up"]
        assert kernel.processed_keys == sorted(kernel.processed_keys)
        assert kernel.now_s == 20.0

    def test_actions_may_schedule_followups(self):
        kernel = EventKernel()
        fired: list[str] = []

        def first():
            fired.append("first")
            # Same-instant follow-up at a later priority still fires
            # this run, in its proper slot.
            kernel.schedule(kernel.now_s, PRIO_DELIVERY, "mid",
                            lambda: fired.append("mid"), subject="p")
            kernel.schedule(kernel.now_s + 5.0, PRIO_UPLINK, "next",
                            lambda: fired.append("next"), subject="p")

        kernel.schedule(1.0, PRIO_UPLINK, "first", first, subject="p")
        kernel.schedule(1.0, PRIO_TRIAGE, "sweep",
                        lambda: fired.append("sweep"))
        kernel.run()
        assert fired == ["first", "mid", "sweep", "next"]

    def test_run_until_leaves_later_events_pending(self):
        kernel = EventKernel()
        fired: list[float] = []
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, PRIO_TRIAGE, "e",
                            lambda t=t: fired.append(t))
        assert kernel.run(until_s=2.0) == 2
        assert fired == [1.0, 2.0]
        assert len(kernel) == 1
        assert kernel.peek_s() == 3.0
        assert kernel.run() == 1
        assert kernel.peek_s() is None

    def test_time_travel_rejected(self):
        kernel = EventKernel()
        kernel.schedule(10.0, PRIO_TRIAGE, "later", lambda: None)
        kernel.run()
        with pytest.raises(KernelError, match="time travel"):
            kernel.schedule(5.0, PRIO_TRIAGE, "past", lambda: None)

    @pytest.mark.parametrize("bad_t", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, bad_t):
        with pytest.raises(KernelError, match="finite"):
            EventKernel().schedule(bad_t, PRIO_TRIAGE, "e", lambda: None)

    def test_unknown_priority_rejected(self):
        with pytest.raises(KernelError, match="priority"):
            EventKernel().schedule(0.0, 99, "e", lambda: None)

    def test_stats_counts_by_name(self):
        kernel = EventKernel()
        for i in range(3):
            kernel.schedule(float(i), PRIO_TRIAGE, "sweep", lambda: None)
        kernel.schedule(0.5, PRIO_UPLINK, "up", lambda: None, subject="p")
        kernel.run()
        stats = kernel.stats()
        assert stats["n_scheduled"] == stats["n_processed"] == 4
        assert stats["pending"] == 0
        assert stats["by_name"] == {"sweep": 3, "up": 1}

    def test_priorities_cover_the_phase_ladder(self):
        assert list(PRIORITIES) == sorted(PRIORITIES)
        assert len(set(PRIORITIES)) == len(PRIORITIES) == 8


def _impaired_link_for(spec: LinkSpec, master_seed: int):
    """Per-patient impaired-link router seeded like the shard path."""
    return PerPatientLink(lambda pid: ImpairedLink(
        spec, seed=derive_seed(master_seed, "link", pid)))


def _governor_factory(master_seed: int):
    def factory(profile: PatientProfile) -> EnergyGovernor:
        frac = derive_seed(master_seed, "soc",
                           profile.patient_id) % 1000 / 1000.0
        return EnergyGovernor(
            config=GovernorConfig(min_dwell_s=0.0),
            table=ModePowerTable(),
            battery=BatteryModel(cell=Battery(capacity_mah=0.05),
                                 soc=max(0.05, 0.9 - 0.5 * frac)))

    return factory


def _excerpt_rows(report) -> list[tuple]:
    """Exact (not approximate) per-excerpt content rows."""
    return [
        (e.patient_id, e.kind, e.confirmed,
         e.signal.tobytes() if getattr(e, "signal", None) is not None
         else b"")
        for e in report.excerpts]


def _report_fingerprint(report) -> tuple:
    """The full deterministic surface of one fleet run.

    Summary JSON is the headline contract; the excerpt stream and
    per-patient packet counts catch order/content drift the aggregates
    could mask.  Signals are compared exactly (byte-identical claim,
    not approximate).
    """
    return (report.summary.to_json(), report.packets_sent,
            len(report.excerpts), tuple(_excerpt_rows(report)))


def _run(engine: str, cohort, duration_s=120.0, obs=None, **kwargs):
    scheduler = FleetScheduler(
        cohort,
        SchedulerConfig(duration_s=duration_s, engine=engine,
                        **kwargs.pop("config_kw", {})),
        node_config=kwargs.pop("node_config", FAST_NODE),
        obs=obs,
        **kwargs)
    return scheduler.run()


class TestLockstepFacadeEquivalence:
    """engine="kernel" must replay engine="ticks" byte for byte."""

    def test_plain_run_byte_identical(self):
        cohort = make_cohort(CohortConfig(n_patients=4, seed=5))
        ticks = _run("ticks", cohort)
        kernel = _run("kernel", cohort)
        assert _report_fingerprint(kernel) == _report_fingerprint(ticks)
        assert kernel.kernel_stats["engine"] == "kernel-lockstep"
        assert kernel.kernel_stats["n_events"] > 0
        assert ticks.kernel_stats == {
            "engine": "ticks", "n_events": 0,
            "tick_loop_iterations":
                kernel.kernel_stats["tick_loop_iterations"]}

    def test_governed_impaired_wire_loopback_byte_identical(self):
        # The hardest lockstep case: governor feedback, lossy jittered
        # per-patient links, wire codec round trip and a finite drain
        # budget all at once.
        cohort = make_cohort(CohortConfig(n_patients=4, seed=9))
        spec = LinkSpec(loss_rate=0.15, duplicate_rate=0.1,
                        reorder_rate=0.2, jitter_s=2.0,
                        reorder_delay_s=65.0)
        reports = [
            _run(engine, cohort,
                 config_kw=dict(wire_loopback=True, drain_per_tick=3),
                 link=_impaired_link_for(spec, 99),
                 governor_factory=_governor_factory(99),
                 gateway=Gateway(GatewayConfig(n_iter=50)))
            for engine in ("ticks", "kernel")]
        assert _report_fingerprint(reports[0]) \
            == _report_fingerprint(reports[1])
        assert reports[0].summary.governed
        assert reports[0].link_stats  # impairments actually happened

    def test_canonical_obs_trace_byte_identical(self):
        # The kernel stamps obs virtual time per event; the canonical
        # (fleet-scope) stream re-sorted by (t_s, subject, seq) must be
        # byte-equal to the tick loop's.
        cohort = make_cohort(CohortConfig(n_patients=3, seed=7))
        streams = []
        for engine in ("ticks", "kernel"):
            obs = Observability(ObsConfig())
            _run(engine, cohort, obs=obs,
                 gateway=Gateway(GatewayConfig(n_iter=50), obs=obs))
            streams.append(obs.canonical_json())
        assert streams[0] == streams[1]

    def test_four_shard_kernel_byte_identical_to_inline_ticks(self):
        # Acceptance: plain tick loop == kernel façade == 4-shard run.
        cohort = make_cohort(CohortConfig(n_patients=5, seed=7))
        ticks = _run("ticks", cohort, duration_s=60.0,
                     gateway=Gateway(GatewayConfig(n_iter=50)))
        sharded = ShardedFleetRunner(
            cohort, n_shards=4,
            config=SchedulerConfig(duration_s=60.0, engine="kernel"),
            node_config=FAST_NODE,
            gateway_config=GatewayConfig(n_iter=50)).run()
        assert sharded.summary.to_json() == ticks.summary.to_json()
        assert sharded.packets_sent == ticks.packets_sent

    def test_uniform_overrides_byte_identical_to_ticks(self):
        # Every node overridden to the base period: the per-node event
        # engine must still match the tick loop exactly (same uplink
        # instants, batch-of-1 encoding vs fleet-batched encoding).
        from dataclasses import replace

        base = make_cohort(CohortConfig(n_patients=4, seed=5))
        period = FAST_NODE.excerpt_period_s
        overridden = [replace(p, uplink_period_s=period) for p in base]
        spec = LinkSpec(loss_rate=0.1, duplicate_rate=0.05,
                        reorder_rate=0.1, jitter_s=5.0)
        ticks = _run("ticks", base, duration_s=120.0,
                     link=_impaired_link_for(spec, 42),
                     gateway=Gateway(GatewayConfig(n_iter=50)))
        events = _run("kernel", overridden, duration_s=120.0,
                      link=_impaired_link_for(spec, 42),
                      gateway=Gateway(GatewayConfig(n_iter=50)))
        # Summary bytes and excerpt *content* must match exactly.  The
        # excerpt processing order legitimately differs: the event
        # engine ingests jittered copies at their exact delivery
        # instants, the tick loop only at the next tick boundary — same
        # packets, same reconstructions, different drain interleaving.
        assert events.summary.to_json() == ticks.summary.to_json()
        assert events.packets_sent == ticks.packets_sent
        assert sorted(_excerpt_rows(events)) == sorted(_excerpt_rows(ticks))
        assert events.kernel_stats["engine"] == "kernel-events"
        assert events.kernel_stats["by_name"].get("link.delivery", 0) > 0


class TestSparseCohortEvents:
    def test_event_count_beats_tick_iterations(self):
        # 90 % delineation-only nodes uplinking at 10x the base period:
        # the kernel must visit them only when they uplink, making the
        # event count a small fraction of cohort x ticks.
        from dataclasses import replace

        base = make_cohort(CohortConfig(n_patients=10, seed=3))
        period = FAST_NODE.excerpt_period_s  # 60 s
        cohort = [p if i == 0
                  else replace(p, uplink_period_s=period * 10)
                  for i, p in enumerate(base)]
        report = _run("kernel", cohort, duration_s=period * 10)
        stats = report.kernel_stats
        assert stats["engine"] == "kernel-events"
        assert stats["tick_loop_iterations"] == 10 * 10
        assert stats["n_events"] * 2 < stats["tick_loop_iterations"]
        # Sparse nodes still uplinked (once) and were not flagged stale:
        # staleness scales with the node's own expected period.
        assert report.summary.stale_patients == 0
        assert report.packets_sent >= len(cohort)

    def test_overrides_on_ticks_engine_rejected(self):
        from dataclasses import replace

        cohort = [replace(p, uplink_period_s=600.0)
                  for p in make_cohort(CohortConfig(n_patients=2,
                                                    seed=3))]
        with pytest.raises(ValueError, match="event kernel"):
            FleetScheduler(cohort,
                           SchedulerConfig(engine="ticks"),
                           node_config=FAST_NODE)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            FleetScheduler(make_cohort(CohortConfig(n_patients=1)),
                           SchedulerConfig(engine="warp"))


class _RecordingKernel(EventKernel):
    """EventKernel that always records its processed keys."""

    instances: list["_RecordingKernel"] = []

    def __init__(self, record_keys: bool = False) -> None:
        super().__init__(record_keys=True)
        _RecordingKernel.instances.append(self)


class TestTotalOrderProperty:
    def test_fuzzed_fleet_runs_never_collide_keys(self, monkeypatch):
        # Property: across fuzzed governed + impaired fleet runs, the
        # kernel processes a strictly increasing sequence of ordering
        # keys — no duplicates (a duplicate key would leave the firing
        # order to heap internals) and no order violations.
        import repro.fleet.scheduler as sched_mod

        monkeypatch.setattr(sched_mod, "EventKernel", _RecordingKernel)
        rng = np.random.default_rng(17)
        for trial in range(4):
            _RecordingKernel.instances.clear()
            n = int(rng.integers(2, 5))
            cohort = make_cohort(CohortConfig(
                n_patients=n, seed=int(rng.integers(1, 1000))))
            if trial % 2:  # alternate: sparse per-node overrides
                from dataclasses import replace

                cohort = [p if i == 0 else replace(
                    p, uplink_period_s=60.0 * float(rng.integers(2, 6)))
                    for i, p in enumerate(cohort)]
            spec = LinkSpec(loss_rate=float(rng.uniform(0, 0.3)),
                            duplicate_rate=float(rng.uniform(0, 0.2)),
                            reorder_rate=float(rng.uniform(0, 0.3)),
                            jitter_s=float(rng.uniform(0, 10.0)))
            seed = int(rng.integers(1, 10_000))
            _run("kernel", cohort, duration_s=180.0,
                 node_config=FAST_NODE,
                 link=_impaired_link_for(spec, seed),
                 governor_factory=_governor_factory(seed),
                 gateway=Gateway(GatewayConfig(n_iter=40)))
            (kernel,) = _RecordingKernel.instances
            keys = kernel.processed_keys
            assert keys, "run scheduled no events"
            assert len(set(keys)) == len(keys), "duplicate ordering key"
            assert keys == sorted(keys), "events fired out of key order"
