"""Tests for the event-heap simulation kernel (`repro.fleet.kernel`).

Three layers:

* kernel unit tests — the ``(t_s, priority, subject, seq)`` total
  order, scheduling validation, follow-up events;
* a fuzzed total-order property over real governed + impaired fleet
  runs (no two events may ever share an ordering key);
* the schedule equivalence contract — the lockstep schedule and the
  per-node schedule with every ``uplink_period_s`` at the base period
  are each other's reference: plain, governed + impaired +
  wire-loopback, canonical obs, sharded, jittered link, alarms, and a
  hypothesis property over small random runs that drop no packet.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

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
#: A 10 s base period: short runs still span many expiry sweeps.
SHORT_PERIOD_NODE = NodeProxyConfig(excerpt_period_s=10.0,
                                    stream_telemetry=False)


class _RecordingKernel(EventKernel):
    """EventKernel that records each fired event's ordering key."""

    instances: list["_RecordingKernel"] = []

    def __init__(self) -> None:
        super().__init__()
        self.fired_keys: list[tuple] = []
        _RecordingKernel.instances.append(self)

    def schedule(self, t_s, priority, name, action, subject=""):
        def fire() -> None:
            self.fired_keys.append(event.key)
            action()

        event = super().schedule(t_s, priority, name, fire, subject=subject)
        return event


class TestEventKernelUnit:
    def test_fires_in_total_key_order(self):
        kernel = _RecordingKernel()
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
        assert len(kernel.fired_keys) == 5
        assert kernel.fired_keys == sorted(kernel.fired_keys)
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
        assert kernel.run() == 4
        assert kernel.n_processed == 4
        assert kernel.counts_by_name == {"sweep": 3, "up": 1}

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


def _fingerprint(report) -> tuple:
    """The deterministic surface both kernel schedules must share.

    Summary JSON is the headline contract; the packet count and the
    excerpt content catch drift the aggregates could mask.  Signals
    are compared exactly (byte-identical claim, not approximate).  The
    excerpt rows are sorted because their processing order
    legitimately differs: the per-node schedule ingests jittered link
    copies at their exact delivery instants, the lockstep schedule at
    the next base tick — same packets, same reconstructions, different
    drain interleaving.
    """
    return (report.summary.to_json(), report.packets_sent,
            sorted(_excerpt_rows(report)))


def _uniform(cohort, node_config=FAST_NODE):
    """The cohort with every node's uplink period at the base period.

    Any override switches the scheduler to per-node events, so this
    runs the per-node schedule over the lockstep schedule's instants.
    """
    period = node_config.excerpt_period_s
    return [replace(p, uplink_period_s=period) for p in cohort]


def _run(cohort, duration_s=120.0, obs=None, **kwargs):
    scheduler = FleetScheduler(
        cohort,
        SchedulerConfig(duration_s=duration_s,
                        **kwargs.pop("config_kw", {})),
        node_config=kwargs.pop("node_config", FAST_NODE),
        obs=obs,
        **kwargs)
    return scheduler.run()


class TestLockstepFacadeEquivalence:
    """The lockstep and uniform per-node schedules fold to one result."""

    def test_plain_run_byte_identical(self):
        cohort = make_cohort(CohortConfig(n_patients=4, seed=5))
        lockstep = _run(cohort)
        events = _run(_uniform(cohort))
        assert _fingerprint(events) == _fingerprint(lockstep)
        assert lockstep.kernel_stats["engine"] == "kernel-lockstep"
        assert events.kernel_stats["engine"] == "kernel-events"
        assert lockstep.kernel_stats["n_events"] > 0
        # Cohort x base ticks, whichever schedule ran.
        assert lockstep.kernel_stats["tick_loop_iterations"] \
            == events.kernel_stats["tick_loop_iterations"] == 4 * 2

    def test_governed_impaired_byte_identical(self):
        # The hardest leg: governor feedback, lossy jittered per-patient
        # links and a finite drain budget all at once.
        cohort = make_cohort(CohortConfig(n_patients=4, seed=9))
        spec = LinkSpec(loss_rate=0.15, duplicate_rate=0.1,
                        reorder_rate=0.2, jitter_s=2.0,
                        reorder_delay_s=65.0)
        lockstep, events = (
            _run(members,
                 config_kw=dict(drain_per_tick=3),
                 link=_impaired_link_for(spec, 99),
                 governor_factory=_governor_factory(99),
                 gateway=Gateway(GatewayConfig(n_iter=50)))
            for members in (cohort, _uniform(cohort)))
        assert _fingerprint(events) == _fingerprint(lockstep)
        assert lockstep.summary.governed
        assert lockstep.link_stats  # impairments actually happened

    def test_canonical_obs_trace_byte_identical(self):
        # The kernel stamps obs virtual time per event; the canonical
        # (fleet-scope) stream re-sorted by (t_s, subject, seq) must be
        # byte-equal across the two schedules.  A lossy link over many
        # sweeps makes reassembly stalls expire mid-run, and their
        # counters and trace instants pin the expiry sweep's timing,
        # which the summary alone does not.
        cohort = make_cohort(CohortConfig(n_patients=3, seed=7))
        spec = LinkSpec(loss_rate=0.2, duplicate_rate=0.1,
                        reorder_rate=0.2, jitter_s=3.0)
        streams = []
        for members in (cohort, _uniform(cohort, SHORT_PERIOD_NODE)):
            obs = Observability(ObsConfig())
            _run(members, obs=obs, node_config=SHORT_PERIOD_NODE,
                 link=_impaired_link_for(spec, 7),
                 gateway=Gateway(GatewayConfig(n_iter=50), obs=obs))
            streams.append(obs.canonical_json())
        assert streams[0] == streams[1]
        assert "gateway.reassembly_stall" in streams[0]

    def test_four_shard_events_byte_identical_to_inline_lockstep(self):
        # Inline lockstep == 4-shard per-node: both the clock and the
        # process layout change, and the summary bytes must not.
        cohort = make_cohort(CohortConfig(n_patients=5, seed=7))
        inline = _run(cohort, duration_s=60.0,
                      gateway=Gateway(GatewayConfig(n_iter=50)))
        sharded = ShardedFleetRunner(
            _uniform(cohort), n_shards=4,
            config=SchedulerConfig(duration_s=60.0),
            node_config=FAST_NODE,
            gateway_config=GatewayConfig(n_iter=50)).run()
        assert sharded.summary.to_json() == inline.summary.to_json()
        assert sharded.packets_sent == inline.packets_sent

    def test_jittered_link_byte_identical(self):
        # Per-node events pop jittered copies at their exact delivery
        # instants; lockstep sweeps pop them at the next base tick.
        cohort = make_cohort(CohortConfig(n_patients=4, seed=5))
        spec = LinkSpec(loss_rate=0.1, duplicate_rate=0.05,
                        reorder_rate=0.1, jitter_s=5.0)
        lockstep, events = (
            _run(members, link=_impaired_link_for(spec, 42),
                 gateway=Gateway(GatewayConfig(n_iter=50)))
            for members in (cohort, _uniform(cohort)))
        assert _fingerprint(events) == _fingerprint(lockstep)
        assert events.kernel_stats["by_name"].get("link.delivery", 0) > 0

    @pytest.mark.parametrize("drain_per_tick", [None, 2])
    def test_alarm_uplinks_byte_identical(self, trained_af_detector,
                                          drain_per_tick):
        # Lockstep sweeps uplink every node's early alarms, then the
        # excerpts, then the late alarms; per-node events do all three
        # for one node at a time.  150 s is not a whole number of 60 s
        # periods: alarms in the trailing 30 s ride the last tick as
        # late alarms.
        cohort = make_cohort(CohortConfig(n_patients=5, seed=3))
        reports, streams = [], []
        for members in (cohort, _uniform(cohort)):
            obs = Observability(ObsConfig())
            reports.append(_run(
                members, duration_s=150.0, obs=obs,
                config_kw=dict(drain_per_tick=drain_per_tick),
                af_detector=trained_af_detector,
                gateway=Gateway(GatewayConfig(n_iter=40), obs=obs)))
            streams.append(obs.canonical_json())
        lockstep, events = reports
        assert _fingerprint(events) == _fingerprint(lockstep)
        assert lockstep.kernel_stats["by_name"]["sweep.alarms_late"] > 0
        if drain_per_tick is None:
            # Drained in full every sweep, each patient's packets are
            # processed in one order under both schedules, so the
            # canonical stream (every ingest stamped with its packet
            # seq) matches too.  Under a budget the queue order, and
            # so the drain interleaving, differs; only the fold agrees.
            assert streams[0] == streams[1]


_LINK_SPECS = st.builds(
    LinkSpec,
    loss_rate=st.floats(0.0, 0.3),
    duplicate_rate=st.floats(0.0, 0.2),
    reorder_rate=st.floats(0.0, 0.3),
    reorder_delay_s=st.floats(0.0, 30.0),
    jitter_s=st.floats(0.0, 10.0))


class TestScheduleEquivalenceProperty:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(n_patients=st.integers(2, 5),
           duration_s=st.integers(20, 40),
           queue_capacity=st.sampled_from([2, 3, 6, 4096]),
           drain_per_tick=st.sampled_from([None, 1, 2, 3]),
           governed=st.booleans(),
           spec=st.none() | _LINK_SPECS,
           seed=st.integers(1, 10_000))
    def test_schedules_agree_unless_a_queue_overflows(
            self, n_patients, duration_s, queue_capacity, drain_per_tick,
            governed, spec, seed):
        # Under queue overflow the two schedules may drop different
        # packets (their per-instant enqueue order differs), so only
        # runs that dropped nothing are compared.
        cohort = make_cohort(CohortConfig(n_patients=n_patients,
                                          seed=seed))
        lockstep, events = (
            _run(members, duration_s=float(duration_s),
                 node_config=SHORT_PERIOD_NODE,
                 config_kw=dict(drain_per_tick=drain_per_tick),
                 link=(_impaired_link_for(spec, seed)
                       if spec is not None else None),
                 governor_factory=(_governor_factory(seed)
                                   if governed else None),
                 gateway=Gateway(GatewayConfig(
                     queue_capacity=queue_capacity, n_iter=20)))
            for members in (cohort, _uniform(cohort, SHORT_PERIOD_NODE)))
        if lockstep.summary.dropped_packets \
                or events.summary.dropped_packets:
            event("a queue overflowed: not compared")
            return
        event("compared")
        assert _fingerprint(events) == _fingerprint(lockstep)


class TestSparseCohortEvents:
    def test_event_count_beats_tick_iterations(self):
        # 90 % delineation-only nodes uplinking at 10x the base period:
        # the kernel must visit them only when they uplink, making the
        # event count a small fraction of cohort x ticks.
        base = make_cohort(CohortConfig(n_patients=10, seed=3))
        period = FAST_NODE.excerpt_period_s  # 60 s
        cohort = [p if i == 0
                  else replace(p, uplink_period_s=period * 10)
                  for i, p in enumerate(base)]
        report = _run(cohort, duration_s=period * 10)
        stats = report.kernel_stats
        assert stats["engine"] == "kernel-events"
        assert stats["tick_loop_iterations"] == 10 * 10
        assert stats["n_events"] * 2 < stats["tick_loop_iterations"]
        # Sparse nodes still uplinked (once) and were not flagged stale:
        # staleness scales with the node's own expected period.
        assert report.summary.stale_patients == 0
        assert report.packets_sent >= len(cohort)


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
                cohort = [p if i == 0 else replace(
                    p, uplink_period_s=60.0 * float(rng.integers(2, 6)))
                    for i, p in enumerate(cohort)]
            spec = LinkSpec(loss_rate=float(rng.uniform(0, 0.3)),
                            duplicate_rate=float(rng.uniform(0, 0.2)),
                            reorder_rate=float(rng.uniform(0, 0.3)),
                            jitter_s=float(rng.uniform(0, 10.0)))
            seed = int(rng.integers(1, 10_000))
            _run(cohort, duration_s=180.0,
                 node_config=FAST_NODE,
                 link=_impaired_link_for(spec, seed),
                 governor_factory=_governor_factory(seed),
                 gateway=Gateway(GatewayConfig(n_iter=40)))
            (kernel,) = _RecordingKernel.instances
            keys = kernel.fired_keys
            assert keys, "run scheduled no events"
            assert len(set(keys)) == len(keys), "duplicate ordering key"
            assert keys == sorted(keys), "events fired out of key order"
