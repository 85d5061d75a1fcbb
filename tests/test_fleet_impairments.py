"""Fleet invariants under uplink impairments.

The no-false-drop guarantee, duplicate suppression and timeline
restoration of the gateway/triage layer, exercised end-to-end through
the scenario channel model.
"""

import numpy as np
import pytest

from repro.fleet import (
    Gateway,
    GatewayConfig,
    NodeProxy,
    NodeProxyConfig,
    PACKET_EXCERPT,
    PatientProfile,
    FleetScheduler,
    SchedulerConfig,
    TriageBoard,
    TriageConfig,
    UplinkPacket,
    encode_packet,
    synthesize_patient,
)
from repro.scenarios import ImpairedLink, LinkSpec

FAST_NODE = NodeProxyConfig(stream_telemetry=False)


def fake_frame(seq, patient="p0000", ts=None):
    return encode_packet(UplinkPacket(
        patient_id=patient, seq=seq,
        timestamp_s=float(seq) if ts is None else ts,
        kind=PACKET_EXCERPT, start=0, frames=(), payload_bits=64,
        n_leads=1, window_n=256, cr_percent=60.0, quant_bits=12,
        cs_seed=11, fs=250.0))


class TestReassembly:
    def test_in_order_passthrough(self):
        gateway = Gateway()
        for seq in range(5):
            gateway.ingest(fake_frame(seq))
        assert gateway.pending == 5
        assert gateway.channels["p0000"].n_out_of_order == 0

    def test_out_of_order_held_until_gap_fills(self):
        gateway = Gateway()
        gateway.ingest(fake_frame(0))
        gateway.ingest(fake_frame(2))  # gap: 1 missing
        assert gateway.pending == 1
        gateway.ingest(fake_frame(1))  # fills the gap -> releases 1, 2
        assert gateway.pending == 3
        channel = gateway.channels["p0000"]
        assert channel.n_out_of_order == 1
        assert channel.n_gaps == 0

    def test_duplicates_dropped_and_counted(self):
        gateway = Gateway()
        for seq in (0, 1, 1, 0, 2, 2):
            gateway.ingest(fake_frame(seq))
        assert gateway.pending == 3
        assert gateway.channels["p0000"].n_duplicates == 3

    def test_window_overflow_releases_with_gap(self):
        gateway = Gateway(GatewayConfig(reassembly_window=3))
        gateway.ingest(fake_frame(0))
        for seq in (2, 3, 4, 5):  # 1 never arrives; window is 3
            gateway.ingest(fake_frame(seq))
        assert gateway.pending == 5  # 0 plus force-released 2..5
        channel = gateway.channels["p0000"]
        assert channel.n_gaps == 1

    def test_flush_releases_stragglers(self):
        gateway = Gateway()
        gateway.ingest(fake_frame(0))
        gateway.ingest(fake_frame(3))
        gateway.ingest(fake_frame(5))
        assert gateway.pending == 1
        released = gateway.flush_reassembly()
        assert released == 2
        assert gateway.pending == 3
        assert gateway.channels["p0000"].n_gaps == 3  # seqs 1, 2, 4

    def test_late_join_recovers_via_flush(self):
        # A node joining mid-session (first seen seq != 0) buffers until
        # the flush writes the missing prefix off as a gap.
        gateway = Gateway()
        for seq in (40, 41, 42):
            gateway.ingest(fake_frame(seq))
        assert gateway.pending == 0
        assert gateway.flush_reassembly() == 3
        assert gateway.pending == 3
        assert gateway.channels["p0000"].n_gaps == 40

    def test_delayed_first_packet_not_mistaken_for_duplicate(self):
        # A jitter-delayed seq-0 packet overtaken by seq 1 must wait for
        # it, not be written off (it could be an alarm).
        gateway = Gateway()
        gateway.ingest(fake_frame(1))
        assert gateway.pending == 0
        gateway.ingest(fake_frame(0))
        assert gateway.pending == 2
        assert gateway.channels["p0000"].n_duplicates == 0

    def test_per_patient_isolation(self):
        gateway = Gateway()
        gateway.ingest(fake_frame(0, patient="a"))
        gateway.ingest(fake_frame(1, patient="b"))  # b waits for seq 0
        gateway.ingest(fake_frame(1, patient="a"))
        assert gateway.pending == 2
        gateway.ingest(fake_frame(0, patient="b"))
        assert gateway.pending == 4

    def test_written_off_straggler_still_delivered(self):
        # A packet whose seq was force-flushed as a gap (e.g. an ARQ
        # alarm still in flight) must be delivered late, never dropped.
        gateway = Gateway(GatewayConfig(reassembly_window=2))
        gateway.ingest(fake_frame(0))
        for seq in (2, 3, 4):  # overflow: seq 1 written off
            gateway.ingest(fake_frame(seq))
        channel = gateway.channels["p0000"]
        assert channel.n_gaps == 1
        before = gateway.pending
        gateway.ingest(fake_frame(1))  # the straggler arrives
        assert gateway.pending == before + 1
        assert channel.n_gaps == 0  # recovered after all
        assert channel.n_duplicates == 0
        gateway.ingest(fake_frame(1))  # a second copy IS a duplicate
        assert channel.n_duplicates == 1

    def test_expire_bounds_head_of_line_blocking(self):
        # A permanent gap may stall a patient for at most
        # reassembly_gap_ticks expire sweeps, not a whole run.
        gateway = Gateway(GatewayConfig(reassembly_gap_ticks=2))
        gateway.ingest(fake_frame(0))
        gateway.ingest(fake_frame(2))  # seq 1 lost for good
        gateway.ingest(fake_frame(3))
        assert gateway.pending == 1
        assert gateway.expire_reassembly() == 0  # sweep 1: grace
        assert gateway.expire_reassembly() == 2  # sweep 2: force-release
        assert gateway.pending == 3
        assert gateway.channels["p0000"].n_gaps == 1

    def test_expire_grace_resets_on_progress(self):
        gateway = Gateway(GatewayConfig(reassembly_gap_ticks=2))
        gateway.ingest(fake_frame(1))
        gateway.expire_reassembly()
        gateway.ingest(fake_frame(0))  # gap fills: progress
        assert gateway.pending == 2
        gateway.ingest(fake_frame(3))
        assert gateway.expire_reassembly() == 0  # counter restarted
        assert gateway.expire_reassembly() == 1

    def test_queue_bound_enforced_on_release_bursts(self):
        # A gap-filling arrival that releases a burst cannot push the
        # queue past its capacity; the excess is dropped and counted.
        gateway = Gateway(GatewayConfig(queue_capacity=2))
        gateway.ingest(fake_frame(1))
        gateway.ingest(fake_frame(2))
        gateway.ingest(fake_frame(0))  # releases 0, 1, 2 -> cap at 2
        assert gateway.pending == 2
        assert gateway.dropped == 1


class TestConsecutiveSessions:
    def test_second_run_not_mistaken_for_duplicates(self):
        # Hour-by-hour monitoring: consecutive run() calls must keep
        # numbering forward so one gateway channel serves both sessions.
        profile = PatientProfile(patient_id="cont", rhythm="nsr",
                                 snr_db=None, seed=31)
        proxy = NodeProxy(profile, FAST_NODE)
        gateway = Gateway()
        total = 0
        for session_seed in (31, 32):
            record = synthesize_patient(
                PatientProfile(patient_id="cont", rhythm="nsr",
                               snr_db=None, seed=session_seed),
                duration_s=60.0)
            _, packets = proxy.run(record)
            assert packets  # at least the periodic excerpt
            for packet in packets:
                gateway.ingest(encode_packet(packet))
            total += len(packets)
        processed = gateway.drain()
        assert len(processed) == total
        assert gateway.channels["cont"].n_duplicates == 0


@pytest.fixture(scope="module")
def af_uplink(trained_af_detector):
    """(report, packets) of a clean persistent-AF patient."""
    profile = PatientProfile(patient_id="afi", rhythm="af", snr_db=None,
                             seed=42)
    record = synthesize_patient(profile, duration_s=120.0)
    proxy = NodeProxy(profile, FAST_NODE, af_detector=trained_af_detector)
    return proxy.run(record)


class TestDuplicateTriageInvariant:
    def test_no_duplicate_triage_transitions(self, af_uplink):
        # Every packet delivered twice: triage outcome must be identical
        # to single delivery — duplicates die in the gateway.
        report, packets = af_uplink
        outcomes = []
        for copies in (1, 2):
            gateway = Gateway()
            board = TriageBoard()
            for packet in packets:
                for _ in range(copies):
                    gateway.ingest(encode_packet(packet))
            for excerpt in gateway.drain():
                board.observe(excerpt)
            patient = board.patients["afi"]
            outcomes.append((patient.n_alerts, patient.n_watches,
                             patient.state))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == len(report.alarms) >= 1

    def test_duplicate_payload_not_double_counted(self, af_uplink):
        _, packets = af_uplink
        gateway = Gateway()
        for packet in packets:
            frame = encode_packet(packet)
            gateway.ingest(frame)
            gateway.ingest(frame)
        gateway.drain()
        channel = gateway.channels["afi"]
        assert channel.n_duplicates == len(packets)
        assert channel.payload_bits == sum(p.payload_bits for p in packets)


class TestImpairedFleetRun:
    @pytest.fixture(scope="class")
    def reordered_run(self, trained_af_detector):
        cohort = [
            PatientProfile(patient_id="afa", rhythm="af", snr_db=None,
                           seed=42),
            PatientProfile(patient_id="nsb", rhythm="nsr", snr_db=20.0,
                           seed=43),
            PatientProfile(patient_id="pxc", rhythm="paroxysmal_af",
                           snr_db=18.0, seed=44),
        ]
        link = ImpairedLink(
            LinkSpec(duplicate_rate=0.3, reorder_rate=0.4,
                     reorder_delay_s=70.0, jitter_s=20.0), seed=13)
        scheduler = FleetScheduler(
            cohort, SchedulerConfig(duration_s=240.0),
            node_config=FAST_NODE, af_detector=trained_af_detector,
            link=link)
        return scheduler.run()

    def test_monotone_timestamps_after_reassembly(self, reordered_run):
        # Gateway outputs arrive in reassembly (seq) order; per patient
        # that order must restore the node's timeline.
        report = reordered_run
        by_patient = {}
        for excerpt in report.excerpts:
            by_patient.setdefault(excerpt.patient_id, []).append(
                excerpt.timestamp_s)
        assert by_patient
        for patient_id, stamps in by_patient.items():
            assert stamps == sorted(stamps), \
                f"{patient_id} timeline broken: {stamps}"

    def test_impairment_actually_exercised(self, reordered_run):
        stats = reordered_run.link_stats
        assert stats["duplicated"] > 0
        assert stats["reordered"] > 0

    def test_every_offered_packet_processed_once(self, reordered_run):
        # Duplicates add deliveries, but reconstruction count equals the
        # offered count: nothing lost (no loss configured), nothing
        # processed twice.
        report = reordered_run
        assert len(report.excerpts) == report.packets_sent
        assert report.summary.duplicate_packets == \
            report.link_stats["duplicated"]

    def test_no_false_drop_under_20pct_loss(self, trained_af_detector):
        # Acceptance criterion: ≤ 20 % uniform loss must not drop one
        # clean-AF alarm (ARQ turns loss into delay for alarm packets).
        cohort = [
            PatientProfile(patient_id=f"af{i}", rhythm="af", snr_db=None,
                           seed=42 + i)
            for i in range(3)
        ]
        link = ImpairedLink(LinkSpec(loss_rate=0.20), seed=5)
        scheduler = FleetScheduler(
            cohort, SchedulerConfig(duration_s=120.0),
            node_config=FAST_NODE, af_detector=trained_af_detector,
            link=link)
        report = scheduler.run()
        assert report.summary.node_alarms >= 3
        assert report.summary.confirmed_alarms == \
            report.summary.node_alarms
        for profile in cohort:
            channel = scheduler.gateway.channels[profile.patient_id]
            node_alarms = len(
                report.node_reports[profile.patient_id].alarms)
            assert channel.n_confirmed == node_alarms


class TestStaleLink:
    def test_silent_node_goes_stale_and_watch(self):
        board = TriageBoard(TriageConfig(stale_after_s=150.0))
        board.register(["quiet", "chatty"])
        chatty = board.patient("chatty")
        chatty.last_seen_s = 160.0  # packets kept arriving
        board.tick(200.0)
        quiet = board.patient("quiet")
        assert quiet.stale is True
        assert quiet.state == "watch"
        assert quiet.n_stale_events == 1
        assert board.patient("chatty").stale is False
        assert board.stale_ids() == ["quiet"]

    def test_stale_clears_on_next_packet(self):
        from repro.fleet import ReconstructedExcerpt

        board = TriageBoard(TriageConfig(stale_after_s=100.0))
        board.register(["p"])
        board.tick(150.0)
        assert board.patient("p").stale is True
        board.observe(ReconstructedExcerpt(
            patient_id="p", timestamp_s=160.0, kind="excerpt",
            signal=np.zeros((1, 0)), snr_db=float("nan"),
            confirmed=None))
        assert board.patient("p").stale is False

    def test_stale_patient_never_decays_below_watch(self):
        # A silent node must stay on (at least) watch for as long as the
        # silence lasts — quiet-period decay must not lower a patient
        # nobody can observe.
        board = TriageBoard(TriageConfig(stale_after_s=150.0,
                                         watch_hold_s=180.0))
        board.register(["mute"])
        for now in range(0, 1200, 60):
            board.tick(float(now))
        patient = board.patient("mute")
        assert patient.stale is True
        assert patient.state == "watch"
        assert patient.n_stale_events == 1  # one episode, not re-counted

    def test_total_loss_flags_stale_fleet_wide(self, trained_af_detector):
        # A node whose every packet is lost must surface as stale.
        cohort = [PatientProfile(patient_id="gone", rhythm="nsr",
                                 snr_db=20.0, seed=50)]
        link = ImpairedLink(LinkSpec(loss_rate=0.999999), seed=1)
        board = TriageBoard(TriageConfig(stale_after_s=100.0))
        scheduler = FleetScheduler(
            cohort, SchedulerConfig(duration_s=180.0),
            node_config=FAST_NODE, board=board, link=link)
        report = scheduler.run()
        assert report.summary.stale_patients == 1
        assert board.patient("gone").stale is True
