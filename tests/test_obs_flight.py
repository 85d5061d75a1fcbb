"""Tests for the gateway flight recorder (`repro.obs.flight`)."""

from __future__ import annotations

import json

import pytest

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxyConfig,
    SchedulerConfig,
    WireFormatError,
    make_cohort,
)
from repro.obs import (
    ANOMALY_ALARM_BURST,
    ANOMALY_NAN_GUARD,
    ANOMALY_WIRE_ERROR,
    FlightRecorder,
    Observability,
    ObsConfig,
    load_flight_dump,
)


class TestRings:
    def test_frame_ring_is_bounded_last_n(self):
        rec = FlightRecorder(ring_size=3)
        for i in range(6):
            rec.record_frame("p0", bytes([i]))
        record = rec.anomaly("test", "p0", 1.0)
        assert record.packets() == [b"\x03", b"\x04", b"\x05"]

    def test_rings_are_per_channel(self):
        rec = FlightRecorder(ring_size=4)
        rec.record_frame("p0", b"a")
        rec.record_frame("p1", b"b")
        record = rec.anomaly("test", "p1", 2.0)
        assert record.packets() == [b"b"]

    def test_snapshot_counts(self):
        rec = FlightRecorder(ring_size=8)
        rec.record_frame("p0", b"x")
        rec.anomaly("nan-guard", "p0", 1.0)
        rec.anomaly("nan-guard", "p0", 2.0)
        snap = rec.snapshot()
        assert snap == {"ring_size": 8, "n_channels": 1,
                        "n_anomalies": 2,
                        "anomaly_kinds": ["nan-guard"]}


class TestAlarmBurst:
    def test_burst_trips_inside_window_only(self):
        rec = FlightRecorder(alarm_burst_threshold=3,
                             alarm_burst_window_s=10.0)
        assert not rec.note_alarm("p0", 1.0)
        assert not rec.note_alarm("p0", 2.0)
        assert rec.note_alarm("p0", 3.0)
        # Spread alarms never trip: old ones age out of the window.
        assert not rec.note_alarm("p1", 0.0)
        assert not rec.note_alarm("p1", 20.0)
        assert not rec.note_alarm("p1", 40.0)

    def test_channels_do_not_share_burst_state(self):
        rec = FlightRecorder(alarm_burst_threshold=2,
                             alarm_burst_window_s=10.0)
        assert not rec.note_alarm("p0", 1.0)
        assert not rec.note_alarm("p1", 1.5)
        assert rec.note_alarm("p0", 2.0)


class TestDumps:
    def test_dump_write_and_load_roundtrip(self, tmp_path):
        rec = FlightRecorder(ring_size=4, dump_dir=tmp_path)
        rec.record_frame("p0", b"\x00\x01")
        record = rec.anomaly(ANOMALY_NAN_GUARD, "p0", 4.125,
                             detail_code=7)
        # Virtual-time file name: identical across seeded reruns.
        assert record.path.endswith("flight_nan-guard_p0_t4_125.json")
        loaded = load_flight_dump(record.path)
        assert loaded.kind == ANOMALY_NAN_GUARD
        assert loaded.subject == "p0"
        assert loaded.packets() == [b"\x00\x01"]
        assert loaded.detail == {"detail_code": 7}

    def test_dump_with_an_events_key_still_loads(self, tmp_path):
        # Dumps once carried a per-channel trace-event list; files
        # written then still load, and rewrite without it.
        rec = FlightRecorder(dump_dir=tmp_path)
        rec.record_frame("p0", b"\x07")
        path = rec.anomaly(ANOMALY_NAN_GUARD, "p0", 3.0, code=1).path
        payload = json.loads(open(path).read())
        payload["events"] = [{"name": "gateway.ingest", "ts": 3.0}]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        loaded = load_flight_dump(path)
        assert loaded.packets() == [b"\x07"]
        assert loaded.detail == {"code": 1}
        assert loaded.to_dict() == rec.anomalies[0].to_dict()
        assert "events" not in loaded.to_dict()

    def test_dump_bytes_are_deterministic(self, tmp_path):
        def dump(sub_dir):
            rec = FlightRecorder(dump_dir=tmp_path / sub_dir)
            rec.record_frame("p0", b"abc")
            return rec.anomaly("wire-error", "p0", 1.0, error="bad").path

        first, second = dump("a"), dump("b")
        assert json.loads(open(first).read()) \
            == json.loads(open(second).read())
        assert open(first).read() == open(second).read()

    def test_no_dump_dir_keeps_anomaly_in_memory(self):
        rec = FlightRecorder()
        record = rec.anomaly("test", "p0", 1.0)
        assert record.path is None
        assert rec.anomalies == [record]


class TestGatewayIntegration:
    def test_wire_error_trips_anomaly_and_reraises(self, tmp_path):
        obs = Observability(ObsConfig(flight_dump_dir=tmp_path))
        gateway = Gateway(GatewayConfig(), obs=obs)
        obs.set_virtual_time(12.0)
        with pytest.raises(WireFormatError):
            gateway.ingest(b"\xde\xad\xbe\xef")
        assert [a.kind for a in obs.flight.anomalies] \
            == [ANOMALY_WIRE_ERROR]
        record = obs.flight.anomalies[0]
        assert record.t_s == 12.0
        assert record.path is not None
        assert load_flight_dump(record.path).detail["frame_b64"]

    def test_wire_frames_recorded_and_replayable(self):
        cohort = make_cohort(CohortConfig(n_patients=2, seed=7))
        obs = Observability()
        scheduler = FleetScheduler(
            cohort,
            SchedulerConfig(duration_s=60.0, fs=250.0),
            node_config=NodeProxyConfig(stream_telemetry=False),
            obs=obs)
        fleet = scheduler.run()
        pid = cohort[0].patient_id
        record = obs.flight.anomaly("manual", pid, 60.0)
        frames = record.packets()
        assert frames, "an observed run should populate the frame ring"
        # Offline replay: the dumped frames drive a fresh gateway.
        replay = Gateway(GatewayConfig())
        for frame in frames:
            replay.ingest(frame)
        replay.drain()
        assert replay.channels[pid].n_excerpts > 0
        assert fleet.summary.dropped_packets == 0

    def test_alarm_burst_anomaly_from_gateway(self):
        # Synthetic: drive note_alarm through the recorder exactly as
        # Gateway._note_processed does, with a tiny threshold.
        obs = Observability(ObsConfig(alarm_burst_threshold=2,
                                      alarm_burst_window_s=5.0))
        assert not obs.flight.note_alarm("p0", 1.0)
        assert obs.flight.note_alarm("p0", 2.0)
        obs.flight.anomaly(ANOMALY_ALARM_BURST, "p0", 2.0)
        assert obs.flight.snapshot()["anomaly_kinds"] \
            == [ANOMALY_ALARM_BURST]
