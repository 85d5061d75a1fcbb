"""Tests for the durable gateway journal (`repro.fleet.journal`)."""

from __future__ import annotations

import os

import pytest

from repro.fleet import (
    Gateway,
    GatewayConfig,
    GatewaySession,
    FleetScheduler,
    JournalConfig,
    JournalError,
    JournalReader,
    JournalReplayer,
    JournalWriter,
    MESSAGE_MAGIC,
    NodeProxy,
    NodeProxyConfig,
    PatientProfile,
    SchedulerConfig,
    ServeMessage,
    ShardedFleetRunner,
    StreamDecoder,
    decode_message,
    encode_message,
    encode_stream_frame,
    frame_kind,
    journal_meta,
    make_cohort,
)
from repro.fleet.cohort import CohortConfig
from repro.fleet import journal as journal_module
from repro.fleet.journal import _BODY_HEAD, _REC_HEAD
from repro.fleet.serve import FleetGatewayServer
from repro.obs import ANOMALY_JOURNAL_TRUNCATED, Observability, ObsConfig


def _telemetry_frames(n: int, patient_id: str = "jt0") -> list[bytes]:
    """Cheap, valid wire packet frames (no synthesis, no CS encoding)."""
    proxy = NodeProxy(PatientProfile(patient_id=patient_id, seed=1),
                      NodeProxyConfig(stream_telemetry=False))
    return [proxy.telemetry_packet(float(i), mean_hr_bpm=60.0 + i,
                                   soc=0.5).to_bytes()
            for i in range(n)]


def _write_sample(config: JournalConfig, n_packets: int = 4,
                  **writer_kw) -> JournalWriter:
    """A small journal: packets interleaved with control messages."""
    writer = JournalWriter(config, meta=journal_meta(60.0, 250.0),
                           **writer_kw)
    frames = _telemetry_frames(n_packets)
    for i, frame in enumerate(frames):
        writer.append_message(ServeMessage("expire", "", t_s=float(i)))
        writer.append_packet(frame, "jt0")
        writer.append_message(ServeMessage("drain", "", t_s=float(i),
                                           fields={"budget": -1.0}))
    writer.append_message(ServeMessage("sweep", "", t_s=float(n_packets)))
    writer.close()
    return writer


class TestJournalConfig:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(dir=""), "dir"),
        (dict(dir="d", name=""), "name"),
        (dict(dir="d", name="x" * 81), "name"),
        (dict(dir="d", name="a/b"), "separators"),
        (dict(dir="d", segment_bytes=100), "segment_bytes"),
    ])
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            JournalConfig(**kwargs)

    def test_for_shard_derives_name(self):
        config = JournalConfig(dir="d", name="run")
        assert config.for_shard(3).name == "run-s03"
        assert config.for_shard(3).dir == "d"

    def test_segment_paths_ignore_other_journals(self, tmp_path):
        """A journal named ``j`` must not pick up ``j-s00``'s segments."""
        base = JournalConfig(dir=str(tmp_path), name="j")
        shard = base.for_shard(0)
        _write_sample(base, n_packets=1)
        _write_sample(shard, n_packets=1)
        assert [p.name for p in base.segment_paths()] == ["j-000000.rpj"]
        assert [p.name for p in shard.segment_paths()] \
            == ["j-s00-000000.rpj"]


class TestWriterReader:
    def test_record_bytes_identical_to_reference(self, tmp_path):
        # Every appended record must be the exact bytes of the
        # documented layout: u32 length | u32 CRC32(body) | body.
        import zlib

        config = JournalConfig(dir=str(tmp_path), name="layout")
        writer = _write_sample(config, n_packets=3)
        data = config.segment_paths()[0].read_bytes()
        # Re-derive every record and check CRC/length against a
        # from-scratch single-buffer encoding of its body.
        reader = JournalReader(config)
        for record in reader.records():
            subject_raw = record.subject.encode("utf-8")
            body = (_BODY_HEAD.pack(record.t_s, record.prio,
                                    len(subject_raw))
                    + subject_raw + bytes(record.frame))
            expected = _REC_HEAD.pack(len(body), zlib.crc32(body)) + body
            assert expected in data
        assert writer.n_records == reader.n_records

    def test_append_accepts_any_buffer_without_retention(self, tmp_path):
        # bytes, bytearray and memoryview appends must journal the
        # same record — and mutating the source afterwards must not
        # reach the log (the write happens inside the call).
        frame = _telemetry_frames(1)[0]
        blobs = []
        for source in (frame, bytearray(frame), memoryview(frame)):
            config = JournalConfig(dir=str(tmp_path),
                                   name=f"buf{len(blobs)}")
            writer = JournalWriter(config,
                                   meta=journal_meta(60.0, 250.0))
            writer.append_packet(source, "jt0")
            writer.close()
            if isinstance(source, bytearray):
                source[:] = b"\xff" * len(source)
            blobs.append(config.segment_paths()[0].read_bytes())
        # Identical records behind the (identical-length) headers.
        assert len({blob[blob.index(b"RPW1"):] for blob in blobs}) == 1

    def test_round_trip(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="rt")
        writer = _write_sample(config, n_packets=4)
        assert writer.n_packets == 4
        assert writer.n_messages == 9
        reader = JournalReader(config)
        records = list(reader.records())
        assert reader.meta == journal_meta(60.0, 250.0)
        assert len(records) == writer.n_records
        assert reader.torn_tail_bytes == 0
        kinds = [frame_kind(r.frame) for r in records]
        assert kinds.count("packet") == 4
        # Writer stamps are monotone in file order.
        stamps = [(r.t_s, r.prio) for r in records]
        assert stamps == sorted(stamps)
        # Packet records carry their subject; the frames round-trip.
        packet = next(r for r in records if frame_kind(r.frame) == "packet")
        assert packet.subject == "jt0"
        assert packet.frame == _telemetry_frames(1)[0]

    def test_record_frames_are_owned_bytes(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="owned")
        _write_sample(config, n_packets=2)
        records = list(JournalReader(config).records())
        assert records
        assert all(type(record.frame) is bytes for record in records)

    def test_messages_advance_clock_packets_inherit_it(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="clk")
        with JournalWriter(config) as writer:
            writer.append_message(ServeMessage("sweep", "", t_s=10.0))
            # A message stamped earlier than the clock is clamped, never
            # allowed to run the journal backwards.
            writer.append_message(ServeMessage("expire", "", t_s=3.0))
            writer.append_packet(_telemetry_frames(1)[0], "jt0")
        records = list(JournalReader(config).records())
        stamps = [(r.t_s, r.prio) for r in records]
        assert stamps[1] == stamps[0]
        assert stamps[2] == stamps[0]

    def test_rotation_crosses_segments(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="rot",
                               segment_bytes=4096)
        writer = JournalWriter(config)
        frames = _telemetry_frames(40)
        for frame in frames:
            writer.append_packet(frame, "jt0")
        writer.close()
        assert writer.stats()["segments"] >= 2
        assert len(config.segment_paths()) == writer.stats()["segments"]
        reader = JournalReader(config)
        replayed = [r.frame for r in reader.records()]
        assert replayed == frames

    def test_resume_false_wipes_prior_segments(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="wipe")
        _write_sample(config, n_packets=3)
        with JournalWriter(config, resume=False) as writer:
            writer.append_packet(_telemetry_frames(1)[0], "jt0")
        assert JournalReader(config).n_records == 0  # set by records()
        assert len(list(JournalReader(config).records())) == 1

    def test_append_errors(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="err")
        writer = JournalWriter(config)
        with pytest.raises(JournalError, match="empty"):
            writer.append_packet(b"", "jt0")
        with pytest.raises(JournalError, match="not journalable"):
            writer.append_message(ServeMessage("hello-ack", "p"))
        with pytest.raises(JournalError, match="non-finite"):
            writer.append_message(
                ServeMessage("sweep", "p", t_s=float("nan")))
        writer.close()
        with pytest.raises(JournalError, match="closed"):
            writer.append_packet(b"x", "jt0")

    def test_stats_surface(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="st")
        writer = _write_sample(config, n_packets=2)
        stats = writer.stats()
        assert stats["name"] == "st"
        assert stats["records"] == stats["packets"] + stats["messages"]
        assert stats["bytes"] > 0
        assert stats["truncated_bytes"] == 0

    @pytest.mark.parametrize("fsync", [False, True],
                             ids=["default", "fsync"])
    def test_fsync_after_every_append_and_at_close(self, tmp_path,
                                                   monkeypatch, fsync):
        calls: list[int] = []
        monkeypatch.setattr(os, "fsync", calls.append)
        obs = Observability(ObsConfig())
        config = JournalConfig(dir=str(tmp_path), name="fs", fsync=fsync)
        writer = _write_sample(config, n_packets=2, obs=obs)
        expected = writer.n_records + 1 if fsync else 0
        assert len(calls) == expected
        assert writer.n_fsyncs == writer.stats()["fsyncs"] == expected
        counter = obs.metrics.families()["journal_fsync_total"]
        assert counter.value(journal="fs") == expected

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            JournalReader(JournalConfig(dir=str(tmp_path), name="nope"))


class TestRecovery:
    def test_torn_tail_truncated_and_appending_resumes(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="torn")
        _write_sample(config, n_packets=3)
        reference = list(JournalReader(config).records())
        path = config.segment_paths()[-1]
        # Emulate a crash mid-append: a record prefix with no body.
        with open(path, "ab") as handle:
            handle.write(_REC_HEAD.pack(500, 0) + b"\x01\x02\x03")
        writer = JournalWriter(config)
        assert writer.n_truncated_bytes == _REC_HEAD.size + 3
        writer.append_message(ServeMessage("sweep", "",
                                           t_s=reference[-1].t_s + 1.0))
        writer.close()
        recovered = list(JournalReader(config).records())
        assert recovered[:-1] == reference
        assert decode_message(recovered[-1].frame).kind == "sweep"

    def test_reader_reports_torn_tail_without_truncating(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="tt")
        _write_sample(config, n_packets=2)
        reference = list(JournalReader(config).records())
        path = config.segment_paths()[-1]
        with open(path, "ab") as handle:
            handle.write(b"\xff\xff")
        reader = JournalReader(config)
        assert list(reader.records()) == reference
        assert reader.torn_tail_bytes == 2

    def test_torn_tail_in_sealed_segment_is_corruption(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="sealed",
                               segment_bytes=4096)
        writer = JournalWriter(config)
        for frame in _telemetry_frames(40):
            writer.append_packet(frame, "jt0")
        writer.close()
        paths = config.segment_paths()
        assert len(paths) >= 2
        with open(paths[0], "ab") as handle:
            handle.write(b"\xff")
        with pytest.raises(JournalError, match="sealed"):
            list(JournalReader(config).records())

    def test_crc_mismatch_is_corruption_not_recovery(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="crc")
        _write_sample(config, n_packets=2)
        path = config.segment_paths()[0]
        data = bytearray(path.read_bytes())
        data[-10] ^= 0x40  # flip one bit inside the last record body
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="CRC"):
            list(JournalReader(config).records())
        with pytest.raises(JournalError, match="CRC"):
            JournalWriter(config)

    def test_recovery_adopts_header_meta(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="meta")
        _write_sample(config, n_packets=1)
        writer = JournalWriter(config)
        assert writer.meta == journal_meta(60.0, 250.0)
        writer.close()

    def test_truncation_is_metered_and_flight_recorded(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="obs")
        _write_sample(config, n_packets=1)
        with open(config.segment_paths()[-1], "ab") as handle:
            handle.write(_REC_HEAD.pack(100, 0))
        obs = Observability(ObsConfig())
        JournalWriter(config, obs=obs).close()
        anomaly = obs.flight.anomalies[-1]
        assert anomaly.kind == ANOMALY_JOURNAL_TRUNCATED
        assert anomaly.detail["torn_bytes"] == _REC_HEAD.size


class _PowerCut(BaseException):
    """Raised by the injected write fault to stop the run mid-append."""


class TestCrashInjection:
    def test_write_hook_partial_append_recovers_cleanly(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="cut")
        writer = _write_sample(config, n_packets=2)
        reference = list(JournalReader(config).records())
        writer = JournalWriter(config)
        writer.write_hook = lambda data: writer._file.write(
            data[: len(data) // 2])
        writer.append_message(ServeMessage("sweep", "", t_s=99.0))
        writer._file.close()  # the process dies; no flush, no close()
        recovered = JournalWriter(config)
        assert recovered.n_truncated_bytes > 0
        recovered.close()
        assert list(JournalReader(config).records()) == reference

    def test_fleet_run_killed_mid_append_replays_surviving_prefix(
            self, tmp_path):
        """The ISSUE's crash-recovery bar: kill the writer mid-append,
        reopen, replay — the recovered summary equals the reference
        over the surviving prefix (here: everything but the final
        ``stats`` record, which carries no summary state)."""
        cohort = make_cohort(CohortConfig(n_patients=2, seed=11))
        run_kw = dict(
            config=SchedulerConfig(duration_s=60.0, fs=250.0),
            node_config=NodeProxyConfig(stream_telemetry=False))
        gateway_config = GatewayConfig(n_iter=30)
        reference = FleetScheduler(
            cohort, run_kw["config"],
            node_config=run_kw["node_config"],
            gateway=Gateway(gateway_config)).run()

        config = JournalConfig(dir=str(tmp_path), name="killed")
        writer = JournalWriter(
            config, meta=journal_meta(60.0, 250.0, gateway_config),
            resume=False)

        def cut_power_at_stats(data: bytes):
            body = data[_REC_HEAD.size:]
            _, _, subject_len = _BODY_HEAD.unpack_from(body, 0)
            frame = body[_BODY_HEAD.size + subject_len:]
            if (frame[:4] == MESSAGE_MAGIC
                    and decode_message(frame).kind == "stats"):
                writer._file.write(data[: len(data) // 2])
                raise _PowerCut()
            writer._file.write(data)

        writer.write_hook = cut_power_at_stats
        scheduler = FleetScheduler(
            cohort, run_kw["config"],
            node_config=run_kw["node_config"],
            gateway=Gateway(gateway_config), journal=writer)
        with pytest.raises(_PowerCut):
            scheduler.run()
        writer._file.close()  # simulate sudden process death

        recovered = JournalWriter(config)
        assert recovered.n_truncated_bytes > 0
        recovered.close()
        replay = JournalReplayer(config).run()
        assert replay.summary.to_json() == reference.summary.to_json()



class TestReplaySources:
    def test_patient_in_two_journals_is_refused(self, tmp_path):
        """Re-recording a run at 1 shard over a 3-shard recording leaves
        stale ``-s01``/``-s02`` journals behind.  Their patients are in
        the fresh ``-s00`` too; merging all three would ingest those
        patients' packets twice, so the replay refuses and names both
        journals."""
        cohort = make_cohort(CohortConfig(n_patients=3, seed=11))
        run_kw = dict(
            config=SchedulerConfig(duration_s=60.0, fs=250.0),
            node_config=NodeProxyConfig(stream_telemetry=False),
            gateway_config=GatewayConfig(n_iter=30))
        config = JournalConfig(dir=str(tmp_path), name="rerun")
        ShardedFleetRunner(cohort, n_shards=3, journal=config,
                           **run_kw).run()
        ShardedFleetRunner(cohort, n_shards=1, journal=config,
                           **run_kw).run()
        sources = [config.for_shard(i) for i in range(3)]
        with pytest.raises(JournalError,
                           match="'rerun-s00' and 'rerun-s01'"):
            JournalReplayer(sources).run()
        # The fresh 1-shard journal alone is the complete run.
        replay = JournalReplayer(config.for_shard(0)).run()
        assert replay.summary.duplicate_packets == 0
        assert list(replay.rows) == [p.patient_id for p in cohort]

    def test_patient_outside_the_cohort_is_refused(self, tmp_path):
        """A cohort that leaves out a journaled patient used to fold the
        rest as a partial fleet, with that patient's sent packets and
        queue drops still counted; the replay now refuses and names the
        patient and its journal."""
        cohort = make_cohort(CohortConfig(n_patients=3, seed=5))
        gateway_config = GatewayConfig(n_iter=20)
        config = JournalConfig(dir=str(tmp_path), name="three")
        with JournalWriter(config, meta=journal_meta(
                24.0, 250.0, gateway=gateway_config),
                resume=False) as journal:
            FleetScheduler(
                cohort, SchedulerConfig(duration_s=24.0, fs=250.0),
                node_config=NodeProxyConfig(stream_telemetry=False),
                gateway=Gateway(gateway_config), journal=journal).run()
        left_out = cohort[2].patient_id
        with pytest.raises(JournalError,
                           match=f"{left_out!r} in journal 'three'"):
            JournalReplayer(config, cohort=cohort[:2]).run()
        replay = JournalReplayer(config, cohort=cohort).run()
        assert list(replay.rows) == [p.patient_id for p in cohort]


class TestReplayRejectsHostileRecords:
    """A CRC-valid record whose frame is malformed fails the replay
    with :class:`JournalError`, never a bare decode exception."""

    @staticmethod
    def _replay(tmp_path, append) -> None:
        config = JournalConfig(dir=str(tmp_path), name="hostile")
        with JournalWriter(config, meta=journal_meta(60.0, 250.0),
                           resume=False) as writer:
            writer.append_message(ServeMessage("hello", "jt0"))
            append(writer)
        JournalReplayer(config).run()

    def test_non_utf8_packet_frame(self, tmp_path, non_utf8):
        frame = non_utf8(_telemetry_frames(1)[0], "jt0")
        with pytest.raises(JournalError, match="UTF-8"):
            self._replay(tmp_path,
                         lambda writer: writer.append_packet(frame, "jt0"))

    def test_non_utf8_message_frame(self, tmp_path, non_utf8):
        frame = non_utf8(
            encode_message(ServeMessage("sweep", "jt0", t_s=1.0)), "sweep")
        with pytest.raises(JournalError, match="UTF-8"):
            self._replay(tmp_path,
                         lambda writer: writer.append_packet(frame, "jt0"))

    def test_malformed_geometry_packet_frame(self, tmp_path, cs_packet):
        # Recovered ahead of its drain, the frame would fail the batch;
        # instead its own record fails, as a JournalError.
        frame = cs_packet("jt0", n_measurements=5).to_bytes()
        drain = ServeMessage("drain", "", t_s=1.0, fields={"budget": -1.0})

        def append(writer):
            writer.append_packet(frame, "jt0")
            writer.append_message(drain)

        with pytest.raises(JournalError,
                           match="record 1 of journal 'hostile'.*102"):
            self._replay(tmp_path, append)

    @pytest.mark.parametrize("msg", [
        ServeMessage("drain", "", t_s=1.0, fields={"budget": float("nan")}),
        ServeMessage("drain", "jt0", t_s=1.0,
                     fields={"budget": float("inf")}),
        ServeMessage("report", "jt0", t_s=1.0,
                     fields={"n_sent": float("nan")}),
        ServeMessage("stats", "", t_s=1.0,
                     fields={"link:lost": float("nan")}),
        ServeMessage("hello", "jt1", fields={"index": float("inf")}),
    ], ids=["fleet-drain-nan", "drain-inf", "report-nan", "stats-nan",
            "hello-index-inf"])
    def test_non_finite_count(self, tmp_path, msg):
        with pytest.raises(JournalError, match="must be finite"):
            self._replay(tmp_path,
                         lambda writer: writer.append_message(msg))

    def test_sweep_behind_the_session_clock(self, tmp_path):
        # The writer clamps the second record's stamp to the first's
        # but keeps the message's own t_s, which the session refuses.
        def append(writer):
            writer.append_message(ServeMessage("sweep", "jt0", t_s=10.0))
            writer.append_message(ServeMessage("sweep", "jt0", t_s=5.0))

        with pytest.raises(JournalError,
                           match="record 2 of journal 'hostile'.*time travel"):
            self._replay(tmp_path, append)


class TestSessionReport:
    def test_report_for_another_patient_is_refused(self):
        # The row takes its id from the report, so a session must not
        # accept a report naming someone else.
        session = GatewaySession("p0")
        replies, close = session.handle_frame(encode_message(
            ServeMessage("report", "p1", t_s=60.0)))
        assert close
        assert decode_message(replies[0]).kind == "error"
        assert session.row is None


def _gateway_meta(**fields) -> dict:
    """Default ``gateway`` journal metadata with some fields patched."""
    return dict(journal_meta(gateway=GatewayConfig())["gateway"], **fields)


class TestReplayRejectsHostileMetadata:
    """Run parameters a replay cannot use — from the journal metadata or
    from the replayer's arguments — fail with :class:`JournalError`
    naming the key, never a bare exception or a blank summary."""

    GOOD = journal_meta(60.0, 250.0, GatewayConfig())

    @staticmethod
    def _journal(tmp_path, meta: dict, name: str = "meta",
                 pid: str = "jt0") -> JournalConfig:
        """A one-patient journal: hello, then the end-of-run report."""
        config = JournalConfig(dir=str(tmp_path), name=name)
        with JournalWriter(config, meta=meta, resume=False) as writer:
            writer.append_message(ServeMessage("hello", pid))
            writer.append_message(ServeMessage(
                "report", pid, t_s=60.0, fields={"n_sent": 0.0}))
        return config

    def test_well_formed_metadata_replays(self, tmp_path):
        replay = JournalReplayer(self._journal(tmp_path, self.GOOD)).run()
        assert replay.summary.n_patients == 1
        assert replay.summary.duration_s == 60.0

    @pytest.mark.parametrize("key, value", [
        ("gateway", {"bogus": 1}),
        ("gateway", [1, 2]),
        ("gateway", _gateway_meta(n_iter="abc")),
        ("gateway", _gateway_meta(n_iter=2.5)),
        ("gateway", _gateway_meta(n_iter=-3)),
        ("gateway", _gateway_meta(wavelet="bogus")),
        ("gateway", _gateway_meta(wavelet=3)),
        ("gateway", _gateway_meta(queue_capacity=0)),
        ("gateway", _gateway_meta(queue_capacity=-1)),
        ("duration_s", "ten"),
        ("duration_s", 0.0),
        ("duration_s", float("nan")),
        ("fs", "x"),
    ], ids=["gateway-unknown-field", "gateway-list", "n-iter-text",
            "n-iter-float", "n-iter-negative", "wavelet-unknown",
            "wavelet-int", "queue-zero", "queue-negative",
            "duration-text", "duration-zero", "duration-nan", "fs-text"])
    def test_hostile_metadata(self, tmp_path, key, value):
        meta = dict(self.GOOD, **{key: value})
        with pytest.raises(JournalError, match=f"^{key} "):
            JournalReplayer(self._journal(tmp_path, meta)).run()

    @pytest.mark.parametrize("kwargs, key", [
        (dict(duration_s=-1.0), "duration_s"),
        (dict(duration_s=True), "duration_s"),
        (dict(fs=float("inf")), "fs"),
        (dict(gateway_config={"bogus": 1}), "gateway"),
    ], ids=["duration-negative", "duration-bool", "fs-inf",
            "gateway-unknown-field"])
    def test_hostile_arguments(self, tmp_path, kwargs, key):
        config = self._journal(tmp_path, self.GOOD)
        with pytest.raises(JournalError, match=f"^{key} "):
            JournalReplayer(config, **kwargs).run()

    @pytest.mark.parametrize("key, value", [
        ("duration_s", 30.0),
        ("fs", 500.0),
        ("gateway", journal_meta(gateway=GatewayConfig(n_iter=7))
         ["gateway"]),
    ], ids=["duration", "fs", "gateway"])
    def test_sources_disagree(self, tmp_path, key, value):
        first = self._journal(tmp_path, self.GOOD, name="a", pid="p0")
        second = self._journal(tmp_path, dict(self.GOOD, **{key: value}),
                               name="b", pid="p1")
        with pytest.raises(JournalError,
                           match=f"journals 'a', 'b' disagree on {key}"):
            JournalReplayer([first, second]).run()


class TestPreviousGatewayMetadata:
    """Journals written while ``GatewayConfig`` still carried a
    time-based ``reassembly_grace_s`` store it in their metadata."""

    _journal = staticmethod(TestReplayRejectsHostileMetadata._journal)

    def test_null_grace_replays_to_the_live_summary(self, tmp_path):
        cohort = make_cohort(CohortConfig(n_patients=2, seed=11))
        gateway_config = GatewayConfig(n_iter=30)
        meta = journal_meta(60.0, 250.0, gateway_config)
        meta["gateway"]["reassembly_grace_s"] = None
        config = JournalConfig(dir=str(tmp_path), name="previous")
        with JournalWriter(config, meta=meta, resume=False) as writer:
            live = FleetScheduler(
                cohort, SchedulerConfig(duration_s=60.0, fs=250.0),
                node_config=NodeProxyConfig(stream_telemetry=False),
                gateway=Gateway(gateway_config), journal=writer).run()
        replay = JournalReplayer(config).run()
        assert replay.summary.to_json() == live.summary.to_json()

    def test_set_grace_is_refused(self, tmp_path):
        meta = dict(journal_meta(60.0, 250.0),
                    gateway=_gateway_meta(reassembly_grace_s=30.0))
        with pytest.raises(JournalError,
                           match="^gateway reassembly_grace_s=30.0: "):
            JournalReplayer(self._journal(tmp_path, meta)).run()

    def test_previous_and_current_journals_agree(self, tmp_path):
        current = journal_meta(60.0, 250.0, GatewayConfig())
        previous = dict(current,
                        gateway=_gateway_meta(reassembly_grace_s=None))
        sources = [self._journal(tmp_path, current, name="a", pid="p0"),
                   self._journal(tmp_path, previous, name="b", pid="p1")]
        assert JournalReplayer(sources).run().summary.n_patients == 2


class TestReplayReadsAhead:
    """The replay decodes a chunk of records ahead of replaying them,
    yet every failure still surfaces at its own record."""

    def test_corrupt_record_raises_after_the_records_before_it(
            self, tmp_path, monkeypatch):
        config = JournalConfig(dir=str(tmp_path), name="ahead")
        _write_sample(config, n_packets=4)
        path = config.segment_paths()[0]
        data = bytearray(path.read_bytes())
        data[data.index(_telemetry_frames(4)[2]) + 8] ^= 0x40
        path.write_bytes(bytes(data))
        ingested: list[int] = []
        real_ingest = Gateway.ingest

        def counting_ingest(gateway, payload, *args):
            ingested.append(1)
            return real_ingest(gateway, payload, *args)

        monkeypatch.setattr(Gateway, "ingest", counting_ingest)
        with pytest.raises(JournalError, match="CRC"):
            JournalReplayer(config).run()
        # The two packets before the corrupt third one were replayed.
        assert len(ingested) == 2

    def test_frameless_stretch_reads_a_bounded_chunk(self, tmp_path,
                                                     monkeypatch):
        # Telemetry (like raw-mode uplink) carries no CS window, so only
        # the record bound ends a chunk.
        monkeypatch.setattr(journal_module, "_LOOKAHEAD_RECORDS", 4)
        config = JournalConfig(dir=str(tmp_path), name="bounded")
        _write_sample(config, n_packets=6)
        read: list[int] = []
        read_before_ingest: list[int] = []
        real_records = JournalReader.records
        real_ingest = Gateway.ingest

        def counting_records(reader):
            for record in real_records(reader):
                read.append(1)
                yield record

        def counting_ingest(gateway, payload, *args):
            read_before_ingest.append(len(read))
            return real_ingest(gateway, payload, *args)

        monkeypatch.setattr(JournalReader, "records", counting_records)
        monkeypatch.setattr(Gateway, "ingest", counting_ingest)
        with pytest.raises(JournalError, match="hello"):
            JournalReplayer(config).run()
        # Packet k is record 3k + 1.  When it replays, the records read
        # from it on all sit in its chunk: 4 at most.
        assert len(read_before_ingest) == 6
        assert max(n - (3 * k + 1)
                   for k, n in enumerate(read_before_ingest)) == 4


class TestDecoderAccounting:
    """Satellite: partial-frame byte accounting shared by journal writer
    and serve lane (`StreamDecoder.pending_bytes`)."""

    def test_pending_bytes_across_chunked_feeds(self):
        body = encode_message(ServeMessage("sweep", "p", t_s=1.0))
        stream = encode_stream_frame(body) * 2
        decoder = StreamDecoder()
        assert decoder.pending_bytes == 0
        frame_len = len(encode_stream_frame(body))
        got = []
        for i, chunk_end in enumerate(range(1, len(stream) + 1)):
            got.extend(decoder.feed(stream[chunk_end - 1:chunk_end]))
            # The buffered count is exactly the bytes fed since the
            # last completed frame — pinned byte-for-byte.
            assert decoder.pending_bytes == chunk_end % frame_len
        assert got == [body, body]
        assert decoder.pending_bytes == 0

    def test_server_tracks_partial_frame_high_water(self):
        server = FleetGatewayServer.__new__(FleetGatewayServer)
        server.max_partial_bytes = 0
        decoder = StreamDecoder()
        body = encode_message(ServeMessage("hello", "p"))
        decoder.feed(encode_stream_frame(body)[:5])
        server._note_partial(decoder)
        assert server.max_partial_bytes == 5
        decoder.feed(encode_stream_frame(body)[5:])
        server._note_partial(decoder)
        assert server.max_partial_bytes == 5  # high-water, not last
