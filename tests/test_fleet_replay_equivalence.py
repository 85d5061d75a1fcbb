"""Replay-equivalence harness: journals must reproduce live runs.

The repo-wide oracle this PR adds: a `JournalReplayer` run over the
journal of a live fleet run produces a `FleetSummary.to_json()` that is
byte-identical to the live run's — for the plain in-process engine, a
governed + impaired scenario run, a real-socket served run, and an
N-shard run whose per-shard journals are merged back into the kernel's
total event order.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import asdict, replace

import pytest

from repro.compression import JointCsDecoder
from repro.fleet import (
    CohortConfig,
    FleetGatewayServer,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    JournalConfig,
    JournalError,
    JournalReader,
    JournalReplayer,
    JournalWriter,
    NodeProxy,
    NodeProxyConfig,
    PatientProfile,
    PerPatientLink,
    SchedulerConfig,
    ServeConfig,
    ServeMessage,
    ShardHooks,
    ShardedFleetRunner,
    decode_message,
    decode_packet,
    encode_packet,
    frame_kind,
    journal_meta,
    make_cohort,
    run_served_fleet,
)
from repro.fleet import journal as journal_module
from repro.fleet.client import _Transport
from repro.fleet.sharding import (
    ShardResult,
    decode_shard_result,
    encode_shard_result,
)
from repro.fleet.triage import row_from_report
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
    gateway_config=GatewayConfig(n_iter=40),
)


def _impaired_governed_hooks(spec: LinkSpec, profiles,
                             master_seed: int) -> ShardHooks:
    """Scenario wiring mirroring `tests/test_fleet_serve.py`."""

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


class TestInProcessReplay:
    def test_plain_run_replays_byte_identical(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="plain")
        journal = JournalWriter(
            config,
            meta=journal_meta(RUN_KW["config"].duration_s,
                              RUN_KW["config"].fs,
                              RUN_KW["gateway_config"]),
            resume=False)
        try:
            live = FleetScheduler(
                COHORT, RUN_KW["config"],
                node_config=RUN_KW["node_config"],
                gateway=Gateway(RUN_KW["gateway_config"]),
                journal=journal).run()
        finally:
            journal.close()
        replay = JournalReplayer(config).run()
        assert replay.summary.to_json() == live.summary.to_json()
        assert replay.packets_sent == live.packets_sent
        assert replay.n_packets > 0
        assert replay.n_journals == 1
        assert replay.torn_tail_bytes == 0
        assert list(replay.rows) == [p.patient_id for p in COHORT]
        assert set(replay.timings_s) == {"replay", "recover", "merge",
                                         "total"}

    def test_journaled_run_summary_unchanged_by_journaling(self,
                                                           tmp_path):
        """Attaching a journal must not perturb the run itself."""
        reference = FleetScheduler(
            COHORT, RUN_KW["config"],
            node_config=RUN_KW["node_config"],
            gateway=Gateway(RUN_KW["gateway_config"])).run()
        config = JournalConfig(dir=str(tmp_path), name="tax")
        with JournalWriter(config, resume=False) as journal:
            journaled = FleetScheduler(
                COHORT, RUN_KW["config"],
                node_config=RUN_KW["node_config"],
                gateway=Gateway(RUN_KW["gateway_config"]),
                journal=journal).run()
        assert journaled.summary.to_json() == reference.summary.to_json()

    def test_governed_impaired_replays_byte_identical(self, tmp_path):
        spec = LinkSpec(loss_rate=0.15, duplicate_rate=0.1,
                        reorder_rate=0.2, jitter_s=2.0,
                        reorder_delay_s=65.0)
        config = JournalConfig(dir=str(tmp_path), name="governed")
        live = ShardedFleetRunner(
            COHORT, n_shards=1, master_seed=99,
            hook_factory=functools.partial(_impaired_governed_hooks,
                                           spec),
            journal=config, **RUN_KW).run()
        replay = JournalReplayer(config.for_shard(0)).run()
        assert replay.summary.to_json() == live.summary.to_json()
        assert replay.summary.governed
        assert any(row.link_stats for row in replay.rows.values())
        assert replay.link_stats  # folded from the shard stats record


def _plain(row) -> list:
    """A row as nested ``(key, value)`` lists: order-sensitive, and NaN
    written as ``"nan"`` so equal rows compare equal."""

    def plain(value):
        if isinstance(value, dict):
            return [(key, plain(item)) for key, item in value.items()]
        if isinstance(value, list):
            return [plain(item) for item in value]
        if isinstance(value, float) and value != value:
            return "nan"
        return value

    return plain(asdict(row))


class TestOneRowType:
    """Every runtime reports the same row, and the row survives the
    shard codec."""

    SPEC = LinkSpec(loss_rate=0.1, duplicate_rate=0.1, reorder_rate=0.1,
                    jitter_s=3.0)

    def _scheduler(self, cohort, **kwargs) -> FleetScheduler:
        hooks = _impaired_governed_hooks(self.SPEC, cohort, 99)
        return FleetScheduler(
            cohort, RUN_KW["config"], node_config=RUN_KW["node_config"],
            gateway=Gateway(RUN_KW["gateway_config"]), link=hooks.link,
            governor_factory=hooks.governor_factory, **kwargs)

    def test_in_process_rows_equal_shard_and_replay_rows(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="rows")
        with JournalWriter(
                config,
                meta=journal_meta(RUN_KW["config"].duration_s,
                                  RUN_KW["config"].fs,
                                  RUN_KW["gateway_config"]),
                resume=False) as journal:
            live = self._scheduler(COHORT, journal=journal).run()
        sharded = ShardedFleetRunner(
            COHORT, n_shards=1, master_seed=99,
            hook_factory=functools.partial(_impaired_governed_hooks,
                                           self.SPEC),
            **RUN_KW).run()
        replay = JournalReplayer(config).run()
        assert live.summary.governed
        assert any(row.link_stats for row in live.rows.values())
        assert list(live.rows) == [p.patient_id for p in COHORT]
        expected = [_plain(row) for row in live.rows.values()]
        assert [_plain(row) for row in sharded.rows.values()] == expected
        assert [_plain(row) for row in replay.rows.values()] == expected
        assert sharded.summary.to_json() == live.summary.to_json()
        assert replay.summary.to_json() == live.summary.to_json()

    def test_report_row_survives_the_shard_codec(self):
        scheduler = self._scheduler(COHORT[:2])
        fleet = scheduler.run()
        rows = [row_from_report(
                    scheduler.report_message(pid, fleet.node_reports),
                    scheduler.gateway.channels.get(pid),
                    scheduler.board.patients[pid],
                    fleet.rows[pid].n_reconstructed)
                for pid in fleet.rows]
        assert any(row.governed and row.link_stats for row in rows)
        blob = encode_shard_result(ShardResult(
            shard_index=0, packets_sent=fleet.packets_sent, dropped=0,
            timings_s={}, rows=rows))
        decoded = decode_shard_result(blob).rows
        assert [_plain(row) for row in decoded] \
            == [_plain(row) for row in rows]


class TestReplayBatching:
    """A replay recovers a lookahead's frames together, ahead of drains."""

    def test_one_recover_batch_per_geometry_per_lookahead(self, tmp_path,
                                                          monkeypatch,
                                                          decoder_memo):
        cohort = [replace(profile, n_leads=n_leads)
                  for profile, n_leads in zip(COHORT, (3, 1, 3))]
        run_config = SchedulerConfig(duration_s=24.0, fs=250.0)
        dense = NodeProxyConfig(excerpt_period_s=4.0, stream_telemetry=False)
        calls: list[tuple[int, int]] = []
        built: list[int] = []
        real_batch = JointCsDecoder.recover_batch
        real_init = JointCsDecoder.__init__

        def counting_batch(decoder, frames):
            calls.append((decoder.n_leads, len(frames)))
            return real_batch(decoder, frames)

        def counting_init(decoder, *args, **kwargs):
            real_init(decoder, *args, **kwargs)
            built.append(decoder.n_leads)

        monkeypatch.setattr(JointCsDecoder, "recover_batch", counting_batch)
        monkeypatch.setattr(JointCsDecoder, "__init__", counting_init)
        config = JournalConfig(dir=str(tmp_path), name="batch")
        with JournalWriter(
                config,
                meta=journal_meta(run_config.duration_s, run_config.fs,
                                  RUN_KW["gateway_config"]),
                resume=False) as journal:
            live = FleetScheduler(
                cohort, run_config, node_config=dense,
                gateway=Gateway(RUN_KW["gateway_config"]),
                journal=journal).run()
        # The live gateway recovers per drain, one call per geometry
        # present in that drain.
        windows: dict[int, int] = {}
        for n_leads, n_windows in calls:
            windows[n_leads] = windows.get(n_leads, 0) + n_windows
        drains = [msg for msg in (decode_message(record.frame)
                                  for record in JournalReader(config).records()
                                  if frame_kind(record.frame) != "packet")
                  if msg.kind == "drain"]
        assert drains and all(msg.patient_id == "" for msg in drains)
        assert len(calls) > len(drains)
        # One decoder per geometry per process: the live run builds
        # them, and the replay reuses them.
        assert sorted(built) == [1, 3]
        calls.clear()
        built.clear()
        replay = JournalReplayer(config).run()
        assert replay.summary.to_json() == live.summary.to_json()
        # The whole journal is smaller than one lookahead: every window
        # is recovered in a single call per geometry.
        assert sum(windows.values()) < journal_module._LOOKAHEAD_WINDOWS
        assert sorted(calls) == sorted(windows.items())
        assert built == []
        assert replay.n_undrained_frames == 0


DENSE_KW = dict(RUN_KW, node_config=NodeProxyConfig(excerpt_period_s=4.0,
                                                    stream_telemetry=False))


def _record_plain(config: JournalConfig):
    with JournalWriter(config, meta=journal_meta(
            60.0, 250.0, DENSE_KW["gateway_config"]),
            resume=False) as journal:
        live = FleetScheduler(
            COHORT, DENSE_KW["config"], node_config=DENSE_KW["node_config"],
            gateway=Gateway(DENSE_KW["gateway_config"]),
            journal=journal).run()
    return [config], {}, live


def _record_impaired(config: JournalConfig):
    # One patient, so the live gateway's queue is the session's queue.
    spec = LinkSpec(loss_rate=0.15, duplicate_rate=0.2, reorder_rate=0.3,
                    jitter_s=2.0, reorder_delay_s=9.0)
    gateway_config = GatewayConfig(n_iter=40, queue_capacity=1)
    link = PerPatientLink(lambda pid: ImpairedLink(
        spec, seed=derive_seed(5, "link", pid)))
    with JournalWriter(config, meta=journal_meta(60.0, 250.0,
                                                 gateway_config),
                       resume=False) as journal:
        live = FleetScheduler(
            COHORT[:1], DENSE_KW["config"],
            node_config=DENSE_KW["node_config"],
            gateway=Gateway(gateway_config), link=link,
            journal=journal).run()
    return [config], {}, live


def _record_sharded(config: JournalConfig):
    live = ShardedFleetRunner(COHORT, n_shards=4, journal=config,
                              **DENSE_KW).run()
    return [config.for_shard(i) for i in range(4)], {}, live


def _record_served(config: JournalConfig):
    live = run_served_fleet(COHORT, serve_config=ServeConfig(journal=config),
                            **DENSE_KW)
    return [config], dict(cohort=COHORT,
                          gateway_config=DENSE_KW["gateway_config"],
                          duration_s=60.0, fs=250.0), live


class TestLookahead:
    """Replays read ahead in chunks of `_LOOKAHEAD_WINDOWS` CS windows;
    the chunk size must not move a byte or leak a recovery."""

    RECORDERS = {"plain": _record_plain, "impaired": _record_impaired,
                 "sharded": _record_sharded, "served": _record_served}

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        out = {}
        for leg, record in self.RECORDERS.items():
            config = JournalConfig(dir=str(tmp_path_factory.mktemp(leg)),
                                   name=leg)
            sources, replay_kw, live = record(config)
            frames = sum(decode_packet(r.frame).n_frames
                         for source in sources
                         for r in JournalReader(source).records()
                         if frame_kind(r.frame) == "packet")
            out[leg] = (sources, replay_kw, live.summary.to_json(), frames)
        return out

    @pytest.mark.parametrize(
        "lookahead", [1, 7, journal_module._LOOKAHEAD_WINDOWS])
    @pytest.mark.parametrize("leg", list(RECORDERS))
    def test_replay_matches_live(self, recorded, leg, lookahead,
                                 monkeypatch):
        sources, replay_kw, live_json, frames = recorded[leg]
        monkeypatch.setattr(journal_module, "_LOOKAHEAD_WINDOWS", lookahead)
        drained: list[int] = []
        self_recovered: list[int] = []
        real_drain = Gateway.drain

        def counting_drain(gateway, max_packets=None, recoveries=None):
            popped = gateway.queued(max_packets)
            drained.append(sum(packet.n_frames for packet in popped))
            if recoveries is None:
                self_recovered.append(len(popped))
            return real_drain(gateway, max_packets, recoveries)

        # Recoveries still alive versus frames a later drain may pop:
        # equal at every lookahead refill, and none left at the fold.
        gateways: dict[int, Gateway] = {}
        recovered: list[weakref.ref] = []
        excess_at_refill: list[int] = []
        alive_at_fold: list[int] = []
        real_ingest = Gateway.ingest
        real_batch = JointCsDecoder.recover_batch
        real_recover = journal_module._Lookahead._recover
        real_merge = journal_module.merge_patient_rows

        def alive() -> int:
            return sum(ref() is not None for ref in recovered)

        def tracking_ingest(gateway, payload, *args):
            gateways[id(gateway)] = gateway
            return real_ingest(gateway, payload, *args)

        def tracking_batch(decoder, batch):
            out = real_batch(decoder, batch)
            recovered.extend(weakref.ref(recovery) for recovery in out)
            return out

        def checking_recover(lookahead, packets):
            pending = sum(packet.n_frames for gateway in gateways.values()
                          for packet in gateway.held_packets())
            excess_at_refill.append(alive() - pending)
            return real_recover(lookahead, packets)

        def checking_merge(*args, **kwargs):
            alive_at_fold.append(alive())
            return real_merge(*args, **kwargs)

        monkeypatch.setattr(Gateway, "drain", counting_drain)
        monkeypatch.setattr(Gateway, "ingest", tracking_ingest)
        monkeypatch.setattr(JointCsDecoder, "recover_batch", tracking_batch)
        monkeypatch.setattr(journal_module._Lookahead, "_recover",
                            checking_recover)
        monkeypatch.setattr(journal_module, "merge_patient_rows",
                            checking_merge)
        replay = JournalReplayer(sources, **replay_kw).run()
        assert replay.summary.to_json() == live_json
        assert self_recovered == []
        assert len(recovered) == frames
        assert replay.n_undrained_frames == frames - sum(drained)
        assert set(excess_at_refill) == {0}
        assert alive_at_fold == [0]
        if leg == "impaired":
            assert replay.dropped_packets > 0
            assert replay.summary.duplicate_packets > 0
            assert replay.n_undrained_frames > 0


class TestShardedReplay:
    def test_four_shard_journals_merge_byte_identical(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="shards")
        live = ShardedFleetRunner(COHORT, n_shards=4, journal=config,
                                  **RUN_KW).run()
        sources = [config.for_shard(i) for i in range(4)]
        replay = JournalReplayer(sources).run()
        assert replay.summary.to_json() == live.summary.to_json()
        assert replay.n_journals == 4
        # Hello records restore the cohort order across shard stripes.
        assert list(replay.rows) == [p.patient_id for p in COHORT]

    def test_shard_subset_is_an_incomplete_cohort(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="subset")
        ShardedFleetRunner(COHORT, n_shards=2, journal=config,
                           **RUN_KW).run()
        replay = JournalReplayer(config.for_shard(0)).run()
        # Half the cohort replays fine — as its own, smaller fleet.
        assert replay.summary.n_patients == 2


class TestServedReplay:
    def test_served_journal_replays_byte_identical(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="served")
        served = run_served_fleet(
            COHORT, serve_config=ServeConfig(journal=config), **RUN_KW)
        replay = JournalReplayer(
            config, cohort=COHORT,
            gateway_config=RUN_KW["gateway_config"],
            duration_s=RUN_KW["config"].duration_s,
            fs=RUN_KW["config"].fs).run()
        assert replay.summary.to_json() == served.summary.to_json()
        # Every uplinked packet frame was journaled exactly once.
        assert replay.n_packets == served.packets_sent
        assert served.server_stats["journal"]["packets"] \
            == served.packets_sent

    def test_served_journal_requires_explicit_cohort(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="nocohort")
        run_served_fleet(COHORT[:2],
                         serve_config=ServeConfig(journal=config),
                         **RUN_KW)
        with pytest.raises(JournalError, match="hello"):
            JournalReplayer(
                config, gateway_config=RUN_KW["gateway_config"],
                duration_s=60.0, fs=250.0).run()


class TestServedSoak:
    """Satellite: session resumes never double-log a frame."""

    N_RECONNECTS = 1000

    def test_thousand_reconnects_log_each_frame_once(self, tmp_path):
        config = JournalConfig(dir=str(tmp_path), name="soak")
        proxy = NodeProxy(PatientProfile(patient_id="soak0", seed=5),
                          NodeProxyConfig(stream_telemetry=False))
        frames = [encode_packet(proxy.telemetry_packet(
                      float(i), mean_hr_bpm=65.0, soc=0.5))
                  for i in range(self.N_RECONNECTS)]
        with FleetGatewayServer(
                ServeConfig(journal=config)) as server:
            for i, frame in enumerate(frames):
                transport = self._hello(server, "soak0")
                transport.send_frame(frame)
                # A sweep reply proves the packet frame was consumed
                # before we disconnect (frames are in-order per lane).
                transport.send_message(ServeMessage(
                    "sweep", "soak0", t_s=float(i + 1)))
                assert transport.recv_message().kind == "feedback"
                transport.send_message(ServeMessage("bye", "soak0"))
                transport.close()
            stats = server.stats()
        assert stats["connections"]["resumed"] == self.N_RECONNECTS - 1
        assert stats["journal"]["packets"] == self.N_RECONNECTS
        assert stats["max_partial_bytes"] >= 0
        reader = JournalReader(config)
        packet_frames = [r.frame for r in reader.records()
                         if frame_kind(r.frame) == "packet"]
        # No frame double-logged across the session resumes — the
        # journal holds each uplinked packet exactly once, in order.
        assert packet_frames == frames
        assert reader.torn_tail_bytes == 0

    @staticmethod
    def _hello(server: FleetGatewayServer, pid: str) -> _Transport:
        """Handshake with retry: the previous connection of ``pid`` may
        still be deregistering when we reconnect."""
        last: Exception | None = None
        for _ in range(200):
            transport = _Transport("127.0.0.1", server.port)
            transport.send_message(ServeMessage("hello", pid))
            try:
                ack = transport.recv_message()
            except Exception as exc:  # rejected duplicate: retry
                last = exc
                transport.close()
                continue
            if ack.kind == "hello-ack":
                return transport
            transport.close()
        raise AssertionError(f"handshake never succeeded: {last}")
