"""Tests for the network-native gateway service (`repro.fleet.serve`)."""

from __future__ import annotations

import functools
import importlib
import logging
import socket
import struct
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import JointCsDecoder
from repro.fleet import (
    CohortConfig,
    FleetGatewayServer,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    GatewaySession,
    JournalConfig,
    JournalReader,
    JournalWriter,
    MAX_FRAME_BYTES,
    NodeProxy,
    NodeProxyConfig,
    PatientProfile,
    PerPatientLink,
    SchedulerConfig,
    ServeConfig,
    ServeError,
    ServeMessage,
    ShardHooks,
    ShardedFleetRunner,
    StreamDecoder,
    WireFormatError,
    decode_message,
    decode_packet,
    encode_message,
    encode_packet,
    encode_stream_frame,
    frame_kind,
    journal_meta,
    make_cohort,
    run_served_fleet,
    serve,
)
from repro.fleet.client import _Transport
from repro.fleet.wire import StreamFrameError
from repro.obs import Observability
from repro.power import Battery, BatteryModel
from repro.power.governor import (
    MODE_RAW,
    EnergyGovernor,
    GovernorConfig,
    ModePowerTable,
)
from repro.scenarios import LinkSpec, derive_seed
from repro.scenarios.channel import ImpairedLink

# The package re-exports the ``serve`` function under the module's name.
serve_module = importlib.import_module("repro.fleet.serve")

COHORT = make_cohort(CohortConfig(n_patients=5, seed=7))
RUN_KW = dict(
    config=SchedulerConfig(duration_s=60.0, fs=250.0),
    node_config=NodeProxyConfig(stream_telemetry=False),
    gateway_config=GatewayConfig(n_iter=50),
)


def _telemetry_packets(n: int, patient_id: str = "t0") -> list:
    """Cheap ordered uplink packets (no synthesis, no CS encoding)."""
    proxy = NodeProxy(PatientProfile(patient_id=patient_id, seed=1),
                      NodeProxyConfig(stream_telemetry=False))
    return [proxy.telemetry_packet(float(i), mean_hr_bpm=60.0 + i,
                                   soc=0.5)
            for i in range(n)]


def _impaired_governed_hooks(spec: LinkSpec, profiles,
                             master_seed: int) -> ShardHooks:
    """Scenario wiring mirroring `tests/test_fleet_sharding.py`.

    Randomness derives from (master seed, patient id) only, so the
    served run and the sharded reference see identical impairments.
    """

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


@pytest.fixture(scope="module")
def plain_run():
    """The in-process reference run over the shared cohort."""
    return FleetScheduler(
        COHORT, RUN_KW["config"], node_config=RUN_KW["node_config"],
        gateway=Gateway(RUN_KW["gateway_config"])).run()


@pytest.fixture(scope="module")
def served_run():
    """The same cohort through real loopback TCP sockets."""
    return run_served_fleet(COHORT, **RUN_KW)


class TestServedByteEquivalence:
    """The serving determinism contract, end to end over sockets."""

    def test_served_summary_matches_in_process(self, plain_run,
                                               served_run):
        # The acceptance bar: identical bytes out of real sockets.
        assert served_run.summary.to_json() \
            == plain_run.summary.to_json()

    def test_packet_counts_and_rows(self, plain_run, served_run):
        assert served_run.packets_sent == plain_run.packets_sent
        assert list(served_run.rows) == [p.patient_id for p in COHORT]
        assert served_run.dropped_packets == 0

    def test_server_stats_accounted(self, served_run):
        stats = served_run.server_stats
        assert stats["connections"]["open"] == len(COHORT)
        assert stats["connections"].get("rejected", 0) == 0
        assert stats["sessions"] == len(COHORT)
        assert stats["frames"] == served_run.packets_sent
        assert stats["n_lanes"] == ServeConfig().n_lanes
        assert set(served_run.timings_s) == {"serve", "merge", "total"}

    def test_fast_thread_switching_moves_no_byte(self, plain_run):
        # Five client threads, the loop and two lanes, switching every
        # 10 us: the lanes recover through shared read-only decoders
        # while the loop applies batches, so a lost update anywhere
        # would change a byte.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            served = run_served_fleet(COHORT, **RUN_KW)
        finally:
            sys.setswitchinterval(interval)
        assert served.summary.to_json() == plain_run.summary.to_json()
        assert served.server_stats["lane_hops"] > 0

    def test_governed_impaired_served_matches_sharded(self):
        spec = LinkSpec(loss_rate=0.15, duplicate_rate=0.1,
                        reorder_rate=0.2, jitter_s=2.0,
                        reorder_delay_s=65.0)
        kw = dict(RUN_KW, master_seed=99,
                  hook_factory=functools.partial(
                      _impaired_governed_hooks, spec))
        reference = ShardedFleetRunner(COHORT[:4], n_shards=1,
                                       **kw).run()
        served = run_served_fleet(COHORT[:4], **kw)
        assert served.summary.to_json() == reference.summary.to_json()
        assert served.summary.governed
        assert any(row.link_stats for row in served.rows.values())


class TestServeConfig:
    def test_defaults_valid(self):
        config = ServeConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 0

    @pytest.mark.parametrize("kwargs,match", [
        (dict(host=""), "host"),
        (dict(port=-1), "port"),
        (dict(port=70000), "port"),
        (dict(n_lanes=0), "n_lanes"),
        (dict(queue_capacity=0), "queue_capacity"),
        (dict(throttle_s=-0.1), "throttle_s"),
        (dict(throttle_s=float("inf")), "throttle_s"),
    ])
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServeConfig(**kwargs)


class TestServerLifecycle:
    def test_serve_entry_point_and_context(self):
        server = serve(ServeConfig())
        try:
            assert server.port is not None and server.port > 0
            assert server.start() is server  # idempotent
        finally:
            server.stop()
        server.stop()  # idempotent too

    def test_port_conflict_raises_oserror(self):
        with FleetGatewayServer(ServeConfig()) as first:
            clash = FleetGatewayServer(ServeConfig(port=first.port))
            with pytest.raises(OSError):
                clash.start()

    @pytest.mark.parametrize("journaled", [False, True],
                             ids=["plain", "journaled"])
    def test_start_after_stop_refuses(self, journaled, tmp_path):
        # stop() shuts the lane pool down and closes the journal, so a
        # restarted server used to accept connections and then fail
        # each one's first ingest inside the connection handler.
        journal = (JournalConfig(dir=str(tmp_path), name="serve")
                   if journaled else None)
        server = FleetGatewayServer(ServeConfig(journal=journal)).start()
        server.stop()
        with pytest.raises(ServeError, match="was stopped"):
            server.start()
        with pytest.raises(ServeError, match="was stopped"):
            with server:
                pass
        assert server._thread is None  # refused before it bound
        server.stop()  # still a no-op


def _hello(server: FleetGatewayServer, patient_id: str,
           retries: int = 200) -> _Transport:
    """Connect and handshake, retrying while the old socket drains."""
    last: ServeError | None = None
    for _ in range(retries):
        transport = _Transport("127.0.0.1", server.port)
        try:
            transport.send_message(ServeMessage("hello", patient_id))
            ack = transport.recv_message()
            assert ack.kind == "hello-ack"
            return transport
        except ServeError as exc:
            transport.close()
            last = exc
            time.sleep(0.01)
    raise AssertionError(f"handshake never succeeded: {last}")


class TestConnectionSemantics:
    def test_reconnect_resumes_session_and_clock(self):
        with FleetGatewayServer(ServeConfig(n_lanes=1)) as server:
            first = _Transport("127.0.0.1", server.port)
            first.send_message(ServeMessage("hello", "px"))
            ack = first.recv_message()
            assert ack.info["resumed"] == "0"
            first.send_message(ServeMessage("sweep", "px", t_s=5.0))
            assert first.recv_message().kind == "feedback"
            first.close()

            second = _hello(server, "px")
            # Same session: gateway channel, triage machine and the
            # virtual clock all survived the disconnect.
            second.send_message(ServeMessage("sweep", "px", t_s=10.0))
            assert second.recv_message().kind == "feedback"
            # The monotone-clock guard spans reconnects: a command
            # stamped before the first connection's sweep is an error.
            second.send_message(ServeMessage("sweep", "px", t_s=3.0))
            with pytest.raises(ServeError):
                second.recv_message()
            second.close()
            assert list(server.sessions) == ["px"]
            assert server.stats()["connections"]["open"] == 1
            assert server.stats()["connections"]["resumed"] >= 1

    def test_duplicate_live_connection_rejected(self):
        with FleetGatewayServer(ServeConfig()) as server:
            first = _Transport("127.0.0.1", server.port)
            first.send_message(ServeMessage("hello", "dup"))
            assert first.recv_message().kind == "hello-ack"
            clone = _Transport("127.0.0.1", server.port)
            clone.send_message(ServeMessage("hello", "dup"))
            with pytest.raises(ServeError, match="duplicate"):
                clone.recv_message()
            clone.close()
            first.close()

    def test_non_hello_first_frame_closes_connection(self):
        with FleetGatewayServer(ServeConfig()) as server:
            transport = _Transport("127.0.0.1", server.port)
            transport.send_frame(encode_packet(_telemetry_packets(1)[0]))
            with pytest.raises(ServeError):
                transport.recv_message()
            transport.close()

    @pytest.mark.parametrize("with_obs", [False, True],
                             ids=["plain", "observed"])
    def test_garbage_frame_gets_error_downlink(self, with_obs):
        obs = Observability() if with_obs else None
        with FleetGatewayServer(ServeConfig(), obs=obs) as server:
            transport = _hello(server, "gb")
            transport.send_frame(b"\xde\xad\xbe\xef not a frame")
            with pytest.raises(ServeError, match="magic"):
                transport.recv_message()
            transport.close()
        if obs is not None:
            frames = obs.metrics.families()["serve_frames_total"]
            assert frames.value(kind="invalid") == 1

    def test_frame_above_the_journal_ceiling_gets_error_downlink(
            self, tmp_path):
        # The stream decoder refuses, from the length prefix alone, any
        # frame the journal would refuse, and the peer hears why.
        config = ServeConfig(journal=JournalConfig(dir=str(tmp_path),
                                                   name="ceiling"))
        with FleetGatewayServer(config) as server:
            transport = _hello(server, "big")
            transport._sock.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ServeError, match="bound"):
                transport.recv_message()
            transport.close()

    def test_non_utf8_hello_is_counted_rejected(self, non_utf8):
        hello = encode_message(ServeMessage("hello", "px"))
        with FleetGatewayServer(ServeConfig()) as server:
            transport = _Transport("127.0.0.1", server.port)
            transport.send_frame(non_utf8(hello, "px"))
            with pytest.raises(ServeError, match="closed"):
                transport.recv_message()
            transport.close()
        assert server.stats()["connections"] == {"rejected": 1}

    def test_non_utf8_command_gets_error_downlink_and_close(self, non_utf8):
        sweep = encode_message(ServeMessage("sweep", "pu", t_s=1.0))
        with FleetGatewayServer(ServeConfig()) as server:
            transport = _hello(server, "pu")
            transport.send_frame(non_utf8(sweep, "sweep"))
            with pytest.raises(ServeError, match="UTF-8"):
                transport.recv_message()
            with pytest.raises(ServeError, match="closed"):
                transport.recv_message()
            transport.close()
        assert server.stats()["connections"] == {"closed": 1, "open": 1}

    def test_non_finite_budget_gets_error_downlink_and_close(self):
        with FleetGatewayServer(ServeConfig()) as server:
            transport = _hello(server, "pn")
            transport.send_message(ServeMessage(
                "drain", "pn", t_s=1.0, fields={"budget": float("nan")}))
            with pytest.raises(ServeError, match="finite"):
                transport.recv_message()
            with pytest.raises(ServeError, match="closed"):
                transport.recv_message()
            transport.close()
        assert server.stats()["connections"] == {"closed": 1, "open": 1}

    def test_malformed_geometry_packet_gets_error_downlink_and_close(
            self, cs_packet):
        # 5 of the 102 measurements a 256-sample window at CR 60 % needs:
        # it used to queue, then fail every later drain of the session.
        bad = cs_packet("pg", seq=0, n_measurements=5)
        drain = ServeMessage("drain", "pg", t_s=1.0,
                             fields={"budget": -1.0})
        with FleetGatewayServer(ServeConfig()) as server:
            transport = _hello(server, "pg")
            transport.send_frame(encode_packet(bad))
            transport.send_message(drain)
            with pytest.raises(ServeError, match="102"):
                transport.recv_message()
            with pytest.raises(ServeError, match="closed"):
                transport.recv_message()
            transport.close()
            # The session survives: a valid packet still drains.
            transport = _hello(server, "pg")
            transport.send_frame(encode_packet(cs_packet("pg", seq=0)))
            transport.send_message(drain)
            transport.send_message(ServeMessage("sweep", "pg", t_s=2.0))
            assert transport.recv_message().kind == "feedback"
            transport.close()
            assert server.sessions["pg"].n_reconstructed == 1
            assert server.sessions["pg"].gateway.pending == 0


_NAN, _INF = float("nan"), float("inf")


class TestNonFiniteCounts:
    """Integer command fields arrive as floats; NaN/inf are rejected."""

    @pytest.mark.parametrize("kind,fields", [
        ("drain", {"budget": _NAN}),
        ("drain", {"budget": _INF}),
        ("drain", {"budget": -_INF}),
        ("report", {"n_sent": _NAN}),
        ("report", {"n_node_alarms": _INF}),
        ("report", {"governor_switches": _NAN}),
        ("report", {"link:lost": _NAN}),
    ], ids=["budget-nan", "budget-inf", "budget-neg-inf", "n_sent-nan",
            "n_node_alarms-inf", "governor_switches-nan", "link-nan"])
    def test_error_reply_and_close(self, kind, fields):
        session = GatewaySession("pn")
        replies, close = session.handle_frame(encode_message(
            ServeMessage(kind, "pn", t_s=1.0, fields=fields)))
        assert close
        (reply,) = replies
        error = decode_message(reply)
        assert error.kind == "error"
        assert "must be finite" in error.info["error"]
        assert session.row is None


class TestSessionClock:
    """A session's clock: ``expire`` and ``sweep`` refuse a non-finite
    time or one behind the clock; ``drain`` refuses a non-finite time
    and applies one behind the clock at the clock's time."""

    @staticmethod
    def _command(kind: str, t_s: float) -> bytes:
        fields = {"budget": -1.0} if kind == "drain" else {}
        return encode_message(ServeMessage(kind, "ck", t_s=t_s,
                                           fields=fields))

    def _session(self) -> GatewaySession:
        """A session whose clock a sweep moved to 10 s."""
        session = GatewaySession("ck")
        replies, close = session.handle_frame(self._command("sweep", 10.0))
        assert decode_message(replies[0]).kind == "feedback"
        assert not close
        return session

    @staticmethod
    def _error(replies: list[bytes], close: bool) -> str:
        assert close
        (reply,) = replies
        error = decode_message(reply)
        assert error.kind == "error"
        return error.info["error"]

    @pytest.mark.parametrize("kind", ["expire", "sweep"])
    @pytest.mark.parametrize("t_s,match", [
        (_NAN, "must be finite"),
        (_INF, "must be finite"),
        (-_INF, "must be finite"),
        (5.0, "time travel"),
    ], ids=["nan", "inf", "neg-inf", "behind"])
    def test_expire_and_sweep_refuse(self, kind, t_s, match):
        session = self._session()
        assert match in self._error(
            *session.handle_frame(self._command(kind, t_s)))

    @pytest.mark.parametrize("t_s", [_NAN, _INF, -_INF],
                             ids=["nan", "inf", "neg-inf"])
    def test_drain_refuses_a_non_finite_time(self, t_s):
        session = self._session()
        assert "must be finite" in self._error(
            *session.handle_frame(self._command("drain", t_s)))

    def test_drain_behind_the_clock_applies_at_the_clock(self):
        session = self._session()
        for packet in _telemetry_packets(3, "ck"):
            session.handle_frame(encode_packet(packet))
        assert session.gateway.pending == 3
        assert session.handle_frame(self._command("drain", 5.0)) == (
            [], False)
        assert session.gateway.pending == 0
        # The drain did not move the clock back.
        assert "time travel" in self._error(
            *session.handle_frame(self._command("sweep", 7.0)))

    def test_drain_ahead_moves_the_clock(self):
        session = self._session()
        assert session.handle_frame(self._command("drain", 20.0)) == (
            [], False)
        assert "time travel" in self._error(
            *session.handle_frame(self._command("expire", 15.0)))


class TestBackpressure:
    def test_saturated_queue_loses_nothing(self):
        # A deliberately slow consumer (2 ms/frame) against a
        # 4-deep queue and a fast sender: the reader must stall the
        # socket instead of shedding frames.
        config = ServeConfig(queue_capacity=4, throttle_s=0.002)
        n_packets = 120
        with FleetGatewayServer(config) as server:
            transport = _hello(server, "bp")
            for packet in _telemetry_packets(n_packets, "bp"):
                transport.send_frame(encode_packet(packet))
            transport.send_message(ServeMessage(
                "report", "bp", t_s=60.0,
                fields={"n_sent": float(n_packets)},
                info={"governed": "0"}))
            assert transport.recv_message().kind == "report-ack"
            transport.close()
            session = server.sessions["bp"]
            assert session.n_frames == n_packets
            assert server.dropped == 0
            # The bounded queue actually filled (the gauge's whole
            # point) — backpressure engaged rather than idling.
            assert server.max_queue_depth >= config.queue_capacity - 1
            row = server.rows()["bp"]
            assert row.n_sent == n_packets


def _frames(*items) -> bytes:
    """Stream bytes of packet bodies and messages, for one write."""
    return b"".join(encode_stream_frame(
        encode_message(item) if isinstance(item, ServeMessage) else item)
        for item in items)


def _wait_for(predicate, timeout_s: float = 10.0) -> None:
    """Poll ``predicate`` until it holds; fail after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _reset(sock: socket.socket) -> None:
    """Close with ``SO_LINGER`` 0: the server sees a reset, not EOF."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()


class TestLaneBatches:
    """One applied batch per consumer wake-up, with per-frame semantics;
    a batch without CS frames makes no lane hop."""

    N = 6

    def _play(self, one_at_a_time: bool):
        """N packets, a drain and a sweep, then a report; the outcome."""
        pid = "lb"
        t_s = float(self.N)
        script = [encode_packet(p) for p in _telemetry_packets(self.N, pid)]
        script += [ServeMessage("drain", pid, t_s=t_s,
                                fields={"budget": -1.0}),
                   ServeMessage("sweep", pid, t_s=t_s)]
        with FleetGatewayServer(ServeConfig()) as server:
            transport = _hello(server, pid)
            for k, item in enumerate(script, 1):
                if one_at_a_time:
                    # Write a frame once the previous one left the queue.
                    transport._sock.sendall(_frames(item))
                    _wait_for(lambda: server.batches == k)
                elif isinstance(item, ServeMessage):
                    transport.send_message(item)
                else:
                    transport.send_frame(item)
            feedback = transport.recv_message()
            batches = server.batches
            transport.send_message(ServeMessage(
                "report", pid, t_s=t_s, fields={"n_sent": float(self.N)},
                info={"governed": "0"}))
            assert transport.recv_message().kind == "report-ack"
            transport.close()
        session = server.sessions[pid]
        assert server.lane_hops == 0  # telemetry: nothing to recover
        # repr, not ==: a row's unreported NaN power never equals itself.
        return batches, feedback, (session.n_frames,
                                   session.n_reconstructed,
                                   repr(server.rows()[pid]))

    def test_one_write_is_one_batch_with_per_frame_results(self):
        batches, feedback, state = self._play(one_at_a_time=False)
        ref_batches, ref_feedback, ref_state = self._play(
            one_at_a_time=True)
        assert (batches, ref_batches) == (1, self.N + 2)
        assert feedback.kind == "feedback"
        assert feedback == ref_feedback
        assert state == ref_state
        assert state[0] == self.N

    @pytest.mark.parametrize("closing,match", [
        (ServeMessage("bye", "cb"), "closed"),
        (ServeMessage("drain", "cb", t_s=1.0, fields={"budget": _NAN}),
         "finite"),
    ], ids=["bye", "error"])
    def test_closing_frame_stops_the_batch(self, closing, match):
        packets = [encode_packet(p) for p in _telemetry_packets(6, "cb")]
        with FleetGatewayServer(ServeConfig()) as server:
            transport = _hello(server, "cb")
            transport._sock.sendall(
                _frames(*packets[:3], closing, *packets[3:]))
            with pytest.raises(ServeError, match=match):
                transport.recv_message()
            transport.close()
        # The frames behind the closing one shared its batch but were
        # never applied, as if they had stayed in the queue.
        assert server.batches == 1
        assert server.sessions["cb"].n_frames == 3

    def test_stream_error_after_good_frames_applies_them_first(self):
        packets = [encode_packet(p) for p in _telemetry_packets(2, "se")]
        sweep = ServeMessage("sweep", "se", t_s=1.0)
        with FleetGatewayServer(ServeConfig()) as server:
            transport = _hello(server, "se")
            transport._sock.sendall(
                _frames(*packets, sweep) + b"\x00\x00\x00\x00")
            assert transport.recv_message().kind == "feedback"
            with pytest.raises(ServeError, match="zero-length"):
                transport.recv_message()
            with pytest.raises(ServeError, match="closed"):
                transport.recv_message()
            transport.close()
        assert server.batches == 1
        assert server.sessions["se"].n_frames == 2

    def test_client_writes_each_tick_as_one_batch(self):
        # The client buffers a tick's packets and commands until it
        # blocks for the sweep's feedback, so they share a batch, and
        # its CS packets share one lane hop.
        obs = Observability()
        kw = dict(RUN_KW, node_config=NodeProxyConfig(
            stream_telemetry=False, excerpt_period_s=2.0))
        served = run_served_fleet(COHORT, obs=obs, **kw)
        families = obs.metrics.families()
        frames = sum(families["serve_frames_total"].series.values())
        batches = served.server_stats["batches"]
        assert families["serve_batch_frames"].count() == batches
        assert 0 < batches <= frames / 2
        assert 0 < served.server_stats["lane_hops"] <= batches


class TestPeerReset:
    """A peer that resets its connection has left: counted, not logged."""

    @pytest.mark.parametrize("n_sweeps", [200, 0],
                             ids=["mid-reply", "idle"])
    def test_reset_is_counted_and_session_resumes(self, caplog, n_sweeps):
        n = 10
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with FleetGatewayServer(ServeConfig()) as server:
                for i in range(n):
                    transport = _hello(server, f"r{i}")
                    transport._sock.sendall(_frames(*(
                        ServeMessage("sweep", f"r{i}", t_s=float(k + 1))
                        for k in range(n_sweeps))))
                    _reset(transport._sock)
                _wait_for(lambda: server.stats()["connections"].get(
                    "reset") == n)
                resumed = _hello(server, "r0")
                resumed.send_message(ServeMessage("sweep", "r0",
                                                  t_s=1000.0))
                assert resumed.recv_message().kind == "feedback"
                resumed.close()
        assert [r for r in caplog.records
                if r.levelno >= logging.ERROR] == []
        assert server.stats()["connections"] == {
            "closed": n + 1, "open": n, "reset": n, "resumed": 1}


class TestStopDrainsQueues:
    """``stop()`` applies the frames a connection already queued; it
    used to cancel them, trailing ``bye`` included, and tell no one."""

    @staticmethod
    def _record_frames(monkeypatch) -> list[bytes]:
        """Bodies every session's ``handle_frame`` receives, in order."""
        seen: list[bytes] = []
        real = serve_module.GatewaySession.handle_frame

        def recording(session, body, *args):
            seen.append(body)
            return real(session, body, *args)

        monkeypatch.setattr(serve_module.GatewaySession, "handle_frame",
                            recording)
        return seen

    def _queue_then_stop(self, config: ServeConfig, n_packets: int):
        """Write packets and ``bye`` in one go, close, stop; the server
        and the seconds ``stop()`` took."""
        server = FleetGatewayServer(config).start()
        try:
            transport = _hello(server, "sd")
            transport._sock.sendall(_frames(
                *(encode_packet(p)
                  for p in _telemetry_packets(n_packets, "sd")),
                ServeMessage("bye", "sd")))
            transport.close()
            # Queued by now; the throttled consumer has applied none.
            time.sleep(0.1)
        finally:
            start = time.monotonic()
            server.stop()
        return server, time.monotonic() - start

    def test_queued_frames_and_bye_are_applied(self, monkeypatch):
        seen = self._record_frames(monkeypatch)
        server, _ = self._queue_then_stop(
            ServeConfig(queue_capacity=64, throttle_s=0.02), 20)
        assert server.sessions["sd"].n_frames == 20
        assert decode_message(seen[-1]).kind == "bye"
        assert server.stats()["connections"]["closed"] == 1

    def test_deadline_cancels_what_is_left(self, monkeypatch):
        monkeypatch.setattr(serve_module, "STOP_DRAIN_S", 0.2)
        server, took = self._queue_then_stop(
            ServeConfig(queue_capacity=64, throttle_s=0.1), 40)
        # 41 queued frames would take 4.1 s to apply.
        assert took < 2.0
        assert server.sessions["sd"].n_frames == 0

    def test_idle_clients_do_not_hold_stop(self, monkeypatch):
        monkeypatch.setattr(serve_module, "STOP_DRAIN_S", 60.0)
        server = FleetGatewayServer(ServeConfig()).start()
        idle = _hello(server, "idle")
        mute = socket.create_connection(("127.0.0.1", server.port))
        try:
            # Both accepted: the idle pump and the mute handshake read.
            _wait_for(lambda: len(server._reading) == 2)
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 5.0
            # The connected client is told: its socket reads EOF.
            with pytest.raises(ServeError, match="closed"):
                idle.recv_message()
            mute.settimeout(5.0)
            assert mute.recv(1) == b""
        finally:
            idle.close()
            mute.close()
        assert server.stats()["connections"] == {"closed": 1, "open": 1}


class TestHelloTimeout:
    """A peer that never completes its ``hello`` is closed and counted;
    it used to hold its handler and read buffer forever."""

    def test_silent_and_half_hello_peers_are_closed(self, monkeypatch):
        monkeypatch.setattr(serve_module, "HELLO_TIMEOUT_S", 0.1)
        hello = _frames(ServeMessage("hello", "ht"))
        obs = Observability()
        server = FleetGatewayServer(ServeConfig(), obs=obs).start()
        peers = [socket.create_connection(("127.0.0.1", server.port))
                 for _ in range(2)]
        try:
            peers[1].sendall(hello[:len(hello) // 2])
            for peer in peers:
                peer.settimeout(5.0)
            start = time.monotonic()
            # Both read EOF: the server closed them.
            assert [peer.recv(1) for peer in peers] == [b"", b""]
            assert time.monotonic() - start < 2.0
            _wait_for(lambda: server.stats()["connections"].get(
                "hello-timeout") == 2)
            client = _hello(server, "ht")  # a prompt peer is served
            client.send_message(ServeMessage("sweep", "ht", t_s=1.0))
            assert client.recv_message().kind == "feedback"
            client.close()
        finally:
            for peer in peers:
                peer.close()
            start = time.monotonic()
            server.stop()
        assert time.monotonic() - start < 2.0
        assert server.stats()["connections"] == {
            "closed": 1, "hello-timeout": 2, "open": 1}
        counter = obs.metrics.families()["serve_connections_total"]
        assert counter.value(event="hello-timeout") == 2


def _session_frames(journal: JournalConfig, pid: str) -> list[bytes]:
    """``pid``'s packet frames and commands from a one-patient fleet
    journal, in order, as its client writes them (no hello or bye)."""
    frames = []
    for record in JournalReader(journal).records():
        frame = bytes(record.frame)
        if frame_kind(frame) == "packet":
            frames.append(frame)
            continue
        msg = decode_message(frame)
        if msg.kind not in ("hello", "stats"):
            frames.append(encode_message(ServeMessage(
                msg.kind, pid, t_s=msg.t_s, fields=dict(msg.fields),
                info=dict(msg.info))))
    return frames


#: Gateway of every chunking run (a short FISTA budget keeps it quick).
CHUNKING_GATEWAY = GatewayConfig(n_iter=20)


@functools.lru_cache(maxsize=None)
def _chunking_script(mode: str) -> tuple[bytes, ...]:
    """One session's frames: a CS node, or a raw-mode governed node."""
    profile = make_cohort(CohortConfig(n_patients=1, seed=13))[0]
    governor = (None if mode == "cs"
                else lambda _profile: EnergyGovernor(mode=MODE_RAW))
    with tempfile.TemporaryDirectory() as tmp:
        config = JournalConfig(dir=tmp, name=mode)
        with JournalWriter(config, meta=journal_meta(24.0, 250.0),
                           resume=False) as journal:
            FleetScheduler(
                [profile], SchedulerConfig(duration_s=24.0, fs=250.0),
                node_config=NodeProxyConfig(excerpt_period_s=4.0,
                                            stream_telemetry=False),
                gateway=Gateway(CHUNKING_GATEWAY),
                governor_factory=governor, journal=journal).run()
        return tuple(_session_frames(config, profile.patient_id))


def _play_chunked(frames: tuple[bytes, ...], cuts: tuple[int, ...]):
    """Play one session to a fresh journaled server, one write per
    chunk (cut before each index in ``cuts``), each chunk applied
    before the next is written.

    Returns ``(outcome, stats, cs_batches, recover_threads)``: the row,
    journal records and replies; the server's counters; per applied
    batch, whether it carried CS frames; and the threads that ran
    ``recover_batch``.
    """
    pid = decode_packet(next(f for f in frames
                             if frame_kind(f) == "packet")).patient_id
    n_replies = sum(frame_kind(f) == "message"
                    and decode_message(f).kind in ("sweep", "report")
                    for f in frames)
    applied: list[int] = []
    cs_batches: list[bool] = []
    recover_threads: list[str] = []
    real_batch = serve_module.GatewaySession.handle_batch
    real_recover = JointCsDecoder.recover_batch

    def recording_batch(session, batch, packets):
        out = real_batch(session, batch, packets)
        cs_batches.append(any(p is not None and p.frames for p in packets))
        applied.append(out[1])
        return out

    def recording_recover(decoder, batch):
        recover_threads.append(threading.current_thread().name)
        return real_recover(decoder, batch)

    bounds = [0, *sorted(cuts), len(frames)]
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(serve_module.GatewaySession, "handle_batch",
                      recording_batch)
        patch.setattr(JointCsDecoder, "recover_batch", recording_recover)
        config = JournalConfig(dir=tmp, name="chunked")
        with FleetGatewayServer(ServeConfig(
                gateway=CHUNKING_GATEWAY, journal=config)) as server:
            transport = _hello(server, pid)
            for lo, hi in zip(bounds, bounds[1:]):
                transport._sock.sendall(_frames(*frames[lo:hi]))
                _wait_for(lambda: sum(applied) == hi)
            replies = [encode_message(transport.recv_message())
                       for _ in range(n_replies)]
            transport.send_message(ServeMessage("bye", pid))
            transport.close()
        records = [(r.t_s, r.prio, r.subject, r.frame)
                   for r in JournalReader(config).records()]
        # repr, not ==: a row's unreported NaN power never equals itself.
        outcome = (repr(server.rows()[pid]), records, replies)
    return outcome, server.stats(), cs_batches, recover_threads


@functools.lru_cache(maxsize=None)
def _one_write(mode: str) -> tuple:
    """The outcome of ``mode``'s session written in one go."""
    return _play_chunked(_chunking_script(mode), ())[0]


class TestServedChunkingProperty:
    """However TCP cuts a session's stream, the loop-applied path ends
    in the one-write run's bytes, and only lanes reconstruct."""

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_any_frame_chunking_matches_one_write(self, data):
        for mode in ("cs", "raw"):
            frames = _chunking_script(mode)
            cuts = data.draw(st.sets(st.integers(1, len(frames) - 1),
                                     max_size=12), label=mode)
            got, stats, cs_batches, threads = _play_chunked(
                frames, tuple(cuts))
            assert got == _one_write(mode)
            assert stats["batches"] == len(cs_batches) >= len(cuts) + 1
            if mode == "raw":
                assert stats["lane_hops"] == 0
                assert threads == []
            else:
                # One hop per batch that carries CS frames, no more,
                # and FISTA never on the event loop.
                assert stats["lane_hops"] == sum(cs_batches) > 0
                assert threads and "fleet-serve" not in threads


class TestServeMessageCodec:
    def test_round_trip_preserves_insertion_order(self):
        msg = ServeMessage(
            "report", "p9", t_s=12.5,
            fields={"zeta": 1.0, "alpha": -2.5,
                    "mode:raw": 60.0, "mode:multi_lead_cs": 30.0},
            info={"governed": "1", "state": "watch"})
        out = decode_message(encode_message(msg))
        assert out == msg
        assert list(out.fields) == list(msg.fields)
        assert list(out.info) == list(msg.info)

    def test_message_truncation_raises(self):
        blob = encode_message(ServeMessage("hello", "p0"))
        for cut in range(len(blob)):
            with pytest.raises(WireFormatError):
                decode_message(blob[:cut])


class TestStreamDecoder:
    FRAMES = [b"a" * 3, b"b" * 17, b"c" * 1]
    STREAM = b"".join(encode_stream_frame(f) for f in FRAMES)

    def test_byte_at_a_time(self):
        decoder = StreamDecoder()
        out = []
        for i in range(len(self.STREAM)):
            out.extend(decoder.feed(self.STREAM[i:i + 1]))
        assert out == self.FRAMES
        assert decoder.n_frames == len(self.FRAMES)
        assert decoder.pending_bytes == 0
        decoder.finish()

    @settings(max_examples=100, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=0,
                                     max_value=len(STREAM)),
                         max_size=8))
    def test_any_chunking_yields_identical_frames(self, cuts):
        # Satellite property: TCP may fragment the stream anywhere;
        # the decoder's output must not depend on chunk boundaries.
        bounds = sorted(set(cuts) | {0, len(self.STREAM)})
        decoder = StreamDecoder()
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            out.extend(decoder.feed(self.STREAM[lo:hi]))
        assert out == self.FRAMES
        decoder.finish()

    def test_zero_length_frame_raises(self):
        with pytest.raises(WireFormatError, match="zero-length"):
            StreamDecoder().feed(b"\x00\x00\x00\x00")

    def test_framing_error_is_sticky(self):
        # The frames completed ahead of the bad prefix ride on the
        # error, once; the prefix itself stays buffered.
        decoder = StreamDecoder()
        with pytest.raises(StreamFrameError, match="zero-length") as err:
            decoder.feed(self.STREAM + b"\x00\x00\x00\x00")
        assert err.value.frames == self.FRAMES
        assert decoder.n_frames == len(self.FRAMES)
        with pytest.raises(StreamFrameError, match="zero-length") as err:
            decoder.feed(encode_stream_frame(b"next"))
        assert err.value.frames == []

    def test_oversized_frame_rejected_from_prefix_alone(self):
        decoder = StreamDecoder(max_frame_bytes=8)
        with pytest.raises(WireFormatError, match="bound"):
            # Only the 4-byte prefix arrives — no body needed.
            decoder.feed(b"\xff\x00\x00\x00")

    def test_finish_mid_frame_raises(self):
        decoder = StreamDecoder()
        decoder.feed(self.STREAM[:5])
        with pytest.raises(WireFormatError, match="mid-frame"):
            decoder.finish()

    def test_empty_frame_cannot_be_encoded(self):
        with pytest.raises(WireFormatError):
            encode_stream_frame(b"")


PACKET_FRAME = encode_packet(_telemetry_packets(1, "fz")[0])


class TestPacketFrameTruncation:
    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(min_value=0,
                           max_value=len(PACKET_FRAME) - 1))
    def test_every_truncation_raises(self, cut):
        # The frame declares every field it carries, so *every* strict
        # prefix must fail loudly — no silent short reads.
        with pytest.raises(WireFormatError):
            decode_packet(PACKET_FRAME[:cut])

    def test_full_frame_decodes(self):
        assert decode_packet(PACKET_FRAME).patient_id == "fz"
