"""Fleet client: a patient node driven over a real TCP connection.

The serving layer's byte-identity guarantee rests on one idea: the
client does **not** reimplement the scheduler — it *is* the scheduler.
:class:`FleetClient` runs an ordinary single-patient
:class:`~repro.fleet.FleetScheduler` whose gateway and triage board are
replaced by remote adapters:

* :class:`RemoteGateway` turns every ``ingest`` into a wire-frame
  uplink and every scheduler phase call (``expire_reassembly`` /
  ``drain`` / ``flush_reassembly``) into the matching serve command, so
  the server-side session replays the **identical call sequence** a
  local gateway would have seen, at the identical virtual times.
* :class:`RemoteBoard` turns every triage ``tick`` into a ``sweep``
  command and blocks for the ``feedback`` downlink, mirroring the
  post-sweep state into the local board — which is exactly what the
  governor reads next tick, reproducing the in-process loop's one-tick
  feedback latency over a real socket.

Node-side work (synthesis, delineation, CS encoding, channel
impairment, governor decisions) runs locally, exactly as a shard
worker's scheduler would run it; everything gateway-side happens on the
server.  The end-of-run ``report`` ships the node-side half of the
patient's row; the server session builds the row with the same
:func:`~repro.fleet.triage.row_from_report` as the in-process run.
"""

from __future__ import annotations

import socket
from collections import deque

from ..classification.afib import AfDetector
from .cohort import PatientProfile
from .gateway import Gateway, GatewayConfig
from .node_proxy import NodeProxyConfig, UplinkPacket
from .scheduler import FleetReport, FleetScheduler, SchedulerConfig
from .sharding import ShardHooks
from .triage import TriageBoard
from .wire import (
    MAX_FRAME_BYTES,
    ServeMessage,
    StreamDecoder,
    decode_message,
    encode_message,
    encode_stream_frame,
)
from .serve import RECV_CHUNK, ServeError


class _Transport:
    """Blocking socket transport speaking length-delimited frames.

    One instance per connection: owns the socket, the incremental
    :class:`~repro.fleet.wire.StreamDecoder`, an inbox of downlink
    frames that arrived ahead of the reply being waited on, and an
    outbox of uplink frames not yet written.  Buffered frames go out in
    one ``sendall`` before every blocking receive, on :meth:`close` and
    whenever ``RECV_CHUNK`` bytes wait — so a tick's packets and
    commands reach the server together, as one queued batch.
    """

    def __init__(self, host: str, port: int,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 timeout_s: float = 120.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout_s)
        self._decoder = StreamDecoder(max_frame_bytes)
        self._inbox: deque[bytes] = deque()
        self._outbox = bytearray()

    def send_frame(self, body: bytes) -> None:
        """Buffer one frame body for uplink."""
        self._outbox += encode_stream_frame(body)
        if len(self._outbox) >= RECV_CHUNK:
            self._flush()

    def _flush(self) -> None:
        """Write every buffered frame (blocking; TCP backpressure applies)."""
        if self._outbox:
            self._sock.sendall(self._outbox)
            self._outbox.clear()

    def send_message(self, msg: ServeMessage) -> None:
        """Uplink one control message."""
        self.send_frame(encode_message(msg))

    def recv_message(self) -> ServeMessage:
        """Block for the next downlink message.

        Raises:
            ServeError: The server replied ``error``, closed the
                connection, or the socket timed out.
        """
        self._flush()
        while not self._inbox:
            try:
                chunk = self._sock.recv(RECV_CHUNK)
            except socket.timeout as exc:
                raise ServeError("timed out awaiting a reply") from exc
            if not chunk:
                raise ServeError("connection closed while awaiting "
                                 "a reply")
            self._inbox.extend(self._decoder.feed(chunk))
        msg = decode_message(self._inbox.popleft())
        if msg.kind == "error":
            raise ServeError(msg.info.get("error", "server error"))
        return msg

    def close(self) -> None:
        """Write the buffered frames (best effort) and close the socket."""
        try:
            self._flush()
        except OSError:
            pass  # the server already closed; nothing awaits them
        finally:
            self._sock.close()


class RemoteGateway(Gateway):
    """Gateway stand-in that uplinks instead of processing.

    Accepts the very same scheduler calls as a local
    :class:`~repro.fleet.Gateway` and forwards each as wire traffic:
    packets become stream frames, phase calls become serve commands
    stamped with their virtual time.  Nothing is processed locally —
    ``drain`` returns nothing (the server's session drains into *its*
    triage board), so the client-side board never sees excerpts, only
    the mirrored sweep feedback.
    """

    def __init__(self, transport: _Transport, patient_id: str,
                 config: GatewayConfig | None = None) -> None:
        super().__init__(config)
        self._transport = transport
        self._patient_id = patient_id
        #: Virtual time of the last expiry sweep — the drain commands'
        #: timestamp (the scheduler drains right after expiring).
        self._now_s = 0.0

    def ingest(self, frame: bytes | bytearray | memoryview,
               packet: UplinkPacket | None = None) -> bool:
        """Uplink one wire frame (never queued locally)."""
        self._transport.send_frame(frame)
        return True

    def expire_reassembly(self, now_s: float | None = None) -> int:
        """Relay the expiry sweep; remember its virtual time."""
        if now_s is not None:
            self._now_s = float(now_s)
        self._transport.send_message(ServeMessage(
            "expire", self._patient_id, t_s=self._now_s))
        return 0

    def drain(self, max_packets: int | None = None) -> list:
        """Relay the drain phase; outputs stay on the server."""
        budget = -1.0 if max_packets is None else float(max_packets)
        self._transport.send_message(ServeMessage(
            "drain", self._patient_id, t_s=self._now_s,
            fields={"budget": budget}))
        return []

    def flush_reassembly(self) -> int:
        """Relay the end-of-run reassembly flush."""
        self._transport.send_message(ServeMessage(
            "flush", self._patient_id, t_s=self._now_s))
        return 0


class RemoteBoard(TriageBoard):
    """Triage board stand-in that sweeps on the server.

    Every ``tick`` is a synchronous round trip: the ``sweep`` command
    goes up, the ``feedback`` downlink comes back, and the patient's
    post-sweep state / mode / alert count / SoC are mirrored into the
    local state machine — the closed-loop path the client's governor
    reads on its next decision.
    """

    def __init__(self, transport: _Transport, patient_id: str) -> None:
        super().__init__()
        self._transport = transport
        self._patient_id = patient_id

    def set_expected_period(self, patient_id: str,
                            period_s: float) -> None:
        """Declare the node's uplink period locally and on the server."""
        super().set_expected_period(patient_id, period_s)
        self._transport.send_message(ServeMessage(
            "period", self._patient_id,
            fields={"period_s": float(period_s)}))

    def tick(self, now_s: float) -> None:
        """Sweep on the server; mirror the feedback into this board.

        Raises:
            ServeError: The downlink was not a ``feedback`` message.
        """
        self._transport.send_message(ServeMessage(
            "sweep", self._patient_id, t_s=float(now_s)))
        reply = self._transport.recv_message()
        if reply.kind != "feedback":
            raise ServeError(f"expected feedback, got {reply.kind!r}")
        patient = self.patient(self._patient_id)
        patient.state = reply.info.get("state", patient.state)
        patient.mode = reply.info.get("mode", patient.mode)
        patient.n_alerts = int(reply.fields.get(
            "n_alerts", patient.n_alerts))
        patient.soc = reply.fields.get("soc", patient.soc)


class FleetClient:
    """One patient node as a TCP client of the gateway service.

    Args:
        host: Gateway service host.
        port: Gateway service port (``FleetGatewayServer.port``).
        max_frame_bytes: Stream-decoder frame ceiling for the downlink.
    """

    def __init__(self, host: str, port: int,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        #: Whether the last :meth:`run` resumed an existing session.
        self.resumed = False

    def run(self, profile: PatientProfile,
            config: SchedulerConfig | None = None,
            node_config: NodeProxyConfig | None = None,
            hooks: ShardHooks | None = None,
            af_detector: AfDetector | None = None) -> FleetReport:
        """Stream one patient's full run to the service.

        Connects, handshakes, runs a single-patient
        :class:`~repro.fleet.FleetScheduler` over the remote adapters,
        ships the end-of-run ``report`` and closes with ``bye``.

        Returns:
            The local scheduler's :class:`~repro.fleet.FleetReport`
            (node-side numbers; the fleet summary lives server-side).

        Raises:
            ServeError: Handshake rejection (e.g. a duplicate live
                connection for this patient) or a protocol violation.
        """
        hooks = hooks or ShardHooks()
        pid = profile.patient_id
        transport = _Transport(self.host, self.port,
                               self.max_frame_bytes)
        try:
            transport.send_message(ServeMessage("hello", pid))
            ack = transport.recv_message()
            if ack.kind != "hello-ack":
                raise ServeError(f"expected hello-ack, got {ack.kind!r}")
            self.resumed = ack.info.get("resumed") == "1"
            scheduler = FleetScheduler(
                [profile], config, node_config=node_config,
                gateway=RemoteGateway(transport, pid),
                board=RemoteBoard(transport, pid),
                af_detector=af_detector,
                link=hooks.link,
                record_transform=hooks.record_transform,
                governor_factory=hooks.governor_factory,
                extra_load=hooks.extra_load,
                acuity_override=hooks.acuity_override)
            fleet = scheduler.run()
            self._send_report(transport, scheduler, fleet, pid)
            transport.send_message(ServeMessage("bye", pid))
            return fleet
        finally:
            transport.close()

    @staticmethod
    def _send_report(transport: _Transport, scheduler: FleetScheduler,
                     fleet: FleetReport, pid: str) -> None:
        """Ship the node-side row aggregates; await the ack.

        The message itself comes from
        :meth:`~repro.fleet.scheduler.FleetScheduler.report_message` —
        the single construction shared with the gateway journal, so a
        served run and a journaled in-process run log byte-identical
        ``report`` rows.
        """
        transport.send_message(
            scheduler.report_message(pid, fleet.node_reports))
        ack = transport.recv_message()
        if ack.kind != "report-ack":
            raise ServeError(f"expected report-ack, got {ack.kind!r}")
