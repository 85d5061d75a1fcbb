"""Network-native fleet gateway service: nodes as TCP clients.

Everything below :mod:`repro.fleet.sharding` still runs the node *and*
the gateway in one address space — the wire codec proves packets could
cross a socket, but nothing actually does.  This module closes that
gap: :class:`FleetGatewayServer` is an asyncio TCP server whose clients
are patient nodes (:class:`~repro.fleet.client.FleetClient`) streaming
length-delimited wire frames, and :func:`run_served_fleet` drives a
whole cohort through real loopback sockets to a
:class:`~repro.fleet.FleetSummary` that is **byte-identical**
(``to_json``) to the in-process engine's.

Architecture (one connection, left to right)::

    client ──TCP──> reader task ──bounded queue──> consumer task
                                                        │ decode the batch,
                                                        │ then, if it holds
                                                        │ CS frames, one hop:
                                run_in_executor(lanes, recover_packets)
                                                        │ back on the loop:
                                        GatewaySession.handle_batch:
                                        Gateway + TriageBoard + clock

* **Framing** — the byte stream is u32-length-delimited
  (:func:`~repro.fleet.wire.encode_stream_frame`); each frame body is
  either a packet (:data:`~repro.fleet.wire.WIRE_MAGIC`) or a control
  message (:data:`~repro.fleet.wire.MESSAGE_MAGIC`), routed by
  :func:`~repro.fleet.wire.frame_kind`.
* **Backpressure** — each connection's frames flow through a bounded
  :class:`asyncio.Queue`; when it fills, the reader task stops reading
  and the kernel's TCP window does the rest.  A slow consumer delays
  the client, it never loses frames.
* **Batches applied on the loop** — the consumer takes every frame
  already waiting on the queue (at most ``queue_capacity``), decodes
  its packet frames once and applies the batch in order on the event
  loop, then writes the replies in order under one ``drain``.  The
  loop thread is the only thread that mutates a session.
* **Only reconstruction leaves the loop** — when a batch carries CS
  frames, the consumer first recovers them on a lane
  (:func:`~repro.fleet.gateway.recover_packets`, pure) and holds the
  results in the session's
  :class:`~repro.fleet.journal.RecoveryStore` for the drains that pop
  those packets: one hop per CS batch, and FISTA never runs on the
  loop.  A batch of raw packets, telemetry or commands makes no hop.
* **Lanes** — one pool of ``n_lanes`` threads, shared by every
  session, so different patients' reconstructions overlap the loop and
  each other.  A consumer awaits its hop before it takes its next
  batch, so one session never has two recoveries in flight.
* **Closed loop** — every ``sweep`` command returns a ``feedback``
  downlink carrying the patient's post-sweep triage state, operating
  mode and alert count; the client mirrors it into its local board,
  which is exactly what the governor reads next tick (the same
  one-tick feedback latency as the in-process scheduler).

Protocol verbs (all :class:`~repro.fleet.wire.ServeMessage`):

=============  ==========================================================
uplink         ``hello`` (handshake, first frame), packet frames,
               ``expire`` / ``drain`` / ``sweep`` / ``flush`` /
               ``period`` (scheduler phases), ``report`` (end-of-run
               row), ``bye``
downlink       ``hello-ack`` (``resumed`` flag), ``feedback``,
               ``report-ack``, ``error``
=============  ==========================================================

Sessions are keyed by patient id and **outlive their sockets**: a
client that reconnects resumes its gateway channel, reassembly window
and triage machine mid-stream (``hello-ack`` says ``resumed=1``), and a
second live connection for the same patient is rejected with an
``error`` downlink.  A peer that resets its connection has left: the
connection is counted ``reset`` and its session waits for a reconnect.
A peer that has not completed its ``hello`` within
:data:`HELLO_TIMEOUT_S` is closed and counted ``hello-timeout``.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from ..classification.afib import AfDetector
from ..obs import Observability, SCOPE_SERVE
from .cohort import PatientProfile, check_unique_ids
from .gateway import GatewayConfig, recover_packets
from .journal import GatewaySession, JournalConfig, JournalWriter, \
    decode_ahead, journal_meta
from .node_proxy import NodeProxyConfig
from .scheduler import SchedulerConfig
from .sharding import ShardHookFactory, ShardHooks, merge_patient_rows
from .triage import FleetSummary, ShardPatientRow
from .wire import (
    ServeMessage,
    StreamDecoder,
    StreamFrameError,
    WireFormatError,
    decode_message,
    encode_message,
    encode_stream_frame,
    frame_kind,
)

#: Socket read size of the server's reader tasks and the client
#: transport (one TCP segment's worth; framing handles the rest).
RECV_CHUNK = 65536

#: Longest :meth:`FleetGatewayServer.stop` waits for consumers to apply
#: the frames already queued on their connections (at most
#: ``queue_capacity`` each) before it cancels what is left.
STOP_DRAIN_S = 5.0

#: Longest a new connection may take to complete its ``hello`` frame;
#: a peer still silent or mid-frame then is closed and counted
#: ``hello-timeout``.
HELLO_TIMEOUT_S = 10.0


class ServeError(RuntimeError):
    """A serving-protocol violation or transport failure."""


@dataclass(frozen=True)
class ServeConfig:
    """Gateway-service parameters (frozen, picklable, validated).

    Attributes:
        host: Interface the server binds.
        port: TCP port (``0`` = ephemeral; read the bound port off
            :attr:`FleetGatewayServer.port`).
        n_lanes: Threads of the one pool that reconstructs every
            session's CS frames (distinct sessions' recoveries run
            concurrently); every frame is applied on the event loop.
        queue_capacity: Bounded per-connection frame queue between the
            socket reader and the session consumer — the backpressure
            knob: a full queue stops the reader, which stalls the
            client through TCP flow control instead of dropping.
        throttle_s: Artificial per-frame processing delay — ``0`` in
            production; tests raise it to saturate the bounded queue
            and prove the no-loss backpressure path.
        gateway: Gateway parameters every patient session runs with.
        journal: When given, the server opens one shared
            :class:`~repro.fleet.journal.JournalWriter` and every
            session logs its ingested packet frames and state-bearing
            commands there — across reconnects, each frame exactly
            once.  The merged log replays byte-identical to the served
            run (see :mod:`repro.fleet.journal`).
    """

    host: str = "127.0.0.1"
    port: int = 0
    n_lanes: int = 2
    queue_capacity: int = 64
    throttle_s: float = 0.0
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    journal: JournalConfig | None = None

    def __post_init__(self) -> None:
        """Reject unusable parameters up front."""
        if not self.host:
            raise ValueError("host must not be empty")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} outside [0, 65535]")
        if self.n_lanes < 1:
            raise ValueError("n_lanes must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if not math.isfinite(self.throttle_s) or self.throttle_s < 0:
            raise ValueError("throttle_s must be finite and >= 0")


class _ServeMetrics:
    """Pre-resolved serve-scope metric families (deployment-shaped)."""

    def __init__(self, obs: Observability) -> None:
        metrics = obs.metrics
        self.connections = metrics.counter(
            "serve_connections_total",
            "Gateway-service connection lifecycle events "
            "(open / resumed / rejected / hello-timeout / closed / "
            "reset).",
            scope=SCOPE_SERVE)
        self.frames = metrics.counter(
            "serve_frames_total",
            "Stream frames consumed off client connections, by kind.",
            scope=SCOPE_SERVE)
        self.batch_frames = metrics.histogram(
            "serve_batch_frames",
            "Queued frames applied per consumer batch.",
            scope=SCOPE_SERVE,
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
        self.queue_depth = metrics.gauge(
            "serve_queue_depth",
            "High-water frame-queue depth per patient connection.",
            scope=SCOPE_SERVE)


class FleetGatewayServer:
    """Asyncio TCP gateway server with per-patient sessions.

    Runs its event loop on a background thread, so tests and drivers
    use it synchronously::

        with FleetGatewayServer(ServeConfig()) as server:
            client = FleetClient("127.0.0.1", server.port)
            ...
        summary = merge_patient_rows(cohort, server.rows(), ...)

    Args:
        config: Service parameters (fresh defaults if omitted).
        obs: Optional observability bundle; connection lifecycle,
            frame counts and queue high-water marks land in the
            ``serve`` scope (excluded from the canonical fleet
            snapshot, like shard-local gauges).
    """

    def __init__(self, config: ServeConfig | None = None,
                 obs: Observability | None = None) -> None:
        self.config = config or ServeConfig()
        self.obs = obs
        self._m = _ServeMetrics(obs) if obs is not None else None
        #: Patient sessions, persisting across disconnects.
        self.sessions: dict[str, GatewaySession] = {}
        #: Highest frame-queue depth observed on any connection.
        self.max_queue_depth = 0
        #: Highest partial-frame byte count buffered by any
        #: connection's stream decoder (frames split across reads).
        self.max_partial_bytes = 0
        #: Frame batches applied, one per consumer wake-up (at most
        #: ``queue_capacity`` frames each).
        self.batches = 0
        #: Hand-offs to a lane to recover a batch's CS frames.
        self.lane_hops = 0
        #: Shared journal writer, open while the server runs (``None``
        #: without :attr:`ServeConfig.journal`).
        self.journal: JournalWriter | None = None
        self._counts: dict[str, int] = {}
        self._active: set[str] = set()
        #: The task reading each live connection: its handler during
        #: the handshake (no queue yet), then its pump, with the queue
        #: the pump fills.  Shutdown stops these first.
        self._reading: dict[asyncio.Task, asyncio.Queue | None] = {}
        self._lanes = ThreadPoolExecutor(max_workers=self.config.n_lanes)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None
        self._stopped = False
        self.port: int | None = None

    def start(self) -> "FleetGatewayServer":
        """Bind the listener and run the loop on a background thread.

        A no-op while the server runs.

        Raises:
            ServeError: The server was stopped.  :meth:`stop` shut its
                lane pool down and closed its journal, so it refuses to
                serve again, before it binds; build a new server.
            OSError: The listener could not bind.
        """
        if self._thread is not None:
            return self
        if self._stopped:
            raise ServeError("server was stopped and cannot start again; "
                             "build a new FleetGatewayServer")
        if self.config.journal is not None and self.journal is None:
            # The server knows its gateway parameters but not the
            # clients' schedule; a replayer of a served journal passes
            # duration/fs (and the cohort order) explicitly.
            self.journal = JournalWriter(
                self.config.journal,
                meta=journal_meta(gateway=self.config.gateway),
                obs=self.obs, resume=False)
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(ready,), daemon=True,
            name="fleet-serve")
        self._thread.start()
        ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Stop serving, apply what is queued, shut the lanes down.

        The listener closes and every connection stops reading; each
        consumer then applies the frames already on its queue and
        answers them as usual.  What has not finished within
        :data:`STOP_DRAIN_S` is cancelled.  A stopped server is done:
        :meth:`start` then raises :class:`ServeError`.
        """
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join()
        self._thread = None
        self._stopped = True
        self._lanes.shutdown(wait=True)
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "FleetGatewayServer":
        """Start on entry (no-op when already running)."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop on exit."""
        self.stop()

    def rows(self) -> dict[str, ShardPatientRow]:
        """Completed per-patient rows (sessions that sent ``report``)."""
        return {pid: session.row
                for pid, session in self.sessions.items()
                if session.row is not None}

    @property
    def dropped(self) -> int:
        """Bounded-gateway-queue drops summed across every session."""
        return sum(s.gateway.dropped for s in self.sessions.values())

    def stats(self) -> dict:
        """JSON-safe service counters (connections, frames, queues)."""
        stats = {
            "connections": dict(sorted(self._counts.items())),
            "sessions": len(self.sessions),
            "frames": sum(s.n_frames for s in self.sessions.values()),
            "batches": self.batches,
            "lane_hops": self.lane_hops,
            "max_queue_depth": self.max_queue_depth,
            "max_partial_bytes": self.max_partial_bytes,
            "n_lanes": self.config.n_lanes,
        }
        if self.journal is not None:
            stats["journal"] = self.journal.stats()
        return stats

    def _run_loop(self, ready: threading.Event) -> None:
        """Background thread body: bind, serve, tear down."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop_event = asyncio.Event()
        try:
            server = loop.run_until_complete(asyncio.start_server(
                self._handle_conn, self.config.host, self.config.port))
            self.port = server.sockets[0].getsockname()[1]
        except OSError as exc:
            self._startup_error = exc
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_until_complete(self._stop_event.wait())
            loop.run_until_complete(self._shutdown(server))
        finally:
            loop.close()

    async def _shutdown(self, server: asyncio.Server) -> None:
        """Stop accepting and reading, drain the queues, cancel the rest.

        A handler still in its handshake holds no frames and is
        cancelled at once.  A pump cancelled mid-stream queued no end
        marker, so one goes in behind the frames it did queue.
        """
        server.close()
        reading = list(self._reading.items())
        for task, _ in reading:
            task.cancel()
        await asyncio.gather(*(task for task, _ in reading),
                             return_exceptions=True)
        ends = {asyncio.ensure_future(queue.put(None))
                for task, queue in reading
                if queue is not None and task.cancelled()}
        me = asyncio.current_task()
        handlers = asyncio.all_tasks() - ends - {me}
        if handlers:
            await asyncio.wait(handlers, timeout=STOP_DRAIN_S)
        left = asyncio.all_tasks() - {me}
        for task in left:
            task.cancel()
        await asyncio.gather(*left, return_exceptions=True)
        await server.wait_closed()

    def _count(self, event: str) -> None:
        """Account one connection lifecycle event (loop thread only)."""
        self._counts[event] = self._counts.get(event, 0) + 1
        if self._m is not None:
            self._m.connections.inc(event=event)

    def _session_for(self, patient_id: str) -> tuple[GatewaySession, bool]:
        """The (resumed or newly created) session of one patient."""
        session = self.sessions.get(patient_id)
        if session is not None:
            return session, True
        session = GatewaySession(patient_id, self.config.gateway,
                                 journal=self.journal)
        self.sessions[patient_id] = session
        return session, False

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """One connection: handshake, then the reader/consumer pipeline.

        Swallows the shutdown ``CancelledError`` so the handler task
        always finishes clean: ``asyncio.streams`` probes it with
        ``task.exception()`` from a done-callback, which would re-raise
        a cancellation into the event loop's exception handler.  A
        ``ConnectionError`` means the peer reset the connection: it
        left, its session stays for a reconnect, and the event is
        counted ``reset`` instead of logged.
        """
        try:
            await self._serve_conn(reader, writer)
        except asyncio.CancelledError:
            writer.close()  # a handshake cancelled by stop() left it open
        except ConnectionError:
            self._count("reset")

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """`_handle_conn` body, cancellable at any await."""
        decoder = StreamDecoder()
        handler = asyncio.current_task()
        self._reading[handler] = None
        try:
            hello, backlog = await asyncio.wait_for(
                self._read_hello(reader, decoder), HELLO_TIMEOUT_S)
        except asyncio.TimeoutError:  # not TimeoutError on Python 3.10
            self._count("hello-timeout")
            writer.close()
            return
        except (WireFormatError, ServeError, ConnectionError):
            self._count("rejected")
            writer.close()
            return
        finally:
            del self._reading[handler]
        pid = hello.patient_id
        if pid in self._active:
            self._count("rejected")
            await self._send(writer, ServeMessage(
                "error", pid,
                info={"error": f"duplicate connection for {pid!r}"}))
            writer.close()
            return
        self._active.add(pid)
        session, resumed = self._session_for(pid)
        self._count("resumed" if resumed else "open")
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.queue_capacity)
        pump = asyncio.ensure_future(
            self._pump(reader, decoder, backlog, queue, pid))
        self._reading[pump] = queue
        try:
            await self._send(writer, ServeMessage(
                "hello-ack", pid,
                info={"resumed": "1" if resumed else "0"}))
            await self._consume(queue, writer, session)
        finally:
            # Synchronous bookkeeping first: a shutdown cancellation
            # arriving at either await below must not skip the close
            # accounting, or two identical runs disagree on counters.
            del self._reading[pump]
            self._active.discard(pid)
            self._count("closed")
            pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, Exception):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_hello(self, reader: asyncio.StreamReader,
                          decoder: StreamDecoder,
                          ) -> tuple[ServeMessage, list[bytes]]:
        """Require the connection's first frame to be ``hello``.

        Returns the handshake and any frames the client pipelined into
        the same chunks (handed to the queue pump untouched).  The
        caller bounds the wait by :data:`HELLO_TIMEOUT_S`.
        """
        while True:
            chunk = await reader.read(RECV_CHUNK)
            if not chunk:
                raise ConnectionError("peer closed before hello")
            frames = decoder.feed(chunk)
            self._note_partial(decoder)
            if not frames:
                continue
            first, backlog = frames[0], frames[1:]
            if frame_kind(first) != "message":
                raise ServeError("first frame must be a hello message")
            msg = decode_message(first)
            if msg.kind != "hello":
                raise ServeError(f"expected hello, got {msg.kind!r}")
            return msg, backlog

    async def _pump(self, reader: asyncio.StreamReader,
                    decoder: StreamDecoder, backlog: list[bytes],
                    queue: asyncio.Queue, pid: str) -> None:
        """Reader task: socket bytes -> frames -> the bounded queue.

        ``await queue.put`` on a full queue suspends this task, which
        stops the socket reads — backpressure propagates to the client
        through TCP flow control with zero frame loss.  The last item
        queued is ``None`` at EOF, or the error that ended the stream:
        a :class:`~repro.fleet.wire.StreamFrameError` (after the frames
        its chunk completed) or the peer's ``ConnectionError``.
        """
        end: Exception | None = None
        try:
            for body in backlog:
                await self._enqueue(queue, body, pid)
            while chunk := await reader.read(RECV_CHUNK):
                frames = decoder.feed(chunk)
                self._note_partial(decoder)
                for body in frames:
                    await self._enqueue(queue, body, pid)
        except StreamFrameError as exc:
            for body in exc.frames:
                await self._enqueue(queue, body, pid)
            end = exc
        except ConnectionError as exc:
            end = exc
        await queue.put(end)

    async def _enqueue(self, queue: asyncio.Queue, body: bytes,
                       pid: str) -> None:
        """Queue one frame; track the per-connection high-water mark."""
        await queue.put(body)
        depth = queue.qsize()
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if self._m is not None:
            self._m.queue_depth.set(float(depth), patient=pid)

    def _note_partial(self, decoder: StreamDecoder) -> None:
        """Track the partial-frame buffer high-water mark.

        :attr:`~repro.fleet.wire.StreamDecoder.pending_bytes` counts
        frame bytes buffered mid-frame after a feed — the same
        accounting the journal writer's record framing relies on, so a
        frame is journaled exactly once no matter how the socket
        chunks it.
        """
        pending = decoder.pending_bytes
        if pending > self.max_partial_bytes:
            self.max_partial_bytes = pending

    async def _consume(self, queue: asyncio.Queue,
                       writer: asyncio.StreamWriter,
                       session: GatewaySession) -> None:
        """Consumer task: queued frames -> the session, on the loop.

        Takes every frame queued behind the one it waited for, up to
        the end of the stream, and decodes the batch's packet frames
        once.  If any carries CS frames, their recovery runs on a lane
        (the one hop) and is held in the session's store; the batch is
        then applied in order on the loop, and the held recoveries of
        packets its gateway no longer holds are released.  The replies
        go out in order under one ``drain``.

        Raises:
            ConnectionError: The peer reset the connection.
        """
        loop = asyncio.get_running_loop()
        throttle = self.config.throttle_s
        gateway_config = self.config.gateway
        while True:
            frames = [await queue.get()]
            while isinstance(frames[-1], bytes) and not queue.empty():
                frames.append(queue.get_nowait())
            more = isinstance(frames[-1], bytes)
            end = None if more else frames.pop()
            if frames:
                if throttle > 0:
                    await asyncio.sleep(throttle * len(frames))
                packets = [decode_ahead(body, gateway_config.wavelet)
                           for body in frames]
                cs = [p for p in packets if p is not None and p.frames]
                if cs:
                    self.lane_hops += 1
                    recovered = await loop.run_in_executor(
                        self._lanes, recover_packets, cs, gateway_config)
                    session.recoveries.hold(cs, recovered)
                self.batches += 1
                if self._m is not None:
                    self._m.batch_frames.observe(float(len(frames)))
                replies, n_applied, close = session.handle_batch(
                    frames, packets)
                session.recoveries.release(session.gateway.held_packets())
                if self._m is not None:
                    for body in frames[:n_applied]:
                        try:
                            kind = frame_kind(body)
                        except WireFormatError:  # answered with an error
                            kind = "invalid"
                        self._m.frames.inc(kind=kind)
                if replies:
                    writer.write(b"".join(
                        encode_stream_frame(body) for body in replies))
                    await writer.drain()
                if close:
                    return
            if more:
                continue
            if isinstance(end, ConnectionError):
                raise end
            if end is not None:  # stream decode error
                await self._send(writer, ServeMessage(
                    "error", session.patient_id,
                    info={"error": str(end)}))
            return

    @staticmethod
    async def _send(writer: asyncio.StreamWriter,
                    msg: ServeMessage) -> None:
        """Write one downlink message as a stream frame."""
        writer.write(encode_stream_frame(encode_message(msg)))
        await writer.drain()


def serve(config: ServeConfig | None = None,
          obs: Observability | None = None) -> FleetGatewayServer:
    """Start a gateway service and return the running server.

    The one-call entry point of the serving API::

        server = serve(ServeConfig(port=0))
        try:
            ...  # point FleetClients at server.port
        finally:
            server.stop()
    """
    return FleetGatewayServer(config, obs=obs).start()


@dataclass
class ServedFleetReport:
    """Outcome of one cohort run through real sockets.

    Attributes:
        summary: The merged fleet summary — byte-identical
            (:meth:`~repro.fleet.FleetSummary.to_json`) to the
            in-process engine's for the same cohort and seeds.
        packets_sent: Uplink packets offered across every client node.
        dropped_packets: Bounded-gateway-queue drops across sessions.
        rows: Per-patient rows in cohort order.
        timings_s: Wall-clock accounting (``total`` spans server start
            to merge).
        server_stats: The service's connection/frame counters.
    """

    summary: FleetSummary
    packets_sent: int
    dropped_packets: int
    rows: dict[str, ShardPatientRow] = field(default_factory=dict)
    timings_s: dict[str, float] = field(default_factory=dict)
    server_stats: dict = field(default_factory=dict)


def run_served_fleet(cohort: list[PatientProfile],
                     config: SchedulerConfig | None = None,
                     node_config: NodeProxyConfig | None = None,
                     gateway_config: GatewayConfig | None = None,
                     serve_config: ServeConfig | None = None,
                     master_seed: int = 2014,
                     hook_factory: ShardHookFactory | None = None,
                     af_detector: AfDetector | None = None,
                     obs: Observability | None = None,
                     ) -> ServedFleetReport:
    """Run a cohort through loopback TCP and merge one fleet summary.

    Spins up a :class:`FleetGatewayServer`, runs one
    :class:`~repro.fleet.client.FleetClient` per patient on a thread
    pool (concurrent connections, like a real ward: the cohort size,
    capped at 8), collects the per-patient rows off the server
    sessions and folds them with
    :func:`~repro.fleet.sharding.merge_patient_rows` — the same merge
    the sharded runtime uses, which is what makes the summary
    byte-identical to the in-process engine by construction.

    Args:
        cohort: Patient profiles in canonical (merge) order.
        config: Scheduler parameters each client node runs with.
        node_config: Uplink policy shared by every node.
        gateway_config: Gateway parameters of every server session
            (overrides ``serve_config.gateway`` when given).
        serve_config: Service parameters (fresh defaults if omitted).
        master_seed: Seed handed to the hook factory, per patient.
        hook_factory: Optional scenario wiring
            (:data:`~repro.fleet.sharding.ShardHookFactory`), called
            with each patient's single-profile stripe — randomness must
            derive from (master seed, patient id) exactly as under the
            sharded runtime.
        af_detector: Trained fleet AF detector shared by every client.
        obs: Optional observability bundle for the **server** side.

    Raises:
        ValueError: A patient id is listed twice in ``cohort`` (checked
            before the server starts).
    """
    from .client import FleetClient

    check_unique_ids(cohort)
    config = config or SchedulerConfig()
    node_config = node_config or NodeProxyConfig()
    serve_config = serve_config or ServeConfig()
    if gateway_config is not None:
        serve_config = replace(serve_config, gateway=gateway_config)
    t_start = time.perf_counter()
    with FleetGatewayServer(serve_config, obs=obs) as server:

        def run_one(profile: PatientProfile) -> None:
            hooks = (hook_factory([profile], master_seed)
                     if hook_factory is not None else ShardHooks())
            FleetClient(serve_config.host, server.port).run(
                profile, config=config, node_config=node_config,
                hooks=hooks, af_detector=af_detector)

        with ThreadPoolExecutor(max_workers=min(len(cohort), 8)) as pool:
            for future in [pool.submit(run_one, p) for p in cohort]:
                future.result()
    # Snapshot only after stop() has joined the loop thread: a client
    # returns as soon as its bye is on the wire, so reading counters
    # inside the `with` races the handler's own teardown accounting.
    rows = server.rows()
    dropped = server.dropped
    stats = server.stats()
    t_serve = time.perf_counter()
    summary = merge_patient_rows(
        cohort, rows, serve_config.gateway, config.duration_s,
        config.fs, dropped=dropped)
    t_end = time.perf_counter()
    return ServedFleetReport(
        summary=summary,
        packets_sent=sum(row.n_sent for row in rows.values()),
        dropped_packets=dropped,
        rows={p.patient_id: rows[p.patient_id] for p in cohort},
        timings_s={"serve": t_serve - t_start,
                   "merge": t_end - t_serve,
                   "total": t_end - t_start},
        server_stats=stats)
