"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload generates its inputs from the seed in :meth:`setup`, then
runs timed operations with :meth:`op`; every operation checks its own
output against the workload's reference and reports how much work it
actually processed.  See ``README.md`` beside this file for why each
workload exists and which layer it loads.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import repro
from repro.classification import AfDetector
from repro.fleet import (
    CohortConfig,
    FleetGatewayServer,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    JournalConfig,
    JournalReader,
    JournalReplayer,
    JournalWriter,
    NodeProxyConfig,
    SchedulerConfig,
    ServeConfig,
    ServeMessage,
    ShardedFleetRunner,
    StreamDecoder,
    decode_message,
    encode_message,
    encode_stream_frame,
    frame_kind,
    journal_meta,
    make_cohort,
    merge_patient_rows,
)
from repro.power import EnergyGovernor
from repro.power.governor import MODE_RAW
from repro.signals import make_corpus

from tracing import Tracer, handle_batches, layer_metrics

FS = 250.0

#: Lowest acceptable fleet median reconstruction SNR on the CS
#: workloads: an operation below it counts as failed, so a speed-up
#: bought by cutting FISTA short shows up as errors.
SNR_FLOOR_DB = 12.0

#: Socket timeout of the serve-raw generator; a stalled server turns
#: into failed sessions instead of a hung benchmark.
SOCKET_TIMEOUT_S = 30.0


@dataclass
class OpResult:
    """What one timed operation did.

    ``rtt_ms`` holds the operation's sweep latencies: one socket round
    trip per sweep on serve-raw, and the operation's wall time per
    fleet sweep on the in-process workloads.
    """

    wall_s: float
    patient_s: float
    packets: int
    rtt_ms: list[float]
    attempted: int = 1
    failed: int = 0
    snr_db: float = float("nan")
    layer: dict = field(default_factory=dict)


def train_af(seed: int, tiny: bool) -> AfDetector:
    """An AF detector trained on an ``af_mix`` corpus drawn from ``seed``."""
    corpus = make_corpus("af_mix", n_records=2 if tiny else 3,
                         duration_s=60.0 if tiny else 120.0, seed=seed)
    return AfDetector().fit(list(corpus))


#: Rhythm mix of every cohort, as whole-patient quotas of the
#: ``CohortConfig`` default fractions (nsr takes the remainder).
RHYTHM_MIX = (("af", 0.15), ("paroxysmal_af", 0.20), ("ectopy", 0.20),
              ("nsr", 0.45))

#: Every fourth patient wears a one-lead node (the default 25 %).
SINGLE_LEAD_EVERY = 4


def stratified_cohort(n_patients: int, seed: int) -> list:
    """A seeded cohort whose rhythm and lead mix do not vary by seed.

    Draws a large ``make_cohort`` pool from ``seed`` and keeps, in pool
    order, the first patients of each rhythm up to its quota; then
    every fourth kept patient wears a one-lead node, the rest three.
    Heart rate, noise and per-patient seeds still come from the seed.
    A plain draw of 6 to 8 patients swings the work per patient-second
    by tens of percent between seeds, which would hide any layer
    change smaller than that.
    """
    pool = make_cohort(CohortConfig(n_patients=16 * n_patients, seed=seed))
    exact = [(rhythm, share * n_patients) for rhythm, share in RHYTHM_MIX]
    quota = {rhythm: int(x) for rhythm, x in exact}
    by_remainder = sorted(exact, key=lambda item: int(item[1]) - item[1])
    for rhythm, _ in by_remainder[:n_patients - sum(quota.values())]:
        quota[rhythm] += 1
    kept = []
    for profile in pool:
        if quota.get(profile.rhythm, 0) > 0:
            quota[profile.rhythm] -= 1
            kept.append(profile)
    return [replace(profile, n_leads=1 if i % SINGLE_LEAD_EVERY
                    == SINGLE_LEAD_EVERY - 1 else 3)
            for i, profile in enumerate(kept)]


def n_sweeps(duration_s: float, period_s: float) -> int:
    """Fleet sweeps of one run: one per uplink period plus the endgame."""
    return int(duration_s // period_s) + 1


def snr_ok(snr_db: float) -> bool:
    return math.isfinite(snr_db) and snr_db >= SNR_FLOOR_DB


class Workload:
    """Common shape: seeded setup, timed operations, per-layer fold."""

    name = ""
    sizes: dict[str, dict] = {}
    #: Whether the traced layers run in this process (serve-raw traces
    #: its server process instead).
    traces_here = True
    #: Operations one timed call attempts (serve-raw: one per session).
    attempts_per_op = 1

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.seed = seed
        self.tiny = size == "tiny"
        self.work_dir = work_dir
        for key, value in self.sizes[size].items():
            setattr(self, key, value)

    def setup(self) -> None:
        """Generate the inputs and warm up; may run several times."""

    def prepare(self) -> None:
        """One-off untimed work after the last setup (references)."""

    def op(self, tracer: Tracer | None) -> OpResult:
        raise NotImplementedError

    def layers(self, tracer: Tracer, results: list[OpResult],
               extra: dict, spans_path: Path) -> dict:
        """Per-layer metrics of the traced operations ``results``.

        Writes the spans to ``spans_path``; ``extra`` carries values
        the runner measured itself (the tracing overhead).
        """
        tracer.write(spans_path)
        return layer_metrics(tracer, len(results),
                             {**_mean_layer(results), **extra})

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Stop helper processes and remove generated files."""
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _mean_layer(results: list[OpResult]) -> dict:
    keys = {key for r in results for key in r.layer}
    return {key: statistics.fmean(r.layer.get(key, 0.0) for r in results)
            for key in keys}


class CohortSim(Workload):
    """A batch cohort through the single-process ``FleetScheduler``."""

    name = "cohort-sim"
    sizes = {"full": {"n_patients": 8, "duration_s": 60.0},
             "tiny": {"n_patients": 2, "duration_s": 40.0}}

    def setup(self) -> None:
        self.detector = train_af(self.seed, self.tiny)
        self.cohort = stratified_cohort(self.n_patients, self.seed)
        # Three periodic excerpts per record plus alarms; telemetry on.
        self.node_config = NodeProxyConfig(excerpt_period_s=20.0)
        self.reference: str | None = None
        self._run(self.cohort[:1])  # warm-up: one patient, same path

    def _run(self, cohort):
        return FleetScheduler(
            cohort, SchedulerConfig(duration_s=self.duration_s, fs=FS),
            node_config=self.node_config, gateway=Gateway(),
            af_detector=self.detector).run()

    def op(self, tracer: Tracer | None) -> OpResult:
        t0 = perf_counter()
        report = self._run(self.cohort)
        wall = perf_counter() - t0
        text = report.summary.to_json()
        if self.reference is None:
            self.reference = text
        snr = report.summary.snr_p50_db
        sweeps = n_sweeps(self.duration_s, self.node_config.excerpt_period_s)
        return OpResult(
            wall_s=wall,
            patient_s=sum(r.duration_s for r in report.node_reports.values()),
            packets=len(report.excerpts),
            rtt_ms=[1e3 * wall / sweeps],
            failed=int(text != self.reference or not snr_ok(snr)),
            snr_db=snr)


class CohortSharded(CohortSim):
    """The cohort-sim job through ``ShardedFleetRunner(n_shards=2)``."""

    name = "cohort-sharded"

    def prepare(self) -> None:
        # The single-process run this workload must reproduce.
        self.reference = self._run(self.cohort).summary.to_json()

    def op(self, tracer: Tracer | None) -> OpResult:
        t0 = perf_counter()
        report = ShardedFleetRunner(
            self.cohort, n_shards=2,
            config=SchedulerConfig(duration_s=self.duration_s, fs=FS),
            node_config=self.node_config,
            af_detector=self.detector).run()
        wall = perf_counter() - t0
        snr = report.summary.snr_p50_db
        shard_walls = [t["total"] for t in report.shard_timings_s]
        sweeps = n_sweeps(self.duration_s, self.node_config.excerpt_period_s)
        return OpResult(
            wall_s=wall,
            patient_s=len(report.rows) * self.duration_s,
            packets=sum(row.n_reconstructed for row in report.rows.values()),
            rtt_ms=[1e3 * wall / sweeps],
            failed=int(report.summary.to_json() != self.reference
                       or not snr_ok(snr)),
            snr_db=snr,
            layer={
                "sharding.shard_wall_max_s": max(shard_walls),
                "sharding.shard_skew": max(shard_walls) / min(shard_walls),
                "sharding.shard_node_max_s": max(
                    t["synthesis+node"] for t in report.shard_timings_s),
                "sharding.shard_gateway_max_s": max(
                    t["uplink+gateway"] for t in report.shard_timings_s),
            })

    def peak_rss_mb(self) -> float:
        # Parent and shard workers together are the process under test.
        kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        return kb / 1024.0


#: Dense uplink shared by gateway-replay and serve-raw: one excerpt
#: every two seconds per node.
DENSE_UPLINK = NodeProxyConfig(excerpt_period_s=2.0, stream_telemetry=False)


def record_journal(directory: Path, cohort, duration_s: float,
                   **scheduler_kw) -> tuple[JournalConfig, str]:
    """Run ``cohort`` live with a journal; return it and the summary."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    config = JournalConfig(dir=str(directory), name="live")
    gateway_config = GatewayConfig()
    with JournalWriter(config, meta=journal_meta(duration_s, FS,
                                                 gateway_config),
                       resume=False) as journal:
        live = FleetScheduler(
            cohort, SchedulerConfig(duration_s=duration_s, fs=FS),
            node_config=DENSE_UPLINK, gateway=Gateway(gateway_config),
            journal=journal, **scheduler_kw).run()
    return config, live.summary.to_json()


class GatewayReplay(Workload):
    """``JournalReplayer`` over a recorded dense-uplink run."""

    name = "gateway-replay"
    sizes = {"full": {"n_patients": 6, "duration_s": 24.0},
             "tiny": {"n_patients": 2, "duration_s": 12.0}}

    def setup(self) -> None:
        detector = train_af(self.seed, self.tiny)
        cohort = stratified_cohort(self.n_patients, self.seed)
        self.journal, self.reference = record_journal(
            self.work_dir / "journal", cohort, self.duration_s,
            af_detector=detector)

    def op(self, tracer: Tracer | None) -> OpResult:
        t0 = perf_counter()
        replay = JournalReplayer(self.journal).run()
        wall = perf_counter() - t0
        snr = replay.summary.snr_p50_db
        duration = JournalReader(self.journal).meta["duration_s"]
        sweeps = n_sweeps(duration, DENSE_UPLINK.excerpt_period_s)
        return OpResult(
            wall_s=wall,
            patient_s=len(replay.rows) * duration,
            packets=replay.n_packets,
            rtt_ms=[1e3 * wall / sweeps],
            failed=int(replay.summary.to_json() != self.reference
                       or not snr_ok(snr)),
            snr_db=snr)


def raw_governor(_profile) -> EnergyGovernor:
    """A governor that starts, and on a full battery stays, in raw mode."""
    return EnergyGovernor(mode=MODE_RAW)


def session_scripts(journal: JournalConfig, patient_ids: list[str],
                    ) -> dict[str, list[tuple[bytes, str | None]]]:
    """Split a fleet journal into per-patient served sessions.

    Each session is a list of ``(stream bytes, expected reply kind)``
    segments: ``hello``; then the patient's packet frames and control
    records in journal order, fleet-wide records addressed to the
    patient, cut after every ``sweep`` (answered by ``feedback``) and
    ``report`` (answered by ``report-ack``); then ``bye``.
    """
    scripts = {pid: [(encode_stream_frame(encode_message(
        ServeMessage("hello", pid))), "hello-ack")] for pid in patient_ids}
    pending = {pid: bytearray() for pid in patient_ids}
    for record in JournalReader(journal).records():
        frame = bytes(record.frame)
        if frame_kind(frame) == "packet":
            pending[record.subject] += encode_stream_frame(frame)
            continue
        msg = decode_message(frame)
        if msg.kind in ("hello", "stats"):
            continue  # the scheduler's own bookkeeping, not a command
        for pid in ([msg.patient_id] if msg.patient_id else patient_ids):
            addressed = ServeMessage(msg.kind, pid, t_s=msg.t_s,
                                     fields=dict(msg.fields),
                                     info=dict(msg.info))
            pending[pid] += encode_stream_frame(encode_message(addressed))
            reply = {"sweep": "feedback", "report": "report-ack"}.get(
                msg.kind)
            if reply is not None:
                scripts[pid].append((bytes(pending[pid]), reply))
                pending[pid] = bytearray()
    for pid in patient_ids:
        pending[pid] += encode_stream_frame(encode_message(
            ServeMessage("bye", pid)))
        scripts[pid].append((bytes(pending[pid]), None))
    return scripts


class _Replies:
    """Blocking reader of downlink messages on one connection."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = StreamDecoder()
        self._inbox: list[bytes] = []

    def next(self) -> ServeMessage:
        while not self._inbox:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._inbox.extend(bytes(f) for f in self._decoder.feed(chunk))
        return decode_message(self._inbox.pop(0))


def stream_session(port: int, segments) -> tuple[bool, list[float]]:
    """Play one session; return success and its reply round trips (ms).

    A round trip runs from the first byte of a segment leaving the
    generator to the reply that closes it arriving.
    """
    rtts: list[float] = []
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=SOCKET_TIMEOUT_S) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            replies = _Replies(sock)
            for i, (blob, expected) in enumerate(segments):
                t0 = perf_counter()
                sock.sendall(blob)
                if expected is None:
                    continue
                msg = replies.next()
                if msg.kind != expected:
                    return False, rtts
                if i:  # the hello handshake is not a sweep
                    rtts.append(1e3 * (perf_counter() - t0))
    except (OSError, ValueError):
        return False, rtts
    return True, rtts


def server_main(conn, work_dir: str) -> None:
    """Server process body: one ``FleetGatewayServer`` per round.

    Commands arrive over ``conn``: ``configure`` (cohort and run
    shape), ``round`` (start a fresh server, optionally traced; replies
    with its port), ``finish`` (stop it, fold and check its rows),
    ``layers`` (per-layer metrics of the traced rounds) and ``exit``.
    """
    tracer = Tracer()
    server = None
    traced = False
    cohort = duration_s = None
    round_dir = Path(work_dir) / "served"
    while True:
        command, *args = conn.recv()
        if command == "configure":
            cohort, duration_s = args
            conn.send(("ok",))
        elif command == "round":
            round_id, traced = args
            shutil.rmtree(round_dir, ignore_errors=True)
            round_dir.mkdir(parents=True)
            if traced:
                tracer.run = round_id
                tracer.install()
            server = FleetGatewayServer(ServeConfig(
                n_lanes=2, journal=JournalConfig(dir=str(round_dir),
                                                 name="served"))).start()
            conn.send(("ready", server.port))
        elif command == "finish":
            server.stop()
            tracer.uninstall()
            rows = server.rows()
            summary = merge_patient_rows(
                cohort, rows, server.config.gateway, duration_s, FS,
                dropped=server.dropped)
            stats = server.stats()
            batches = handle_batches(tracer, round_id) if traced else {}
            conn.send(("done", {
                "summary": summary.to_json(),
                "packets": sum(s.n_frames for s in server.sessions.values()),
                "rows": len(rows),
                "max_queue_depth": stats["max_queue_depth"],
                "rejected": stats["connections"].get("rejected", 0),
                "batches": batches,
                "rss_kb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss,
            }))
            shutil.rmtree(round_dir, ignore_errors=True)
            server = None
        elif command == "layers":
            n_rounds, extra, spans_path = args
            tracer.write(Path(spans_path))
            conn.send(("layers", layer_metrics(tracer, n_rounds, extra)))
        elif command == "exit":
            conn.send(("bye",))
            return


class ServeRaw(Workload):
    """Raw-mode sessions streamed to a gateway server over loopback TCP.

    The server runs in its own process; this process is the load
    generator: two threads, each holding one connection at a time and
    playing its half of the sessions one after another, waiting for the
    reply to every sweep (a closed loop of two clients).
    """

    name = "serve-raw"
    traces_here = False
    sizes = {"full": {"n_patients": 8, "duration_s": 60.0},
             "tiny": {"n_patients": 2, "duration_s": 20.0}}

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        # A fresh interpreter running this file's __main__ block, joined
        # to this process by one socket pair; nothing else is started.
        self._conn, child = multiprocessing.Pipe()
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(child.fileno()),
             str(work_dir / "server")],
            pass_fds=(child.fileno(),), env=env)
        child.close()
        self.attempts_per_op = self.n_patients
        self._rounds = 0
        self._rss_kb = 0
        self._batches: list[tuple[dict, dict]] = []
        self._queue_depth = 0
        self._rejected = 0

    def _ask(self, *command):
        self._conn.send(command)
        if not self._conn.poll(SOCKET_TIMEOUT_S * 2):
            raise TimeoutError(f"server process did not answer {command[0]}")
        return self._conn.recv()

    def setup(self) -> None:
        cohort = stratified_cohort(self.n_patients, self.seed)
        journal, self.reference = record_journal(
            self.work_dir / "journal", cohort, self.duration_s,
            governor_factory=raw_governor)
        self.scripts = session_scripts(journal,
                                       [p.patient_id for p in cohort])
        self._ask("configure", cohort, self.duration_s)
        warm = self.op(None)  # warm-up round through the whole stack
        if warm.failed:
            raise RuntimeError("serve-raw warm-up round failed")

    def op(self, tracer: Tracer | None) -> OpResult:
        traced = tracer is not None
        self._rounds += 1
        _, port = self._ask("round", self._rounds, traced)
        sessions = list(self.scripts.items())
        outcome: dict[str, tuple[bool, list[float]]] = {}

        def play(share) -> None:
            for pid, segments in share:
                outcome[pid] = stream_session(port, segments)

        threads = [threading.Thread(target=play, args=(sessions[i::2],))
                   for i in range(2)]
        t0 = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - t0
        _, done = self._ask("finish")
        self._rss_kb = max(self._rss_kb, done["rss_kb"])
        ok = [pid for pid, (good, _) in outcome.items() if good]
        failed = len(sessions) - len(ok)
        if done["summary"] != self.reference and not failed:
            failed = len(sessions)  # the fold is wrong: no session counts
        if traced:
            self._batches.append(
                ({pid: rtts for pid, (_, rtts) in outcome.items()},
                 done["batches"]))
            self._queue_depth = max(self._queue_depth,
                                    done["max_queue_depth"])
            self._rejected += done["rejected"]
        return OpResult(
            wall_s=wall,
            patient_s=len(ok) * self.duration_s,
            packets=done["packets"],
            rtt_ms=[rtt for _, rtts in outcome.values() for rtt in rtts],
            attempted=len(sessions),
            failed=failed)

    def layers(self, tracer: Tracer, results: list[OpResult],
               extra: dict, spans_path: Path) -> dict:
        waits = []
        for rtts, batches in self._batches:
            for pid, handled in batches.items():
                waits.extend(rtt - 1e3 * h
                             for rtt, h in zip(rtts.get(pid, []), handled))
        extra = {
            **extra,
            "serve.max_queue_depth": float(self._queue_depth),
            "serve.rejected": self._rejected / max(len(results), 1),
            "serve.wait_p50_ms": statistics.median(waits) if waits else 0.0,
        }
        _, metrics = self._ask("layers", len(results), extra,
                               str(spans_path))
        return metrics

    def peak_rss_mb(self) -> float:
        return self._rss_kb / 1024.0

    def close(self) -> None:
        try:
            if self._proc.poll() is None:
                self._ask("exit")
            self._proc.wait(10)
        except (OSError, EOFError, TimeoutError,
                subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        self._conn.close()
        super().close()


WORKLOADS = {cls.name: cls
             for cls in (CohortSim, GatewayReplay, ServeRaw, CohortSharded)}


if __name__ == "__main__":
    # serve-raw's server process: ``workloads.py <socket fd> <work dir>``.
    from multiprocessing.connection import Connection

    server_main(Connection(int(sys.argv[1])), sys.argv[2])
