"""Sharded fleet runtime: one cohort, N worker processes, one summary.

:class:`~repro.fleet.FleetScheduler` drives its whole cohort inside one
process, which caps fleet throughput at a single core no matter how
vectorized its sweeps get.  This module partitions a cohort across
``n_shards`` worker processes — each running its own full
``FleetScheduler`` + ``Gateway`` + ``TriageBoard`` over its patient
stripe — and merges the per-shard results into a single
:class:`~repro.fleet.FleetSummary`.

Every value that crosses the process boundary is **wire-encoded**: a
shard worker returns one binary blob (:data:`SHARD_MAGIC` header, then
little-endian per-patient rows with raw float64 SNR buffers), built
with the same primitives as the packet codec in
:mod:`repro.fleet.wire`.  Nothing pickles numpy object graphs, and the
blob is exactly what a remote shard would send over a socket.

Determinism contract (tested, and gated in CI by the
``fleet-throughput-sharded`` bench case):

* patient work is a pure function of the patient profile — synthesis
  seeds live on the profile, per-patient stream seeds are derived from
  the master seed and the patient id, never from the shard index;
* the batched encode/recover paths are row-independent, so a patient's
  numbers do not depend on who shares its batch;
* workers ship the rows their ``FleetScheduler`` built with
  :func:`~repro.fleet.triage.row_from_report`, and the merge folds them
  **in cohort order** with the same
  :func:`~repro.fleet.triage.fleet_summary` as the single-process path.

Together these make the merged summary byte-identical
(`FleetSummary.to_json`) across any shard count — ``n_shards=4`` equals
``n_shards=1`` equals a plain ``FleetScheduler`` run.
"""

from __future__ import annotations

import ctypes
import json
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..classification.afib import AfDetector
from ..obs import (Observability, ObsConfig, SCOPE_SHARD,
                   canonical_bundle_json, canonical_view, merge_bundles)
from .cohort import PatientProfile, check_unique_ids
from .gateway import Gateway, GatewayConfig, PatientChannel
from .node_proxy import NodeProxyConfig, UplinkPacket
from .scheduler import (
    AcuityOverride,
    ExtraLoad,
    FleetScheduler,
    GovernorFactory,
    RecordTransform,
    SchedulerConfig,
    UplinkChannel,
)
from .transport import make_transport
from .triage import FleetSummary, PatientTriage, ShardPatientRow, \
    fleet_summary
from .wire import WireFormatError, _pack_str, _unpack_str

#: First bytes of a shard-result blob.
SHARD_MAGIC = b"RPS1"

#: Shard-result layout version (bump on any change).  v2 appended the
#: u32-length-prefixed observability bundle after the patient rows.
SHARD_VERSION = 2

_SHARD_HEAD = struct.Struct("<4sBIQQdddI")
_ROW_NODE = struct.Struct("<IddII")
_ROW_CHANNEL = struct.Struct("<BIIIQdIIIIId")
_ROW_TRIAGE = struct.Struct("<ddIIBdId")
_ROW_GOVERNOR = struct.Struct("<BIdd")


@dataclass(frozen=True)
class ShardHooks:
    """Per-shard scheduler wiring built *inside* the worker process.

    A hook factory (see :class:`ShardedFleetRunner`) returns one of
    these per shard; the closures it carries never cross a process
    boundary, so they may capture anything.

    Attributes:
        link: Channel model between the shard's nodes and its gateway
            (``None`` = perfect link).  Use :class:`PerPatientLink` to
            keep channel draws shard-layout independent.
        record_transform: Signal-fault hook (scenario injection).
        governor_factory: Per-patient governor builder (governed runs).
        extra_load: Parasitic-watts hook (``battery_drain``).
        acuity_override: Forced-acuity hook (``governor_stress``).
    """

    link: UplinkChannel | None = None
    record_transform: RecordTransform | None = None
    governor_factory: GovernorFactory | None = None
    extra_load: ExtraLoad | None = None
    acuity_override: AcuityOverride | None = None


#: Builds the scenario wiring of one shard, inside the worker process.
#: Must be picklable (a module-level function or a ``functools.partial``
#: of one); receives the shard's patient stripe and the master seed.
#: Any randomness it sets up must be derived per *patient*, never per
#: shard, or the N-shard == 1-shard equivalence breaks.
ShardHookFactory = Callable[[list[PatientProfile], int], ShardHooks]


class PerPatientLink:
    """Demux adapter: one independent channel model per patient.

    A single shared link draws its RNG in global send order, which
    depends on who shares the shard — per-patient links keep every
    channel draw a pure function of ``(master seed, patient id)``, so
    outcomes are identical under any shard layout.  Implements the
    :class:`~repro.fleet.UplinkChannel` protocol by routing each packet
    to its patient's own link (built lazily by ``link_for``).

    Args:
        link_for: Returns the channel model of one patient id.
    """

    def __init__(self, link_for: Callable[[str], UplinkChannel]) -> None:
        self._link_for = link_for
        self._links: dict[str, UplinkChannel] = {}

    def _link(self, patient_id: str) -> UplinkChannel:
        """The (created-on-demand) channel of one patient."""
        if patient_id not in self._links:
            self._links[patient_id] = self._link_for(patient_id)
        return self._links[patient_id]

    def send(self, packet: UplinkPacket,
             now_s: float) -> list[UplinkPacket]:
        """Offer one packet to its patient's own channel."""
        return self._link(packet.patient_id).send(packet, now_s)

    def due(self, now_s: float) -> list[UplinkPacket]:
        """Due deliveries across every patient channel (id order)."""
        out: list[UplinkPacket] = []
        for patient_id in sorted(self._links):
            out.extend(self._links[patient_id].due(now_s))
        return out

    def drain(self) -> list[UplinkPacket]:
        """Everything still in flight, across every patient channel."""
        out: list[UplinkPacket] = []
        for patient_id in sorted(self._links):
            out.extend(self._links[patient_id].drain())
        return out

    def next_due_s(self) -> float | None:
        """Earliest in-flight delivery time across patient channels.

        ``None`` when nothing is in flight or no underlying link
        exposes a due time — the event kernel then falls back to its
        base-grid delivery sweeps.
        """
        dues = []
        for link in self._links.values():
            peek = getattr(link, "next_due_s", None)
            due = peek() if peek is not None else None
            if due is not None:
                dues.append(due)
        return min(dues) if dues else None

    def stats_for(self, patient_id: str) -> dict[str, int]:
        """Channel counters of one patient (empty before first send)."""
        link = self._links.get(patient_id)
        return dict(getattr(link, "stats", {}) or {}) if link else {}

    @property
    def stats(self) -> dict[str, int]:
        """Summed channel counters across every patient link."""
        totals: dict[str, int] = {}
        for link in self._links.values():
            for key, value in (getattr(link, "stats", {}) or {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals


@dataclass(frozen=True)
class ShardResult:
    """Decoded outcome of one shard worker.

    Attributes:
        shard_index: Position in the shard layout.
        packets_sent: Uplink packets offered by this shard's nodes.
        dropped: Packets lost to this shard gateway's bounded queue.
        timings_s: The shard scheduler's phase timings.
        rows: Per-patient rows, in the shard's cohort-stripe order.
        obs_bundle: The worker's observability snapshot bundle
            (metrics + trace + flight summary), ``None`` when the run
            was not observed.
    """

    shard_index: int
    packets_sent: int
    dropped: int
    timings_s: dict[str, float]
    rows: list[ShardPatientRow] = field(default_factory=list)
    obs_bundle: dict | None = None


def partition_cohort(cohort: list[PatientProfile],
                     n_shards: int) -> list[list[PatientProfile]]:
    """Round-robin patient stripes: shard ``i`` gets ``cohort[i::n]``.

    Striping balances heterogeneous patients (long AF records cost more
    than quiet sinus ones) better than contiguous chunks; the merge
    never depends on the layout, only on cohort order.

    Raises:
        ValueError: ``n_shards`` below 1, an empty cohort, or a patient
            id listed twice.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if not cohort:
        raise ValueError("cohort must not be empty")
    check_unique_ids(cohort)
    n_shards = min(n_shards, len(cohort))
    return [cohort[i::n_shards] for i in range(n_shards)]


def _pack_counter(counts: dict) -> bytes:
    """Serialize a small str -> int counter (u16 count, i64 values)."""
    parts = [struct.pack("<H", len(counts))]
    for key, value in counts.items():
        parts.append(_pack_str(key))
        parts.append(struct.pack("<q", int(value)))
    return b"".join(parts)


def _unpack_counter(buf: memoryview,
                    offset: int) -> tuple[dict[str, int], int]:
    """Inverse of :func:`_pack_counter`."""
    (count,) = struct.unpack_from("<H", buf, offset)
    offset += 2
    out: dict[str, int] = {}
    for _ in range(count):
        key, offset = _unpack_str(buf, offset)
        (value,) = struct.unpack_from("<q", buf, offset)
        out[key] = value
        offset += 8
    return out, offset


def _pack_float_map(values: dict) -> bytes:
    """Serialize a str -> float map preserving insertion order."""
    parts = [struct.pack("<H", len(values))]
    for key, value in values.items():
        parts.append(_pack_str(key))
        parts.append(struct.pack("<d", float(value)))
    return b"".join(parts)


def _unpack_float_map(buf: memoryview,
                      offset: int) -> tuple[dict[str, float], int]:
    """Inverse of :func:`_pack_float_map` (order preserved)."""
    (count,) = struct.unpack_from("<H", buf, offset)
    offset += 2
    out: dict[str, float] = {}
    for _ in range(count):
        key, offset = _unpack_str(buf, offset)
        (value,) = struct.unpack_from("<d", buf, offset)
        out[key] = value
        offset += 8
    return out, offset


def encode_shard_result(result: ShardResult) -> bytes:
    """Serialize one shard outcome to its binary blob."""
    timings = result.timings_s
    parts = [_SHARD_HEAD.pack(
        SHARD_MAGIC, SHARD_VERSION, result.shard_index,
        result.packets_sent, result.dropped,
        timings.get("synthesis+node", 0.0),
        timings.get("uplink+gateway", 0.0),
        timings.get("total", 0.0),
        len(result.rows))]
    for row in result.rows:
        parts.append(_pack_str(row.patient_id))
        parts.append(_ROW_NODE.pack(row.n_node_alarms,
                                    row.average_power_w,
                                    row.battery_days, row.n_sent,
                                    row.n_reconstructed))
        channel = row.channel
        if channel is None:
            parts.append(struct.pack("<B", 0))
        else:
            parts.append(_ROW_CHANNEL.pack(
                1, channel.n_excerpts, channel.n_alarms,
                channel.n_confirmed, channel.payload_bits,
                channel.last_timestamp_s, channel.n_duplicates,
                channel.n_out_of_order, channel.n_gaps,
                channel.n_late_recovered, channel.n_telemetry,
                channel.last_soc))
            parts.append(_pack_str(channel.last_mode))
            snrs = np.asarray(channel.snrs, dtype=np.float64)
            parts.append(struct.pack("<I", snrs.shape[0]))
            parts.append(snrs.tobytes())
        triage = row.triage
        parts.append(_pack_str(triage.state))
        parts.append(_ROW_TRIAGE.pack(
            triage.since_s, triage.last_event_s, triage.n_alerts,
            triage.n_watches, int(triage.stale), triage.last_seen_s,
            triage.n_stale_events, triage.soc))
        parts.append(_pack_str(triage.mode))
        parts.append(_ROW_GOVERNOR.pack(
            int(row.governed), row.governor_switches, row.final_soc,
            row.projected_hours))
        parts.append(_pack_float_map(row.mode_seconds))
        parts.append(_pack_counter(row.link_stats))
    # v2 trailer: the worker's observability bundle as canonical JSON
    # (u32 length prefix; zero when the run was not observed).
    obs_json = (b"" if result.obs_bundle is None
                else json.dumps(result.obs_bundle, sort_keys=True,
                                separators=(",", ":")).encode("utf-8"))
    parts.append(struct.pack("<I", len(obs_json)))
    parts.append(obs_json)
    return b"".join(parts)


def decode_shard_result(data: bytes | bytearray | memoryview) -> ShardResult:
    """Parse a shard blob back into a :class:`ShardResult`.

    SNR buffers are boxed into owned ``list[float]`` (the live-gateway
    channel shape), so nothing decoded refers back to ``data``.

    Raises:
        WireFormatError: Bad magic, version mismatch, truncation or a
            non-UTF-8 string field.
    """
    buf = memoryview(data)
    if len(buf) < _SHARD_HEAD.size:
        raise WireFormatError("truncated shard result: header missing")
    (magic, version, shard_index, packets_sent, dropped, t_node,
     t_gateway, t_total, n_rows) = _SHARD_HEAD.unpack_from(buf, 0)
    if magic != SHARD_MAGIC:
        raise WireFormatError(f"bad shard magic {magic!r}")
    if version != SHARD_VERSION:
        raise WireFormatError(f"unsupported shard version {version}")
    offset = _SHARD_HEAD.size
    rows: list[ShardPatientRow] = []
    try:
        for _ in range(n_rows):
            patient_id, offset = _unpack_str(buf, offset)
            (n_node_alarms, average_power_w, battery_days, n_sent,
             n_reconstructed) = _ROW_NODE.unpack_from(buf, offset)
            offset += _ROW_NODE.size
            (has_channel,) = struct.unpack_from("<B", buf, offset)
            channel: PatientChannel | None = None
            if has_channel:
                (_, n_excerpts, n_alarms, n_confirmed, payload_bits,
                 last_timestamp_s, n_duplicates, n_out_of_order, n_gaps,
                 n_late_recovered, n_telemetry,
                 last_soc) = _ROW_CHANNEL.unpack_from(buf, offset)
                offset += _ROW_CHANNEL.size
                last_mode, offset = _unpack_str(buf, offset)
                (n_snrs,) = struct.unpack_from("<I", buf, offset)
                offset += 4
                if offset + 8 * n_snrs > len(buf):
                    raise WireFormatError(
                        "truncated shard result: SNR buffer")
                snrs = np.frombuffer(
                    buf[offset:offset + 8 * n_snrs],
                    dtype=np.float64).tolist()
                offset += 8 * n_snrs
                channel = PatientChannel(
                    patient_id=patient_id, n_excerpts=n_excerpts,
                    n_alarms=n_alarms, n_confirmed=n_confirmed,
                    payload_bits=payload_bits,
                    last_timestamp_s=last_timestamp_s,
                    n_duplicates=n_duplicates,
                    n_out_of_order=n_out_of_order, n_gaps=n_gaps,
                    n_late_recovered=n_late_recovered,
                    snrs=snrs,
                    n_telemetry=n_telemetry, last_mode=last_mode,
                    last_soc=last_soc)
            else:
                offset += 1
            state, offset = _unpack_str(buf, offset)
            (since_s, last_event_s, n_alerts, n_watches, stale,
             last_seen_s, n_stale_events,
             soc) = _ROW_TRIAGE.unpack_from(buf, offset)
            offset += _ROW_TRIAGE.size
            mode, offset = _unpack_str(buf, offset)
            triage = PatientTriage(
                patient_id=patient_id, state=state, since_s=since_s,
                last_event_s=last_event_s, n_alerts=n_alerts,
                n_watches=n_watches, stale=bool(stale),
                last_seen_s=last_seen_s, n_stale_events=n_stale_events,
                soc=soc, mode=mode)
            (governed, governor_switches, final_soc,
             projected_hours) = _ROW_GOVERNOR.unpack_from(buf, offset)
            offset += _ROW_GOVERNOR.size
            mode_seconds, offset = _unpack_float_map(buf, offset)
            link_stats, offset = _unpack_counter(buf, offset)
            rows.append(ShardPatientRow(
                patient_id=patient_id, n_sent=n_sent,
                n_reconstructed=n_reconstructed,
                n_node_alarms=n_node_alarms,
                average_power_w=average_power_w,
                battery_days=battery_days, channel=channel,
                triage=triage, governed=bool(governed),
                mode_seconds=mode_seconds,
                governor_switches=governor_switches,
                final_soc=final_soc, projected_hours=projected_hours,
                link_stats=link_stats))
        (obs_len,) = struct.unpack_from("<I", buf, offset)
        offset += 4
    except struct.error as exc:
        raise WireFormatError("truncated shard result") from exc
    obs_bundle: dict | None = None
    if obs_len:
        if offset + obs_len > len(buf):
            raise WireFormatError(
                "truncated shard result: observability bundle")
        try:
            obs_bundle = json.loads(
                bytes(buf[offset:offset + obs_len]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(
                "corrupt shard observability bundle") from exc
        offset += obs_len
    if offset != len(buf):
        raise WireFormatError(
            f"{len(buf) - offset} trailing bytes after shard result")
    return ShardResult(
        shard_index=shard_index, packets_sent=packets_sent,
        dropped=dropped,
        timings_s={"synthesis+node": t_node, "uplink+gateway": t_gateway,
                   "total": t_total},
        rows=rows, obs_bundle=obs_bundle)


def merge_patient_rows(cohort: list[PatientProfile],
                       rows: dict[str, ShardPatientRow],
                       gateway_config: GatewayConfig,
                       duration_s: float, fs: float,
                       dropped: int = 0) -> FleetSummary:
    """Fold per-patient rows (in cohort order) into one fleet summary.

    The merge of the sharded runner, the gateway service and the
    journal replayer: it hands the rows **in cohort order** to the
    :func:`~repro.fleet.triage.fleet_summary` the in-process scheduler
    folds its own rows with, so correct rows give the in-process bytes.

    Args:
        cohort: Patient profiles in canonical (merge) order.
        rows: One :class:`ShardPatientRow` per cohort member.
        gateway_config: Unused: the rows carry everything the fold
            reads.  Kept for the callers that pass it positionally.
        duration_s: Simulated duration each row covers.
        fs: Unused, like ``gateway_config``.
        dropped: Bounded-queue drops summed across every worker.

    Raises:
        ValueError: A patient id is listed twice in ``cohort``.
        WireFormatError: A cohort member has no row.
    """
    check_unique_ids(cohort)
    missing = [p.patient_id for p in cohort if p.patient_id not in rows]
    if missing:
        raise WireFormatError(
            f"shard results missing patients: {missing[:5]}")
    return fleet_summary([rows[p.patient_id] for p in cohort], duration_s,
                         dropped=dropped)


@dataclass
class ShardedFleetReport:
    """Outcome of one sharded fleet run.

    Attributes:
        summary: The merged fleet summary — byte-identical
            (:meth:`~repro.fleet.FleetSummary.to_json`) across shard
            counts.
        n_shards: Shard layout actually used.
        packets_sent: Uplink packets offered across every shard.
        dropped_packets: Bounded-queue drops across every shard.
        rows: Per-patient rows in cohort order (what the scenario
            campaign folds).
        shard_timings_s: Each shard scheduler's phase timings.
        timings_s: Parent-side wall clock (``total`` spans fork to
            merge).
        obs_bundle: Merged observability bundle across every shard
            plus the parent's merge-cost gauges (``None`` when the run
            was not observed).
    """

    summary: FleetSummary
    n_shards: int
    packets_sent: int
    dropped_packets: int
    rows: dict[str, ShardPatientRow] = field(default_factory=dict)
    shard_timings_s: list[dict[str, float]] = field(default_factory=list)
    timings_s: dict[str, float] = field(default_factory=dict)
    obs_bundle: dict | None = None

    @property
    def patients_per_second(self) -> float:
        """End-to-end fleet throughput of this run."""
        total = self.timings_s.get("total", 0.0)
        return (self.summary.n_patients / total if total > 0
                else float("nan"))

    def canonical_obs_json(self) -> str:
        """Byte-stable fleet-scope view of the merged observability.

        The shard-equivalence surface for metrics and traces: for the
        same master seed this string is byte-identical across shard
        counts and equal to
        :meth:`~repro.obs.Observability.canonical_json` of a plain
        in-process run.

        Raises:
            ValueError: The run was not observed (no ``obs_config``).
        """
        if self.obs_bundle is None:
            raise ValueError("run was not observed: pass obs_config to "
                             "ShardedFleetRunner")
        return canonical_bundle_json(canonical_view(self.obs_bundle))


#: Thread-count setters of the OpenBLAS builds numpy (64-bit ints)
#: and scipy (32-bit) ship, then those of a plain OpenBLAS.
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_",
                     "openblas_set_num_threads")


def _openblas_libraries() -> dict[str, ctypes.CDLL]:
    """Every OpenBLAS mapped into this process, by path.

    Empty without ``/proc`` (non-Linux) or without OpenBLAS.
    """
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and ".so" in line}
    libs = {}
    for path in sorted(paths):
        try:
            libs[path] = ctypes.CDLL(path)
        except OSError:
            continue
    return libs


def _pin_blas_threads() -> None:
    """Pool initializer: run every loaded OpenBLAS on one thread.

    The shard workers already share out the cores; a BLAS thread pool
    per worker on top oversubscribes them, and the run's wall time then
    swings with how the threads collide.  OpenBLAS reads its
    environment variables once, when it is loaded, so a forked worker
    calls each mapped library's ``set_num_threads`` through ctypes
    instead.
    """
    for lib in _openblas_libraries().values():
        for symbol in _BLAS_SET_THREADS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _shard_pool(n_workers: int) -> ProcessPoolExecutor:
    """Worker pool of a sharded run, BLAS pinned to one thread each."""
    return ProcessPoolExecutor(max_workers=n_workers,
                               initializer=_pin_blas_threads)


def _run_shard(shard_index: int, profiles: list[PatientProfile],
               config: SchedulerConfig, node_config: NodeProxyConfig,
               gateway_config: GatewayConfig, master_seed: int,
               hook_factory: ShardHookFactory | None,
               af_detector: AfDetector | None,
               obs_config: ObsConfig | None = None,
               journal_config=None, n_shards: int = 1,
               transport_spec: str = "pickle") -> bytes:
    """Worker body: run one shard's scheduler, publish its wire blob.

    Module-level so a :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle the call; every argument is a plain dataclass (or a
    picklable callable).  The return value is a transport *handle*
    (:mod:`repro.fleet.transport`): with the pickle backend it inlines
    the blob, with the shared-memory backend the blob is parked in
    segment ``<prefix>.s<shard_index>`` and only the ~40-byte handle
    crosses the process boundary.
    The live :class:`~repro.obs.Observability` bundle is built *here*
    from the picklable ``obs_config`` and returns as a JSON snapshot in
    the blob's v2 trailer.

    With a ``journal_config``
    (:class:`~repro.fleet.journal.JournalConfig`), the worker writes
    its stripe's transcript to the per-shard journal
    (``config.for_shard(shard_index)``), stamping each patient's
    ``hello`` with its *global* cohort index (stripe ``i`` of ``n``
    holds ``cohort[i::n]``, so local slot ``j`` is global ``i + j*n``)
    — which is how a replayer of all N journals recovers the full
    cohort order without being told it.
    """
    hooks = (hook_factory(profiles, master_seed)
             if hook_factory is not None else ShardHooks())
    obs = Observability.from_config(obs_config)
    journal = None
    if journal_config is not None:
        # Deferred import: the journal module imports this one for the
        # merge path, so sharding must not import it at module scope.
        from .journal import JournalWriter, journal_meta

        journal = JournalWriter(
            journal_config.for_shard(shard_index),
            meta=journal_meta(config.duration_s, config.fs,
                              gateway_config),
            obs=obs, resume=False)
    indexes = {profile.patient_id: shard_index + j * n_shards
               for j, profile in enumerate(profiles)}
    scheduler = FleetScheduler(
        profiles, config, node_config=node_config,
        gateway=Gateway(gateway_config, obs=obs),
        af_detector=af_detector,
        link=hooks.link, record_transform=hooks.record_transform,
        governor_factory=hooks.governor_factory,
        extra_load=hooks.extra_load,
        acuity_override=hooks.acuity_override, obs=obs,
        journal=journal, journal_indexes=indexes)
    try:
        fleet = scheduler.run()
    finally:
        if journal is not None:
            journal.close()
    if obs is not None:
        wall = obs.metrics.gauge(
            "shard_wall_seconds",
            "Wall-clock seconds per phase of one shard scheduler.",
            scope=SCOPE_SHARD)
        for phase, seconds in fleet.timings_s.items():
            wall.set(seconds, shard=str(shard_index), phase=phase)
        obs.metrics.gauge(
            "shard_virtual_seconds",
            "Simulated seconds covered by one shard scheduler.",
            scope=SCOPE_SHARD).set(config.duration_s,
                                   shard=str(shard_index))
    result = ShardResult(
        shard_index=shard_index,
        packets_sent=fleet.packets_sent,
        dropped=scheduler.gateway.dropped,
        timings_s=dict(fleet.timings_s),
        rows=list(fleet.rows.values()),
        obs_bundle=(obs.snapshot_bundle() if obs is not None else None))
    transport = make_transport(transport_spec)
    return transport.publish(encode_shard_result(result),
                             f"s{shard_index}")


class ShardedFleetRunner:
    """Partition a cohort across worker processes and merge the run.

    Args:
        cohort: Patient profiles, in the order the merge preserves.
        n_shards: Worker processes (capped at the cohort size;
            ``1`` runs the single stripe inline, no pool).  Pool
            workers run BLAS on one thread each.
        config: Scheduler parameters shared by every shard.
        node_config: Uplink policy shared by every node.
        gateway_config: Per-shard gateway parameters.
        master_seed: Seed handed to the hook factory; per-patient
            streams must derive from it plus the patient id.
        hook_factory: Optional per-shard scenario wiring (see
            :data:`ShardHookFactory`); must be picklable.
        af_detector: Trained fleet AF detector (pickled to workers).
        obs_config: Optional :class:`~repro.obs.ObsConfig`.  Each
            worker builds its own :class:`~repro.obs.Observability`
            bundle from it and ships a snapshot home in the blob; the
            parent merges them (plus its own merge-cost gauges) into
            :attr:`ShardedFleetReport.obs_bundle`.
        journal: Optional :class:`~repro.fleet.journal.JournalConfig`.
            Each worker writes its stripe's transcript to the derived
            per-shard journal (``journal.for_shard(i)``); replaying all
            N journals merged reproduces this run's summary
            byte-identically (see :mod:`repro.fleet.journal`).
        transport: Shard-result fabric spec
            (:func:`~repro.fleet.transport.make_transport`):
            ``"auto"`` (shared memory where available, else pickle),
            ``"pickle"`` or ``"shared_memory"``.  The choice never
            affects the merged summary — only how the blobs travel.
    """

    def __init__(self, cohort: list[PatientProfile], n_shards: int = 4,
                 config: SchedulerConfig | None = None,
                 node_config: NodeProxyConfig | None = None,
                 gateway_config: GatewayConfig | None = None,
                 master_seed: int = 2014,
                 hook_factory: ShardHookFactory | None = None,
                 af_detector: AfDetector | None = None,
                 obs_config: ObsConfig | None = None,
                 journal=None, transport: str = "auto") -> None:
        self.transport = transport
        self.shards = partition_cohort(cohort, n_shards)
        self.cohort = list(cohort)
        self.config = config or SchedulerConfig()
        self.node_config = node_config or NodeProxyConfig()
        self.gateway_config = gateway_config or GatewayConfig()
        self.master_seed = master_seed
        self.hook_factory = hook_factory
        self.af_detector = af_detector
        self.obs_config = obs_config
        self.journal = journal

    @property
    def n_shards(self) -> int:
        """Shard layout actually used (cohort-size capped)."""
        return len(self.shards)

    def run(self) -> ShardedFleetReport:
        """Run every shard, decode the blobs and merge in cohort order.

        Shard results come home over the configured
        :class:`~repro.fleet.transport.ShardTransport`: the parent
        pre-registers every expected segment tag, decodes each
        published blob into owned rows and unlinks every segment in a
        ``finally`` — so a worker crash or a ``KeyboardInterrupt``
        mid-run leaves no orphan segment behind.
        """
        t_start = time.perf_counter()
        transport = make_transport(self.transport)
        tasks = [(i, profiles, self.config, self.node_config,
                  self.gateway_config, self.master_seed,
                  self.hook_factory, self.af_detector, self.obs_config,
                  self.journal, len(self.shards), transport.spec)
                 for i, profiles in enumerate(self.shards)]
        try:
            for i in range(len(tasks)):
                transport.expect(f"s{i}")
            if len(tasks) == 1:
                handles = [_run_shard(*tasks[0])]
            else:
                with _shard_pool(len(tasks)) as pool:
                    futures = [pool.submit(_run_shard, *task)
                               for task in tasks]
                    handles = [future.result() for future in futures]
            results = [decode_shard_result(transport.open(handle).view)
                       for handle in handles]
        finally:
            transport.close()
        t_merge = time.perf_counter()
        report = self._merge(results)
        if self.obs_config is not None:
            report.obs_bundle = self._merge_obs(
                results, time.perf_counter() - t_merge)
        report.timings_s["total"] = time.perf_counter() - t_start
        return report

    def _merge_obs(self, results: list[ShardResult],
                   merge_seconds: float) -> dict:
        """Fold worker bundles with the parent's shard-scope gauges."""
        parent = Observability(ObsConfig(trace=False))
        parent.metrics.gauge(
            "shard_merge_seconds",
            "Parent-side wall seconds to merge shard results.",
            scope=SCOPE_SHARD).set(merge_seconds)
        parent.metrics.gauge(
            "shard_count", "Shard layout of this run.",
            scope=SCOPE_SHARD).set(float(len(results)))
        ordered = sorted(results, key=lambda r: r.shard_index)
        bundles = [r.obs_bundle for r in ordered
                   if r.obs_bundle is not None]
        bundles.append(parent.snapshot_bundle())
        return merge_bundles(bundles)

    def _merge(self, results: list[ShardResult]) -> ShardedFleetReport:
        """Fold decoded shard results into one fleet view.

        Delegates to :func:`merge_patient_rows` — the merge path shared
        with the socket gateway service — so equivalence is structural,
        not coincidental.
        """
        rows: dict[str, ShardPatientRow] = {}
        for result in results:
            for row in result.rows:
                rows[row.patient_id] = row
        dropped = sum(r.dropped for r in results)
        summary = merge_patient_rows(
            self.cohort, rows, self.gateway_config,
            self.config.duration_s, self.config.fs, dropped=dropped)
        return ShardedFleetReport(
            summary=summary,
            n_shards=len(self.shards),
            packets_sent=sum(r.packets_sent for r in results),
            dropped_packets=dropped,
            rows={p.patient_id: rows[p.patient_id]
                  for p in self.cohort},
            shard_timings_s=[r.timings_s for r in
                             sorted(results,
                                    key=lambda r: r.shard_index)],
        )
