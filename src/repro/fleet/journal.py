"""Durable gateway packet journal with crash-safe, byte-identical replay.

The journal is an append-only, segment-rotated on-disk log of the exact
wire frames a :class:`~repro.fleet.gateway.Gateway` ingests, interleaved
with the control messages (`expire` / `drain` / `sweep` / `flush` /
`period` / `report`) that the scheduler or a served session applied to
it.  Because the serve protocol already *is* a total description of a
fleet run — PR 8 proved `run_served_fleet` byte-identical to the
in-process engine — a journal that records stream frames in their
arrival order is a complete, replayable transcript of the run.

Layout (all integers little-endian):

* segment file ``{name}-{index:06d}.rpj``:
  ``b"RPJ1" | u8 version | u8 flags | u32 segment_index | f64 base_t_s
  | u8 base_prio | u8-len name | u32 meta_len | meta JSON`` followed by
  records.
* record: ``u32 length | u32 CRC32(body) | body`` where the body is
  ``f64 t_s | u8 prio | u16 subject_len | subject utf-8 | frame``.

``(t_s, prio)`` is the writer's monotone virtual-time stamp: control
records advance a global clock clamped to never run backwards, packet
records inherit the current clock.  Stamps are non-decreasing in file
order, so merging N shard journals by ``(t_s, prio, journal, ordinal)``
re-sorts the cohort into the kernel's total event order while keeping
each journal's own record order intact.

Recovery: opening a writer over an existing journal scans the last
segment, truncates a torn tail record (a crash loses at most one
partial record), and resumes appending.  Any *corrupt* record — CRC
mismatch, impossible length, undecodable body — raises
:class:`JournalError`; the journal never yields a wrong packet.

:class:`JournalReplayer` streams one or more journals back through
fresh per-patient :class:`GatewaySession` cores (the same construction
the serve layer uses), each of which turns its journaled ``report``
into a row with ``row_from_report``, and folds the rows with
``merge_patient_rows``, producing a ``FleetSummary`` whose ``to_json``
is byte-identical to the original live run.
"""

from __future__ import annotations

import heapq
import json
import numbers
import os
import re
import threading
import zlib
from dataclasses import dataclass, field, replace
from math import isfinite
from pathlib import Path
from struct import Struct
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from .cohort import check_unique_ids
from .gateway import Gateway, GatewayConfig, check_geometry, recover_packets
from .kernel import PRIO_DRAIN, PRIO_REASSEMBLY, PRIO_TRIAGE
from .node_proxy import UplinkPacket
from .sharding import merge_patient_rows
from .triage import ShardPatientRow, TriageBoard, row_from_report
from .wire import (
    MAX_FRAME_BYTES,
    ServeMessage,
    WireFormatError,
    _count_field,
    decode_message,
    decode_packet,
    encode_message,
    frame_kind,
)

__all__ = [
    "GatewaySession",
    "JournalConfig",
    "JournalError",
    "JournalReader",
    "JournalRecord",
    "JournalReplayer",
    "JournalWriter",
    "ReplayReport",
    "journal_meta",
]

#: Magic prefix of every journal segment file.
JOURNAL_MAGIC = b"RPJ1"
#: Version byte stamped into (and required of) every segment header.
JOURNAL_VERSION = 1
#: Hard ceiling on a single record: the wire frame limit plus headroom
#: for the record body prefix.  Anything larger is corruption.
MAX_RECORD_BYTES = MAX_FRAME_BYTES + 1024

_SEG_HEAD = Struct("<4sBBIdB")  # magic, version, flags, index, base_t_s, base_prio
_REC_HEAD = Struct("<II")  # length, crc32
_BODY_HEAD = Struct("<dBH")  # t_s, prio, subject_len
_U32 = Struct("<I")

#: Virtual-time priority a journaled control message advances the
#: writer clock to.  Mirrors the kernel phase priorities so merged
#: journals re-sort into the kernel's total event order.
_KIND_PRIO = {
    "hello": 0,
    "period": 0,
    "expire": PRIO_REASSEMBLY,
    "flush": PRIO_REASSEMBLY,
    "drain": PRIO_DRAIN,
    "sweep": PRIO_TRIAGE,
    "report": PRIO_TRIAGE,
    "stats": PRIO_TRIAGE,
}

#: CS windows a replay reads ahead of its drains: each chunk of the
#: record stream is decoded and its frames recovered together, one
#: ``recover_batch`` per encoder geometry, before its records replay.
_LOOKAHEAD_WINDOWS = 128
#: Most records one lookahead chunk holds, so a stretch of journal with
#: few or no CS frames (raw or telemetry uplink) stays bounded too.
_LOOKAHEAD_RECORDS = 1024

#: Message kinds a served session journals (client-driven protocol
#: traffic that mutates gateway/board state).  ``hello``/``bye`` are
#: connection plumbing consumed by the server and never reach a
#: session; replies are derived state.
SESSION_JOURNALED_KINDS = frozenset(
    {"expire", "drain", "sweep", "flush", "period", "report"}
)


class JournalError(RuntimeError):
    """A journal is corrupt, incomplete, or used inconsistently."""


def _meta_value(reader: JournalReader, key: str):
    """``key`` from ``reader``'s metadata, with a removed gateway field dropped.

    Older journals store ``"reassembly_grace_s": null`` (sweep counting,
    the one stall policy left); any other value would replay differently.
    """
    value = reader.meta.get(key)
    if key == "gateway" and isinstance(value, dict) and "reassembly_grace_s" in value:
        value = dict(value)
        grace = value.pop("reassembly_grace_s")
        if grace is not None:
            raise JournalError(
                f"gateway reassembly_grace_s={grace!r:.40}: the time-based "
                "stall grace no longer exists"
            )
    return value


def _run_param(readers: list[JournalReader], key: str, given):
    """One run parameter of a replay: ``given``, else the journal metadata.

    Raises:
        JournalError: Naming ``key``: the sources' metadata disagree, or
            the value is unusable (see :class:`JournalReplayer`).
    """
    metas = [_meta_value(reader, key) for reader in readers]
    if len({json.dumps(meta, sort_keys=True) for meta in metas}) > 1:
        names = ", ".join(repr(r.config.name) for r in readers)
        raise JournalError(f"journals {names} disagree on {key}")
    value = metas[0] if given is None else given
    if key == "gateway":
        if value is None:
            return GatewayConfig()
        if isinstance(value, GatewayConfig):
            return value
        if isinstance(value, dict):
            try:
                return GatewayConfig(**value)
            except (TypeError, ValueError) as exc:
                raise JournalError(f"gateway {exc}") from None
        raise JournalError(
            f"gateway must be a mapping of GatewayConfig fields, got {value!r:.80}"
        )
    if value is None:
        raise JournalError(f"{key} is neither in the journal metadata nor given")
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not isfinite(value)
        or value <= 0
    ):
        raise JournalError(f"{key} must be a finite number > 0, got {value!r:.80}")
    return value


def journal_meta(
    duration_s: float | None = None,
    fs: float | None = None,
    gateway: GatewayConfig | None = None,
) -> dict:
    """Build the segment-header metadata dict for a journal writer.

    Only the keys the caller actually knows are included; a replayer
    falls back to explicit arguments for anything missing (a served
    journal, for instance, cannot know the client-side schedule).
    """
    meta: dict = {}
    if duration_s is not None:
        meta["duration_s"] = float(duration_s)
    if fs is not None:
        meta["fs"] = float(fs)
    if gateway is not None:
        from dataclasses import asdict

        meta["gateway"] = asdict(gateway)
    return meta


@dataclass(frozen=True)
class JournalConfig:
    """Where and how a journal is written.

    Frozen and picklable so it can ride through ``ServeConfig``, the
    shard worker pool, and ``CampaignConfig`` untouched.
    """

    #: Directory holding the segment files (created on demand).
    dir: str
    #: Logical journal name; segment files are ``{name}-{i:06d}.rpj``.
    name: str = "journal"
    #: Rotate to a new segment once the current one reaches this size.
    segment_bytes: int = 64 * 1024 * 1024
    #: fsync after every appended record (durable but slow).
    fsync: bool = False

    def __post_init__(self):
        if not self.dir:
            raise ValueError("journal dir must be a non-empty path")
        if not self.name or len(self.name) > 80:
            raise ValueError("journal name must be 1..80 characters")
        if os.sep in self.name or "/" in self.name:
            raise ValueError("journal name must not contain path separators")
        if self.segment_bytes < 4096:
            raise ValueError("segment_bytes must be at least 4096")

    def for_shard(self, shard_index: int) -> "JournalConfig":
        """Derive the per-shard journal config used by the shard pool."""
        return replace(self, name=f"{self.name}-s{shard_index:02d}")

    def segment_path(self, index: int) -> Path:
        """Path of segment ``index`` under this config."""
        return Path(self.dir) / f"{self.name}-{index:06d}.rpj"

    def segment_paths(self) -> list[Path]:
        """Existing segment files for this journal, in index order."""
        pattern = re.compile(rf"^{re.escape(self.name)}-(\d{{6}})\.rpj$")
        root = Path(self.dir)
        if not root.is_dir():
            return []
        found = [p for p in root.iterdir() if pattern.match(p.name)]
        return sorted(found, key=lambda p: p.name)


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record: a stamped wire frame."""

    #: Virtual-time stamp the writer assigned (monotone in file order).
    t_s: float
    #: Kernel phase priority component of the stamp.
    prio: int
    #: Patient id the frame belongs to ("" = cohort-wide control).
    subject: str
    #: The wire frame (packet frame or encoded ServeMessage).
    frame: bytes


@dataclass(frozen=True)
class _SegmentHeader:
    """Decoded segment header fields."""

    version: int
    flags: int
    index: int
    base_t_s: float
    base_prio: int
    name: str
    meta: dict


def _encode_header(
    index: int, base: tuple[float, int], name: str, meta: dict
) -> bytes:
    """Serialize a segment header."""
    raw_name = name.encode("utf-8")
    if len(raw_name) > 255:
        raise JournalError("journal name too long for header")
    meta_raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    head = _SEG_HEAD.pack(
        JOURNAL_MAGIC, JOURNAL_VERSION, 0, index, base[0], base[1]
    )
    return (
        head
        + bytes([len(raw_name)])
        + raw_name
        + _U32.pack(len(meta_raw))
        + meta_raw
    )


def _decode_header(buf: bytes, path: Path) -> tuple[_SegmentHeader, int]:
    """Parse a segment header; raise :class:`JournalError` on any defect."""
    try:
        magic, version, flags, index, base_t, base_prio = _SEG_HEAD.unpack_from(
            buf, 0
        )
        offset = _SEG_HEAD.size
        name_len = buf[offset]
        offset += 1
        raw_name = bytes(buf[offset : offset + name_len])
        if len(raw_name) != name_len:
            raise JournalError(f"{path}: truncated segment header")
        offset += name_len
        (meta_len,) = _U32.unpack_from(buf, offset)
        offset += _U32.size
        meta_raw = bytes(buf[offset : offset + meta_len])
        if len(meta_raw) != meta_len:
            raise JournalError(f"{path}: truncated segment header metadata")
        offset += meta_len
        if magic != JOURNAL_MAGIC:
            raise JournalError(f"{path}: bad journal magic {magic!r}")
        if version != JOURNAL_VERSION:
            raise JournalError(f"{path}: unsupported journal version {version}")
        name = raw_name.decode("utf-8")
        meta = json.loads(meta_raw.decode("utf-8")) if meta_raw else {}
        if not isinstance(meta, dict):
            raise JournalError(f"{path}: segment metadata is not an object")
    except JournalError:
        raise
    except (IndexError, ValueError, UnicodeDecodeError, Exception) as exc:
        raise JournalError(f"{path}: corrupt segment header: {exc}") from exc
    header = _SegmentHeader(version, flags, index, base_t, base_prio, name, meta)
    return header, offset


def _decode_body(
    body: bytes | memoryview, path: Path, offset: int
) -> JournalRecord:
    """Parse a record body; raise :class:`JournalError` on any defect."""
    if len(body) < _BODY_HEAD.size:
        raise JournalError(
            f"{path}: record body at byte {offset} too short ({len(body)} B)"
        )
    t_s, prio, subject_len = _BODY_HEAD.unpack_from(body, 0)
    start = _BODY_HEAD.size
    subject_raw = bytes(body[start : start + subject_len])
    if len(subject_raw) != subject_len:
        raise JournalError(
            f"{path}: record subject at byte {offset} overruns the body"
        )
    frame = bytes(body[start + subject_len :])
    if not frame:
        raise JournalError(f"{path}: record at byte {offset} has an empty frame")
    try:
        subject = subject_raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise JournalError(
            f"{path}: record subject at byte {offset} is not utf-8"
        ) from exc
    return JournalRecord(t_s, prio, subject, frame)


class _SegmentScan:
    """Strict sequential scan of one segment file.

    Distinguishes a *torn tail* (a record prefix at end-of-file — the
    footprint of a crashed append, recoverable by truncation) from
    *corruption* (CRC mismatch, impossible length, bad body — never
    recoverable, always :class:`JournalError`).  ``tolerate_torn`` is
    only true for the final segment: earlier segments were sealed by a
    rotation and a short tail there is corruption, not a crash.
    """

    def __init__(self, path: Path, tolerate_torn: bool):
        self.path = path
        self.tolerate_torn = tolerate_torn
        try:
            self.data = path.read_bytes()
        except OSError as exc:
            raise JournalError(f"{path}: unreadable segment: {exc}") from exc
        self.header, self._start = _decode_header(self.data, path)
        self.valid_end = self._start
        self.torn_bytes = 0
        self.last_stamp = (self.header.base_t_s, self.header.base_prio)
        self.n_records = 0

    def _torn(self, offset: int) -> None:
        remainder = len(self.data) - offset
        if not self.tolerate_torn:
            raise JournalError(
                f"{self.path}: torn record ({remainder} B) inside a sealed "
                "segment"
            )
        self.valid_end = offset
        self.torn_bytes = remainder

    def records(self) -> Iterator[JournalRecord]:
        """Yield whole records; classify any tail per the class docs."""
        buf = memoryview(self.data)
        offset = self._start
        size = len(buf)
        while True:
            remainder = size - offset
            if remainder == 0:
                self.valid_end = offset
                return
            if remainder < _REC_HEAD.size:
                self._torn(offset)
                return
            length, crc = _REC_HEAD.unpack_from(buf, offset)
            if length == 0:
                raise JournalError(
                    f"{self.path}: zero-length record at byte {offset}"
                )
            if length > MAX_RECORD_BYTES:
                if _REC_HEAD.size + length <= remainder:
                    raise JournalError(
                        f"{self.path}: oversized record ({length} B) at "
                        f"byte {offset}"
                    )
                self._torn(offset)
                return
            if _REC_HEAD.size + length > remainder:
                self._torn(offset)
                return
            body = buf[offset + _REC_HEAD.size : offset + _REC_HEAD.size + length]
            if zlib.crc32(body) != crc:
                raise JournalError(
                    f"{self.path}: CRC mismatch at byte {offset}"
                )
            record = _decode_body(body, self.path, offset)
            offset += _REC_HEAD.size + length
            self.valid_end = offset
            self.n_records += 1
            self.last_stamp = (record.t_s, record.prio)
            yield record


class JournalWriter:
    """Append-only, segment-rotated journal writer.

    Thread-safe (a served gateway's loop appends while callers read
    :meth:`stats`).  ``resume``
    (the default) recovers an existing journal — truncating a torn
    tail record and continuing where the crashed writer stopped;
    ``resume=False`` deletes any prior segments and starts fresh.

    The ``write_hook`` attribute is a crash-injection seam: when set,
    each whole record's bytes are passed through it (one call per
    record) instead of ``file.write``, so a test can emulate a power
    cut mid-append.
    """

    def __init__(
        self,
        config: JournalConfig,
        meta: dict | None = None,
        obs=None,
        resume: bool = True,
    ):
        self.config = config
        self.meta = dict(meta or {})
        self.obs = obs
        #: Optional replacement for ``file.write`` on record appends.
        self.write_hook: Callable[[bytes], object] | None = None
        self._lock = threading.Lock()
        self._file = None
        self._segment_index = 0
        self._segment_bytes = 0
        self._clock: tuple[float, int] = (0.0, 0)
        self.n_records = 0
        self.n_packets = 0
        self.n_messages = 0
        self.n_bytes = 0
        self.n_fsyncs = 0
        self.n_truncated_bytes = 0
        self._m = _JournalMetrics(obs) if obs is not None else None
        os.makedirs(config.dir, exist_ok=True)
        existing = config.segment_paths()
        if not resume:
            for path in existing:
                path.unlink()
            existing = []
        if existing:
            self._recover(existing)
        else:
            self._open_segment(0)

    # -- lifecycle ----------------------------------------------------

    def _recover(self, existing: list[Path]) -> None:
        indexes = [int(p.name[-10:-4]) for p in existing]
        if indexes != list(range(len(existing))):
            raise JournalError(
                f"journal {self.config.name!r} has non-contiguous segments "
                f"{indexes}"
            )
        last = existing[-1]
        scan = _SegmentScan(last, tolerate_torn=True)
        for _ in scan.records():
            pass
        if scan.header.index != indexes[-1]:
            raise JournalError(
                f"{last}: header index {scan.header.index} does not match "
                f"file name"
            )
        if scan.torn_bytes:
            with open(last, "r+b") as handle:
                handle.truncate(scan.valid_end)
            self.n_truncated_bytes += scan.torn_bytes
            if self._m is not None:
                self._m.truncated.inc(
                    scan.torn_bytes, journal=self.config.name
                )
            if self.obs is not None:
                from repro.obs import ANOMALY_JOURNAL_TRUNCATED

                self.obs.flight.anomaly(
                    ANOMALY_JOURNAL_TRUNCATED,
                    subject=self.config.name,
                    t_s=scan.last_stamp[0],
                    segment=scan.header.index,
                    torn_bytes=scan.torn_bytes,
                )
        if not self.meta:
            self.meta = dict(scan.header.meta)
        self._segment_index = scan.header.index
        self._clock = scan.last_stamp
        self._file = open(last, "ab")
        self._segment_bytes = scan.valid_end

    def _open_segment(self, index: int) -> None:
        header = _encode_header(index, self._clock, self.config.name, self.meta)
        self._segment_index = index
        self._file = open(self.config.segment_path(index), "wb")
        self._file.write(header)
        self._segment_bytes = len(header)

    def _rotate_locked(self) -> None:
        self._file.flush()
        self._file.close()
        self._open_segment(self._segment_index + 1)

    def close(self) -> None:
        """Flush (and fsync, if configured) and close the writer."""
        with self._lock:
            if self._file is None:
                return
            self._file.flush()
            if self.config.fsync:
                os.fsync(self._file.fileno())
                self.n_fsyncs += 1
                if self._m is not None:
                    self._m.fsyncs.inc(1, journal=self.config.name)
            self._file.close()
            self._file = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- appends ------------------------------------------------------

    def append_packet(
        self, frame: bytes | bytearray | memoryview, subject: str
    ) -> None:
        """Journal a wire-encoded packet frame at the current clock.

        ``frame`` may be any bytes-like buffer; it is written under the
        lock and never retained past the call.
        """
        with self._lock:
            self._append_locked(self._clock, subject, frame, "packet")

    def append_message(self, msg: ServeMessage) -> None:
        """Journal a control message, advancing the virtual clock."""
        prio = _KIND_PRIO.get(msg.kind)
        if prio is None:
            raise JournalError(f"message kind {msg.kind!r} is not journalable")
        t_s = float(msg.t_s)
        if not isfinite(t_s):
            raise JournalError(f"{msg.kind!r} message has non-finite t_s")
        frame = encode_message(msg)
        with self._lock:
            stamp = (t_s, prio)
            if stamp < self._clock:
                stamp = self._clock
            self._clock = stamp
            self._append_locked(stamp, msg.patient_id, frame, "message")

    def _append_locked(
        self,
        stamp: tuple[float, int],
        subject: str,
        frame: bytes | bytearray | memoryview,
        kind: str,
    ) -> None:
        if self._file is None:
            raise JournalError("journal writer is closed")
        if not frame:
            raise JournalError("cannot journal an empty frame")
        if len(frame) > MAX_FRAME_BYTES:
            raise JournalError(
                f"frame of {len(frame)} B exceeds MAX_FRAME_BYTES"
            )
        subject_raw = subject.encode("utf-8")
        if len(subject_raw) > 0xFFFF:
            raise JournalError("record subject too long")
        body = (
            _BODY_HEAD.pack(stamp[0], stamp[1], len(subject_raw))
            + subject_raw
            + frame
        )
        record = _REC_HEAD.pack(len(body), zlib.crc32(body)) + body
        write = self.write_hook if self.write_hook is not None else self._file.write
        write(record)
        record_bytes = len(record)
        self._segment_bytes += record_bytes
        self.n_bytes += record_bytes
        self.n_records += 1
        if kind == "packet":
            self.n_packets += 1
        else:
            self.n_messages += 1
        if self.config.fsync:
            self._file.flush()
            os.fsync(self._file.fileno())
            self.n_fsyncs += 1
        if self._m is not None:
            self._m.bytes.inc(record_bytes, journal=self.config.name)
            self._m.records.inc(1, journal=self.config.name, kind=kind)
            if self.config.fsync:
                self._m.fsyncs.inc(1, journal=self.config.name)
        if self._segment_bytes >= self.config.segment_bytes:
            self._rotate_locked()

    # -- introspection ------------------------------------------------

    def stats(self) -> dict:
        """Writer counters (records, bytes, segments, fsyncs, clock)."""
        with self._lock:
            return {
                "name": self.config.name,
                "segments": self._segment_index + 1,
                "records": self.n_records,
                "packets": self.n_packets,
                "messages": self.n_messages,
                "bytes": self.n_bytes,
                "fsyncs": self.n_fsyncs,
                "truncated_bytes": self.n_truncated_bytes,
                "clock_t_s": self._clock[0],
            }


class _JournalMetrics:
    """Journal counters registered on an Observability registry."""

    def __init__(self, obs):
        from repro.obs import SCOPE_SHARD

        metrics = obs.metrics
        self.bytes = metrics.counter(
            "journal_bytes_written_total",
            "Bytes appended to gateway journals (headers excluded).",
            scope=SCOPE_SHARD,
        )
        self.records = metrics.counter(
            "journal_records_total",
            "Records appended to gateway journals by kind.",
            scope=SCOPE_SHARD,
        )
        self.fsyncs = metrics.counter(
            "journal_fsync_total",
            "fsync calls issued by gateway journal writers.",
            scope=SCOPE_SHARD,
        )
        self.truncated = metrics.counter(
            "journal_truncated_bytes_total",
            "Torn-tail bytes truncated during journal recovery.",
            scope=SCOPE_SHARD,
        )


class JournalReader:
    """Strict sequential reader over a journal's segment files.

    A torn tail is tolerated only on the final segment (reported via
    ``torn_tail_bytes``); everything else raises :class:`JournalError`.
    """

    def __init__(self, config: JournalConfig):
        self.config = config
        self.paths = config.segment_paths()
        if not self.paths:
            raise JournalError(
                f"no journal named {config.name!r} under {config.dir}"
            )
        indexes = [int(p.name[-10:-4]) for p in self.paths]
        if indexes != list(range(len(self.paths))):
            raise JournalError(
                f"journal {config.name!r} has non-contiguous segments "
                f"{indexes}"
            )
        first, _ = _decode_header(self.paths[0].read_bytes(), self.paths[0])
        if first.name != config.name:
            raise JournalError(
                f"{self.paths[0]}: header names journal {first.name!r}"
            )
        #: Metadata dict from the first segment header.
        self.meta = dict(first.meta)
        #: Bytes of torn tail discarded from the final segment.
        self.torn_tail_bytes = 0
        #: Records yielded by the last full :meth:`records` pass.
        self.n_records = 0

    def records(self) -> Iterator[JournalRecord]:
        """Yield every whole record across all segments, in log order."""
        self.torn_tail_bytes = 0
        self.n_records = 0
        for i, path in enumerate(self.paths):
            scan = _SegmentScan(path, tolerate_torn=(i == len(self.paths) - 1))
            if scan.header.index != i:
                raise JournalError(
                    f"{path}: header index {scan.header.index} does not "
                    "match file name"
                )
            if scan.header.name != self.config.name:
                raise JournalError(
                    f"{path}: header names journal {scan.header.name!r}"
                )
            for record in scan.records():
                self.n_records += 1
                yield record
            self.torn_tail_bytes += scan.torn_bytes


class GatewaySession:
    """Per-patient gateway + triage core with a virtual clock.

    This is the session state machine the serve layer runs behind each
    TCP connection, and :class:`JournalReplayer` drives the identical
    construction from a journal.  ``handle_frame`` dispatches one
    stream frame (packet or control message) and returns
    ``(replies, close)``; protocol violations come back as an ``error``
    reply, exactly as over the wire.

    ``now_s`` is the session's virtual clock.  ``expire`` and ``sweep``
    refuse a non-finite time or one behind the clock and move the clock
    to theirs; ``drain`` refuses a non-finite time and drains at the
    clock's time when its own is behind.  A command time is peer input,
    so a refusal is a :class:`~repro.fleet.wire.WireFormatError`.  A
    served session outlives its socket, so the clock orders commands
    across reconnects too.

    When ``journal`` is given, ingested packet frames are journaled by
    the attached gateway and state-bearing control messages
    (:data:`SESSION_JOURNALED_KINDS`) are journaled after a successful
    dispatch — a frame that faults is never logged, so a journal holds
    only frames that actually mutated the session.

    A drain takes the recoveries of the packets it pops from
    ``recoveries`` (a fresh store unless given) when the store holds
    all of them; a session fed frames without their recoveries held
    ahead recovers inside ``Gateway.drain``.
    """

    def __init__(
        self,
        patient_id: str,
        config: GatewayConfig | None = None,
        journal: JournalWriter | None = None,
        recoveries: RecoveryStore | None = None,
    ):
        self.patient_id = patient_id
        self.gateway = Gateway(config or GatewayConfig())
        self.board = TriageBoard()
        self.board.register([patient_id])
        self.now_s = 0.0
        self.recoveries = recoveries if recoveries is not None else RecoveryStore()
        self.n_reconstructed = 0
        self.n_frames = 0
        self.row: ShardPatientRow | None = None
        self._journal = journal
        if journal is not None:
            self.gateway.attach_journal(journal)

    # -- frame dispatch ----------------------------------------------

    def handle_frame(
        self, body: bytes, packet: UplinkPacket | None = None
    ) -> tuple[list[bytes], bool]:
        """Apply one stream frame; return ``(replies, close)``.

        ``packet`` is ``body`` already decoded by :func:`decode_ahead`,
        so the gateway does not decode it again; ``None`` decodes here.
        """
        try:
            if packet is not None or frame_kind(body) == "packet":
                self.gateway.ingest(body, packet)
                self.n_frames += 1
                return [], False
            msg = decode_message(body)
            replies, close = self.handle_message(msg)
            if (
                self._journal is not None
                and msg.kind in SESSION_JOURNALED_KINDS
            ):
                self._journal.append_message(msg)
            return replies, close
        except WireFormatError as exc:
            reply = ServeMessage(
                "error", self.patient_id, info={"error": str(exc)}
            )
            return [encode_message(reply)], True

    def handle_batch(
        self, frames: list[bytes], packets: list[UplinkPacket | None]
    ) -> tuple[list[bytes], int, bool]:
        """Apply queued frames in order until one closes the session.

        Every frame goes through :meth:`handle_frame`, the per-frame
        entry point, with its packet from :func:`decode_ahead`; the
        frames after one that closes the session are not applied, as
        if they had stayed in the queue.

        Returns:
            ``(replies, n_applied, close)``: the applied frames'
            replies in order, how many frames were applied, and
            whether the last of them closed the session.
        """
        replies: list[bytes] = []
        for n_applied, (body, packet) in enumerate(zip(frames, packets), 1):
            out, close = self.handle_frame(body, packet)
            replies += out
            if close:
                return replies, n_applied, True
        return replies, len(frames), False

    def handle_message(self, msg: ServeMessage) -> tuple[list[bytes], bool]:
        """Dispatch a decoded control message (raises on violations)."""
        if msg.kind == "expire":
            self._step_to(msg)
            self.gateway.expire_reassembly(msg.t_s)
            return [], False
        if msg.kind == "drain":
            _drain_sessions([self], msg)
            return [], False
        if msg.kind == "sweep":
            return [encode_message(self._on_sweep(msg))], False
        if msg.kind == "flush":
            self.gateway.flush_reassembly()
            return [], False
        if msg.kind == "period":
            self.board.set_expected_period(
                self.patient_id, msg.fields.get("period_s", float("nan"))
            )
            return [], False
        if msg.kind == "report":
            return [encode_message(self._on_report(msg))], False
        if msg.kind == "bye":
            return [], True
        raise WireFormatError(f"unknown serve command {msg.kind!r}")

    # -- phase actions ------------------------------------------------

    def _step_to(self, msg: ServeMessage) -> None:
        """Move the clock to ``msg``'s time; refuse one behind it."""
        t_s = _command_time(msg)
        if t_s < self.now_s:
            raise WireFormatError(
                f"{msg.kind!r} at t={t_s} is behind the session clock "
                f"{self.now_s} (no time travel)"
            )
        self.now_s = t_s

    def _drain(self, t_s: float, max_packets: int | None) -> None:
        """Drain into triage at ``t_s``, or at the clock if that is later."""
        self.now_s = max(self.now_s, t_s)
        recoveries = self.recoveries.take(self.gateway.queued(max_packets))
        for excerpt in self.gateway.drain(max_packets, recoveries):
            self.board.observe(excerpt)
            self.n_reconstructed += 1

    def _on_sweep(self, msg: ServeMessage) -> ServeMessage:
        self._step_to(msg)
        self.board.tick(msg.t_s)
        patient = self.board.patient(self.patient_id)
        return ServeMessage(
            "feedback",
            self.patient_id,
            t_s=msg.t_s,
            fields={"n_alerts": float(patient.n_alerts), "soc": patient.soc},
            info={"state": patient.state, "mode": patient.mode},
        )

    def _on_report(self, msg: ServeMessage) -> ServeMessage:
        if msg.patient_id != self.patient_id:
            raise WireFormatError(
                f"report for {msg.patient_id!r} on the session of "
                f"{self.patient_id!r}"
            )
        self.row = row_from_report(
            msg,
            self.gateway.channels.get(self.patient_id),
            self.board.patients[self.patient_id],
            self.n_reconstructed,
        )
        return ServeMessage("report-ack", self.patient_id, t_s=msg.t_s)


def _command_time(msg: ServeMessage) -> float:
    """``msg``'s time, which must be finite."""
    t_s = float(msg.t_s)
    if not isfinite(t_s):
        raise WireFormatError(f"{msg.kind!r} time must be finite, got {t_s}")
    return t_s


def _drain_sessions(sessions: Sequence[GatewaySession], msg: ServeMessage) -> None:
    """Apply one ``drain`` command to ``sessions``.

    Each session drains its own queue through ``Gateway.drain``, with
    the recoveries its store holds for the packets that drain pops.

    Args:
        sessions: Sessions the command addresses.
        msg: The ``drain`` command (``budget`` < 0 drains everything).

    Raises:
        WireFormatError: The budget or the time is not finite (checked
            before any session drains).
    """
    budget = _count_field(msg.fields, "budget", -1.0)
    max_packets = None if budget < 0 else budget
    t_s = _command_time(msg)
    for session in sessions:
        session._drain(t_s, max_packets)


def decode_ahead(frame: bytes, wavelet: str) -> UplinkPacket | None:
    """``frame``'s packet, decoded ahead of applying the frame.

    Returns ``None`` for a control message and for a frame that fails
    to decode or to pass :func:`~repro.fleet.gateway.check_geometry`:
    left as bytes, it raises in order when applied.
    """
    try:
        if frame_kind(frame) != "packet":
            return None
        return check_geometry(decode_packet(frame), wavelet)
    except WireFormatError:
        return None


class RecoveryStore:
    """CS frame recoveries computed ahead of the drains that pop them.

    Held by packet identity: a replay holds a chunk's recoveries for
    every session, a served session the recoveries of its batch.  Only
    the thread that applies frames touches the store; the recovery
    itself (:func:`~repro.fleet.gateway.recover_packets`) is pure and
    may run anywhere.  Holding is exact: a window's recovery depends on
    its own measurements alone.
    """

    def __init__(self):
        self._held: dict[int, tuple[UplinkPacket, list]] = {}
        #: Frames recovered ahead that no drain popped.
        self.n_undrained_frames = 0

    def hold(self, packets: list[UplinkPacket], recoveries: list[list]) -> None:
        """Keep each packet's frame recoveries until a drain pops it."""
        for packet, recovery in zip(packets, recoveries):
            self._held[id(packet)] = (packet, recovery)

    def take(self, packets: list[UplinkPacket]) -> list[list] | None:
        """Hand over (and forget) the recoveries of ``packets``.

        Returns ``None``, forgetting nothing, unless every packet with
        CS frames among them is held; a frameless packet needs none.
        """
        held = self._held
        if any(packet.frames and id(packet) not in held for packet in packets):
            return None
        return [held.pop(id(packet))[1] if packet.frames else [] for packet in packets]

    def release(self, keep: Iterable[UplinkPacket]) -> None:
        """Drop the recoveries of every held packet not in ``keep``.

        A packet dropped at a full queue or as a duplicate is never
        drained; its frames are counted on :attr:`n_undrained_frames`.
        """
        if not self._held:
            return
        kept = {id(packet) for packet in keep}
        for key in [key for key in self._held if key not in kept]:
            packet, _ = self._held.pop(key)
            self.n_undrained_frames += packet.n_frames


class _Lookahead:
    """Replays a record stream a chunk ahead, with its frames recovered.

    :meth:`replay` reads records until a chunk holds at least
    :data:`_LOOKAHEAD_WINDOWS` CS windows, decodes its packet frames
    once, recovers all of their frames with one ``recover_batch`` per
    encoder geometry into :attr:`store`, then yields the chunk's records
    in order.  A decoded packet's recoveries are held until a drain pops
    them or the packet is found neither queued nor buffered by any
    session.
    """

    def __init__(self, config: GatewayConfig):
        self.config = config
        #: The replay's one store; every replayed session drains from it.
        self.store = RecoveryStore()
        #: Wall seconds spent recovering frames.
        self.recover_s = 0.0

    def replay(
        self, records: Iterator[tuple], sessions: dict[str, GatewaySession]
    ) -> Iterator[tuple[tuple, UplinkPacket | None]]:
        """Yield ``(entry, packet)`` per record of ``records``, in order.

        ``packet`` is the record's pre-decoded packet, or ``None`` for a
        control record or a frame that failed to decode or to pass
        :func:`~repro.fleet.gateway.check_geometry` — it is left as
        bytes so its own record raises in order.  An error reading the
        stream is raised after the records before it.
        """
        error: Exception | None = None
        done = False
        while not done:
            chunk: list[tuple[tuple, UplinkPacket | None]] = []
            n_windows = 0
            while n_windows < _LOOKAHEAD_WINDOWS and len(chunk) < _LOOKAHEAD_RECORDS:
                try:
                    entry = next(records)
                except StopIteration:
                    done = True
                    break
                except Exception as exc:  # raised once the chunk replays
                    error, done = exc, True
                    break
                packet = decode_ahead(entry[-1].frame, self.config.wavelet)
                if packet is not None:
                    n_windows += packet.n_frames
                chunk.append((entry, packet))
            self.store.release(
                packet
                for session in sessions.values()
                for packet in session.gateway.held_packets()
            )
            self._recover(
                [packet for _, packet in chunk if packet is not None and packet.frames]
            )
            yield from chunk
        self.store.release(())
        if error is not None:
            raise error

    def _recover(self, packets: list[UplinkPacket]) -> None:
        t0 = perf_counter()
        recovered = recover_packets(packets, self.config)
        self.recover_s += perf_counter() - t0
        self.store.hold(packets, recovered)


@dataclass
class ReplayReport:
    """What a :class:`JournalReplayer` run produced."""

    #: Merged fleet summary (``to_json`` is the byte-identity oracle).
    summary: object
    #: Per-patient rows in cohort order.
    rows: dict[str, ShardPatientRow]
    #: Total packets the original schedulers sent (from reports).
    packets_sent: int
    #: Packets dropped at session gateway queues during replay.
    dropped_packets: int
    #: Fleet-level link counters folded from ``stats`` records.
    link_stats: dict[str, int]
    #: Records / packet frames / control frames consumed.
    n_records: int = 0
    n_packets: int = 0
    n_messages: int = 0
    #: Journals merged into this replay.
    n_journals: int = 0
    #: Torn-tail bytes skipped across all source journals.
    torn_tail_bytes: int = 0
    #: CS frames recovered ahead of the drains that no drain popped:
    #: packets dropped at a full queue or as duplicates, or still
    #: queued or buffered when the journals end.
    n_undrained_frames: int = 0
    #: Wall-clock accounting of the replay (``recover`` is the part of
    #: ``replay`` spent recovering CS frames ahead of the drains).
    timings_s: dict = field(default_factory=dict)


class _ReplayPatient:
    """Minimal cohort stand-in when replaying without profiles."""

    def __init__(self, patient_id: str):
        self.patient_id = patient_id


class JournalReplayer:
    """Stream journals back through fresh per-patient gateway cores.

    ``sources`` is one :class:`JournalConfig` or a sequence of them
    (e.g. the N per-shard journals of a sharded run); multiple sources
    are merged by the writer stamps ``(t_s, prio, journal, ordinal)``
    — the kernel's total event order.  Each patient must appear in one
    source only: one found in two (a stale shard journal left by an
    earlier layout, say) raises :class:`JournalError`.  ``cohort`` may
    be omitted for journals that carry ``hello`` records (in-process
    and sharded runs); served journals never log hellos, so their
    cohort order — which the float-summing merge depends on — must be
    passed explicitly, without a repeated patient id.  A given cohort
    must list every journaled patient: one left out raises
    :class:`JournalError` rather than fold a partial fleet.  Records are
    read a chunk ahead, so CS frames are recovered in large batches
    before the drains that pop them (:data:`_LOOKAHEAD_WINDOWS`).
    ``duration_s``, ``fs`` and ``gateway_config`` default to the
    metadata every source must share; ``duration_s`` and ``fs`` must be
    finite and > 0, the gateway a :class:`GatewayConfig` or a mapping
    of its fields (default ``GatewayConfig()``), or :meth:`run` raises
    :class:`JournalError`.
    """

    def __init__(
        self,
        sources: JournalConfig | Iterable[JournalConfig],
        cohort=None,
        gateway_config: GatewayConfig | None = None,
        duration_s: float | None = None,
        fs: float | None = None,
    ):
        if isinstance(sources, JournalConfig):
            sources = [sources]
        self.sources = list(sources)
        if not self.sources:
            raise JournalError("replayer needs at least one journal source")
        self.cohort = list(cohort) if cohort is not None else None
        if self.cohort is not None:
            try:
                check_unique_ids(self.cohort)
            except ValueError as exc:
                raise JournalError(str(exc)) from exc
        self.gateway_config = gateway_config
        self.duration_s = duration_s
        self.fs = fs

    def run(self) -> ReplayReport:
        """Replay the journals and fold a merged ``FleetSummary``."""
        t_start = perf_counter()
        readers = [JournalReader(config) for config in self.sources]
        duration_s, fs, gateway_config = (
            _run_param(readers, key, given)
            for key, given in (
                ("duration_s", self.duration_s),
                ("fs", self.fs),
                ("gateway", self.gateway_config),
            )
        )

        sessions: dict[str, GatewaySession] = {}
        per_source: list[dict[str, GatewaySession]] = [{} for _ in readers]
        # Decoders come from the gateway's process-wide memo; the
        # lookahead's held recoveries do not outlive run().
        lookahead = _Lookahead(gateway_config)
        hello_order: dict[str, int] = {}
        link_stats: dict[str, int] = {}
        origin: dict[str, int] = {}
        cohort_ids = (
            None
            if self.cohort is None
            else {profile.patient_id for profile in self.cohort}
        )
        n_packets = 0
        n_messages = 0

        def session_for(pid: str, source: int) -> GatewaySession:
            # A patient outside an explicit cohort would be replayed
            # but left out of the fold, a partial fleet.
            if cohort_ids is not None and pid not in cohort_ids:
                raise JournalError(
                    f"patient {pid!r} in journal "
                    f"{self.sources[source].name!r} is not in the cohort"
                )
            # A patient lives in exactly one source journal; a second
            # one (e.g. a stale shard journal) would ingest it twice.
            first = origin.setdefault(pid, source)
            if first != source:
                raise JournalError(
                    f"patient {pid!r} appears in journals "
                    f"{self.sources[first].name!r} and "
                    f"{self.sources[source].name!r}"
                )
            session = sessions.get(pid)
            if session is None:
                session = GatewaySession(
                    pid, gateway_config, recoveries=lookahead.store
                )
                sessions[pid] = session
            per_source[source].setdefault(pid, session)
            return session

        def stream(source: int, reader: JournalReader):
            for ordinal, record in enumerate(reader.records()):
                yield (record.t_s, record.prio, source, ordinal, record)

        streams = [stream(i, reader) for i, reader in enumerate(readers)]
        for entry, packet in lookahead.replay(heapq.merge(*streams), sessions):
            _, _, source, ordinal, record = entry
            try:
                if frame_kind(record.frame) == "packet":
                    session = session_for(record.subject, source)
                    session.gateway.ingest(record.frame, packet)
                    session.n_frames += 1
                    n_packets += 1
                    continue
                msg = decode_message(record.frame)
                n_messages += 1
                if msg.kind == "hello":
                    index = _count_field(msg.fields, "index", len(hello_order))
                    hello_order.setdefault(msg.patient_id, index)
                    session_for(msg.patient_id, source)
                elif msg.kind == "stats":
                    for key in msg.fields:
                        if key.startswith("link:"):
                            name = key[5:]
                            count = _count_field(msg.fields, key)
                            link_stats[name] = link_stats.get(name, 0) + count
                elif msg.kind == "drain":
                    targets = (
                        list(per_source[source].values())
                        if msg.patient_id == ""
                        else [session_for(msg.patient_id, source)]
                    )
                    _drain_sessions(targets, msg)
                elif msg.patient_id == "":
                    for session in per_source[source].values():
                        session.handle_message(msg)
                else:
                    session_for(msg.patient_id, source).handle_message(msg)
            except WireFormatError as exc:
                raise JournalError(
                    f"replay failed at record {ordinal} of journal "
                    f"{self.sources[source].name!r}: {exc}"
                ) from exc
        t_replayed = perf_counter()

        cohort = self.cohort
        if cohort is None:
            if hello_order:
                ordered = sorted(
                    hello_order.items(), key=lambda item: (item[1], item[0])
                )
                cohort = [_ReplayPatient(pid) for pid, _ in ordered]
            else:
                raise JournalError(
                    "journal carries no hello records; pass the cohort "
                    "explicitly (served journals require it)"
                )
        rows = {
            pid: session.row
            for pid, session in sessions.items()
            if session.row is not None
        }
        dropped = sum(s.gateway.dropped for s in sessions.values())
        try:
            summary = merge_patient_rows(
                cohort, rows, gateway_config, duration_s, fs, dropped=dropped
            )
        except (KeyError, WireFormatError) as exc:
            raise JournalError(f"journal replay fold failed: {exc}") from exc
        t_done = perf_counter()
        ordered_rows = {
            profile.patient_id: rows[profile.patient_id]
            for profile in cohort
            if profile.patient_id in rows
        }
        return ReplayReport(
            summary=summary,
            rows=ordered_rows,
            packets_sent=sum(row.n_sent for row in rows.values()),
            dropped_packets=dropped,
            link_stats=link_stats,
            n_records=sum(reader.n_records for reader in readers),
            n_packets=n_packets,
            n_messages=n_messages,
            n_journals=len(readers),
            torn_tail_bytes=sum(r.torn_tail_bytes for r in readers),
            n_undrained_frames=lookahead.store.n_undrained_frames,
            timings_s={
                "replay": t_replayed - t_start,
                "recover": lookahead.recover_s,
                "merge": t_done - t_replayed,
                "total": t_done - t_start,
            },
        )
