"""Gateway flight recorder: bounded packet rings dumped on anomaly.

The flight recorder keeps, per patient channel, a ring of the last N
wire frames the gateway ingested.  When the gateway detects an
anomaly — a reassembly stall (force-released fragments), a NaN guard
trip in a reconstructed excerpt, or an alarm burst — the recorder
freezes the channel's ring into an :class:`AnomalyRecord` and, when a
dump directory is configured, writes a JSON dump for offline replay.

Dumps are self-contained: wire frames are base64-encoded in the JSON
and :func:`load_flight_dump` / :meth:`AnomalyRecord.packets` decode
them back to byte frames that `Gateway.ingest` can replay.

File naming embeds virtual time, not wall time
(``flight_<kind>_<subject>_t<t_s>.json``), so a seeded rerun produces
identically named, byte-identical dumps.
"""

from __future__ import annotations

import base64
import json
import pathlib
from collections import deque
from dataclasses import dataclass, field

#: Anomaly kinds emitted by the gateway instrumentation.
ANOMALY_REASSEMBLY_STALL = "reassembly-stall"
ANOMALY_NAN_GUARD = "nan-guard"
ANOMALY_ALARM_BURST = "alarm-burst"
ANOMALY_WIRE_ERROR = "wire-error"
ANOMALY_JOURNAL_TRUNCATED = "journal-truncated"


@dataclass
class AnomalyRecord:
    """One frozen anomaly: the channel's ring at trip time plus cause.

    Attributes:
        kind: One of the ``ANOMALY_*`` constants.
        subject: Patient channel that tripped the anomaly.
        t_s: Virtual time of the trip.
        detail: Free-form JSON-safe cause payload.
        frames_b64: Wire frames from the channel ring, oldest first,
            base64 text (JSON-safe).
        path: Dump file path when written to disk, else ``None``.
    """

    kind: str
    subject: str
    t_s: float
    detail: dict = field(default_factory=dict)
    frames_b64: list[str] = field(default_factory=list)
    path: str | None = None

    def packets(self) -> list[bytes]:
        """Decode the recorded wire frames back to byte strings."""
        return [base64.b64decode(s) for s in self.frames_b64]

    def to_dict(self) -> dict:
        """JSON-ready dict (dump file schema, sorted keys on write)."""
        return {
            "kind": self.kind,
            "subject": self.subject,
            "t_s": float(self.t_s),
            "detail": {k: self.detail[k] for k in sorted(self.detail)},
            "frames_b64": list(self.frames_b64),
        }


class FlightRecorder:
    """Per-channel bounded rings of ingested wire frames.

    Args:
        ring_size: Frames retained per channel (last N).
        dump_dir: Directory for anomaly dump files; ``None`` keeps
            anomalies in memory only (:attr:`anomalies`).
        alarm_burst_threshold: Alarms within the burst window that trip
            :data:`ANOMALY_ALARM_BURST` for a channel.
        alarm_burst_window_s: Virtual-time width of the burst window.
    """

    def __init__(self, ring_size: int = 64,
                 dump_dir: str | pathlib.Path | None = None,
                 alarm_burst_threshold: int = 8,
                 alarm_burst_window_s: float = 10.0) -> None:
        self.ring_size = int(ring_size)
        self.dump_dir = (pathlib.Path(dump_dir)
                         if dump_dir is not None else None)
        self.alarm_burst_threshold = int(alarm_burst_threshold)
        self.alarm_burst_window_s = float(alarm_burst_window_s)
        self.anomalies: list[AnomalyRecord] = []
        self._frames: dict[str, deque[bytes]] = {}
        self._alarm_times: dict[str, deque[float]] = {}

    def record_frame(self, subject: str, frame: bytes) -> None:
        """Push one wire-encoded packet onto the channel's frame ring."""
        ring = self._frames.get(subject)
        if ring is None:
            ring = self._frames[subject] = deque(maxlen=self.ring_size)
        ring.append(bytes(frame))

    def note_alarm(self, subject: str, t_s: float) -> bool:
        """Track one alarm at virtual ``t_s``; report burst detection.

        Returns:
            True when the alarm makes ``alarm_burst_threshold`` alarms
            inside the trailing ``alarm_burst_window_s`` (the caller
            should then raise :data:`ANOMALY_ALARM_BURST`).
        """
        times = self._alarm_times.setdefault(subject, deque())
        times.append(float(t_s))
        horizon = float(t_s) - self.alarm_burst_window_s
        while times and times[0] < horizon:
            times.popleft()
        return len(times) >= self.alarm_burst_threshold

    def anomaly(self, kind: str, subject: str, t_s: float,
                **detail) -> AnomalyRecord:
        """Freeze the channel's ring into a record; dump when configured.

        Returns:
            The :class:`AnomalyRecord`, with :attr:`AnomalyRecord.path`
            set when a dump file was written.
        """
        record = AnomalyRecord(
            kind=kind, subject=subject, t_s=float(t_s),
            detail=detail,
            frames_b64=[base64.b64encode(f).decode("ascii")
                        for f in self._frames.get(subject, ())],
        )
        self.anomalies.append(record)
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            stamp = format(float(t_s), ".3f").replace(".", "_")
            name = f"flight_{kind}_{subject}_t{stamp}.json"
            path = self.dump_dir / name
            path.write_text(json.dumps(record.to_dict(), sort_keys=True,
                                       indent=2) + "\n")
            record.path = str(path)
        return record

    def snapshot(self) -> dict:
        """Summary counts for the metrics/debug surface (no payloads)."""
        return {
            "ring_size": self.ring_size,
            "n_channels": len(self._frames),
            "n_anomalies": len(self.anomalies),
            "anomaly_kinds": sorted({a.kind for a in self.anomalies}),
        }


def load_flight_dump(path: str | pathlib.Path) -> AnomalyRecord:
    """Load one anomaly dump file back into an :class:`AnomalyRecord`.

    The returned record's :meth:`AnomalyRecord.packets` frames can be
    replayed through ``Gateway.ingest`` for offline debugging.
    """
    payload = json.loads(pathlib.Path(path).read_text())
    return AnomalyRecord(
        kind=payload["kind"], subject=payload["subject"],
        t_s=payload["t_s"], detail=payload.get("detail", {}),
        frames_b64=payload.get("frames_b64", []), path=str(path),
    )
