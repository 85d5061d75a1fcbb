"""Virtual-time structured trace events, byte-reproducible from a seed.

A :class:`TraceRecorder` collects :class:`TraceEvent` records stamped
with **virtual time only** — the scheduler's simulated clock, a packet
timestamp, a governor decision time — never the wall clock.  Because
every stamp derives from the seeded simulation, two runs with the same
master seed produce byte-identical canonical trace JSON, and an
N-shard run produces the same canonical trace as a 1-shard run once the
per-shard streams are merged and re-sorted.

The ordering contract that makes the merge exact:

* every **fleet-scope** event names a ``subject`` (usually a patient
  id) and carries a per-``(subject, name-independent)`` sequence number
  assigned in emission order — since a patient lives on exactly one
  shard, the ``(t_s, subject, seq)`` sort key totally orders fleet
  events the same way regardless of shard layout;
* **shard-scope** events (per-shard wall time, merge cost) may omit
  the subject and are excluded from the canonical stream.

Spans are recorded at completion time as a single event with a
``dur_s`` field (virtual duration), so no open/close pairing is needed
when merging.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.obs.metrics import SCOPE_FLEET, SCOPE_SERVE, SCOPE_SHARD

#: Event kinds: a point-in-time mark or a completed span with ``dur_s``.
KIND_INSTANT = "instant"
KIND_SPAN = "span"


class TraceError(ValueError):
    """Trace contract violation: missing subject, bad kind/scope."""


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record stamped with virtual time.

    Attributes:
        t_s: Virtual timestamp in seconds (scheduler tick time, packet
            timestamp, or decision time — never wall clock).
        name: Dotted event name, e.g. ``"gateway.ingest"``.
        kind: :data:`KIND_INSTANT` or :data:`KIND_SPAN`.
        scope: ``"fleet"`` (canonical, layout-independent) or
            ``"shard"`` (process-local).
        subject: Entity the event belongs to (patient id).  Required
            for fleet-scope events; optional for shard-scope.
        seq: Per-subject emission sequence number (ties within one
            virtual timestamp keep their emission order).
        dur_s: Virtual duration for spans, ``None`` for instants.
        attrs: Small JSON-safe payload (mode, reason, counts...).
    """

    t_s: float
    name: str
    kind: str
    scope: str
    subject: str
    seq: int
    dur_s: float | None = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dict with sorted attribute keys."""
        out = {
            "t_s": float(self.t_s),
            "name": self.name,
            "kind": self.kind,
            "scope": self.scope,
            "subject": self.subject,
            "seq": self.seq,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }
        if self.dur_s is not None:
            out["dur_s"] = float(self.dur_s)
        return out


def _sort_key(event: dict) -> tuple:
    """Canonical total order: virtual time, subject, per-subject seq."""
    return (event["t_s"], event["subject"], event["seq"])


class TraceRecorder:
    """Collects trace events and renders a canonical merged stream."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._seq: dict[str, int] = {}

    def _next_seq(self, subject: str) -> int:
        """Allocate the next per-subject sequence number."""
        seq = self._seq.get(subject, 0)
        self._seq[subject] = seq + 1
        return seq

    def instant(self, t_s: float, name: str, subject: str = "",
                scope: str = SCOPE_FLEET, **attrs) -> TraceEvent:
        """Record a point-in-time event at virtual time ``t_s``."""
        return self._record(t_s, name, KIND_INSTANT, scope, subject,
                            None, attrs)

    def span(self, t_s: float, name: str, dur_s: float,
             subject: str = "", scope: str = SCOPE_FLEET,
             **attrs) -> TraceEvent:
        """Record a completed span starting at ``t_s`` lasting ``dur_s``."""
        return self._record(t_s, name, KIND_SPAN, scope, subject,
                            float(dur_s), attrs)

    def _record(self, t_s, name, kind, scope, subject, dur_s,
                attrs) -> TraceEvent:
        """Validate and append one event."""
        if scope not in (SCOPE_FLEET, SCOPE_SHARD, SCOPE_SERVE):
            raise TraceError(f"unknown scope {scope!r}")
        if not math.isfinite(float(t_s)):
            raise TraceError(
                f"event {name!r}: virtual timestamp must be finite "
                f"(got {t_s}) — a NaN stamp breaks the canonical "
                f"(t_s, subject, seq) sort")
        if scope == SCOPE_FLEET and not subject:
            raise TraceError(
                f"fleet-scope event {name!r} needs a subject so the "
                f"canonical order is shard-layout independent")
        event = TraceEvent(t_s=float(t_s), name=name, kind=kind,
                           scope=scope, subject=subject,
                           seq=self._next_seq(subject), attrs=attrs,
                           dur_s=dur_s)
        self.events.append(event)
        return event

    def snapshot(self, scope: str | None = None) -> dict:
        """Deterministic dict view of the recorded stream.

        Args:
            scope: Restrict to one scope; :data:`~repro.obs.metrics.SCOPE_FLEET`
                yields the canonical stream used for N-shard == 1-shard
                comparisons.

        Returns:
            ``{"events": [...]}`` with events in canonical
            ``(t_s, subject, seq)`` order.
        """
        rows = [e.to_dict() for e in self.events
                if scope is None or e.scope == scope]
        rows.sort(key=_sort_key)
        return {"events": rows}


def canonical_trace_json(snapshot: dict) -> str:
    """Byte-stable serialization of one trace snapshot."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def merge_trace_snapshots(snapshots: list[dict]) -> dict:
    """Fold N trace snapshots into one canonical stream.

    Concatenates the event lists and re-sorts by the canonical
    ``(t_s, subject, seq)`` key.  Exact because each subject's events
    all come from the shard that owns it, so per-subject sequence
    numbers never collide across inputs.
    """
    events: list[dict] = []
    for snapshot in snapshots:
        events.extend(snapshot.get("events", ()))
    events.sort(key=_sort_key)
    return {"events": events}
