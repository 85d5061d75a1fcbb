"""The `Observability` bundle: one handle threaded through the stack.

Instrumentation sites (gateway, scheduler, governor hooks, sharding,
campaign, bench) accept an optional :class:`Observability` and do
nothing when it is ``None`` — observability is strictly out-of-band
and opt-in, so existing `FleetSummary.to_json()` bytes and golden
records are untouched by construction.

Because shard workers run in separate processes, the bundle itself is
never pickled; instead a frozen :class:`ObsConfig` crosses the process
boundary and each worker builds its own bundle via
:meth:`Observability.from_config`.  Workers return JSON snapshot
bundles (:meth:`Observability.snapshot_bundle`) that the parent folds
with :func:`merge_bundles` — exactly, per the metrics/trace merge
contracts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (MetricsRegistry, SCOPE_FLEET,
                               merge_metric_snapshots)
from repro.obs.trace import TraceRecorder, merge_trace_snapshots


@dataclass(frozen=True)
class ObsConfig:
    """Picklable recipe for building an :class:`Observability` bundle.

    Attributes:
        trace: Record trace events (disable to keep metrics-only
            accounting at minimum cost).
        flight_dump_dir: Anomaly dump directory (``None`` = in-memory
            anomaly records only).
        alarm_burst_threshold: Alarms inside the window that count as
            a burst anomaly.
        alarm_burst_window_s: Virtual-time burst window width.
    """

    trace: bool = True
    flight_dump_dir: str | None = None
    alarm_burst_threshold: int = 8
    alarm_burst_window_s: float = 10.0


class Observability:
    """Metrics + trace + flight recorder behind one optional handle.

    Attributes:
        metrics: The :class:`~repro.obs.metrics.MetricsRegistry`.
        trace: The :class:`~repro.obs.trace.TraceRecorder`, or ``None``
            when tracing is disabled by config.
        flight: The :class:`~repro.obs.flight.FlightRecorder`.
        config: The :class:`ObsConfig` this bundle was built from.
    """

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        self.metrics = MetricsRegistry()
        self.trace = TraceRecorder() if self.config.trace else None
        self.flight = FlightRecorder(
            dump_dir=self.config.flight_dump_dir,
            alarm_burst_threshold=self.config.alarm_burst_threshold,
            alarm_burst_window_s=self.config.alarm_burst_window_s,
        )

    @classmethod
    def from_config(cls, config: ObsConfig | None) -> "Observability | None":
        """Build a bundle from a config, mapping ``None`` to ``None``.

        The shard/campaign worker entry point: workers receive only the
        picklable config and construct their own live bundle.
        """
        return cls(config) if config is not None else None

    def snapshot_bundle(self, scope: str | None = None) -> dict:
        """Dict bundle of metric + trace snapshots (one worker's view)."""
        return {
            "metrics": self.metrics.snapshot(scope=scope),
            "trace": (self.trace.snapshot(scope=scope)
                      if self.trace is not None
                      else {"events": []}),
            "flight": self.flight.snapshot(),
        }

    def canonical_bundle(self) -> dict:
        """Fleet-scope-only bundle: the layout-independent surface."""
        return {
            "metrics": self.metrics.snapshot(scope=SCOPE_FLEET),
            "trace": (self.trace.snapshot(scope=SCOPE_FLEET)
                      if self.trace is not None
                      else {"events": []}),
        }

    def canonical_json(self) -> str:
        """Byte-stable serialization of the canonical bundle."""
        return canonical_bundle_json(self.canonical_bundle())


def merge_bundles(bundles: list[dict]) -> dict:
    """Fold N snapshot bundles (e.g. one per shard) into one, exactly.

    Metrics fold via
    :func:`~repro.obs.metrics.merge_metric_snapshots`; traces via
    :func:`~repro.obs.trace.merge_trace_snapshots`; flight summaries
    sum their counts.
    """
    flight = {"ring_size": 0, "n_channels": 0, "n_anomalies": 0,
              "anomaly_kinds": []}
    kinds: set[str] = set()
    for bundle in bundles:
        summary = bundle.get("flight") or {}
        flight["ring_size"] = max(flight["ring_size"],
                                  summary.get("ring_size", 0))
        flight["n_channels"] += summary.get("n_channels", 0)
        flight["n_anomalies"] += summary.get("n_anomalies", 0)
        kinds.update(summary.get("anomaly_kinds", ()))
    flight["anomaly_kinds"] = sorted(kinds)
    return {
        "metrics": merge_metric_snapshots(
            [b.get("metrics", {}) for b in bundles]),
        "trace": merge_trace_snapshots(
            [b.get("trace", {}) for b in bundles]),
        "flight": flight,
    }


def canonical_bundle_json(bundle: dict) -> str:
    """Byte-stable serialization of a merged metric+trace bundle."""
    return json.dumps(
        {"metrics": bundle.get("metrics", {"series": []}),
         "trace": bundle.get("trace", {"events": []})},
        sort_keys=True, separators=(",", ":"))


def canonical_view(bundle: dict) -> dict:
    """Fleet-scope-only filter of a (merged) snapshot bundle.

    Drops every shard-scope series and event, leaving exactly the
    layout-independent surface that must be byte-identical across
    shard counts.
    """
    metrics_in = bundle.get("metrics", {})
    trace_in = bundle.get("trace", {})
    return {
        "metrics": {"series": [s for s in metrics_in.get("series", ())
                               if s.get("scope") == SCOPE_FLEET]},
        "trace": {"events": [e for e in trace_in.get("events", ())
                             if e.get("scope") == SCOPE_FLEET]},
    }
