"""Span tracing around the public entry points of every layer.

A :class:`Tracer` installs wrappers on the classes and functions listed
in :data:`METHOD_SPANS` and :data:`FUNCTION_SPANS`, records one span per
call (name, start, end, parent span, thread, run id and a few counts),
and restores the originals on :meth:`Tracer.uninstall`.  Nothing under
``src/`` is edited: the wrappers live here and exist only while a traced
operation runs.  :func:`layer_metrics` folds the spans of the traced
operations into the per-layer table of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
from collections import defaultdict, deque
from pathlib import Path
from time import perf_counter

import numpy as np


class Span:
    """One timed call of a wrapped entry point."""

    __slots__ = ("name", "start", "end", "parent", "thread", "run",
                 "child_s", "attrs")

    def __init__(self, name: str, parent: "Span | None", run: int) -> None:
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.run = run
        self.child_s = 0.0
        self.attrs: dict = {}
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Span time minus the time its child spans cover."""
        return self.duration - self.child_s

    def to_json(self, index: dict[int, int]) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": (index[id(self.parent)]
                           if self.parent is not None else None),
                "thread": self.thread, "run": self.run,
                "attrs": self.attrs}


def _len(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _shape0(value) -> int:
    shape = np.shape(value)
    return int(shape[0]) if shape else 0


def _journal_bytes_before(writer, *_a, **_k) -> dict:
    return {"n_bytes_before": writer.n_bytes}


def _batch_windows(_self, windows, *_a, **_k) -> dict:
    shape = np.shape(windows)
    return {"windows": int(shape[0] * shape[1]) if len(shape) >= 2 else 0}


#: ``(module, class, method, span name, attrs-before-call)``.  A method
#: is patched on the class that defines it, so subclasses that inherit
#: it (the serve layer's session inherits ``handle_frame``) are traced.
METHOD_SPANS = [
    ("repro.filtering.morphological", "MorphologicalFilter",
     "condition_multilead", "filtering.condition", None),
    ("repro.delineation.rpeak", "RPeakDetector", "detect",
     "delineation.rpeak", None),
    ("repro.delineation.wavelet_delineator", "WaveletDelineator",
     "delineate", "delineation.wavelet",
     lambda _s, x, *_a, **_k: {"samples": _len(x)}),
    ("repro.pipeline.streaming", "StreamingMonitor", "push_block",
     "streaming", lambda _s, samples, *_a, **_k: {"samples": _len(samples)}),
    ("repro.pipeline.streaming", "StreamingMonitor", "flush",
     "streaming", None),
    ("repro.classification.afib", "AfDetector", "predict_record",
     "classification.af", None),
    ("repro.pipeline.node_app", "CardiacMonitorNode", "process",
     "node_app.process", None),
    ("repro.compression.encoder", "MultiLeadCsEncoder", "encode",
     "compression.encode",
     lambda _s, windows, *_a, **_k: {"windows": _shape0(windows)}),
    ("repro.fleet.scheduler", "BatchExcerptEncoder", "encode_batch",
     "compression.encode", _batch_windows),
    ("repro.fleet.node_proxy", "NodeProxy", "run", "node_proxy.run", None),
    ("repro.fleet.scheduler", "FleetScheduler", "run", "scheduler.run",
     None),
    ("repro.fleet.kernel", "EventKernel", "run", "kernel.run", None),
    ("repro.compression.multilead", "JointCsDecoder", "recover_batch",
     "compression.recover",
     lambda _s, frames, *_a, **_k: {"windows": _len(frames)}),
    ("repro.fleet.gateway", "Gateway", "ingest", "gateway.ingest", None),
    ("repro.fleet.gateway", "Gateway", "expire_reassembly",
     "gateway.reassembly", None),
    ("repro.fleet.gateway", "Gateway", "flush_reassembly",
     "gateway.reassembly", None),
    ("repro.fleet.gateway", "Gateway", "drain", "gateway.drain", None),
    ("repro.fleet.wire", "StreamDecoder", "feed", "wire.stream",
     lambda _s, data, *_a, **_k: {"bytes": _len(data)}),
    ("repro.fleet.triage", "TriageBoard", "observe", "triage.observe",
     None),
    ("repro.fleet.triage", "TriageBoard", "tick", "triage.tick", None),
    ("repro.fleet.journal", "JournalWriter", "append_packet",
     "journal.append", _journal_bytes_before),
    ("repro.fleet.journal", "JournalWriter", "append_message",
     "journal.append", _journal_bytes_before),
    ("repro.fleet.journal", "GatewaySession", "handle_frame",
     "serve.handle", None),
    ("repro.fleet.sharding", "ShardedFleetRunner", "run", "sharding.run",
     None),
    ("repro.fleet.transport", "ShardTransport", "open", "transport.open",
     None),
    ("repro.fleet.transport", "PickleTransport", "open", "transport.open",
     None),
    ("repro.fleet.transport", "SharedMemoryTransport", "open",
     "transport.open", None),
]

#: ``(module, function, span name, attrs-before-call)``.  Each function
#: is replaced in every loaded ``repro`` module that holds it, which
#: covers ``from x import f`` bindings (the scheduler's own
#: ``synthesize_patient``) as well as late imports that read the
#: defining module at call time.
FUNCTION_SPANS = [
    ("repro.fleet.cohort", "synthesize_patient", "signals.synthesize",
     None),
    ("repro.filtering.combination", "combine_leads", "filtering.combine",
     None),
    ("repro.fleet.wire", "decode_packet", "wire.decode",
     lambda data, *_a, **_k: {"bytes": _len(data)}),
    ("repro.fleet.wire", "decode_message", "wire.decode",
     lambda data, *_a, **_k: {"bytes": _len(data)}),
    ("repro.fleet.wire", "encode_packet", "wire.encode", None),
    ("repro.fleet.wire", "encode_message", "wire.encode", None),
    ("repro.fleet.wire", "encode_stream_frame", "wire.stream",
     lambda body, *_a, **_k: {"bytes": _len(body)}),
    ("repro.fleet.sharding", "decode_shard_result", "sharding.decode",
     lambda data, *_a, **_k: {"bytes": _len(data)}),
    ("repro.fleet.sharding", "merge_patient_rows", "sharding.merge", None),
]


class Tracer:
    """In-memory span recorder plus the patch set that feeds it.

    Spans nest per thread; a span's self time is its duration minus the
    durations of the spans opened directly inside it.  ``run`` tags
    every span with the operation it belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: Gateways seen at ingest, for their end-of-run diagnostics.
        self.gateways: dict[int, object] = {}
        #: Per-gateway ingest stamps of accepted arrivals, popped FIFO
        #: by the drain that emits them (queue-wait accounting).
        self._arrivals: dict[int, deque] = defaultdict(deque)
        self.queue_waits_s: list[float] = []
        self.kernel_events = 0

    # -- span bookkeeping ---------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.run)
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if before is not None:
                span.attrs = before(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Time each ``next()`` of a generator method as its own span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                span.attrs = {"records": 1}
                yield item

        return wrapper

    # -- call-specific accounting ---------------------------------------

    def _after_ingest(self, span: Span, accepted, gateway, *_a, **_k):
        key = id(gateway)
        self.gateways[key] = gateway
        if accepted:
            self._arrivals[key].append(span.start)

    def _after_drain(self, span: Span, excerpts, gateway, *_a, **_k):
        arrivals = self._arrivals[id(gateway)]
        for _ in range(min(len(excerpts), len(arrivals))):
            self.queue_waits_s.append(span.end - arrivals.popleft())

    def _after_kernel(self, span: Span, fired, *_a, **_k):
        self.kernel_events += int(fired)

    @staticmethod
    def _after_handle(span: Span, result, session, *_a, **_k):
        replies, _close = result
        span.attrs = {"patient": session.patient_id,
                      "reply": bool(replies)}

    @staticmethod
    def _after_append(span: Span, _result, writer, *_a, **_k):
        span.attrs = {"bytes": writer.n_bytes
                      - span.attrs.pop("n_bytes_before", writer.n_bytes)}

    @staticmethod
    def _after_open(span: Span, view, *_a, **_k):
        span.attrs = {"bytes": _len(view)}

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every listed entry point (idempotent per install)."""
        if self._patches:
            return
        import repro.fleet  # noqa: F401  (loads every traced module)
        import repro.fleet.journal
        import repro.pipeline  # noqa: F401

        after = {
            "gateway.ingest": self._after_ingest,
            "gateway.drain": self._after_drain,
            "kernel.run": self._after_kernel,
            "serve.handle": self._after_handle,
            "journal.append": self._after_append,
            "transport.open": self._after_open,
        }
        for module, cls_name, method, name, before in METHOD_SPANS:
            cls = getattr(sys.modules[module], cls_name)
            if method not in cls.__dict__:
                continue
            self._patch(cls, method, self._wrap(
                name, cls.__dict__[method], before, after.get(name)))
        reader = sys.modules["repro.fleet.journal"].JournalReader
        self._patch(reader, "records",
                    self._wrap_generator("journal.read", reader.records))
        for module, func, name, before in FUNCTION_SPANS:
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(name, original, before)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.split(".")[0] == "repro"
                        and getattr(mod, func, None) is original):
                    self._patch(mod, func, wrapper)

    def uninstall(self) -> None:
        """Restore every original, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_json(index)) + "\n")


#: Per-layer metrics with unit and better-direction; the order and
#: names are those of ``BENCHMARK.json``.
PER_LAYER = [
    ("signals.synthesize.calls", "count", "lower"),
    ("signals.synthesize.self_s", "s", "lower"),
    ("filtering.condition.self_s", "s", "lower"),
    ("filtering.combine.self_s", "s", "lower"),
    ("delineation.rpeak.calls", "count", "lower"),
    ("delineation.rpeak.self_s", "s", "lower"),
    ("delineation.wavelet.calls", "count", "lower"),
    ("delineation.wavelet.self_s", "s", "lower"),
    ("delineation.wavelet.samples", "count", "lower"),
    ("streaming.self_s", "s", "lower"),
    ("streaming.samples_in", "count", "lower"),
    ("streaming.redelineation_ratio", "ratio", "lower"),
    ("classification.af.calls", "count", "lower"),
    ("classification.af.self_s", "s", "lower"),
    ("node_app.process.self_s", "s", "lower"),
    ("compression.encode.windows", "count", "lower"),
    ("compression.encode.self_s", "s", "lower"),
    ("node_proxy.run.p50_s", "s", "lower"),
    ("node_proxy.run.max_s", "s", "lower"),
    ("scheduler.run.self_s", "s", "lower"),
    ("kernel.events", "count", "lower"),
    ("compression.recover.calls", "count", "lower"),
    ("compression.recover.windows", "count", "lower"),
    ("compression.recover.windows_per_call", "ratio", "higher"),
    ("compression.recover.self_s", "s", "lower"),
    ("gateway.ingest.calls", "count", "lower"),
    ("gateway.ingest.self_s", "s", "lower"),
    ("gateway.reassembly.self_s", "s", "lower"),
    ("gateway.drain.calls", "count", "lower"),
    ("gateway.drain.self_s", "s", "lower"),
    ("gateway.queue_wait_p50_ms", "ms", "lower"),
    ("gateway.dropped", "count", "lower"),
    ("gateway.duplicates", "count", "lower"),
    ("gateway.confirm.calls", "count", "lower"),
    ("gateway.confirm.self_s", "s", "lower"),
    ("wire.decode.calls", "count", "lower"),
    ("wire.decode.bytes", "bytes", "lower"),
    ("wire.decode.self_s", "s", "lower"),
    ("wire.encode.self_s", "s", "lower"),
    ("wire.stream.self_s", "s", "lower"),
    ("triage.observe.calls", "count", "lower"),
    ("triage.self_s", "s", "lower"),
    ("journal.append.calls", "count", "lower"),
    ("journal.append.bytes", "bytes", "lower"),
    ("journal.append.self_s", "s", "lower"),
    ("journal.read.records", "count", "lower"),
    ("journal.read.self_s", "s", "lower"),
    ("serve.handle.frames", "count", "lower"),
    ("serve.handle.self_s", "s", "lower"),
    ("serve.max_queue_depth", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.wait_p50_ms", "ms", "lower"),
    ("sharding.shard_wall_max_s", "s", "lower"),
    ("sharding.shard_skew", "ratio", "lower"),
    ("sharding.shard_node_max_s", "s", "lower"),
    ("sharding.shard_gateway_max_s", "s", "lower"),
    ("transport.open.self_s", "s", "lower"),
    ("transport.bytes", "bytes", "lower"),
    ("sharding.decode_merge.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def _under(span: Span, prefix: str) -> bool:
    """Whether any ancestor span's name starts with ``prefix``."""
    parent = span.parent
    while parent is not None:
        if parent.name.startswith(prefix):
            return True
        parent = parent.parent
    return False


def layer_metrics(tracer: Tracer, n_ops: int,
                  extra: dict | None = None) -> dict[str, float]:
    """Fold recorded spans into per-operation layer metrics.

    Counts and self times are totals divided by ``n_ops`` (the traced
    operations), so runs of different lengths compare.  ``extra``
    supplies the values no span carries (shard timings, server stats,
    overhead) and overrides span-derived ones of the same name.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    node_runs: list[float] = []
    redelineated = 0
    for span in tracer.spans:
        name = span.name
        if name == "delineation.rpeak" and span.parent is not None \
                and span.parent.name == "gateway.drain":
            name = "gateway.confirm"
        calls[name] += 1
        self_s[name] += span.self_s
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                attrs[f"{name}.{key}"] += value
        if name == "node_proxy.run":
            node_runs.append(span.duration)
        if name == "delineation.wavelet" and _under(span, "streaming"):
            redelineated += span.attrs.get("samples", 0)

    n = max(n_ops, 1)
    recover_calls = calls["compression.recover"]
    streamed = attrs["streaming.samples"]
    out = {
        "signals.synthesize.calls": calls["signals.synthesize"] / n,
        "signals.synthesize.self_s": self_s["signals.synthesize"] / n,
        "filtering.condition.self_s": self_s["filtering.condition"] / n,
        "filtering.combine.self_s": self_s["filtering.combine"] / n,
        "delineation.rpeak.calls": calls["delineation.rpeak"] / n,
        "delineation.rpeak.self_s": self_s["delineation.rpeak"] / n,
        "delineation.wavelet.calls": calls["delineation.wavelet"] / n,
        "delineation.wavelet.self_s": self_s["delineation.wavelet"] / n,
        "delineation.wavelet.samples":
            attrs["delineation.wavelet.samples"] / n,
        "streaming.self_s": self_s["streaming"] / n,
        "streaming.samples_in": streamed / n,
        "streaming.redelineation_ratio":
            redelineated / streamed if streamed else 0.0,
        "classification.af.calls": calls["classification.af"] / n,
        "classification.af.self_s": self_s["classification.af"] / n,
        "node_app.process.self_s": self_s["node_app.process"] / n,
        "compression.encode.windows":
            attrs["compression.encode.windows"] / n,
        "compression.encode.self_s": self_s["compression.encode"] / n,
        "node_proxy.run.p50_s":
            statistics.median(node_runs) if node_runs else 0.0,
        "node_proxy.run.max_s": max(node_runs, default=0.0),
        "scheduler.run.self_s": self_s["scheduler.run"] / n,
        "kernel.events": tracer.kernel_events / n,
        "compression.recover.calls": recover_calls / n,
        "compression.recover.windows":
            attrs["compression.recover.windows"] / n,
        "compression.recover.windows_per_call":
            (attrs["compression.recover.windows"] / recover_calls
             if recover_calls else 0.0),
        "compression.recover.self_s": self_s["compression.recover"] / n,
        "gateway.ingest.calls": calls["gateway.ingest"] / n,
        "gateway.ingest.self_s": self_s["gateway.ingest"] / n,
        "gateway.reassembly.self_s": self_s["gateway.reassembly"] / n,
        "gateway.drain.calls": calls["gateway.drain"] / n,
        "gateway.drain.self_s": self_s["gateway.drain"] / n,
        "gateway.queue_wait_p50_ms":
            (1e3 * statistics.median(tracer.queue_waits_s)
             if tracer.queue_waits_s else 0.0),
        "gateway.dropped": 0.0,
        "gateway.duplicates": 0.0,
        "gateway.confirm.calls": calls["gateway.confirm"] / n,
        "gateway.confirm.self_s": self_s["gateway.confirm"] / n,
        "wire.decode.calls": calls["wire.decode"] / n,
        "wire.decode.bytes": attrs["wire.decode.bytes"] / n,
        "wire.decode.self_s": self_s["wire.decode"] / n,
        "wire.encode.self_s": self_s["wire.encode"] / n,
        "wire.stream.self_s": self_s["wire.stream"] / n,
        "triage.observe.calls": calls["triage.observe"] / n,
        "triage.self_s":
            (self_s["triage.observe"] + self_s["triage.tick"]) / n,
        "journal.append.calls": calls["journal.append"] / n,
        "journal.append.bytes": attrs["journal.append.bytes"] / n,
        "journal.append.self_s": self_s["journal.append"] / n,
        "journal.read.records": attrs["journal.read.records"] / n,
        "journal.read.self_s": self_s["journal.read"] / n,
        "serve.handle.frames": calls["serve.handle"] / n,
        "serve.handle.self_s": self_s["serve.handle"] / n,
        "serve.max_queue_depth": 0.0,
        "serve.rejected": 0.0,
        "serve.wait_p50_ms": 0.0,
        "sharding.shard_wall_max_s": 0.0,
        "sharding.shard_skew": 0.0,
        "sharding.shard_node_max_s": 0.0,
        "sharding.shard_gateway_max_s": 0.0,
        "transport.open.self_s": self_s["transport.open"] / n,
        "transport.bytes": attrs["transport.open.bytes"] / n,
        "sharding.decode_merge.self_s":
            (self_s["sharding.decode"] + self_s["sharding.merge"]) / n,
        "trace.overhead": 0.0,
    }
    totals = {"n_duplicates": 0, "dropped": 0}
    for gateway in tracer.gateways.values():
        diag = gateway.diagnostics()
        totals["n_duplicates"] += diag["totals"]["n_duplicates"]
        totals["dropped"] += diag["queue"]["dropped"]
    out["gateway.duplicates"] = totals["n_duplicates"] / n
    out["gateway.dropped"] = totals["dropped"] / n
    out.update(extra or {})
    return out


def handle_batches(tracer: Tracer, run: int) -> dict[str, list[float]]:
    """Server handling seconds per reply-terminated frame batch.

    Groups each session's ``serve.handle`` spans of operation ``run`` in
    call order and cuts
    a batch at every frame that produced a reply (``sweep`` feedback or
    ``report`` acknowledgement), matching the batches the generator
    times end to end.
    """
    batches: dict[str, list[float]] = defaultdict(list)
    pending: dict[str, float] = defaultdict(float)
    spans = [s for s in tracer.spans
             if s.name == "serve.handle" and s.run == run]
    for span in sorted(spans, key=lambda s: s.start):
        pid = span.attrs.get("patient", "")
        pending[pid] += span.duration
        if span.attrs.get("reply"):
            batches[pid].append(pending.pop(pid))
    return dict(batches)
