"""Gateway: bounded-queue ingest, demux, CS reconstruction, confirmation.

The receiving half the paper leaves off-node (ref [5]): packets from many
nodes land in a bounded ingest queue; the gateway demultiplexes them into
per-patient channels, rebuilds the per-lead sensing matrices from the
packet's encoder geometry, reconstructs every excerpt with the joint
group-sparse decoder of :mod:`repro.compression.multilead`, and — for
alarm packets — re-runs delineation and RR-irregularity analysis on the
*reconstructed* signal to confirm the node's decision before it reaches
triage.

Confirmation is deliberately conservative: a node alarm is only refuted
when the reconstruction shows enough beats AND their RR series is
regular.  Too few beats (short excerpt, poor reconstruction) keeps the
alarm — the gateway must never silently drop a real AF event.

The uplink is a lossy low-power radio, so ingest tolerates a misbehaving
link: every packet passes through a per-patient **reassembly window**
keyed on the node's sequence numbers.  Duplicates (same ``seq`` seen
again, e.g. a retransmission racing its original) are counted and
dropped before they can reach triage; out-of-order arrivals are held
back until the gap fills or the window overflows, at which point the
buffered packets are released in sequence order and the missing numbers
are recorded as gaps.  :meth:`Gateway.flush_reassembly` force-releases
whatever is still buffered at end of run.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterator

import numpy as np

from ..compression.encoder import MultiLeadCsEncoder
from ..compression.metrics import measurements_for_cr, reconstruction_snr_db
from ..compression.multilead import JointCsDecoder, MultiLeadRecovery
from ..delineation.rpeak import RPeakDetector
from ..dsp.wavelets import daubechies_filters, max_dwt_levels
from ..obs import (ANOMALY_ALARM_BURST, ANOMALY_NAN_GUARD,
                   ANOMALY_REASSEMBLY_STALL, ANOMALY_WIRE_ERROR,
                   Observability, SCOPE_SHARD)
from ..power.governor import MODE_MULTI_LEAD_CS, MODE_RAW
from .node_proxy import PACKET_ALARM, PACKET_TELEMETRY, UplinkPacket
from .wire import WireFormatError, decode_packet

#: Most written-off sequence numbers one reassembly hole may keep
#: recoverable (late-recovery bookkeeping).  Bounds the memory a
#: corrupt or hostile sequence jump can pin on a network-facing
#: gateway; stragglers from further back classify as duplicates.
MAX_TRACKED_GAP = 4096

#: Longest CS window, in samples per lead, a packet may declare.  Its
#: decoder holds an ``n x n`` DWT basis, and bases and sensing matrices
#: are cached process-wide, so a peer must not choose ``n``: at this
#: cap each costs at most 8 MiB.  The paper's windows are 256 ... 1024.
MAX_WINDOW_N = 1024

#: Most leads a CS packet may declare (a 12-lead ECG is the widest).
MAX_LEADS = 12

#: Distinct decoder geometries :func:`_build_decoder` keeps per process.
#: At the caps above one decoder holds about 210 MB of operators, so the
#: memo also bounds what peers can make a network-facing process hold.
DECODER_CACHE_SIZE = 8


@dataclass(frozen=True)
class GatewayConfig:
    """Server-side parameters.

    Attributes:
        queue_capacity: Bounded ingest queue length; packets arriving
            while it is full are dropped (and counted).
        wavelet: Sparsity basis of the joint decoder.
        n_iter: FISTA iteration budget per window.
        confirm_alarms: Re-check node alarms on the reconstruction.
        rr_cv_confirm: RR coefficient of variation at or above which an
            alarm excerpt counts as irregular (AF-like).  Sinus HRV sits
            near 0.05; AF near 0.15-0.25.
        min_confirm_beats: Minimum reconstructed beats needed before the
            gateway is allowed to overrule a node alarm.
        reassembly_window: Maximum out-of-order packets buffered per
            patient before the window force-releases in sequence order
            (skipping the missing numbers as gaps).
        reassembly_gap_ticks: :meth:`Gateway.expire_reassembly` calls
            (scheduler ticks) a gap may stall a patient's buffer before
            it is force-released — bounds head-of-line blocking behind a
            permanently lost packet to a few excerpt periods.  The
            stall clock is anchored to the buffer's *head of line*
            (oldest buffered seq): it counts only while that same
            packet stays stalled.  Every runtime sweeps on the base
            uplink grid, so this bounds the stall in virtual time too.
    """

    queue_capacity: int = 4096
    wavelet: str = "db4"
    n_iter: int = 150
    confirm_alarms: bool = True
    rr_cv_confirm: float = 0.09
    min_confirm_beats: int = 5
    reassembly_window: int = 32
    reassembly_gap_ticks: int = 3

    def __post_init__(self) -> None:
        """Reject unusable parameters up front (a journal may carry any)."""
        for name, floor in (("queue_capacity", 1), ("n_iter", 1),
                            ("reassembly_window", 1),
                            ("reassembly_gap_ticks", 1),
                            ("min_confirm_beats", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Integral) \
                    or value < floor:
                raise ValueError(f"{name} must be an integer >= {floor}, "
                                 f"got {value!r:.40}")
        try:
            daubechies_filters(self.wavelet)
        except (KeyError, TypeError):
            raise ValueError(f"wavelet {self.wavelet!r:.40} names no "
                             "basis in repro.dsp.wavelets") from None
        rr_cv = self.rr_cv_confirm
        if isinstance(rr_cv, bool) or not isinstance(rr_cv, numbers.Real) \
                or not math.isfinite(rr_cv) or rr_cv < 0:
            raise ValueError("rr_cv_confirm must be finite and >= 0, "
                             f"got {rr_cv!r:.40}")
        if not isinstance(self.confirm_alarms, bool):
            raise ValueError("confirm_alarms must be a bool, "
                             f"got {self.confirm_alarms!r:.40}")


@dataclass(frozen=True)
class ReconstructedExcerpt:
    """One processed packet, after server-side reconstruction.

    Attributes:
        patient_id: Originating node.
        timestamp_s: Packet emission time.
        kind: Packet kind (excerpt / alarm).
        signal: Reconstructed samples, shape ``(n_leads, span)``.
        snr_db: Reconstruction SNR against the packet's evaluation
            reference (nan when no reference was attached).
        confirmed: Alarm packets only — ``True`` when the gateway
            upholds the node alarm; ``None`` for routine excerpts.
        mean_hr_bpm: Node-streamed telemetry passed through.
        mode: Node operating mode stamped on the packet (governed
            fleets; ungoverned nodes always report multi-lead CS).
        soc: Battery state-of-charge telemetry (nan when ungoverned).
    """

    patient_id: str
    timestamp_s: float
    kind: str
    signal: np.ndarray
    snr_db: float
    confirmed: bool | None
    mean_hr_bpm: float = float("nan")
    mode: str = MODE_MULTI_LEAD_CS
    soc: float = float("nan")


@dataclass
class PatientChannel:
    """Per-patient ingest statistics and state.

    Attributes (beyond the processing counters):
        n_duplicates: Packets dropped because their sequence number was
            already delivered, buffered, or recovered late (duplicated
            uplink).
        n_out_of_order: Packets that arrived ahead of a gap and had to
            wait in the reassembly window, plus stragglers delivered
            after their number was written off.
        n_gaps: Sequence numbers currently written off as lost (skipped
            at a force-release and not recovered since); decremented
            when a straggler recovers its number.
        n_late_recovered: Stragglers delivered after their sequence
            number had been written off as a gap (first copy only;
            further copies count as duplicates).
        n_telemetry: Events-only telemetry packets received (governed
            nodes coasting in ``delineation_only`` mode).
        last_mode: Most recent operating-mode telemetry.
        last_soc: Most recent battery state-of-charge telemetry (nan
            until a governed packet arrives).
    """

    patient_id: str
    n_excerpts: int = 0
    n_alarms: int = 0
    n_confirmed: int = 0
    payload_bits: int = 0
    last_timestamp_s: float = 0.0
    n_duplicates: int = 0
    n_out_of_order: int = 0
    n_gaps: int = 0
    n_late_recovered: int = 0
    snrs: list[float] = field(default_factory=list)
    n_telemetry: int = 0
    last_mode: str = MODE_MULTI_LEAD_CS
    last_soc: float = float("nan")

    @property
    def mean_snr_db(self) -> float:
        """Mean reconstruction SNR of this channel (nan when unscored)."""
        return float(np.mean(self.snrs)) if self.snrs else float("nan")


class _ReassemblyBuffer:
    """Seq-ordered release with duplicate drop and a bounded window.

    Nodes number every uplink session from 0, so the expected sequence
    starts at 0 — release order per patient restores timestamp order
    for every packet that arrives within the window/timeout tolerance.
    A packet whose number was already delivered or is already waiting
    counts as a duplicate and is dropped; a straggler whose number was
    *written off as a gap* (force-release) is delivered immediately —
    late and out of order, but never dropped: it could be an
    ARQ-retransmitted alarm.

    Accounting invariants (fuzz-tested against a brute-force oracle in
    ``tests/test_fleet_gateway.py``):

    * every distinct sequence number that arrives is delivered exactly
      once, regardless of reordering, duplication or loss;
    * ``n_duplicates`` equals arrivals minus distinct arrivals — the
      first copy of a written-off number is a late recovery, every
      further copy a duplicate;
    * after a final flush, ``n_gaps`` equals the numbers below
      ``next_seq`` that never arrived, and ``missing`` holds exactly
      those numbers (always ``< next_seq``) — up to
      :data:`MAX_TRACKED_GAP` per written-off hole: a pathological
      sequence jump (corrupt or hostile seq on a network-facing
      gateway) is counted in full on ``n_gaps`` but only its most
      recent :data:`MAX_TRACKED_GAP` numbers stay recoverable, so a
      single crafted packet can never balloon ``missing``.
    """

    def __init__(self, window: int) -> None:
        self.window = window
        self.next_seq = 0
        self.buffer: dict[int, UplinkPacket] = {}
        self.missing: set[int] = set()
        #: Consecutive :meth:`Gateway.expire_reassembly` sweeps the
        #: current head-of-line packet has been observed stalled
        #: (head-anchored: reset only when the oldest buffered seq is
        #: released, never by a partial release behind it).
        self.gap_ticks = 0
        #: Oldest buffered seq the stall clock is anchored to
        #: (``None`` = no stall observed yet).
        self.stall_head: int | None = None

    def offer(self, packet: UplinkPacket,
              channel: PatientChannel) -> list[UplinkPacket]:
        """Accept one arrival; return the packets now releasable."""
        if packet.seq in self.missing:  # late recovery of a written-off
            # Deliberately no stall-clock interaction: a straggler
            # below ``next_seq`` is no progress for packets stalled
            # behind the *current* gap, and crediting it would let a
            # link replaying old stragglers extend head-of-line
            # blocking past ``reassembly_gap_ticks`` indefinitely.
            self.missing.discard(packet.seq)
            channel.n_gaps -= 1
            channel.n_out_of_order += 1
            channel.n_late_recovered += 1
            return [packet]
        if packet.seq < self.next_seq or packet.seq in self.buffer:
            channel.n_duplicates += 1
            return []
        if packet.seq > self.next_seq:
            channel.n_out_of_order += 1
        self.buffer[packet.seq] = packet
        released = self._release_contiguous()
        if len(self.buffer) > self.window:
            released.extend(self.flush(channel))
        # The stall clock is anchored to the head of line: it resets
        # only when the *oldest pending* packet made it out (a partial
        # release behind a still-missing head is no progress for the
        # packets stalled on it — the head-of-line bound must keep
        # counting or a trickle of later packets could extend the
        # stall forever).
        if self.stall_head is not None \
                and self.stall_head not in self.buffer:
            self._clear_stall()
        return released

    def flush(self, channel: PatientChannel) -> list[UplinkPacket]:
        """Release everything buffered in seq order, recording gaps.

        A single pass over the sorted sequence numbers: each hole in
        front of a buffered packet is written off exactly once (added
        to ``missing`` and counted on the channel), then the packet is
        released.  The earlier implementation interleaved
        ``_release_contiguous`` with mutation of the iteration state,
        which made double-counting a code-review question every time it
        changed; this form cannot count a gap twice by construction.
        The buffer is empty afterwards.
        """
        released: list[UplinkPacket] = []
        for seq in sorted(self.buffer):
            if seq > self.next_seq:  # hole in front of this packet
                # Track at most MAX_TRACKED_GAP numbers per hole: the
                # full range of an absurd jump (hostile seq over the
                # network) would materialize billions of set entries.
                self.missing.update(
                    range(max(self.next_seq, seq - MAX_TRACKED_GAP),
                          seq))
                channel.n_gaps += seq - self.next_seq
                self.next_seq = seq
            released.append(self.buffer.pop(seq))
            self.next_seq += 1
        self._clear_stall()
        return released

    def _release_contiguous(self) -> list[UplinkPacket]:
        released: list[UplinkPacket] = []
        while self.next_seq in self.buffer:
            released.append(self.buffer.pop(self.next_seq))
            self.next_seq += 1
        return released

    def _clear_stall(self) -> None:
        """Forget the stall anchor (head released or buffer flushed)."""
        self.gap_ticks = 0
        self.stall_head = None

    def note_sweep(self) -> None:
        """Account one expiry sweep against the current head of line.

        Re-anchors the stall clock whenever the oldest buffered seq
        changed since the last sweep (that packet made it out, or a
        new older straggler arrived and is now the blocking head);
        otherwise counts one more sweep against the same stalled
        packet.
        """
        head = min(self.buffer)
        if head != self.stall_head:
            self.stall_head = head
            self.gap_ticks = 1
        else:
            self.gap_ticks += 1


class _GatewayMetrics:
    """Pre-resolved metric families for the gateway's hot paths.

    Family lookup (name -> object) happens once here instead of per
    packet, keeping the instrumented ingest/drain paths to label-key
    construction plus a dict update — part of the <5% overhead budget.
    """

    def __init__(self, obs: Observability) -> None:
        metrics = obs.metrics
        self.ingested = metrics.counter(
            "gateway_packets_ingested_total",
            "Packets accepted into a reassembly window, by kind.")
        self.processed = metrics.counter(
            "gateway_packets_processed_total",
            "Packets drained and reconstructed, by kind.")
        self.reassembly = metrics.counter(
            "gateway_reassembly_events_total",
            "Reassembly outcomes: duplicate / out_of_order / gap / "
            "late_recovered.")
        self.alarms = metrics.counter(
            "gateway_alarms_total",
            "Alarm packets by gateway confirmation verdict.")
        self.stalls = metrics.counter(
            "gateway_reassembly_stalls_total",
            "Force-released reassembly buffers (head-of-line timeouts).")
        self.nan_guard = metrics.counter(
            "gateway_nan_guard_total",
            "Reconstructed excerpts rejected by the non-finite guard.")
        self.snr = metrics.histogram(
            "gateway_snr_db",
            "Reconstruction SNR of scored excerpts (dB).",
            buckets=(0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0))
        self.queue_dropped = metrics.counter(
            "gateway_queue_dropped_total",
            "Arrivals rejected by the bounded ingest queue "
            "(process-local back-pressure).", scope=SCOPE_SHARD)
        self.batch_windows = metrics.histogram(
            "gateway_drain_batch_windows",
            "CS windows recovered per batched FISTA call "
            "(process-local batch shape).", scope=SCOPE_SHARD,
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0))


class Gateway:
    """Multi-patient ingest and server-side reconstruction.

    Decoders are built once per process per encoder geometry
    (:func:`_build_decoder`) — the fleet shares one matrix family per
    lead count, so in practice a handful of decoders serve every
    gateway, session and replay of a process.

    When built with an :class:`~repro.obs.Observability` handle the
    gateway also keeps out-of-band accounting: fleet-scope counters for
    ingest/reassembly/alarm outcomes, trace instants stamped with
    **packet virtual time**, a per-channel flight-recorder ring of wire
    frames, and anomaly dumps on reassembly stalls, non-finite
    reconstructions, alarm bursts and undecodable frames.  All of it is
    skipped entirely when ``obs`` is ``None``, and none of it feeds
    back into processing decisions.
    """

    def __init__(self, config: GatewayConfig | None = None,
                 obs: Observability | None = None) -> None:
        self.config = config or GatewayConfig()
        self.channels: dict[str, PatientChannel] = {}
        self.dropped = 0
        self._queue: deque[UplinkPacket] = deque()
        self._reassembly: dict[str, _ReassemblyBuffer] = {}
        self.obs = obs
        self._m = _GatewayMetrics(obs) if obs is not None else None
        self._journal = None

    def attach_obs(self, obs: Observability | None) -> None:
        """Enable (or disable) observability on a built gateway.

        Lets the scheduler share one bundle with a gateway it did not
        construct.  Passing ``None`` detaches instrumentation.
        """
        self.obs = obs
        self._m = _GatewayMetrics(obs) if obs is not None else None

    def attach_journal(self, journal) -> None:
        """Attach a :class:`~repro.fleet.journal.JournalWriter`.

        Every packet that enters :meth:`ingest` from now on is appended
        to the journal as its wire frame, before reassembly or the
        bounded queue gets a say — the journal records *arrivals*, so a
        replay reproduces back-pressure decisions instead of inheriting
        them.  Passing ``None`` detaches.  Duck-typed (anything with
        ``append_packet(frame, subject)``) so this module needs no
        journal import.
        """
        self._journal = journal

    @property
    def pending(self) -> int:
        """Packets waiting in the ingest queue."""
        return len(self._queue)

    def ingest(self, frame: bytes | bytearray | memoryview,
               packet: UplinkPacket | None = None) -> bool:
        """Accept one wire frame; ``False`` when the bounded queue is full.

        **The one ingest surface.**  Every arrival is a binary wire frame
        (:func:`~repro.fleet.wire.encode_packet`): it is decoded and
        checked, flight-recorded when observability is attached, and
        journaled as received.  The packet then passes through the
        patient's reassembly window: duplicates are dropped (and
        counted on the channel), out-of-order packets wait for their
        gap, and only releasable packets enter the processing queue.
        An arrival rejected here for back-pressure never reaches the
        reassembly buffer, so its sequence number will later be written
        off as a gap like any other loss.

        Args:
            frame: The arrival's wire frame.
            packet: ``frame`` already decoded and checked, as
                ``check_geometry(decode_packet(frame), wavelet)``
                returns it; the frame is not decoded again, and the
                journal and flight recorder still get its bytes.

        Raises:
            ~repro.fleet.wire.WireFormatError: ``frame`` does not parse
                as a valid packet frame, or the packet's CS frames do
                not fit its declared geometry (:func:`check_geometry`);
                recorded as a wire-error anomaly when observability is
                attached.  Nothing is journaled or queued.
        """
        if packet is None:
            try:
                packet = check_geometry(decode_packet(frame),
                                        self.config.wavelet)
            except WireFormatError as exc:
                if self._m is not None:
                    import base64

                    self.obs.flight.anomaly(
                        ANOMALY_WIRE_ERROR, "unknown",
                        self.obs.virtual_time_s, error=str(exc),
                        frame_b64=base64.b64encode(bytes(frame)).decode(
                            "ascii"))
                raise
        if self._m is not None:
            self.obs.flight.record_frame(packet.patient_id, frame)
        if self._journal is not None:
            self._journal.append_packet(frame, packet.patient_id)
        if len(self._queue) >= self.config.queue_capacity:
            self.dropped += 1
            if self._m is not None:
                self._m.queue_dropped.inc(patient=packet.patient_id)
            return False
        channel = self.channel(packet.patient_id)
        if self._m is None:
            self._enqueue(self._reassembly_for(packet.patient_id).offer(
                packet, channel))
            return True
        before = self._reassembly_counters(channel)
        self._enqueue(self._reassembly_for(packet.patient_id).offer(
            packet, channel))
        self._note_reassembly(channel, before)
        self._m.ingested.inc(patient=packet.patient_id, kind=packet.kind)
        if self.obs.trace is not None:
            self.obs.trace.instant(
                packet.timestamp_s, "gateway.ingest",
                subject=packet.patient_id, kind=packet.kind,
                seq=packet.seq)
        return True

    @staticmethod
    def _reassembly_counters(channel: PatientChannel,
                             ) -> tuple[int, int, int, int]:
        """Snapshot the four reassembly counters of one channel."""
        return (channel.n_duplicates, channel.n_out_of_order,
                channel.n_gaps, channel.n_late_recovered)

    def _note_reassembly(self, channel: PatientChannel,
                         before: tuple[int, int, int, int]) -> None:
        """Convert channel-counter deltas into monotonic metric events.

        ``n_gaps`` alone is not monotonic (a late recovery decrements
        it), so the gap *write-off* count is reconstructed as
        ``Δn_gaps + Δn_late_recovered`` — a late recovery moves one
        unit from gaps to late_recovered and adds no new write-off.
        """
        dup, ooo, gaps, late = self._reassembly_counters(channel)
        events = (("duplicate", dup - before[0]),
                  ("out_of_order", ooo - before[1]),
                  ("gap", (gaps - before[2]) + (late - before[3])),
                  ("late_recovered", late - before[3]))
        for event, delta in events:
            if delta > 0:
                self._m.reassembly.inc(delta,
                                       patient=channel.patient_id,
                                       event=event)

    def flush_reassembly(self) -> int:
        """Force-release every reassembly buffer (end of run / timeout).

        Returns:
            Packets moved into the processing queue.
        """
        released = 0
        for patient_id, buffer in self._reassembly.items():
            channel = self.channel(patient_id)
            before = (self._reassembly_counters(channel)
                      if self._m is not None else None)
            released += self._enqueue(buffer.flush(channel))
            if before is not None:
                self._note_reassembly(channel, before)
        return released

    def expire_reassembly(self, now_s: float | None = None) -> int:
        """Write off gaps stalled for ``reassembly_gap_ticks`` sweeps.

        Call once per scheduler sweep.  Each buffer's stall clock is
        anchored to its *head of line* (oldest buffered seq): the
        clock advances only while that same packet stays stalled and
        re-anchors when the head changes, so a partial release that
        does not free the head no longer resets it — head-of-line
        blocking stays bounded even behind multiple gaps.  Expiry
        triggers after ``reassembly_gap_ticks`` consecutive sweeps.
        Stragglers arriving after their number was written off are
        still delivered (late) by the buffer.

        Args:
            now_s: Virtual time of this sweep (the scheduler passes its
                event time), stamped on the stall's trace instant and
                flight record; ``None`` stamps the ambient virtual
                clock.

        Returns:
            Packets moved into the processing queue.
        """
        released = 0
        for patient_id, buffer in self._reassembly.items():
            if not buffer.buffer:
                buffer._clear_stall()
                continue
            buffer.note_sweep()
            if buffer.gap_ticks >= self.config.reassembly_gap_ticks:
                channel = self.channel(patient_id)
                n_stalled = len(buffer.buffer)
                before = (self._reassembly_counters(channel)
                          if self._m is not None else None)
                released += self._enqueue(buffer.flush(channel))
                if before is not None:
                    self._note_reassembly(channel, before)
                    self._m.stalls.inc(patient=patient_id)
                    now = (self.obs.virtual_time_s if now_s is None
                           else now_s)
                    if self.obs.trace is not None:
                        self.obs.trace.instant(
                            now, "gateway.reassembly_stall",
                            subject=patient_id, n_released=n_stalled)
                    self.obs.flight.anomaly(
                        ANOMALY_REASSEMBLY_STALL, patient_id, now,
                        n_released=n_stalled,
                        gap_ticks=self.config.reassembly_gap_ticks)
        return released

    def _enqueue(self, packets: list[UplinkPacket]) -> int:
        """Append released packets, enforcing the queue bound strictly."""
        accepted = 0
        for packet in packets:
            if len(self._queue) >= self.config.queue_capacity:
                self.dropped += 1
                continue
            self._queue.append(packet)
            accepted += 1
        return accepted

    def _reassembly_for(self, patient_id: str) -> _ReassemblyBuffer:
        if patient_id not in self._reassembly:
            self._reassembly[patient_id] = _ReassemblyBuffer(
                self.config.reassembly_window)
        return self._reassembly[patient_id]

    def queued(self, max_packets: int | None = None,
               ) -> list[UplinkPacket]:
        """The packets ``drain(max_packets)`` would pop, in order.

        Leaves the queue as it is.
        """
        budget = len(self._queue) if max_packets is None \
            else min(max_packets, len(self._queue))
        return list(islice(self._queue, max(budget, 0)))

    def held_packets(self) -> Iterator[UplinkPacket]:
        """Every accepted packet a later drain may still pop.

        The ingest queue in order, then each patient's reassembly
        buffer.  A packet dropped at the full queue or as a duplicate
        is in neither.
        """
        yield from self._queue
        for buffer in self._reassembly.values():
            yield from buffer.buffer.values()

    def drain(self, max_packets: int | None = None,
              recoveries: list[list[MultiLeadRecovery]] | None = None,
              ) -> list[ReconstructedExcerpt]:
        """Process up to ``max_packets`` queued packets (all by default).

        Reconstruction is batched: every CS window drained this call is
        grouped by encoder geometry and each group is recovered in one
        vectorized :meth:`JointCsDecoder.recover_batch` pass (stacked
        matrix products across windows), instead of running FISTA one
        window at a time.  Outputs keep arrival order.

        Args:
            max_packets: Packet budget (``None`` drains the queue).
            recoveries: Per-packet frame recoveries of exactly the
                packets this call pops, recovered ahead of the drain
                (a journal replay's lookahead, via
                :func:`recover_packets`); the gateway recovers its own
                when omitted.

        Raises:
            ValueError: ``recoveries`` does not hold one entry per
                packet this call pops (the queue is left as it is).
        """
        packets = self.queued(max_packets)
        if recoveries is None:
            recoveries = recover_packets(packets, self.config, self._m)
        elif len(recoveries) != len(packets):
            raise ValueError(f"{len(recoveries)} recoveries for "
                             f"{len(packets)} drained packets")
        for _ in packets:
            self._queue.popleft()
        return [self._process(packet, recovery)
                for packet, recovery in zip(packets, recoveries)]

    def channel(self, patient_id: str) -> PatientChannel:
        """The (created-on-demand) channel of one patient."""
        if patient_id not in self.channels:
            self.channels[patient_id] = PatientChannel(patient_id)
        return self.channels[patient_id]

    def _process(self, packet: UplinkPacket,
                 recoveries: list[MultiLeadRecovery],
                 ) -> ReconstructedExcerpt:
        """Demux, score and (for alarms) confirm one packet.

        Args:
            packet: The packet to process.
            recoveries: Its per-frame reconstructions from the batched
                drain.
        """
        channel = self.channel(packet.patient_id)
        channel.payload_bits += packet.payload_bits
        channel.last_timestamp_s = max(channel.last_timestamp_s,
                                       packet.timestamp_s)
        channel.last_mode = packet.mode
        if np.isfinite(packet.soc):
            channel.last_soc = packet.soc
        pieces = []
        snrs = []
        if packet.frames:
            for f, recovery in enumerate(recoveries):
                pieces.append(recovery.windows)
                if packet.reference is not None:
                    snrs.extend(
                        reconstruction_snr_db(packet.reference[f, lead],
                                              recovery.windows[lead])
                        for lead in range(packet.n_leads))
        elif packet.mode == MODE_RAW and packet.reference is not None:
            # Raw-mode excerpts ship verbatim samples: nothing to
            # reconstruct, nothing to score (the copy is exact).
            pieces = [packet.reference[f]
                      for f in range(packet.reference.shape[0])]
        signal = np.concatenate(pieces, axis=1) if pieces \
            else np.zeros((packet.n_leads, 0))
        snr = float(np.mean(snrs)) if snrs else float("nan")

        confirmed: bool | None = None
        if packet.kind == PACKET_ALARM:
            channel.n_alarms += 1
            confirmed = (self._confirm(signal, packet.fs)
                         if self.config.confirm_alarms else True)
            if confirmed:
                channel.n_confirmed += 1
        elif packet.kind == PACKET_TELEMETRY:
            channel.n_telemetry += 1
        else:
            channel.n_excerpts += 1
        if np.isfinite(snr):
            channel.snrs.append(snr)
        if self._m is not None:
            self._note_processed(packet, signal, snr, confirmed)
        return ReconstructedExcerpt(
            patient_id=packet.patient_id,
            timestamp_s=packet.timestamp_s,
            kind=packet.kind,
            signal=signal,
            snr_db=snr,
            confirmed=confirmed,
            mean_hr_bpm=packet.mean_hr_bpm,
            mode=packet.mode,
            soc=packet.soc,
        )

    def _note_processed(self, packet: UplinkPacket, signal: np.ndarray,
                        snr: float, confirmed: bool | None) -> None:
        """Out-of-band accounting for one drained packet.

        Counters, the SNR histogram, trace instants at the packet's
        virtual timestamp, and the three anomaly detectors (non-finite
        reconstruction, alarm burst) — called only when observability
        is enabled, after processing is complete, so it cannot alter
        any processing outcome.
        """
        pid = packet.patient_id
        t_s = packet.timestamp_s
        self._m.processed.inc(patient=pid, kind=packet.kind)
        if np.isfinite(snr):
            self._m.snr.observe(snr, patient=pid)
        if signal.size and not np.all(np.isfinite(signal)):
            self._m.nan_guard.inc(patient=pid)
            if self.obs.trace is not None:
                self.obs.trace.instant(t_s, "gateway.nan_guard",
                                       subject=pid, kind=packet.kind)
            # ``kind`` names the anomaly itself, so the packet's kind
            # rides under its own detail key.
            self.obs.flight.anomaly(ANOMALY_NAN_GUARD, pid, t_s,
                                    packet_kind=packet.kind,
                                    seq=packet.seq)
        if confirmed is not None:
            verdict = "confirmed" if confirmed else "refuted"
            self._m.alarms.inc(patient=pid, verdict=verdict)
            if self.obs.trace is not None:
                self.obs.trace.instant(t_s, "gateway.alarm", subject=pid,
                                       verdict=verdict)
            if self.obs.flight.note_alarm(pid, t_s):
                self.obs.flight.anomaly(
                    ANOMALY_ALARM_BURST, pid, t_s,
                    threshold=self.obs.flight.alarm_burst_threshold,
                    window_s=self.obs.flight.alarm_burst_window_s)

    def diagnostics(self) -> dict:
        """Structured snapshot of every channel's link-health counters.

        The supported way to read reassembly and confirmation state —
        triage and operators should use this instead of spelunking
        :class:`PatientChannel` attributes.

        Returns:
            ``{"channels": {pid: {...}}, "totals": {...}, "queue":
            {...}}`` with patients sorted by id.  Channel entries carry
            the ingest counters (``n_excerpts``/``n_alarms``/
            ``n_confirmed``/``n_telemetry``/``payload_bits``), the
            reassembly counters (``n_duplicates``/``n_out_of_order``/
            ``n_gaps``/``n_late_recovered``), live reassembly state
            (``pending_reassembly``/``stalled_ticks``) and telemetry
            (``last_timestamp_s``/``mean_snr_db``/``last_mode``/
            ``last_soc``).  ``totals`` sums the integer counters across
            channels.
        """
        counter_keys = ("n_excerpts", "n_alarms", "n_confirmed",
                        "n_telemetry", "payload_bits", "n_duplicates",
                        "n_out_of_order", "n_gaps", "n_late_recovered")
        channels: dict[str, dict] = {}
        totals = dict.fromkeys(counter_keys, 0)
        for pid in sorted(self.channels):
            ch = self.channels[pid]
            buf = self._reassembly.get(pid)
            entry = {key: getattr(ch, key) for key in counter_keys}
            entry.update(
                pending_reassembly=len(buf.buffer) if buf else 0,
                stalled_ticks=buf.gap_ticks if buf else 0,
                last_timestamp_s=ch.last_timestamp_s,
                mean_snr_db=ch.mean_snr_db,
                last_mode=ch.last_mode,
                last_soc=ch.last_soc,
            )
            channels[pid] = entry
            for key in counter_keys:
                totals[key] += entry[key]
        return {
            "channels": channels,
            "totals": totals,
            "queue": {"pending": len(self._queue),
                      "capacity": self.config.queue_capacity,
                      "dropped": self.dropped},
        }

    def _confirm(self, signal: np.ndarray, fs: float) -> bool:
        """Re-check an alarm on the reconstructed signal.

        Delineates the best available lead and measures RR irregularity;
        refutes the alarm only on clear evidence of a regular rhythm.
        """
        if signal.size == 0:
            return True
        lead = signal[min(1, signal.shape[0] - 1)]  # lead II morphology
        peaks = RPeakDetector(fs).detect(lead)
        if peaks.shape[0] < self.config.min_confirm_beats:
            return True  # not enough evidence to overrule the node
        rr = np.diff(np.asarray(peaks, dtype=float)) / fs
        mean = float(np.mean(rr))
        if mean <= 0:
            return True
        cv = float(np.std(rr)) / mean
        return cv >= self.config.rr_cv_confirm


def check_geometry(packet: UplinkPacket, wavelet: str) -> UplinkPacket:
    """Return ``packet`` if a decoder can recover its CS frames.

    A frame the decoder cannot take would pass reassembly and then fail
    every later drain of its queue, so ingest rejects it up front.
    Packets without CS frames carry no geometry to check.

    Raises:
        ~repro.fleet.wire.WireFormatError: The CR lies outside
            [0, 100); the leads, word size or seed cannot build sensing
            matrices; the packet declares more than :data:`MAX_LEADS`
            leads or :data:`MAX_WINDOW_N` samples per window;
            ``wavelet`` has no basis for ``window_n`` samples; a
            window is not a numeric vector of
            ``measurements_for_cr(window_n, cr_percent)`` measurements;
            or a float window holds a NaN or an infinity, which would
            make its whole window's reconstruction non-finite.
    """
    if not packet.frames:
        return packet
    if not 0.0 <= packet.cr_percent < 100.0:
        raise WireFormatError(
            f"CR {packet.cr_percent!r} % lies outside [0, 100)")
    if packet.n_leads < 1 or packet.quant_bits < 2 or packet.cs_seed < 0:
        raise WireFormatError(
            f"no sensing matrices for {packet.n_leads} leads, "
            f"{packet.quant_bits}-bit words and seed {packet.cs_seed}")
    if packet.n_leads > MAX_LEADS or packet.window_n > MAX_WINDOW_N:
        raise WireFormatError(
            f"{packet.n_leads} leads of {packet.window_n}-sample windows "
            f"exceed the cap of {MAX_LEADS} leads of {MAX_WINDOW_N}")
    if max_dwt_levels(packet.window_n, wavelet) < 1:
        raise WireFormatError(
            f"no {wavelet} basis for {packet.window_n}-sample windows")
    m = measurements_for_cr(packet.window_n, packet.cr_percent)
    for frame in packet.frames:
        for window in frame:
            y = window.measurements
            if y.shape != (m,) or y.dtype.kind not in "biuf":
                raise WireFormatError(
                    f"window carries {y.shape} {y.dtype} measurements; "
                    f"{packet.window_n} samples at CR "
                    f"{packet.cr_percent} % need {m} numbers")
            if y.dtype.kind == "f" and not np.isfinite(y).all():
                raise WireFormatError(
                    "window carries non-finite measurements")
    return packet


def recover_packets(packets: list[UplinkPacket],
                    config: GatewayConfig,
                    metrics: _GatewayMetrics | None = None,
                    ) -> list[list[MultiLeadRecovery]]:
    """Batch-reconstruct every frame of ``packets`` by geometry.

    One :meth:`JointCsDecoder.recover_batch` call per encoder geometry.
    A window's recovery is a function of its own measurements alone
    (:func:`~repro.compression.multilead.group_fista_batch` is
    bit-identical under any batch partition), so frames may be
    recovered ahead of, and across, the drains that pop them.

    Args:
        packets: Packets whose frames to recover.
        config: Wavelet and FISTA budget of the decoders.
        metrics: Gateway metrics observing the batch shapes.

    Returns:
        Per-packet lists of per-frame recoveries, aligned with the
        input order.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, packet in enumerate(packets):
        key = _decoder_key(packet)
        for f in range(packet.n_frames):
            groups.setdefault(key, []).append((i, f))
    out: list[list[MultiLeadRecovery | None]] = [
        [None] * packet.n_frames for packet in packets]
    for key, refs in groups.items():
        decoder = _build_decoder(*key, config.wavelet, config.n_iter)
        frames = [packets[i].frames[f] for i, f in refs]
        if metrics is not None:
            metrics.batch_windows.observe(
                len(frames),
                n_leads=str(key[0]), window_n=str(key[1]),
                cr_percent=str(key[2]))
        for (i, f), recovery in zip(refs, decoder.recover_batch(frames)):
            out[i][f] = recovery
    return out


def _decoder_key(packet: UplinkPacket) -> tuple:
    """Encoder-geometry key identifying one decoder/matrix family."""
    return (packet.n_leads, packet.window_n, packet.cr_percent,
            packet.quant_bits, packet.cs_seed)


@lru_cache(maxsize=DECODER_CACHE_SIZE, typed=True)
def _build_decoder(n_leads: int, window_n: int, cr_percent: float,
                   quant_bits: int, cs_seed: int, wavelet: str,
                   n_iter: int) -> JointCsDecoder:
    """Joint decoder of one encoder geometry (:func:`_decoder_key`),
    built once per process.

    A decoder depends on its geometry, wavelet and FISTA budget alone
    and keeps no per-call state, so every gateway, served session and
    replay of a process shares one, from any thread; its arrays are
    stored read-only because they are shared.  The key is typed, like
    the sensing-matrix memo's, so a float seed still raises instead of
    aliasing an integer one.
    """
    encoder = MultiLeadCsEncoder(
        n_leads=n_leads, n=window_n, cr_percent=cr_percent,
        quant_bits=quant_bits, seed=cs_seed)
    decoder = JointCsDecoder(encoder.sensing_matrices, wavelet=wavelet,
                             n_iter=n_iter)
    for array in (decoder.basis, decoder.operators, decoder.operators_t):
        array.setflags(write=False)
    return decoder
