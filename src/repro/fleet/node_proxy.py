"""Per-patient node proxy: the uplink side of the fleet link.

Wraps the existing node paths — :class:`~repro.pipeline.RPeakMonitor`
for incremental heart-rate telemetry and
:class:`~repro.pipeline.CardiacMonitorNode` for alarms, bandwidth and
energy accounting — into a node that *emits packets*: timestamped
periodic CS excerpts plus alarm events carrying CS-compressed context,
exactly the §V transmission policy ("periodically or when an abnormality
is detected").

Every packet carries the encoder geometry (window length, CR, seed), so
the gateway can rebuild the sensing matrices and reconstruct without any
side channel.  The ``reference`` field holds the original samples for
reconstruction-SNR scoring only; it is never counted as payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..classification.afib import AfDetector
from ..compression.encoder import EncodedWindow, MultiLeadCsEncoder
from ..filtering.combination import combine_leads
from ..pipeline.node_app import CardiacMonitorNode, NodeReport
from ..pipeline.streaming import RPeakMonitor, StreamingConfig
from ..power.governor import (
    MODE_EVENTS_ONLY,
    MODE_MULTI_LEAD_CS,
    MODE_RAW,
    MODE_SINGLE_LEAD_CS,
)
from ..signals.types import MultiLeadEcg
from .cohort import PatientProfile

PACKET_EXCERPT = "excerpt"
PACKET_ALARM = "alarm"
#: Events-only uplink: no waveform, just telemetry (heart rate, mode,
#: battery state of charge) — what a governed node sends while coasting
#: in ``delineation_only`` mode.
PACKET_TELEMETRY = "telemetry"

#: Per-packet link-layer header charged on top of the CS payload
#: (patient id, sequence number, timestamp, kind).
PACKET_HEADER_BITS = 64

#: Telemetry body bits (heart rate, state of charge, mode, beat count).
TELEMETRY_BITS = 96


@dataclass(frozen=True)
class UplinkPacket:
    """One timestamped uplink transmission from a node.

    Attributes:
        patient_id: Emitting node.
        seq: Per-patient sequence number.
        timestamp_s: Emission time within the recording.
        kind: :data:`PACKET_EXCERPT` or :data:`PACKET_ALARM`.
        start: First sample covered by the excerpt.
        frames: Consecutive CS windows; each frame holds one
            :class:`EncodedWindow` per lead.
        payload_bits: Bits on the air (CS payload + header).
        n_leads: Leads in each frame.
        window_n: Samples per CS window.
        cr_percent: Compression ratio the encoder ran at.
        quant_bits: Measurement word size.
        cs_seed: Base seed of the per-lead sensing matrices.
        fs: Node sampling rate.
        mean_hr_bpm: Streamed heart-rate telemetry (nan when unknown).
        reference: Original samples ``(frames, leads, window_n)`` for
            SNR scoring; evaluation-only, excluded from ``payload_bits``.
        mode: Operating mode the node was in when it emitted this packet
            (see :data:`repro.power.MODES`).  ``raw``-mode excerpts ship
            uncompressed samples in ``reference`` with no CS frames.
        soc: Battery state-of-charge telemetry at emission (nan when the
            node runs ungoverned).
    """

    patient_id: str
    seq: int
    timestamp_s: float
    kind: str
    start: int
    frames: tuple[tuple[EncodedWindow, ...], ...]
    payload_bits: int
    n_leads: int
    window_n: int
    cr_percent: float
    quant_bits: int
    cs_seed: int
    fs: float
    mean_hr_bpm: float = float("nan")
    reference: np.ndarray | None = None
    mode: str = MODE_MULTI_LEAD_CS
    soc: float = float("nan")

    @property
    def n_frames(self) -> int:
        """Number of consecutive CS windows carried."""
        return len(self.frames)

    @property
    def span_samples(self) -> int:
        """Samples of signal covered by the excerpt."""
        return self.n_frames * self.window_n


@dataclass(frozen=True)
class NodeProxyConfig:
    """Uplink policy of one node.

    Attributes:
        excerpt_period_s: Period of routine CS excerpt transmissions.
        window_n: CS window length in samples (all frames).
        cr_percent: CS compression ratio.
        quant_bits: Measurement word size.
        cs_seed: Base sensing-matrix seed, shared fleet-wide so the
            gateway (and the batch encoder) can reuse one matrix family.
        alarm_context_s: Signal context shipped with each alarm (rounded
            up to whole CS windows; must cover a few beats so the
            gateway can re-check RR irregularity).
        stream_telemetry: Run the streaming monitor over the combined
            lead and attach per-period heart-rate telemetry.
        attach_reference: Ship original samples for SNR evaluation.
    """

    excerpt_period_s: float = 60.0
    window_n: int = 256
    cr_percent: float = 60.0
    quant_bits: int = 12
    cs_seed: int = 11
    alarm_context_s: float = 8.0
    stream_telemetry: bool = True
    attach_reference: bool = True


class NodeProxy:
    """One patient's node: processes a recording, emits uplink packets.

    Args:
        profile: The patient this node is strapped to.
        config: Uplink policy.
        af_detector: Trained AF detector shared across the fleet; the
            proxy rebinds its delineation lead to the node's lead count.
    """

    def __init__(self, profile: PatientProfile,
                 config: NodeProxyConfig | None = None,
                 af_detector: AfDetector | None = None) -> None:
        self.profile = profile
        self.config = config or NodeProxyConfig()
        self.af_detector = _rebind_lead(af_detector, profile.n_leads)
        self.encoder = MultiLeadCsEncoder(
            n_leads=profile.n_leads,
            n=self.config.window_n,
            cr_percent=self.config.cr_percent,
            quant_bits=self.config.quant_bits,
            seed=self.config.cs_seed,
        )
        self._seq = 0
        self._fs = 250.0
        self._sl_encoder: MultiLeadCsEncoder | None = None
        #: Per-excerpt-period mean heart rate from the streaming pass of
        #: the last :meth:`run` (the scheduler reads this for batched
        #: excerpt packets).
        self.heart_rates: dict[int, float] = {}

    @property
    def delineation_lead(self) -> int:
        """Lead index carrying the lead II morphology (repo convention)."""
        return min(1, self.profile.n_leads - 1)

    @property
    def sl_encoder(self) -> MultiLeadCsEncoder:
        """Single-lead encoder for ``single_lead_cs`` mode (same matrix
        family/seed as the fleet, 1-lead geometry)."""
        if self._sl_encoder is None:
            cfg = self.config
            self._sl_encoder = MultiLeadCsEncoder(
                n_leads=1, n=cfg.window_n, cr_percent=cfg.cr_percent,
                quant_bits=cfg.quant_bits, seed=cfg.cs_seed)
        return self._sl_encoder

    def single_lead_packet(self, record: MultiLeadEcg, start: int,
                           timestamp_s: float,
                           mean_hr_bpm: float = float("nan"),
                           soc: float = float("nan")) -> UplinkPacket:
        """Single-lead-CS excerpt: only the delineation lead goes up."""
        cfg = self.config
        window = record.signals[self.delineation_lead:
                                self.delineation_lead + 1,
                                start:start + cfg.window_n]
        return self.packet_from_frames(
            kind=PACKET_EXCERPT,
            timestamp_s=timestamp_s,
            start=start,
            frames=[self.sl_encoder.encode(window)],
            reference=(window[np.newaxis] if cfg.attach_reference
                       else None),
            mean_hr_bpm=mean_hr_bpm,
            mode=MODE_SINGLE_LEAD_CS,
            soc=soc,
            n_leads=1,
        )

    def run(self, record: MultiLeadEcg,
            emit_excerpts: bool = True,
            emit_alarms: bool = True,
            ) -> tuple[NodeReport, list[UplinkPacket]]:
        """Process one recording; return the node report and its uplink.

        Sequence numbers of the returned packets follow uplink
        (timestamp) order, so a receiver reassembling on ``seq`` also
        restores timestamp order.  Numbering continues from any earlier
        run of the same proxy — a gateway channel survives consecutive
        recordings without mistaking the new session for duplicates.

        Args:
            record: The patient's recording (lead count must match the
                profile).
            emit_excerpts: Emit the periodic excerpt packets here.  The
                fleet scheduler sets this to ``False`` and produces the
                identical packets through its vectorized batch encoder.
            emit_alarms: Emit alarm packets here.  The fleet scheduler
                sets this to ``False`` too and builds each alarm packet
                (:meth:`alarm_packet`) at the tick that uplinks it, so
                sequence numbers are assigned in true send order.
        """
        if record.n_leads != self.profile.n_leads:
            raise ValueError(
                f"record has {record.n_leads} leads, node expects "
                f"{self.profile.n_leads}")
        cfg = self.config
        base_seq = self._seq
        self._fs = record.fs
        node = CardiacMonitorNode(
            af_detector=self.af_detector,
            excerpt_period_s=cfg.excerpt_period_s,
            excerpt_window_s=cfg.window_n / record.fs,
            cs_cr_percent=cfg.cr_percent,
        )
        report = node.process(record)
        self.heart_rates = (self._stream_heart_rates(record)
                            if cfg.stream_telemetry else {})
        hr_by_period = self.heart_rates

        packets: list[UplinkPacket] = []
        if emit_excerpts:
            for period, start in enumerate(
                    self.excerpt_starts(record.n_samples, record.fs)):
                window = record.signals[:, start:start + cfg.window_n]
                packets.append(self.packet_from_frames(
                    kind=PACKET_EXCERPT,
                    timestamp_s=(period + 1) * cfg.excerpt_period_s,
                    start=start,
                    frames=[self.encoder.encode(window)],
                    reference=window[np.newaxis] if cfg.attach_reference
                    else None,
                    mean_hr_bpm=hr_by_period.get(period, float("nan")),
                ))
        if emit_alarms:
            for alarm in report.alarms:
                packets.append(self.alarm_packet(record, alarm.start))
        packets.sort(key=lambda p: (p.timestamp_s, p.seq))
        packets = [replace(p, seq=base_seq + i)
                   for i, p in enumerate(packets)]
        self._seq = base_seq + len(packets)
        return report, packets

    def excerpt_starts(self, n_samples: int, fs: float) -> list[int]:
        """Window start samples of the periodic excerpt schedule.

        Each excerpt covers the ``window_n`` samples ending at its
        period boundary.

        Raises:
            ValueError: When the period is too short to hold one window.
        """
        cfg = self.config
        period = int(cfg.excerpt_period_s * fs)
        if period < cfg.window_n:
            raise ValueError(
                f"excerpt_period_s ({cfg.excerpt_period_s} s = {period} "
                f"samples) must cover at least one CS window "
                f"({cfg.window_n} samples)")
        return [t - cfg.window_n for t in range(period, n_samples + 1,
                                                period)]

    def packet_from_frames(self, kind: str, timestamp_s: float, start: int,
                           frames: list[list[EncodedWindow]],
                           reference: np.ndarray | None = None,
                           mean_hr_bpm: float = float("nan"),
                           mode: str = MODE_MULTI_LEAD_CS,
                           soc: float = float("nan"),
                           n_leads: int | None = None,
                           ) -> UplinkPacket:
        """Assemble one packet from already-encoded frames.

        Args:
            kind: Packet kind constant.
            timestamp_s: Emission time.
            start: First covered sample.
            frames: Per-frame, per-lead encoded windows.
            reference: Evaluation-only original samples.
            mean_hr_bpm: Heart-rate telemetry.
            mode: Operating-mode telemetry stamped on the packet.
            soc: Battery state-of-charge telemetry.
            n_leads: Leads carried per frame; defaults to the node's
                lead count (``single_lead_cs`` packets carry 1).
        """
        cfg = self.config
        payload = sum(w.payload_bits for frame in frames for w in frame)
        packet = UplinkPacket(
            patient_id=self.profile.patient_id,
            seq=self._seq,
            timestamp_s=timestamp_s,
            kind=kind,
            start=start,
            frames=tuple(tuple(frame) for frame in frames),
            payload_bits=payload + PACKET_HEADER_BITS,
            n_leads=self.profile.n_leads if n_leads is None else n_leads,
            window_n=cfg.window_n,
            cr_percent=cfg.cr_percent,
            quant_bits=cfg.quant_bits,
            cs_seed=cfg.cs_seed,
            fs=self._fs,
            mean_hr_bpm=mean_hr_bpm,
            reference=reference,
            mode=mode,
            soc=soc,
        )
        self._seq += 1
        return packet

    def telemetry_packet(self, timestamp_s: float,
                         mean_hr_bpm: float = float("nan"),
                         soc: float = float("nan")) -> UplinkPacket:
        """Events-only uplink: heart rate, mode and SoC, no waveform.

        What a governed node sends at each tick while coasting in
        ``delineation_only`` mode — a fixed :data:`TELEMETRY_BITS` body
        instead of a CS excerpt.
        """
        packet = UplinkPacket(
            patient_id=self.profile.patient_id,
            seq=self._seq,
            timestamp_s=timestamp_s,
            kind=PACKET_TELEMETRY,
            start=0,
            frames=(),
            payload_bits=TELEMETRY_BITS + PACKET_HEADER_BITS,
            n_leads=self.profile.n_leads,
            window_n=self.config.window_n,
            cr_percent=self.config.cr_percent,
            quant_bits=self.config.quant_bits,
            cs_seed=self.config.cs_seed,
            fs=self._fs,
            mean_hr_bpm=mean_hr_bpm,
            mode=MODE_EVENTS_ONLY,
            soc=soc,
        )
        self._seq += 1
        return packet

    def raw_packet(self, record: MultiLeadEcg, start: int,
                   timestamp_s: float,
                   mean_hr_bpm: float = float("nan"),
                   soc: float = float("nan")) -> UplinkPacket:
        """Raw-mode excerpt: uncompressed samples, no CS frames.

        The window rides in ``reference`` (shape ``(1, leads, n)``) and
        the gateway passes it through verbatim — there is nothing to
        reconstruct, and no SNR is scored (the copy is exact).
        ``payload_bits`` charges the full uncompressed word size.
        """
        cfg = self.config
        window = record.signals[:, start:start + cfg.window_n]
        payload = window.shape[0] * window.shape[1] * cfg.quant_bits
        packet = UplinkPacket(
            patient_id=self.profile.patient_id,
            seq=self._seq,
            timestamp_s=timestamp_s,
            kind=PACKET_EXCERPT,
            start=start,
            frames=(),
            payload_bits=payload + PACKET_HEADER_BITS,
            n_leads=self.profile.n_leads,
            window_n=cfg.window_n,
            cr_percent=cfg.cr_percent,
            quant_bits=cfg.quant_bits,
            cs_seed=cfg.cs_seed,
            fs=self._fs,
            mean_hr_bpm=mean_hr_bpm,
            reference=window[np.newaxis].copy(),
            mode=MODE_RAW,
            soc=soc,
        )
        self._seq += 1
        return packet

    def alarm_packet(self, record: MultiLeadEcg,
                     alarm_start: int) -> UplinkPacket:
        """CS-compressed context around an abnormality event.

        The packet timestamp is the alarm *event* time; the ``start``
        field carries the (possibly earlier, clamped-to-fit) first
        sample of the shipped context.
        """
        cfg = self.config
        n = cfg.window_n
        n_frames = max(1, math.ceil(cfg.alarm_context_s * record.fs / n))
        start = min(max(0, alarm_start),
                    max(0, record.n_samples - n_frames * n))
        frames = []
        refs = []
        for f in range(n_frames):
            lo = start + f * n
            window = record.signals[:, lo:lo + n]
            if window.shape[1] < n:
                break
            frames.append(self.encoder.encode(window))
            refs.append(window)
        reference = np.stack(refs) if (refs and cfg.attach_reference) else None
        return self.packet_from_frames(
            kind=PACKET_ALARM,
            timestamp_s=max(0, alarm_start) / record.fs,
            start=start,
            frames=frames,
            reference=reference,
        )

    def _stream_heart_rates(self, record: MultiLeadEcg) -> dict[int, float]:
        """Mean heart rate per excerpt period, via the streaming monitor.

        Only R peaks feed the rate, so the monitor confirms them without
        delineating the beats.
        """
        combined = combine_leads(record, method="rms")
        monitor = RPeakMonitor(StreamingConfig(fs=record.fs))
        period = int(self.config.excerpt_period_s * record.fs)
        peaks_by_period: dict[int, list[int]] = {}
        r_peaks = monitor.push_block(combined.signal)
        r_peaks.extend(monitor.flush())
        for r_peak in r_peaks:
            peaks_by_period.setdefault(r_peak // period, []).append(r_peak)
        rates: dict[int, float] = {}
        for period_idx, peaks in peaks_by_period.items():
            if len(peaks) < 2:
                continue
            rr = np.diff(np.sort(np.asarray(peaks, dtype=float)))
            mean_rr = float(np.mean(rr))
            if mean_rr > 0:
                rates[period_idx] = 60.0 * record.fs / mean_rr
        return rates


def _rebind_lead(detector: AfDetector | None,
                 n_leads: int) -> AfDetector | None:
    """Clone a trained detector onto the node's available leads.

    The fleet trains one detector offline (3-lead corpus); nodes with
    fewer leads delineate on their best available lead while sharing the
    trained fuzzy classifier.
    """
    if detector is None:
        return None
    lead = min(detector.lead, n_leads - 1)
    if lead == detector.lead:
        return detector
    clone = AfDetector(window_beats=detector.window_beats,
                       step_beats=detector.step_beats,
                       lead=lead, membership=detector.membership)
    clone.classifier = detector.classifier
    return clone
