"""The full SmartCardia-style node application (paper §V).

Wires every stage of Fig. 1 into one processing chain, as the commercial
node runs it: morphological conditioning, RMS lead combination, R-peak
detection, wavelet delineation, AF analysis — and the transmission policy
of §V: "Compressed Sensing is employed to efficiently transmit excerpts of
the acquired signals, periodically or when an abnormality is detected."

The node report accounts bandwidth and energy with the models of
:mod:`repro.power`, so the examples can print end-to-end numbers (events,
bytes, battery life) for a given recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..classification.afib import AfDetector, AF_LABEL
from ..compression.encoder import MultiLeadCsEncoder
from ..delineation.rpeak import RPeakDetector
from ..delineation.wavelet_delineator import WaveletDelineator
from ..filtering.combination import combine_leads
from ..filtering.morphological import MorphologicalFilter
from ..power.battery import Battery
from ..power.governor import (
    ACUITY_ALERT,
    ACUITY_OK,
    MODE_EVENTS_ONLY,
    EnergyGovernor,
    GovernorDecision,
)
from ..power.mcu import McuModel
from ..power.node import NodeEnergyModel
from ..signals.types import BeatAnnotation, MultiLeadEcg

#: Bits per delineated-beat event record (9 fiducials x 16 bit + label).
BEAT_EVENT_BITS = 9 * 16 + 8


@dataclass(frozen=True)
class AlarmEvent:
    """One abnormality notification with its transmitted excerpt.

    Attributes:
        start: First sample of the flagged span.
        stop: Last sample of the flagged span.
        kind: Event kind (currently ``"AF"``).
        excerpt_bits: CS-compressed excerpt payload shipped with the alarm.
    """

    start: int
    stop: int
    kind: str
    excerpt_bits: int


@dataclass
class NodeReport:
    """End-to-end outcome of processing one recording on the node.

    Attributes:
        duration_s: Recording duration.
        beats: Delineated beats.
        alarms: Abnormality events raised.
        periodic_excerpts: Periodic CS excerpts transmitted.
        transmitted_bits: Total application payload handed to the radio.
        processing_cycles: Total MCU cycles spent on DSP.
        average_power_w: Node average power (radio + MCU + front-end).
        battery_days: Estimated time between charges.
    """

    duration_s: float
    beats: list[BeatAnnotation]
    alarms: list[AlarmEvent]
    periodic_excerpts: int
    transmitted_bits: int
    processing_cycles: float
    average_power_w: float
    battery_days: float
    fs: float = 250.0

    @property
    def mean_heart_rate_bpm(self) -> float:
        """Mean heart rate over the recording (nan with < 2 beats)."""
        if len(self.beats) < 2:
            return float("nan")
        peaks = np.array([b.r_peak for b in self.beats], dtype=float)
        rr_mean_samples = float(np.mean(np.diff(peaks)))
        if rr_mean_samples <= 0:
            return float("nan")
        return 60.0 * self.fs / rr_mean_samples


@dataclass(frozen=True)
class ModeSegment:
    """A maximal stretch of one recording spent in one operating mode.

    Attributes:
        start_s: Segment start within the recording.
        stop_s: Segment end.
        mode: Operating mode in force (see :data:`repro.power.MODES`).
    """

    start_s: float
    stop_s: float
    mode: str

    @property
    def duration_s(self) -> float:
        """Segment length."""
        return self.stop_s - self.start_s


@dataclass
class GovernedNodeReport:
    """Outcome of one recording processed under an :class:`EnergyGovernor`.

    The DSP chain (conditioning, delineation, AF analysis) runs exactly
    as in :class:`NodeReport`; what changes batch to batch is the
    *uplink*: the governor picks an operating mode each interval and the
    transmitted payload, power and battery drain follow its schedule.

    Attributes:
        duration_s: Recording duration.
        beats: Delineated beats (mode-independent — DSP is always on).
        alarms: Abnormality events raised (always uplinked with CS
            context, in every mode).
        decisions: Per-interval governor decisions, in time order.
        mode_seconds: Seconds spent per operating mode.
        n_switches: Mode changes executed mid-record.
        transmitted_bits: Application payload handed to the radio.
        average_power_w: Node average power under the mode schedule.
        final_soc: Battery state of charge at the end of the recording.
        projected_hours_to_empty: Hours-to-empty if the final mode held.
    """

    duration_s: float
    beats: list[BeatAnnotation]
    alarms: list[AlarmEvent]
    decisions: list[GovernorDecision]
    mode_seconds: dict[str, float]
    n_switches: int
    transmitted_bits: int
    average_power_w: float
    final_soc: float
    projected_hours_to_empty: float
    fs: float = 250.0

    @property
    def segments(self) -> list[ModeSegment]:
        """Consecutive same-mode decisions merged into segments."""
        segments: list[ModeSegment] = []
        for i, decision in enumerate(self.decisions):
            stop = (self.decisions[i + 1].t_s
                    if i + 1 < len(self.decisions) else self.duration_s)
            if segments and segments[-1].mode == decision.mode:
                segments[-1] = ModeSegment(segments[-1].start_s,
                                           stop, decision.mode)
            else:
                segments.append(ModeSegment(decision.t_s, stop,
                                            decision.mode))
        return segments


@dataclass
class CardiacMonitorNode:
    """The embedded cardiac monitor application.

    Args:
        af_detector: Trained AF detector (see
            :class:`repro.classification.afib.AfDetector`); ``None``
            disables AF analysis (no alarms are raised).
        excerpt_period_s: Period of routine CS excerpt transmissions.
        excerpt_window_s: Length of each transmitted excerpt.
        cs_cr_percent: Compression ratio of the excerpt encoder.
        dsp_cycles_per_sample: MCU cost of the always-on DSP chain
            (conditioning + delineation; matches
            ``repro.delineation.resources``).
    """

    af_detector: AfDetector | None = None
    excerpt_period_s: float = 60.0
    excerpt_window_s: float = 2.0
    cs_cr_percent: float = 60.0
    dsp_cycles_per_sample: float = 260.0
    energy_model: NodeEnergyModel = field(default_factory=NodeEnergyModel)
    battery: Battery = field(default_factory=Battery)

    def _delineate(self, record: MultiLeadEcg) -> list[BeatAnnotation]:
        """The always-on DSP chain: condition, combine, detect, delineate."""
        fs = record.fs
        conditioner = MorphologicalFilter(fs)
        conditioned = conditioner.condition_multilead(record)
        combined = combine_leads(conditioned, method="rms")
        r_peaks = RPeakDetector(fs).detect(combined.signal)
        # Delineate on a conditioned single lead (lead II morphology).
        lead_signal = conditioned.signals[min(1, record.n_leads - 1)]
        return WaveletDelineator(fs).delineate(lead_signal, r_peaks)

    def process(self, record: MultiLeadEcg) -> NodeReport:
        """Run the full on-node chain over one recording."""
        fs = record.fs
        beats = self._delineate(record)
        alarms = self._af_alarms(record, fs)
        n_samples = record.n_samples
        duration = record.duration_s

        encoder = MultiLeadCsEncoder(
            n_leads=record.n_leads,
            n=int(self.excerpt_window_s * fs),
            cr_percent=self.cs_cr_percent,
            quant_bits=self.energy_model.sample_bits)
        excerpt_bits = encoder.payload_bits_per_window()
        periodic = int(duration // self.excerpt_period_s)

        beat_bits = len(beats) * BEAT_EVENT_BITS
        alarm_bits = sum(a.excerpt_bits + 64 for a in alarms)
        total_bits = periodic * excerpt_bits + beat_bits + alarm_bits

        dsp_cycles = self.dsp_cycles_per_sample * n_samples * record.n_leads
        cs_cycles = (periodic + len(alarms)) \
            * encoder.additions_per_window() \
            * self.energy_model.cycles_per_addition
        cycles = dsp_cycles + cs_cycles

        power = self._average_power(total_bits, cycles, duration, record)
        return NodeReport(
            duration_s=duration,
            beats=beats,
            alarms=alarms,
            periodic_excerpts=periodic,
            transmitted_bits=int(total_bits),
            processing_cycles=cycles,
            average_power_w=power,
            battery_days=self.battery.lifetime_days(power),
            fs=fs,
        )

    def process_governed(self, record: MultiLeadEcg,
                         governor: EnergyGovernor,
                         interval_s: float | None = None,
                         acuity_fn=None,
                         extra_load_fn=None) -> GovernedNodeReport:
        """Run the chain with the governor switching modes mid-record.

        The DSP chain runs over the whole recording exactly as in
        :meth:`process` (delineation never pauses); the *uplink* follows
        the governor: each batch interval it picks an operating mode
        from battery state of charge and acuity, and the transmitted
        payload and node power follow that schedule.  Alarms always ship
        their CS-compressed context, whatever the mode — the §V policy's
        "when an abnormality is detected" leg is not negotiable.

        Args:
            record: The recording to process.
            governor: The (stateful) mode controller; its battery drains
                across the call, so consecutive recordings continue the
                discharge curve.
            interval_s: Governor batch interval; defaults to the radio
                duty-cycle policy's batching interval.
            acuity_fn: ``fn(t_s) -> acuity`` override.  By default a
                node-local proxy is used: ``alert`` while an on-node
                alarm is within the last 60 s, else ``ok`` (the fleet
                scheduler replaces this with gateway-fed triage state).
            extra_load_fn: ``fn(t_s) -> watts`` of parasitic drain
                (scenario ``battery_drain`` faults).

        Returns:
            The :class:`GovernedNodeReport` with the mode timeline.
        """
        fs = record.fs
        duration = record.duration_s
        beats = self._delineate(record)
        alarms = self._af_alarms(record, fs)
        dt = (interval_s if interval_s is not None
              else governor.table.duty.policy.batch_interval_s)
        if dt <= 0:
            raise ValueError("interval_s must be positive")

        alarm_times = [a.start / fs for a in alarms]

        def default_acuity(t_s: float) -> str:
            recent = any(t_s - 60.0 <= at < t_s + dt for at in alarm_times)
            return ACUITY_ALERT if recent else ACUITY_OK

        acuity_at = acuity_fn or default_acuity
        table = governor.table
        model = self.energy_model
        decisions: list[GovernorDecision] = []
        mode_seconds: dict[str, float] = {}
        total_bits = 0.0
        energy = 0.0
        t = 0.0
        while t < duration - 1e-9:
            step = min(dt, duration - t)
            extra = extra_load_fn(t) if extra_load_fn is not None else 0.0
            # Alarm uplink energy rides through the governor as an
            # extra load, so the battery drain and the reported power
            # stay mutually consistent (decision.power_w covers
            # everything the interval cost).
            interval_alarms = [a for a in alarms
                               if t <= a.start / fs < t + step]
            alarm_bits = sum(a.excerpt_bits + 64 for a in interval_alarms)
            if alarm_bits:
                extra += model.link.transmit(alarm_bits).energy_j / step
            decision = governor.step(step, acuity_at(t), extra_load_w=extra)
            decisions.append(decision)
            mode = decision.mode
            mode_seconds[mode] = mode_seconds.get(mode, 0.0) + step
            energy += decision.power_w * step
            if mode != MODE_EVENTS_ONLY:
                total_bits += table.payload_bits_per_s(mode) * step
            n_interval_beats = sum(1 for b in beats
                                   if t <= b.r_peak / fs < t + step)
            total_bits += n_interval_beats * BEAT_EVENT_BITS
            total_bits += alarm_bits
            t += step

        return GovernedNodeReport(
            duration_s=duration,
            beats=beats,
            alarms=alarms,
            decisions=decisions,
            mode_seconds=mode_seconds,
            n_switches=sum(1 for d in decisions if d.switched),
            transmitted_bits=int(total_bits),
            average_power_w=energy / duration,
            final_soc=governor.battery.soc,
            projected_hours_to_empty=governor.projected_hours_to_empty(),
            fs=fs,
        )

    def _af_alarms(self, record: MultiLeadEcg, fs: float) -> list[AlarmEvent]:
        """AF window decisions merged into alarm events."""
        if self.af_detector is None:
            return []
        windows, labels = self.af_detector.predict_record(record)
        excerpt_bits = MultiLeadCsEncoder(
            n_leads=record.n_leads, n=int(self.excerpt_window_s * fs),
            cr_percent=self.cs_cr_percent,
            quant_bits=self.energy_model.sample_bits,
        ).payload_bits_per_window()
        alarms: list[AlarmEvent] = []
        current: list[int] = []
        for window, label in zip(windows, labels):
            if label == AF_LABEL:
                current.append(window.start)
                current.append(window.stop)
            elif current:
                alarms.append(AlarmEvent(start=min(current),
                                         stop=max(current), kind="AF",
                                         excerpt_bits=excerpt_bits))
                current = []
        if current:
            alarms.append(AlarmEvent(start=min(current), stop=max(current),
                                     kind="AF", excerpt_bits=excerpt_bits))
        return alarms

    def _average_power(self, total_bits: float, cycles: float,
                       duration: float, record: MultiLeadEcg) -> float:
        """Node average power from payload, cycles and standing costs."""
        model = self.energy_model
        radio = model.link.transmit(int(total_bits)).energy_j
        mcu: McuModel = model.mcu
        compute = mcu.compute_energy(cycles)
        rtos = mcu.rtos_energy(duration)
        active_fraction = min(1.0, cycles / (mcu.clock_hz * duration))
        sleep = mcu.idle_energy(duration, active_fraction)
        sampling = model.frontend.sampling_energy(
            record.n_samples, record.n_leads, duration)
        return (radio + compute + rtos + sleep + sampling) / duration
