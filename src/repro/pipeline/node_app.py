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
