"""Tests for the sample-at-a-time streaming monitor."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.delineation import RPeakDetector, WaveletDelineator
from repro.filtering import combine_leads
from repro.pipeline import (
    RPeakMonitor,
    StreamingConfig,
    StreamingMonitor,
    stream_record,
)
from repro.signals import make_corpus


class _FullWindowMonitor(StreamingMonitor):
    """Reference burst: delineate the whole window, then keep the beats
    after the last emitted one and before the confirm horizon."""

    def _burst(self, final):
        window = self._window()
        if window.shape[0] < int(1.5 * self.config.fs):
            return []
        offset = self._total - window.shape[0]
        peaks = self._detector.detect(window)
        beats = self._delineator.delineate(window, peaks)
        horizon = window.shape[0] if final else \
            window.shape[0] - self._margin
        fresh = []
        for beat in beats:
            absolute = beat.r_peak + offset
            if absolute <= self._emitted_up_to or beat.r_peak >= horizon:
                continue
            fresh.append(beat.shifted(offset))
            self._emitted_up_to = absolute
        return fresh


def _run(monitor, signal):
    beats = monitor.push_block(signal)
    beats.extend(monitor.flush())
    return beats


class TestStreamedFiducials:
    """Each burst delineates only the beats it emits; every streamed
    fiducial must equal the whole-window reference, bit for bit."""

    @pytest.mark.parametrize("record", ["nsr_record", "af_record",
                                        "ectopy_record"])
    @pytest.mark.parametrize("buffer_s,hop_s", [(8.0, 2.0), (9.0, 3.0)])
    def test_equal_to_whole_window_reference(self, request, record,
                                             buffer_s, hop_s):
        ecg = request.getfixturevalue(record).lead(1)
        config = StreamingConfig(fs=ecg.fs, buffer_s=buffer_s, hop_s=hop_s)
        expected = _run(_FullWindowMonitor(config), ecg.signal)
        got = _run(StreamingMonitor(config), ecg.signal)
        assert len(expected) > 10
        assert got == expected


class TestStreamingEquivalence:
    def test_matches_batch_beats(self, nsr_record):
        ecg = nsr_record.lead(1)
        config = StreamingConfig(fs=ecg.fs, buffer_s=8.0, hop_s=2.0)
        streamed = stream_record(ecg.signal, config)
        peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
        batch = WaveletDelineator(ecg.fs).delineate(ecg.signal, peaks)
        streamed_peaks = np.array([b.r_peak for b in streamed])
        matched = 0
        for beat in batch:
            if np.any(np.abs(streamed_peaks - beat.r_peak)
                      <= int(0.05 * ecg.fs)):
                matched += 1
        assert matched / len(batch) >= 0.95

    def test_beats_emitted_in_order_without_duplicates(self, nsr_record):
        ecg = nsr_record.lead(1)
        streamed = stream_record(ecg.signal,
                                 StreamingConfig(fs=ecg.fs))
        peaks = [b.r_peak for b in streamed]
        assert peaks == sorted(peaks)
        assert len(peaks) == len(set(peaks))

    def test_absolute_indices(self, nsr_record):
        ecg = nsr_record.lead(1)
        streamed = stream_record(ecg.signal, StreamingConfig(fs=ecg.fs))
        truth = ecg.r_peaks
        for beat in streamed[2:-2]:
            assert np.min(np.abs(truth - beat.r_peak)) <= int(0.05 * ecg.fs)

    def test_fiducials_attached(self, nsr_record):
        ecg = nsr_record.lead(1)
        streamed = stream_record(ecg.signal, StreamingConfig(fs=ecg.fs))
        with_p = sum(1 for b in streamed if b.p_wave.present)
        assert with_p / len(streamed) > 0.9


class TestMechanics:
    def test_no_emission_before_first_hop(self, nsr_record):
        ecg = nsr_record.lead(1)
        monitor = StreamingMonitor(StreamingConfig(fs=ecg.fs, hop_s=2.0))
        emitted = []
        for sample in ecg.signal[:int(1.5 * ecg.fs)]:
            emitted.extend(monitor.push(sample))
        assert emitted == []

    def test_flush_releases_tail_beats(self, nsr_record):
        ecg = nsr_record.lead(1)
        config = StreamingConfig(fs=ecg.fs, hop_s=2.0,
                                 confirm_margin_s=0.8)
        monitor = StreamingMonitor(config)
        emitted = []
        for sample in ecg.signal:
            emitted.extend(monitor.push(sample))
        before_flush = len(emitted)
        emitted.extend(monitor.flush())
        assert len(emitted) >= before_flush  # tail beats confirmed

    def test_sample_counter(self, nsr_record):
        ecg = nsr_record.lead(1)
        monitor = StreamingMonitor(StreamingConfig(fs=ecg.fs))
        for sample in ecg.signal[:1000]:
            monitor.push(sample)
        assert monitor.samples_consumed == 1000

    def test_buffer_must_exceed_hop(self):
        with pytest.raises(ValueError, match="longer than the hop"):
            StreamingMonitor(StreamingConfig(buffer_s=1.0, hop_s=2.0))

    @pytest.mark.parametrize("hop_s", [0.0, 0.001])
    def test_hop_must_span_one_sample(self, hop_s):
        # A zero-sample hop would never advance push_block.
        with pytest.raises(ValueError, match="at least one sample"):
            StreamingMonitor(StreamingConfig(fs=250.0, hop_s=hop_s))


class TestEdgeCases:
    def test_flush_with_no_prior_samples(self):
        monitor = StreamingMonitor(StreamingConfig())
        assert monitor.flush() == []

    def test_flush_with_no_prior_burst(self, nsr_record):
        # Fewer samples than one hop: flush is the first burst to run.
        ecg = nsr_record.lead(1)
        config = StreamingConfig(fs=ecg.fs, hop_s=4.0)
        monitor = StreamingMonitor(config)
        emitted = []
        for sample in ecg.signal[:int(3.0 * ecg.fs)]:
            emitted.extend(monitor.push(sample))
        assert emitted == []
        flushed = monitor.flush()
        assert len(flushed) >= 2  # ~3 beats at 70 bpm in 3 s

    def test_record_shorter_than_warmup(self, nsr_record):
        # Below the 1.5 s burst minimum nothing is ever emitted, even at
        # flush time.
        ecg = nsr_record.lead(1)
        short = ecg.signal[:int(1.2 * ecg.fs)]
        beats = stream_record(short, StreamingConfig(fs=ecg.fs))
        assert beats == []

    def test_batch_equivalence_at_non_default_hop(self, nsr_record):
        ecg = nsr_record.lead(1)
        config = StreamingConfig(fs=ecg.fs, buffer_s=9.0, hop_s=3.0)
        streamed = stream_record(ecg.signal, config)
        peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
        batch = WaveletDelineator(ecg.fs).delineate(ecg.signal, peaks)
        streamed_peaks = np.array([b.r_peak for b in streamed])
        matched = sum(
            1 for beat in batch
            if np.any(np.abs(streamed_peaks - beat.r_peak)
                      <= int(0.05 * ecg.fs)))
        assert matched / len(batch) >= 0.95


class TestPushBlock:
    """Vectorized block ingest must mirror the per-sample path."""

    def test_block_equals_per_sample(self, nsr_record):
        signal = nsr_record.lead(1).signal
        config = StreamingConfig(fs=nsr_record.fs)
        scalar = StreamingMonitor(config)
        block = StreamingMonitor(config)
        expected = []
        for sample in signal:
            expected.extend(scalar.push(sample))
        expected.extend(scalar.flush())
        got = block.push_block(signal)
        got.extend(block.flush())
        assert got == expected
        assert block.samples_consumed == scalar.samples_consumed

    def test_split_blocks_equal_one_block(self, nsr_record):
        signal = nsr_record.lead(1).signal
        config = StreamingConfig(fs=nsr_record.fs)
        one = StreamingMonitor(config)
        beats_one = one.push_block(signal)
        beats_one.extend(one.flush())
        many = StreamingMonitor(config)
        beats_many = []
        # Awkward chunk sizes stress the ring wrap-around writes.
        for lo in range(0, signal.shape[0], 333):
            beats_many.extend(many.push_block(signal[lo:lo + 333]))
        beats_many.extend(many.flush())
        assert beats_many == beats_one

    def test_rejects_multilead_block(self, nsr_record):
        monitor = StreamingMonitor(StreamingConfig(fs=nsr_record.fs))
        with pytest.raises(ValueError, match="1-D"):
            monitor.push_block(nsr_record.signals)


@lru_cache(maxsize=None)
def _telemetry_signal(preset: str) -> tuple[np.ndarray, float]:
    """The RMS lead combination heart-rate telemetry streams, 40 s."""
    record = make_corpus(preset, n_records=1, duration_s=40.0,
                         seed=9).records[0]
    return combine_leads(record, method="rms").signal, record.fs


def _fed(monitor, signal, chunk):
    out = []
    for lo in range(0, signal.shape[0], chunk):
        out.extend(monitor.push_block(signal[lo:lo + chunk]))
    out.extend(monitor.flush())
    return out


class TestRPeakMonitor:
    """Heart-rate telemetry's monitor confirms exactly the R peaks of
    the delineating monitor, burst for burst."""

    @settings(max_examples=40, deadline=None)
    @given(preset=st.sampled_from(["nsr", "ectopy", "af_mix"]),
           n=st.integers(1, 10_000),
           shape=st.sampled_from([(8.0, 2.0, 0.8), (9.0, 3.0, 0.8),
                                  (5.0, 1.5, 0.5), (4.0, 0.7, 1.0)]),
           chunk=st.sampled_from([1, 333, 500, 10_000]))
    @example(preset="nsr", n=300, shape=(8.0, 2.0, 0.8), chunk=10_000)
    @example(preset="af_mix", n=4321, shape=(8.0, 2.0, 0.8), chunk=333)
    @example(preset="ectopy", n=10_000, shape=(9.0, 3.0, 0.8), chunk=500)
    def test_equals_delineating_monitor_peaks(self, preset, n, shape,
                                              chunk):
        signal, fs = _telemetry_signal(preset)
        buffer_s, hop_s, margin_s = shape
        config = StreamingConfig(fs=fs, buffer_s=buffer_s, hop_s=hop_s,
                                 confirm_margin_s=margin_s)
        x = signal[:n]
        expected = [b.r_peak for b in _fed(StreamingMonitor(config), x,
                                           x.shape[0] or 1)]
        got = _fed(RPeakMonitor(config), x, chunk)
        assert got == expected
        assert all(type(peak) is int for peak in got)

    def test_record_under_warmup_emits_nothing(self):
        signal, fs = _telemetry_signal("nsr")
        short = signal[:int(1.4 * fs)]
        assert _fed(RPeakMonitor(StreamingConfig(fs=fs)), short, 7) == []

    def test_record_ending_mid_hop(self):
        signal, fs = _telemetry_signal("ectopy")
        config = StreamingConfig(fs=fs)
        x = signal[:int(17.3 * fs)]  # 8 hops and 1.3 s of a ninth
        expected = [b.r_peak for b in stream_record(x, config)]
        monitor = RPeakMonitor(config)
        bursts = monitor.push_block(x)
        tail = monitor.flush()
        assert tail  # the flush confirms the last hop's beats
        assert bursts + tail == expected
        assert len(expected) > 15

    def test_builds_no_delineator(self):
        signal, fs = _telemetry_signal("nsr")
        monitor = RPeakMonitor(StreamingConfig(fs=fs))
        _fed(monitor, signal, 1000)
        assert "_delineator" not in vars(monitor)
