"""Tests for the sample-at-a-time streaming monitor."""

import numpy as np
import pytest

from repro.delineation import RPeakDetector, WaveletDelineator
from repro.pipeline import StreamingConfig, StreamingMonitor, stream_record


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
