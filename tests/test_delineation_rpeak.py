"""Unit tests for repro.delineation.rpeak (Pan-Tompkins detector)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from repro.delineation import RPeakConfig, RPeakDetector, detect_r_peaks


class _PerPeakDetector(RPeakDetector):
    """Reference: the detector before it dropped its per-peak numpy
    calls (``np.mean`` per rejected candidate, one ``np.median`` and
    two ``np.argmax`` per refined peak)."""

    def detect(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] < int(0.5 * self.fs):
            return np.empty(0, dtype=int)
        bandpassed, integrated = self.feature_signal(x)
        refractory = int(round(self.config.refractory_s * self.fs))
        candidates, _ = sp_signal.find_peaks(integrated, distance=refractory)
        if candidates.shape[0] == 0:
            return np.empty(0, dtype=int)

        spki = float(np.percentile(integrated[candidates], 75)) * 0.5
        npki = float(np.percentile(integrated, 50))
        accepted: list[int] = []
        rr_history: list[float] = []

        def threshold() -> float:
            return npki + self.config.threshold_fraction * (spki - npki)

        pending: list[int] = []
        for peak in candidates:
            value = integrated[peak]
            if value > threshold():
                if accepted and peak - accepted[-1] < refractory:
                    continue
                if accepted:
                    rr_history.append(peak - accepted[-1])
                    if len(rr_history) > 8:
                        rr_history.pop(0)
                accepted.append(int(peak))
                spki = 0.125 * value + 0.875 * spki
                pending.clear()
            else:
                npki = 0.125 * value + 0.875 * npki
                pending.append(int(peak))
                if accepted and rr_history:
                    mean_rr = float(np.mean(rr_history))
                    gap = peak - accepted[-1]
                    if gap > self.config.searchback_factor * mean_rr:
                        viable = [
                            p for p in pending
                            if integrated[p] > 0.5 * threshold()
                            and p - accepted[-1] >= refractory
                        ]
                        if viable:
                            best = max(viable, key=lambda p: integrated[p])
                            rr_history.append(best - accepted[-1])
                            accepted.append(best)
                            accepted.sort()
                            spki = 0.25 * integrated[best] + 0.75 * spki
                            pending.clear()
        return self._refine(x, bandpassed,
                            np.array(sorted(set(accepted)), dtype=int))

    def _refine(self, x, bandpassed, peaks):
        if peaks.shape[0] == 0:
            return peaks
        n = x.shape[0]
        lag = int(round((self.config.integration_window_s + 0.10) * self.fs))
        lead = int(round(0.05 * self.fs))
        half = int(round(self.config.refine_window_s * self.fs))
        refined = []
        base_half = int(round(0.25 * self.fs))
        for peak in peaks:
            lo = max(0, peak - lag)
            hi = min(n, peak + lead + 1)
            coarse = lo + int(np.argmax(np.abs(bandpassed[lo:hi])))
            base_lo = max(0, coarse - base_half)
            base_hi = min(n, coarse + base_half + 1)
            baseline = float(np.median(x[base_lo:base_hi]))
            lo = max(0, coarse - half)
            hi = min(n, coarse + half + 1)
            window = x[lo:hi]
            refined.append(lo + int(np.argmax(np.abs(window - baseline))))
        refined_arr = np.array(sorted(set(refined)), dtype=int)
        keep = [0]
        refractory = int(round(self.config.refractory_s * self.fs))
        for i in range(1, refined_arr.shape[0]):
            if refined_arr[i] - refined_arr[keep[-1]] >= refractory:
                keep.append(i)
        return refined_arr[keep]


def _assert_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _match_stats(detected, truth, fs, tol_s=0.05):
    tol = int(tol_s * fs)
    tp = sum(1 for t in truth if np.any(np.abs(detected - t) <= tol))
    se = tp / len(truth) if len(truth) else 1.0
    ppv = tp / len(detected) if len(detected) else 1.0
    return se, ppv


class TestDetection:
    def test_clean_record(self, nsr_record):
        ecg = nsr_record.lead(1)
        detected = RPeakDetector(ecg.fs).detect(ecg.signal)
        se, ppv = _match_stats(detected, ecg.r_peaks, ecg.fs)
        assert se >= 0.99 and ppv >= 0.99

    def test_noisy_record(self, noisy_record):
        ecg = noisy_record.lead(1)
        detected = RPeakDetector(ecg.fs).detect(ecg.signal)
        se, ppv = _match_stats(detected, ecg.r_peaks, ecg.fs)
        assert se >= 0.95 and ppv >= 0.95

    def test_af_record(self, af_record):
        ecg = af_record.lead(1)
        detected = RPeakDetector(ecg.fs).detect(ecg.signal)
        se, ppv = _match_stats(detected, ecg.r_peaks, ecg.fs)
        assert se >= 0.95 and ppv >= 0.95

    def test_ectopy_record(self, ectopy_record):
        ecg = ectopy_record.lead(1)
        detected = RPeakDetector(ecg.fs).detect(ecg.signal)
        se, ppv = _match_stats(detected, ecg.r_peaks, ecg.fs)
        assert se >= 0.95 and ppv >= 0.95

    def test_timing_accuracy_on_clean_data(self, nsr_record):
        ecg = nsr_record.lead(1)
        detected = RPeakDetector(ecg.fs).detect(ecg.signal)
        errors = [np.min(np.abs(detected - t)) for t in ecg.r_peaks]
        assert np.mean(errors) / ecg.fs < 0.008  # < 8 ms mean error

    def test_respects_refractory_period(self, noisy_record):
        ecg = noisy_record.lead(1)
        detector = RPeakDetector(ecg.fs)
        detected = detector.detect(ecg.signal)
        spacing = np.diff(detected)
        assert np.all(spacing >= int(0.2 * ecg.fs))


class TestEdgeCases:
    def test_short_signal_returns_empty(self):
        detector = RPeakDetector(250.0)
        assert detector.detect(np.zeros(50)).size == 0

    def test_flat_signal(self):
        detector = RPeakDetector(250.0)
        detected = detector.detect(np.zeros(5000))
        assert detected.size <= 2  # numeric noise may fake <= O(1) peaks

    def test_invalid_fs(self):
        with pytest.raises(ValueError, match="positive"):
            RPeakDetector(-1.0)

    def test_wrapper_matches_detector(self, nsr_record):
        ecg = nsr_record.lead(1)
        a = detect_r_peaks(ecg)
        b = RPeakDetector(ecg.fs).detect(ecg.signal)
        assert np.array_equal(a, b)

    def test_custom_config(self, nsr_record):
        ecg = nsr_record.lead(1)
        config = RPeakConfig(refractory_s=0.3)
        detected = RPeakDetector(ecg.fs, config).detect(ecg.signal)
        assert np.all(np.diff(detected) >= int(0.3 * ecg.fs))

    def test_feature_signal_shapes(self, nsr_record):
        ecg = nsr_record.lead(1)
        bandpassed, integrated = RPeakDetector(ecg.fs).feature_signal(
            ecg.signal)
        assert bandpassed.shape == ecg.signal.shape
        assert integrated.shape == ecg.signal.shape
        assert np.all(integrated >= 0)


class TestBitIdenticalToPerPeakReference:
    """The threshold loop over python values and the row-wise refine
    return the per-peak reference's peaks, dtype and all."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(125, 6000), seed=st.integers(0, 2**32 - 1),
           levels=st.sampled_from([1, 2, 16, 4096]),
           edge=st.integers(0, 90), fs=st.sampled_from([250.0, 360.0]))
    def test_random_signals(self, n, seed, levels, edge, fs):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        rr = int(rng.integers(int(0.3 * fs), int(1.6 * fs)))
        x[int(rng.integers(0, rr)):: rr] += rng.uniform(2.0, 12.0)
        # Beats within a refine window of either edge.
        x[[edge, n - 1 - edge]] += 10.0
        # Coarse quantization forces tied maxima and tied medians.
        x = np.round(x * levels) / levels
        _assert_identical(RPeakDetector(fs).detect(x),
                          _PerPeakDetector(fs).detect(x))
        bandpassed, _ = RPeakDetector(fs).feature_signal(x)
        peaks = np.unique(np.concatenate((
            [0, edge, n - 1 - edge, n - 1], rng.integers(0, n, size=8))))
        _assert_identical(
            RPeakDetector(fs)._refine(x, bandpassed, peaks),
            _PerPeakDetector(fs)._refine(x, bandpassed, peaks))

    @pytest.mark.parametrize("record", ["nsr_record", "noisy_record",
                                        "af_record", "ectopy_record"])
    def test_fixtures_whole_and_streamed(self, request, record):
        ecg = request.getfixturevalue(record).lead(1)
        width, hop = int(8.0 * ecg.fs), int(2.0 * ecg.fs)
        windows = [ecg.signal] + [
            ecg.signal[lo:lo + width]
            for lo in range(0, ecg.signal.shape[0] - width + 1, hop)]
        assert len(windows) > 10
        for window in windows:
            _assert_identical(RPeakDetector(ecg.fs).detect(window),
                              _PerPeakDetector(ecg.fs).detect(window))
