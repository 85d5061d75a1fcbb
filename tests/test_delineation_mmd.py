"""Accuracy tests for the MMD delineator and the MMD transform."""

import numpy as np
import pytest

from repro.delineation import (
    MmdDelineator,
    MmdDelineatorConfig,
    RPeakDetector,
    evaluate_delineation,
    mmd_transform,
)


class TestMmdTransform:
    def test_zero_on_constant_signal(self):
        assert np.allclose(mmd_transform(np.full(200, 3.0), 5), 0.0)

    def test_negative_minimum_at_peak(self):
        t = np.arange(200)
        x = np.exp(-0.5 * ((t - 100) / 6.0) ** 2)
        m = mmd_transform(x, 8)
        assert np.argmin(m) == pytest.approx(100, abs=2)
        assert m[100] < 0

    def test_positive_maximum_at_pit(self):
        t = np.arange(200)
        x = -np.exp(-0.5 * ((t - 100) / 6.0) ** 2)
        m = mmd_transform(x, 8)
        assert np.argmax(m) == pytest.approx(100, abs=2)
        assert m[100] > 0

    def test_flanking_positive_lobes(self):
        t = np.arange(300)
        x = np.exp(-0.5 * ((t - 150) / 10.0) ** 2)
        m = mmd_transform(x, 10)
        assert np.max(m[110:140]) > 0
        assert np.max(m[160:190]) > 0

    def test_invalid_half_width(self):
        with pytest.raises(ValueError, match="half-width"):
            mmd_transform(np.zeros(10), 0)

    def test_baseline_invariance(self, rng):
        x = rng.standard_normal(300)
        shifted = x + 100.0
        assert np.allclose(mmd_transform(x, 6), mmd_transform(shifted, 6))


@pytest.fixture(scope="module")
def mmd_nsr_report(nsr_record):
    ecg = nsr_record.lead(1)
    peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
    detected = MmdDelineator(ecg.fs).delineate(ecg.signal, peaks)
    return evaluate_delineation(ecg.beats, detected, ecg.fs)


class TestAccuracy:
    def test_beat_level(self, mmd_nsr_report):
        assert mmd_nsr_report.beat_sensitivity >= 0.99

    def test_qrs_fiducials_above_90(self, mmd_nsr_report):
        for mark in ("onset", "peak", "end"):
            score = mmd_nsr_report.fiducials[("QRS", mark)]
            assert score.sensitivity >= 0.90, mark
            assert score.ppv >= 0.90, mark

    def test_t_fiducials_above_90(self, mmd_nsr_report):
        for mark in ("onset", "peak", "end"):
            score = mmd_nsr_report.fiducials[("T", mark)]
            assert score.sensitivity >= 0.90, mark

    def test_p_fiducials_above_85(self, mmd_nsr_report):
        # The MMD P detection is slightly weaker than the wavelet variant
        # under noise (the `t1-mmd-delineation` bench case holds P to
        # the same 85 % floor).
        for mark in ("onset", "peak", "end"):
            score = mmd_nsr_report.fiducials[("P", mark)]
            assert score.sensitivity >= 0.85, mark
            assert score.ppv >= 0.90, mark


class TestInterfaces:
    def test_empty_signal(self):
        assert MmdDelineator(250.0).delineate(np.zeros(100)) == []

    def test_invalid_fs(self):
        with pytest.raises(ValueError, match="positive"):
            MmdDelineator(0.0)

    def test_delineate_record(self, nsr_record):
        ecg = nsr_record.lead(1)
        detected = MmdDelineator(ecg.fs).delineate_record(
            ecg, use_annotated_r_peaks=True)
        assert len(detected) == len(ecg.beats)

    def test_config_presence_factors(self, af_record):
        ecg = af_record.lead(1)
        strict = MmdDelineator(ecg.fs, MmdDelineatorConfig(
            p_presence_factor=50.0))
        detected = strict.delineate(ecg.signal, ecg.r_peaks)
        assert all(not d.p_wave.present for d in detected)
