"""Accuracy tests for the wavelet delineator (paper T1 claims)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.delineation import (
    RPeakDetector,
    WaveletDelineator,
    WaveletDelineatorConfig,
    evaluate_delineation,
)
from repro.delineation.wavelet_delineator import (
    _lower_quartile,
    robust_noise_level,
)


@pytest.fixture(scope="module")
def nsr_report(nsr_record):
    ecg = nsr_record.lead(1)
    peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
    detected = WaveletDelineator(ecg.fs).delineate(ecg.signal, peaks)
    return evaluate_delineation(ecg.beats, detected, ecg.fs)


class TestAccuracyNsr:
    def test_beat_level_perfect(self, nsr_report):
        assert nsr_report.beat_sensitivity >= 0.99
        assert nsr_report.beat_ppv >= 0.99

    def test_all_fiducials_above_90(self, nsr_report):
        # The paper's claim: Se and PPV above 90 % for all fiducials.
        assert nsr_report.worst_sensitivity() >= 0.90
        assert nsr_report.worst_ppv() >= 0.90

    @pytest.mark.parametrize("wave,mark", [
        ("QRS", "onset"), ("QRS", "peak"), ("QRS", "end"),
        ("P", "onset"), ("P", "peak"), ("P", "end"),
        ("T", "onset"), ("T", "peak"), ("T", "end"),
    ])
    def test_each_fiducial(self, nsr_report, wave, mark):
        score = nsr_report.fiducials[(wave, mark)]
        assert score.sensitivity >= 0.90
        assert score.ppv >= 0.90

    def test_biases_are_small(self, nsr_report):
        for (wave, mark), score in nsr_report.fiducials.items():
            assert abs(score.mean_error_s) < 0.030, (wave, mark)


class TestAfBehaviour:
    def test_p_wave_declared_absent_in_af(self, af_record):
        ecg = af_record.lead(1)
        peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
        detected = WaveletDelineator(ecg.fs).delineate(ecg.signal, peaks)
        report = evaluate_delineation(ecg.beats, detected, ecg.fs)
        presence = report.presence["P"]
        # In AF all P waves are truly absent; specificity counts the
        # correctly-rejected ones.
        assert presence.specificity >= 0.90

    def test_p_wave_present_in_nsr(self, nsr_record):
        ecg = nsr_record.lead(1)
        peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
        detected = WaveletDelineator(ecg.fs).delineate(ecg.signal, peaks)
        report = evaluate_delineation(ecg.beats, detected, ecg.fs)
        assert report.presence["P"].sensitivity >= 0.95


class TestInterfaces:
    def test_internal_peak_detection(self, nsr_record):
        ecg = nsr_record.lead(1)
        detected = WaveletDelineator(ecg.fs).delineate(ecg.signal)
        assert len(detected) == pytest.approx(len(ecg.beats), abs=2)

    def test_delineate_record_with_truth_seeds(self, nsr_record):
        ecg = nsr_record.lead(1)
        delineator = WaveletDelineator(ecg.fs)
        detected = delineator.delineate_record(ecg,
                                               use_annotated_r_peaks=True)
        assert len(detected) == len(ecg.beats)

    def test_empty_signal(self):
        assert WaveletDelineator(250.0).delineate(np.zeros(100)) == []

    def test_transform_shape(self, nsr_record):
        ecg = nsr_record.lead(1)
        w = WaveletDelineator(ecg.fs).transform(ecg.signal[:1000])
        assert w.shape == (5, 1000)

    def test_invalid_fs(self):
        with pytest.raises(ValueError, match="positive"):
            WaveletDelineator(0.0)

    def test_custom_config_scales(self, nsr_record):
        ecg = nsr_record.lead(1)
        config = WaveletDelineatorConfig(levels=4, t_scale=2)
        detected = WaveletDelineator(ecg.fs, config).delineate(
            ecg.signal, ecg.r_peaks)
        assert len(detected) == len(ecg.beats)

    def test_robust_noise_level_tracks_sigma(self, rng):
        x = rng.normal(0.0, 0.5, 100_000)
        assert robust_noise_level(x) == pytest.approx(0.5, rel=0.05)


class TestBeatSelection:
    """A selected beat is annotated exactly as the full call annotates
    it: its fiducials depend on the whole-signal transform, its own and
    its neighbours' R peaks, and the signal-wide QRS noise floor."""

    @pytest.mark.parametrize("record", ["nsr_record", "af_record",
                                        "ectopy_record"])
    @pytest.mark.parametrize("select", [
        slice(None), slice(3, 9), slice(0, 1), slice(-4, None),
        slice(1, None, 3),
    ])
    def test_selection_equals_slice_of_full_call(self, request, record,
                                                 select):
        ecg = request.getfixturevalue(record).lead(1)
        peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
        delineator = WaveletDelineator(ecg.fs)
        full = delineator.delineate(ecg.signal, peaks)
        got = delineator.delineate(ecg.signal, peaks, select=select)
        assert got == full[select]

    def test_empty_selection_skips_the_transform(self, nsr_record,
                                                 monkeypatch):
        ecg = nsr_record.lead(1)
        peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
        delineator = WaveletDelineator(ecg.fs)

        def no_transform(x):
            raise AssertionError("transform computed for no beats")

        monkeypatch.setattr(delineator, "transform", no_transform)
        assert delineator.delineate(ecg.signal, peaks,
                                    select=slice(5, 5)) == []
        assert delineator.delineate(ecg.signal, peaks,
                                    select=slice(9, 4)) == []


class TestLowerQuartile:
    """The per-beat P/T background must be ``np.percentile(a, 25)``
    bit for bit, so swapping it in cannot move a fiducial."""

    @settings(max_examples=300, deadline=None)
    @given(values=hnp.arrays(
        np.float64, st.integers(2, 400),
        elements=st.one_of(st.floats(),
                           st.sampled_from([0.0, -0.0, 1.0, np.inf]))))
    def test_matches_numpy_percentile_bit_for_bit(self, values):
        with np.errstate(all="ignore"):  # inf - inf, huge spans
            expected = np.percentile(values, 25)
        got = _lower_quartile(values)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
