"""Bit equality of repro.dsp.exact against the installed scipy and numpy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal as sp_signal

from repro.dsp.exact import _design, butter_filtfilt, linear_percentile

#: The three designs the node and the simulators filter with: the
#: R-peak detector's band-pass, the EMG noise band-pass and the PPG
#: smoother, as ``fs -> (order, cutoff, btype)``.
DESIGNS = {
    "rpeak": lambda fs: (2, (5.0, min(15.0, 0.45 * fs)), "bandpass"),
    "muscle": lambda fs: (4, (20.0, min(100.0, 0.45 * fs)), "bandpass"),
    "ppg": lambda fs: (2, min(10.0, 0.45 * fs), "lowpass"),
}

FINITE = st.floats(-1e3, 1e3, allow_nan=False)
HOSTILE = st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf,
                                             0.0, -0.0, 1e300]))


def _reference(x, fs, design):
    order, cutoff, btype = DESIGNS[design](fs)
    sos = sp_signal.butter(order, cutoff, btype=btype, fs=fs, output="sos")
    return sp_signal.sosfiltfilt(sos, x)


def _filtered(x, fs, design):
    order, cutoff, btype = DESIGNS[design](fs)
    return butter_filtfilt(x, order, cutoff, btype, fs)


def _padlen(fs, design):
    return _design(*DESIGNS[design](fs), fs)[2]


@st.composite
def _signals(draw, elements):
    design = draw(st.sampled_from(sorted(DESIGNS)))
    fs = draw(st.sampled_from([128.0, 250.0, 360.0, 500.0]))
    n = draw(st.integers(_padlen(fs, design) + 1, 4000))
    x = draw(hnp.arrays(np.float64, n, elements=elements))
    return design, fs, x


class TestButterFiltfilt:
    @settings(max_examples=150, deadline=None)
    @given(case=_signals(FINITE))
    def test_equals_sosfiltfilt_bit_for_bit(self, case):
        design, fs, x = case
        expected = _reference(x, fs, design)
        got = _filtered(x, fs, design)
        assert got.shape == expected.shape
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(case=_signals(HOSTILE))
    def test_non_finite_input_bit_for_bit(self, case):
        design, fs, x = case
        with np.errstate(all="ignore"):  # inf - inf in the odd extension
            expected = _reference(x, fs, design)
            got = _filtered(x, fs, design)
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_padlen_rule(self, design):
        # sosfiltfilt's default: three times the taps, less the poles
        # and zeros at the origin.
        order, cutoff, btype = DESIGNS[design](250.0)
        sos = sp_signal.butter(order, cutoff, btype=btype, fs=250.0,
                               output="sos")
        ntaps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(),
                                       (sos[:, 5] == 0).sum())
        assert _padlen(250.0, design) == 3 * ntaps

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_too_short_raises_like_scipy(self, design):
        edge = _padlen(250.0, design)
        for n in (1, edge - 1, edge):
            x = np.ones(n)
            with pytest.raises(ValueError) as ours:
                _filtered(x, 250.0, design)
            with pytest.raises(ValueError) as theirs:
                _reference(x, 250.0, design)
            assert str(ours.value) == str(theirs.value)
        assert _filtered(np.ones(edge + 1), 250.0, design).shape == (edge + 1,)

    def test_rejects_multichannel_input(self):
        with pytest.raises(ValueError, match="1-D"):
            butter_filtfilt(np.ones((2, 400)), 2, 10.0, "lowpass", 250.0)

    def test_design_memoized_and_never_handed_out(self):
        _design.cache_clear()
        x = np.random.default_rng(3).normal(size=500)
        first = butter_filtfilt(x, 2, (5.0, 15.0), "bandpass", 250.0)
        again = butter_filtfilt(x, 2, (5.0, 15.0), "bandpass", 250.0)
        assert _design.cache_info().misses == 1
        assert _design.cache_info().hits == 1
        assert first.tobytes() == again.tobytes()
        # Writing into a result cannot reach the memo.
        first[:] = 0.0
        assert butter_filtfilt(x, 2, (5.0, 15.0), "bandpass",
                               250.0).tobytes() == again.tobytes()


class TestLinearPercentile:
    @settings(max_examples=300, deadline=None)
    @given(values=hnp.arrays(
        np.float64, st.integers(1, 400),
        elements=st.one_of(st.floats(),
                           st.sampled_from([0.0, -0.0, 1.0, np.inf]))),
        q=st.sampled_from([25, 50, 75]))
    def test_matches_numpy_percentile_bit_for_bit(self, values, q):
        with np.errstate(all="ignore"):  # inf - inf, huge spans
            expected = np.percentile(values, q)
        got = linear_percentile(values, q)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("q", [25, 50, 75])
    def test_single_element(self, q):
        for value in (3.5, -0.0, np.inf, np.nan):
            values = np.array([value])
            with np.errstate(all="ignore"):
                expected = np.percentile(values, q)
            got = linear_percentile(values, q)
            assert (np.float64(got).tobytes()
                    == np.float64(expected).tobytes())

    def test_input_left_unchanged(self):
        values = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        assert linear_percentile(values, 75) == 4.0
        assert values.tolist() == [5.0, 1.0, 4.0, 2.0, 3.0]
