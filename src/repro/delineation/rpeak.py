"""QRS (R-peak) detection, Pan-Tompkins class.

Every higher-level stage in the paper — delineation search windows, beat
classification, AF RR-regularity analysis, spline baseline knots — hangs off
the R-peak train, so the detector is implemented as a shared substrate.
The structure follows Pan & Tompkins (1985): band-pass, derivative, square,
moving-window integration, adaptive dual thresholds with search-back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sp_signal

from ..dsp.exact import butter_filtfilt, linear_percentile
from ..dsp.windows import moving_average
from ..signals.types import EcgRecord


@dataclass(frozen=True)
class RPeakConfig:
    """Tuning constants of the detector (Pan-Tompkins defaults).

    Attributes:
        band_hz: Pass band emphasizing QRS energy.
        integration_window_s: Moving-window integration length.
        refractory_s: Minimum spacing between accepted beats.
        threshold_fraction: Position of the detection threshold between
            the running noise and signal peak estimates.
        searchback_factor: Trigger search-back when the gap since the last
            beat exceeds this multiple of the running RR average.
        refine_window_s: Half-width of the window used to align the fiducial
            mark with the raw-signal extremum.
    """

    band_hz: tuple[float, float] = (5.0, 15.0)
    integration_window_s: float = 0.150
    refractory_s: float = 0.200
    threshold_fraction: float = 0.25
    searchback_factor: float = 1.66
    refine_window_s: float = 0.060


class RPeakDetector:
    """Pan-Tompkins-class R-peak detector.

    Args:
        fs: Sampling frequency in Hz.
        config: Tuning constants.
    """

    def __init__(self, fs: float, config: RPeakConfig | None = None) -> None:
        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        self.fs = fs
        self.config = config or RPeakConfig()
        low, high = self.config.band_hz
        self._band = (low, min(high, 0.45 * fs))

    def feature_signal(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Compute (band-passed, integrated) detection signals."""
        x = np.asarray(x, dtype=float)
        bandpassed = butter_filtfilt(x, 2, self._band, "bandpass", self.fs)
        # Five-point derivative from the original paper.
        derivative = np.zeros_like(bandpassed)
        derivative[2:-2] = (
            2 * bandpassed[4:] + bandpassed[3:-1]
            - bandpassed[1:-3] - 2 * bandpassed[:-4]
        ) / 8.0
        squared = derivative ** 2
        width = max(1, int(round(self.config.integration_window_s * self.fs)))
        integrated = moving_average(squared, width)
        return bandpassed, integrated

    def detect(self, x: np.ndarray) -> np.ndarray:
        """Detect R peaks in a single-lead waveform.

        Returns:
            Sorted array of R-peak sample indices.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[0] < int(0.5 * self.fs):
            return np.empty(0, dtype=int)
        bandpassed, integrated = self.feature_signal(x)
        refractory = int(round(self.config.refractory_s * self.fs))
        candidates, _ = sp_signal.find_peaks(integrated, distance=refractory)
        if candidates.shape[0] == 0:
            return np.empty(0, dtype=int)

        spki = linear_percentile(integrated[candidates], 75) * 0.5
        npki = linear_percentile(integrated, 50)
        fraction = self.config.threshold_fraction
        accepted: list[int] = []
        # RR intervals are integer sample counts, so ``sum(rr) / len(rr)``
        # is exact and rounds once, like ``np.mean``.
        rr: list[int] = []
        pending: list[tuple[int, float]] = []  # search-back pool
        for peak, value in zip(candidates.tolist(),
                               integrated[candidates].tolist()):
            if value > npki + fraction * (spki - npki):
                if accepted and peak - accepted[-1] < refractory:
                    continue
                if accepted:
                    rr.append(peak - accepted[-1])
                    if len(rr) > 8:
                        rr.pop(0)
                accepted.append(peak)
                spki = 0.125 * value + 0.875 * spki
                pending.clear()
            else:
                npki = 0.125 * value + 0.875 * npki
                pending.append((peak, value))
                # Search-back: if a long gap built up, re-examine rejected
                # candidates with half the threshold.
                if accepted and rr:
                    mean_rr = sum(rr) / len(rr)
                    gap = peak - accepted[-1]
                    if gap > self.config.searchback_factor * mean_rr:
                        floor = 0.5 * (npki + fraction * (spki - npki))
                        viable = [
                            (p, v) for p, v in pending
                            if v > floor and p - accepted[-1] >= refractory
                        ]
                        if viable:
                            best, best_value = max(viable,
                                                   key=lambda pv: pv[1])
                            rr.append(best - accepted[-1])
                            accepted.append(best)
                            accepted.sort()
                            spki = 0.25 * best_value + 0.75 * spki
                            pending.clear()
        refined = self._refine(x, bandpassed,
                               np.array(sorted(set(accepted)), dtype=int))
        return refined

    def _refine(self, x: np.ndarray, bandpassed: np.ndarray,
                peaks: np.ndarray) -> np.ndarray:
        """Align each mark with the R-wave extremum.

        The moving-window integrator is trailing, so its peaks lag the QRS
        by roughly half the integration window; stage one therefore looks
        *backwards* over that lag in the band-passed signal, and stage two
        snaps to the raw-signal extremum.
        """
        if peaks.shape[0] == 0:
            return peaks
        # Wide (ventricular) complexes delay the integrator peak by up to
        # the full window plus half the QRS width, so look back that far.
        lag = int(round((self.config.integration_window_s + 0.10) * self.fs))
        lead = int(round(0.05 * self.fs))
        half = int(round(self.config.refine_window_s * self.fs))
        base_half = int(round(0.25 * self.fs))
        coarse = _window_argmax(bandpassed, peaks - lag, lag + lead + 1)
        # Baseline from a window much wider than any QRS: the median of
        # the refine window itself is biased by wide (ventricular)
        # complexes that fill it.
        baseline = _window_median(x, coarse - base_half, 2 * base_half + 1)
        refined = _window_argmax(x, coarse - half, 2 * half + 1, baseline)
        refined_arr = np.unique(refined)
        # Refinement can merge two marks onto one extremum; keep spacing.
        keep = [0]
        refractory = int(round(self.config.refractory_s * self.fs))
        for i in range(1, refined_arr.shape[0]):
            if refined_arr[i] - refined_arr[keep[-1]] >= refractory:
                keep.append(i)
        return refined_arr[keep]


def _window_argmax(values: np.ndarray, starts: np.ndarray, width: int,
                   baseline: np.ndarray | None = None) -> np.ndarray:
    """Per window, ``lo + argmax(|values[lo:hi] - baseline|)``.

    Window ``i`` covers ``[starts[i], starts[i] + width)`` clipped to
    the signal.  Interior windows run as the rows of one array, with
    ``np.argmax``'s first-max rule per row; the few the signal edges
    clip keep the scalar form.  Without ``baseline`` nothing is
    subtracted.
    """
    n = values.shape[0]
    stops = starts + width
    out = np.empty(starts.shape[0], dtype=int)
    inner = (starts >= 0) & (stops <= n)
    if inner.any():
        rows = sliding_window_view(values, width)[starts[inner]]
        if baseline is not None:
            rows = rows - baseline[inner, None]
        out[inner] = starts[inner] + np.argmax(np.abs(rows), axis=1)
    for i in np.flatnonzero(~inner).tolist():
        lo, hi = max(0, int(starts[i])), min(n, int(stops[i]))
        window = values[lo:hi]
        if baseline is not None:
            window = window - baseline[i]
        out[i] = lo + int(np.argmax(np.abs(window)))
    return out


def _window_median(values: np.ndarray, starts: np.ndarray,
                   width: int) -> np.ndarray:
    """Per window, ``np.median(values[lo:hi])``; see :func:`_window_argmax`.

    ``width`` is odd, so an interior row's median is its middle order
    statistic (NaN if the row holds one), exactly as in one dimension.
    """
    n = values.shape[0]
    stops = starts + width
    out = np.empty(starts.shape[0])
    inner = (starts >= 0) & (stops <= n)
    if inner.any():
        out[inner] = np.median(
            sliding_window_view(values, width)[starts[inner]], axis=1)
    for i in np.flatnonzero(~inner).tolist():
        out[i] = np.median(values[max(0, int(starts[i])):
                                  min(n, int(stops[i]))])
    return out


def detect_r_peaks(record: EcgRecord,
                   config: RPeakConfig | None = None) -> np.ndarray:
    """Convenience wrapper: run the detector on a record's waveform."""
    detector = RPeakDetector(record.fs, config)
    return detector.detect(record.signal)
