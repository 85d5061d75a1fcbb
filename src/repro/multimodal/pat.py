"""Pulse arrival time, pulse wave velocity and blood-pressure estimation.

Section IV-C: "the pulse arrival time (PAT), calculated using ECG and a
simple and inexpensive photoplethysmograph (PPG) finger probe, can be used
to estimate the pulse wave velocity (PWV), which is a surrogate marker for
arterial stiffness and BP" (ref [20], Gesche et al.).

The chain implemented here:

1. Detect PPG pulse feet (maximum of the second derivative on the rising
   edge — the "intersecting tangents" class of foot detectors).
2. Pair each ECG R peak with the next pulse foot -> per-beat PAT.
3. PWV = arterial path length / PAT.
4. BP via the calibrated inverse-PAT regression ``SBP = a / PAT + b``
   (per-subject calibration, as in ref [20]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal

from ..dsp.exact import butter_filtfilt
from ..signals.types import PpgRecord

#: Physiological PAT search window after each R peak, seconds.
PAT_MIN_S = 0.08
PAT_MAX_S = 0.45


def detect_pulse_feet(ppg: np.ndarray, fs: float,
                      min_period_s: float = 0.35) -> np.ndarray:
    """Detect pulse feet in a PPG waveform.

    For each systolic peak, the foot is placed at the maximum of the
    second derivative (strongest upward acceleration) on the rising edge.

    Args:
        ppg: PPG waveform.
        fs: Sampling frequency.
        min_period_s: Minimum pulse period (limits peak rate).

    Returns:
        Sorted array of foot sample indices.
    """
    ppg = np.asarray(ppg, dtype=float)
    if ppg.shape[0] < int(fs):
        return np.empty(0, dtype=int)
    # Light smoothing keeps the second derivative usable under noise.
    smooth = butter_filtfilt(ppg, 2, min(10.0, 0.45 * fs), "lowpass", fs)
    distance = max(1, int(min_period_s * fs))
    prominence = 0.3 * float(np.std(smooth))
    peaks, _ = sp_signal.find_peaks(smooth, distance=distance,
                                    prominence=prominence)
    second = np.gradient(np.gradient(smooth))
    feet = []
    search = int(0.30 * fs)
    for peak in peaks:
        lo = max(0, peak - search)
        if peak - lo < 3:
            continue
        feet.append(lo + int(np.argmax(second[lo:peak])))
    return np.array(sorted(set(feet)), dtype=int)


@dataclass(frozen=True)
class PatSeries:
    """Per-beat pulse-arrival-time measurements.

    Attributes:
        r_peaks: R peaks that found a matching pulse foot.
        feet: The matched feet.
        pat_s: PAT per matched beat, seconds.
    """

    r_peaks: np.ndarray
    feet: np.ndarray
    pat_s: np.ndarray

    @property
    def mean_pat_s(self) -> float:
        """Mean PAT (nan when empty)."""
        return float(np.mean(self.pat_s)) if self.pat_s.size else float("nan")


def pulse_arrival_times(r_peaks: np.ndarray, feet: np.ndarray,
                        fs: float) -> PatSeries:
    """Pair R peaks with the next pulse foot inside the PAT window."""
    r_peaks = np.asarray(r_peaks, dtype=int)
    feet = np.asarray(feet, dtype=int)
    matched_r, matched_f, pats = [], [], []
    for r in r_peaks:
        after = feet[(feet > r + int(PAT_MIN_S * fs))
                     & (feet < r + int(PAT_MAX_S * fs))]
        if after.size == 0:
            continue
        foot = int(after[0])
        matched_r.append(int(r))
        matched_f.append(foot)
        pats.append((foot - r) / fs)
    return PatSeries(r_peaks=np.array(matched_r, dtype=int),
                     feet=np.array(matched_f, dtype=int),
                     pat_s=np.array(pats))


def measure_pat(ppg: PpgRecord, r_peaks: np.ndarray) -> PatSeries:
    """Full PAT measurement from a PPG record and ECG R peaks."""
    feet = detect_pulse_feet(ppg.signal, ppg.fs)
    return pulse_arrival_times(r_peaks, feet, ppg.fs)


def pwv_from_pat(pat_s: np.ndarray, path_length_m: float = 0.65) -> np.ndarray:
    """Pulse wave velocity from PAT over the heart-to-finger path."""
    pat_s = np.asarray(pat_s, dtype=float)
    if np.any(pat_s <= 0):
        raise ValueError("PAT values must be positive")
    return path_length_m / pat_s


@dataclass
class BpEstimator:
    """Calibrated inverse-PAT blood-pressure model: ``SBP = a / PAT + b``.

    Following ref [20], the two coefficients are fit per subject against a
    cuff reference during calibration, after which BP tracks PAT
    continuously.
    """

    coef_a: float = 0.0
    coef_b: float = 0.0
    fitted: bool = False

    def fit(self, pat_s: np.ndarray, sbp_mmhg: np.ndarray) -> "BpEstimator":
        """Least-squares calibration against reference BP readings.

        Raises:
            ValueError: With fewer than two calibration points.
        """
        pat_s = np.asarray(pat_s, dtype=float)
        sbp = np.asarray(sbp_mmhg, dtype=float)
        if pat_s.shape[0] < 2:
            raise ValueError("need at least two calibration points")
        design = np.column_stack([1.0 / pat_s, np.ones_like(pat_s)])
        (self.coef_a, self.coef_b), *_ = np.linalg.lstsq(design, sbp,
                                                         rcond=None)
        self.fitted = True
        return self

    def predict(self, pat_s: np.ndarray) -> np.ndarray:
        """Estimate SBP from PAT.

        Raises:
            RuntimeError: If called before :meth:`fit`.
        """
        if not self.fitted:
            raise RuntimeError("estimator requires calibration (call fit)")
        pat_s = np.asarray(pat_s, dtype=float)
        return self.coef_a / pat_s + self.coef_b
