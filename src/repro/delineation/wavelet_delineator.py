"""Wavelet-based ECG delineation (Rincon et al. 2009 [12], Martinez 2004).

The signal is expanded on the undecimated quadratic-spline wavelet bank
(:func:`repro.dsp.wavelets.atrous_swt`), in which the transform at scale
``2^k`` is proportional to the derivative of a smoothed signal: a
monophasic wave becomes a modulus-maxima pair of opposite signs with a zero
crossing at the wave's peak.  Fiducial points are located by:

* **QRS** — at scale 2² the complex produces a cluster of modulus maxima;
  the onset (end) is found by scanning left (right) from the first (last)
  significant maximum until the modulus falls below a fraction ``xi`` of
  that maximum (Martinez's threshold rule).
* **T and P waves** — at scale 2⁴, inside RR-relative search windows, the
  dominant positive/negative lobe pair is located; the peak is the zero
  crossing between the lobes, and the boundaries come from the same
  outward ``xi`` scan.  A wave is declared **absent** (e.g. the P wave in
  AF) when its strongest lobe does not rise above a multiple of the
  record's robust wavelet noise floor.

For a Gaussian wave of width sigma, scanning outward to
``|w| < 0.15 * |lobe max|`` lands within a few milliseconds of the
``2.5 * sigma`` ground-truth boundary used by the synthesizer, which is why
``xi_bound`` defaults to 0.15 (see tests for the calibration evidence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.exact import linear_percentile
from ..dsp.wavelets import atrous_swt, atrous_swt_integer
from ..signals.types import ABSENT_WAVE, BeatAnnotation, EcgRecord, WaveFiducials
from .rpeak import RPeakDetector


@dataclass(frozen=True)
class WaveletDelineatorConfig:
    """Tuning constants of the wavelet delineator.

    Attributes:
        levels: Number of dyadic scales computed.
        qrs_scale: Scale index (0-based) used for the QRS complex (2²).
        p_scale: Scale index used for the P wave (2³: the narrow P wave is
            blurred too much at 2⁴, biasing its boundaries outward).
        t_scale: Scale index used for the T wave (2⁴).
        xi_qrs: Modulus fraction ending the QRS onset/end outward scan.
        xi_bound: Modulus fraction ending P/T boundary scans.
        gamma_qrs: Fraction of the window's modulus maximum above which a
            QRS maximum counts as significant.
        gamma_minor: Weaker threshold used to extend the onset/end anchors
            to the small Q/S lobes that ``gamma_qrs`` rejects (two-tier
            rule; without it the onset scan starts from the R lobe and
            lands inside the complex).
        anchor_reach_s: How far beyond the first/last significant maximum
            the minor-lobe extension may look.
        presence_factor: The weaker lobe of a P/T modulus pair must exceed
            this multiple of the *local* background (25th percentile of
            the modulus inside the search window) to count as present.
            The local statistic self-calibrates: in AF the fibrillatory
            waves fill the P window and raise the background, so the
            (absent) P wave is correctly rejected.
        qrs_half_window_s: Half-width of the QRS analysis window.
        p_window_s: (earliest, latest) bounds of the P search window,
            seconds before the R peak (earliest additionally stretches
            with the RR interval).
        t_window_s: (earliest, latest) bounds of the T search window,
            seconds after the R peak.
        refine_half_window_s: Half-width of the raw-signal peak refinement.
        integer_arithmetic: Compute the wavelet bank with the node's
            integer-only filter implementation (§IV-A); the tests verify
            the delineation quality is unchanged.
    """

    levels: int = 5
    qrs_scale: int = 1
    p_scale: int = 2
    t_scale: int = 3
    xi_qrs: float = 0.08
    xi_bound: float = 0.15
    gamma_qrs: float = 0.12
    gamma_minor: float = 0.035
    anchor_reach_s: float = 0.05
    presence_factor: float = 6.0
    qrs_half_window_s: float = 0.14
    p_window_s: tuple[float, float] = (0.32, 0.05)
    t_window_s: tuple[float, float] = (0.08, 0.62)
    refine_half_window_s: float = 0.04
    integer_arithmetic: bool = False


def _scan_boundary(w: np.ndarray, start: int, threshold: float,
                   step: int, limit: int,
                   stop_at_valley: bool = False) -> int:
    """Walk from ``start`` in ``step`` direction until |w| < threshold.

    With ``stop_at_valley`` the scan additionally stops at a local
    modulus minimum followed by a sustained rise — Martinez's "slope
    change" rule.  Without it, a wave that abuts the next complex (the
    P wave at high heart rates) keeps the modulus above the threshold and
    the scan overshoots into the neighbour.
    """
    n = w.shape[0]
    i = start
    valley = start
    rises = 0
    while 0 <= i < n and i != limit and abs(w[i]) >= threshold:
        if stop_at_valley:
            if abs(w[i]) <= abs(w[valley]):
                valley = i
                rises = 0
            else:
                rises += 1
                if rises >= 2 and valley != start:
                    return valley
        i += step
    return min(max(i, 0), n - 1)


def _zero_crossing(w: np.ndarray, lo: int, hi: int) -> int:
    """First sign change of ``w`` in [lo, hi); midpoint fallback."""
    for i in range(lo, min(hi, w.shape[0] - 1)):
        if w[i] == 0.0 or (w[i] > 0) != (w[i + 1] > 0):
            return i
    return (lo + hi) // 2


def _lower_quartile(values: np.ndarray) -> float:
    """``np.percentile(values, 25)``, bit for bit (see
    :func:`repro.dsp.exact.linear_percentile`)."""
    return linear_percentile(values, 25)


def _clamp_p_end(p_wave: WaveFiducials, qrs: WaveFiducials) -> WaveFiducials:
    """Clamp the P end at the QRS onset.

    At high heart rates the P wave abuts the QRS and the outward decay
    scan would otherwise ride the Q lobe past the true boundary; the
    P wave ends before the QRS starts by definition.
    """
    if not (p_wave.present and qrs.present and qrs.onset >= 0):
        return p_wave
    if p_wave.end < qrs.onset:
        return p_wave
    return WaveFiducials(onset=p_wave.onset, peak=p_wave.peak,
                         end=max(p_wave.peak, qrs.onset - 1))


def robust_noise_level(w: np.ndarray) -> float:
    """Robust sigma of a wavelet band: ``1.4826 * median(|w|)``.

    The median absolute value is insensitive to the sparse large maxima
    created by the waves themselves, so it tracks the noise floor — and in
    AF it automatically rises with the fibrillatory activity, which is
    exactly the behaviour the P-presence test needs.
    """
    return 1.4826 * float(np.median(np.abs(w)))


class WaveletDelineator:
    """Quadratic-spline wavelet delineator.

    Args:
        fs: Sampling frequency in Hz.
        config: Tuning constants (defaults follow the references).
    """

    def __init__(self, fs: float,
                 config: WaveletDelineatorConfig | None = None) -> None:
        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        self.fs = fs
        self.config = config or WaveletDelineatorConfig()

    def transform(self, x: np.ndarray) -> np.ndarray:
        """The à-trous transform used by the delineator (levels x n)."""
        x = np.asarray(x, dtype=float)
        if self.config.integer_arithmetic:
            return atrous_swt_integer(x, levels=self.config.levels)
        return atrous_swt(x, levels=self.config.levels)

    def delineate(self, x: np.ndarray,
                  r_peaks: np.ndarray | None = None, *,
                  select: slice = slice(None)) -> list[BeatAnnotation]:
        """Delineate the beats of a single-lead waveform.

        Args:
            x: Input waveform (ideally conditioned; the wavelet transform
                itself suppresses baseline wander at the scales used).
            r_peaks: Known R-peak positions; when omitted the shared
                Pan-Tompkins detector runs first, as on the node.
            select: The beats to delineate, as a slice over ``r_peaks``
                (default: every beat).  A beat's fiducials depend only
                on the transform of ``x``, its own R peak, its two
                neighbouring R peaks and the QRS noise floor of the
                whole of ``x``, so each selected beat is annotated
                exactly as the full call annotates it.

        Returns:
            One :class:`BeatAnnotation` per selected beat with detected
            fiducials (absent waves are marked with :data:`ABSENT_WAVE`).
        """
        x = np.asarray(x, dtype=float)
        if r_peaks is None:
            r_peaks = RPeakDetector(self.fs).detect(x)
        r_peaks = np.asarray(r_peaks, dtype=int)
        chosen = range(r_peaks.shape[0])[select]
        if not chosen:
            return []
        w = self.transform(x)
        w_qrs = w[self.config.qrs_scale]
        w_p = w[self.config.p_scale]
        w_t = w[self.config.t_scale]
        # Boundary scans must not walk through the noise floor: a scan
        # threshold derived from a small anchor lobe can otherwise sit
        # below the noise and run away from the complex.
        qrs_noise_floor = robust_noise_level(w_qrs)
        annotations = []
        for idx in chosen:
            r = r_peaks[idx]
            rr_prev = (r - r_peaks[idx - 1]) / self.fs if idx > 0 else 0.8
            rr_next = ((r_peaks[idx + 1] - r) / self.fs
                       if idx + 1 < r_peaks.shape[0] else 0.8)
            qrs = self._delineate_qrs(w_qrs, int(r), qrs_noise_floor)
            t_wave = self._delineate_wave(
                x, w_t,
                lo=int(r + self.config.t_window_s[0] * self.fs),
                hi=int(r + min(self.config.t_window_s[1],
                               max(0.25, 0.72 * rr_next)) * self.fs),
            )
            p_earliest = self.config.p_window_s[0] * min(1.0, rr_prev / 0.8)
            p_wave = self._delineate_wave(
                x, w_p,
                lo=int(r - max(p_earliest, 0.14) * self.fs),
                hi=int(r - self.config.p_window_s[1] * self.fs),
            )
            p_wave = _clamp_p_end(p_wave, qrs)
            annotations.append(BeatAnnotation(
                r_peak=int(r), p_wave=p_wave, qrs=qrs, t_wave=t_wave))
        return annotations

    def delineate_record(self, record: EcgRecord,
                         use_annotated_r_peaks: bool = False,
                         ) -> list[BeatAnnotation]:
        """Delineate a record (optionally seeding with annotated R peaks)."""
        r_peaks = record.r_peaks if use_annotated_r_peaks else None
        return self.delineate(record.signal, r_peaks)

    def _delineate_qrs(self, w: np.ndarray, r: int,
                       noise_floor: float = 0.0) -> WaveFiducials:
        """QRS onset/end from the modulus-maxima cluster at scale 2^2."""
        half = int(self.config.qrs_half_window_s * self.fs)
        lo = max(0, r - half)
        hi = min(w.shape[0], r + half + 1)
        if hi - lo < 3:
            return ABSENT_WAVE
        window = np.abs(w[lo:hi])
        peak_mod = float(window.max())
        if peak_mod <= 0:
            return ABSENT_WAVE
        # Wrap-around neighbours: the first sample's left neighbour is
        # the last sample, and the last sample's right one the first.
        before = np.empty_like(window)
        before[0] = window[-1]
        before[1:] = window[:-1]
        after = np.empty_like(window)
        after[-1] = window[0]
        after[:-1] = window[1:]
        local_maxima = np.flatnonzero((window >= before) & (window >= after))
        significant = local_maxima[
            window[local_maxima] >= self.config.gamma_qrs * peak_mod]
        if significant.shape[0] == 0:
            significant = np.array([int(np.argmax(window))])
        minor_floor = max(self.config.gamma_minor * peak_mod,
                          3.0 * noise_floor)
        minor = local_maxima[window[local_maxima] >= minor_floor]
        reach = int(self.config.anchor_reach_s * self.fs)
        # Two-tier anchoring: extend outward onto the small Q/S lobes.
        # Single hop only — measuring the reach from the extended anchor
        # would chain through noise lobes into the neighbouring P/T waves.
        first = int(significant[0])
        left_candidates = minor[(minor < first) & (first - minor <= reach)]
        if left_candidates.shape[0]:
            first = int(left_candidates[0])
        last = int(significant[-1])
        right_candidates = minor[(minor > last) & (minor - last <= reach)]
        if right_candidates.shape[0]:
            last = int(right_candidates[-1])
        first += lo
        last += lo
        onset = _scan_boundary(
            w, first,
            max(self.config.xi_qrs * abs(w[first]), noise_floor),
            step=-1, limit=max(0, first - half))
        end = _scan_boundary(
            w, last,
            max(self.config.xi_qrs * abs(w[last]), noise_floor),
            step=+1, limit=min(w.shape[0] - 1, last + half))
        return WaveFiducials(onset=onset, peak=r, end=end)

    def _delineate_wave(self, x: np.ndarray, w: np.ndarray,
                        lo: int, hi: int) -> WaveFiducials:
        """Locate a monophasic wave (P or T) inside [lo, hi)."""
        lo = max(0, lo)
        hi = min(w.shape[0], hi)
        if hi - lo < 5:
            return ABSENT_WAVE
        segment = w[lo:hi]
        pos_idx = int(np.argmax(segment))
        neg_idx = int(np.argmin(segment))
        # A real monophasic wave yields a *balanced* modulus pair, so the
        # presence statistic is the weaker lobe versus the local background.
        pair_strength = float(min(segment[pos_idx], -segment[neg_idx]))
        background = _lower_quartile(np.abs(segment))
        floor = max(background, 1e-4)
        if pair_strength < self.config.presence_factor * floor:
            return ABSENT_WAVE
        first, second = sorted((pos_idx, neg_idx))
        if first == second:
            return ABSENT_WAVE
        # Positive lobe first means a rising edge first: an upward wave.
        upward = pos_idx < neg_idx
        # Peak: zero crossing between the lobes, refined on the waveform.
        crossing = _zero_crossing(w, lo + first, lo + second)
        peak = self._refine_peak(x, crossing, upward)
        scan_span = max(8, second - first)
        onset = _scan_boundary(
            w, lo + first, self.config.xi_bound * abs(segment[first]),
            step=-1, limit=max(0, lo + first - 2 * scan_span),
            stop_at_valley=True)
        end = _scan_boundary(
            w, lo + second, self.config.xi_bound * abs(segment[second]),
            step=+1, limit=min(w.shape[0] - 1, lo + second + 2 * scan_span),
            stop_at_valley=True)
        return WaveFiducials(onset=onset, peak=peak, end=end)

    def _refine_peak(self, x: np.ndarray, around: int, upward: bool) -> int:
        """Snap a peak mark to the local waveform extremum.

        The search is *signed* (max for upward waves, min for downward):
        an unsigned ``argmax(|x - median|)`` ties between the peak and the
        window edges for a symmetric bump and is swayed by noise.
        """
        half = int(self.config.refine_half_window_s * self.fs)
        lo = max(0, around - half)
        hi = min(x.shape[0], around + half + 1)
        window = x[lo:hi]
        if window.shape[0] == 0:
            return around
        return lo + int(np.argmax(window) if upward else np.argmin(window))
