"""Noise models for cardiac signals.

Section III-B of the paper lists the noise sources the filtering stage must
remove: environmental interference (mains hum), biological noise (muscular
activity) and the low-frequency baseline wander targeted by the cubic-spline
method of [10].  Section II adds motion artifacts for ambulatory monitoring.
Each generator here synthesizes one of these components with the correct
spectral signature; :func:`add_noise` mixes them into a record at a chosen
signal-to-noise ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.exact import butter_filtfilt


def baseline_wander(n: int, fs: float, rng: np.random.Generator,
                    amplitude_mv: float = 0.3,
                    max_freq_hz: float = 0.5) -> np.ndarray:
    """Low-frequency baseline drift (respiration + electrode impedance).

    Built as a sum of a few sinusoids with random frequencies below
    ``max_freq_hz`` and random phases, which matches the 0.05-0.5 Hz band
    that baseline-removal filters must cancel without touching the ST
    segment.
    """
    t = np.arange(n) / fs
    out = np.zeros(n)
    n_components = 4
    for _ in range(n_components):
        freq = rng.uniform(0.05, max_freq_hz)
        phase = rng.uniform(0, 2 * np.pi)
        out += rng.uniform(0.3, 1.0) * np.sin(2 * np.pi * freq * t + phase)
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= amplitude_mv / peak
    return out


def powerline(n: int, fs: float, rng: np.random.Generator,
              amplitude_mv: float = 0.05, mains_hz: float = 50.0) -> np.ndarray:
    """Mains interference: a ``mains_hz`` tone with slow amplitude drift."""
    t = np.arange(n) / fs
    drift = 1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(0.01, 0.1) * t
                               + rng.uniform(0, 2 * np.pi))
    return amplitude_mv * drift * np.sin(2 * np.pi * mains_hz * t
                                         + rng.uniform(0, 2 * np.pi))


def muscle_artifact(n: int, fs: float, rng: np.random.Generator,
                    amplitude_mv: float = 0.05) -> np.ndarray:
    """EMG noise: white noise band-passed to the 20 Hz-min(100, 0.45*fs) band."""
    raw = rng.standard_normal(n)
    out = butter_filtfilt(raw, 4, (20.0, min(100.0, 0.45 * fs)), "bandpass",
                          fs)
    rms = np.sqrt(np.mean(out ** 2))
    if rms > 0:
        out *= amplitude_mv / (3.0 * rms)  # amplitude ~= 3-sigma envelope
    return out


def electrode_motion(n: int, fs: float, rng: np.random.Generator,
                     amplitude_mv: float = 0.4,
                     events_per_minute: float = 4.0) -> np.ndarray:
    """Electrode-motion artifacts: sparse step/bump transients.

    Each event is a smooth bump (half-cosine) of 0.1-0.5 s, the classic
    shape produced by electrode-skin impedance changes during movement.
    """
    out = np.zeros(n)
    n_events = rng.poisson(events_per_minute * n / fs / 60.0)
    for _ in range(n_events):
        start = rng.integers(0, max(1, n - 1))
        width = int(rng.uniform(0.1, 0.5) * fs)
        stop = min(n, start + width)
        span = stop - start
        if span <= 1:
            continue
        bump = 0.5 * (1 - np.cos(2 * np.pi * np.arange(span) / span))
        out[start:stop] += rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0) * bump
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= amplitude_mv / peak
    return out


def fibrillatory_waves(n: int, fs: float, rng: np.random.Generator,
                       amplitude_mv: float = 0.06,
                       base_freq_hz: float = 6.0) -> np.ndarray:
    """Atrial fibrillatory (f-) waves: 4-9 Hz quasi-sinusoidal activity.

    During AF the P wave is replaced by continuous low-amplitude
    oscillations; the AF detector's P-wave-absence criterion must be
    robust to them.
    """
    t = np.arange(n) / fs
    freq_drift = base_freq_hz + 1.0 * np.sin(2 * np.pi * 0.05 * t
                                             + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(freq_drift) / fs
    amp_mod = 1.0 + 0.3 * np.sin(2 * np.pi * 0.2 * t + rng.uniform(0, 2 * np.pi))
    return amplitude_mv * amp_mod * np.sin(phase)


#: Registry of noise generators usable with :func:`noise_mixture`.
NOISE_KINDS = {
    "baseline": baseline_wander,
    "powerline": powerline,
    "muscle": muscle_artifact,
    "motion": electrode_motion,
}


@dataclass(frozen=True)
class NoiseSpec:
    """Specification of one noise component for :func:`noise_mixture`.

    Attributes:
        kind: One of the keys of :data:`NOISE_KINDS`.
        weight: Relative power weight within the mixture.
    """

    kind: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(
                f"unknown noise kind {self.kind!r}; choose from {sorted(NOISE_KINDS)}"
            )
        if self.weight <= 0:
            raise ValueError("noise weight must be positive")


AMBULATORY_MIX = (
    NoiseSpec("baseline", 1.0),
    NoiseSpec("powerline", 0.3),
    NoiseSpec("muscle", 0.5),
    NoiseSpec("motion", 0.7),
)

RESTING_MIX = (
    NoiseSpec("baseline", 1.0),
    NoiseSpec("powerline", 0.4),
    NoiseSpec("muscle", 0.3),
)


def noise_mixture(n: int, fs: float, rng: np.random.Generator,
                  specs: tuple[NoiseSpec, ...] = RESTING_MIX) -> np.ndarray:
    """Generate a weighted mixture of noise components with unit power."""
    total = np.zeros(n)
    for spec in specs:
        component = NOISE_KINDS[spec.kind](n, fs, rng)
        power = np.mean(component ** 2)
        if power > 0:
            component = component / np.sqrt(power)
        total += spec.weight * component
    power = np.mean(total ** 2)
    if power > 0:
        total /= np.sqrt(power)
    return total


def snr_db(clean: np.ndarray, noisy: np.ndarray) -> float:
    """SNR of ``noisy`` against the reference ``clean`` signal, in dB."""
    clean = np.asarray(clean, dtype=float)
    noise = np.asarray(noisy, dtype=float) - clean
    signal_power = np.mean(clean ** 2)
    noise_power = np.mean(noise ** 2)
    if noise_power == 0:
        return np.inf
    return 10.0 * np.log10(signal_power / noise_power)


def add_noise(signal: np.ndarray, fs: float, target_snr_db: float,
              rng: np.random.Generator,
              specs: tuple[NoiseSpec, ...] = RESTING_MIX) -> np.ndarray:
    """Return ``signal`` plus a noise mixture scaled to ``target_snr_db``.

    Args:
        signal: Clean waveform (mV).
        fs: Sampling frequency.
        target_snr_db: Desired signal-to-noise ratio.
        rng: Random generator.
        specs: Mixture composition.
    """
    signal = np.asarray(signal, dtype=float)
    noise = noise_mixture(signal.shape[0], fs, rng, specs)
    signal_power = np.mean(signal ** 2)
    scale = np.sqrt(signal_power / (10.0 ** (target_snr_db / 10.0)))
    return signal + scale * noise
