"""Sample-at-a-time streaming front of the node application.

The batch pipeline in :mod:`repro.pipeline.node_app` processes whole
recordings; real firmware sees one multi-lead sample per timer interrupt
and must work inside bounded buffers.  :class:`StreamingMonitor` mirrors
the firmware structure: a ring buffer of recent samples, periodic
processing bursts every ``hop_s`` seconds over the buffered history, and
incremental emission of newly confirmed beats.

Equivalence with the batch path on overlapping content is covered by the
tests — the property that lets the batch implementation stand in for the
streaming one in the accuracy benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..delineation.rpeak import RPeakDetector
from ..delineation.wavelet_delineator import WaveletDelineator
from ..signals.types import BeatAnnotation


@dataclass
class StreamingConfig:
    """Streaming parameters.

    Attributes:
        fs: Sampling frequency.
        buffer_s: Ring-buffer length (must cover the delineator's
            look-back, >= ~3 beats).
        hop_s: Interval between processing bursts.
        confirm_margin_s: Beats closer than this to the buffer's leading
            edge are withheld until the next burst (their T wave may not
            be complete yet).
    """

    fs: float = 250.0
    buffer_s: float = 8.0
    hop_s: float = 2.0
    confirm_margin_s: float = 0.8


class StreamingMonitor:
    """Incremental R-peak detection + delineation over a ring buffer.

    Args:
        config: Streaming parameters.

    Usage::

        monitor = StreamingMonitor(StreamingConfig(fs=250.0))
        for sample in samples:          # one lead
            for beat in monitor.push(sample):
                handle(beat)            # absolute sample indices
        for beat in monitor.flush():
            handle(beat)
    """

    def __init__(self, config: StreamingConfig | None = None) -> None:
        self.config = config or StreamingConfig()
        cfg = self.config
        if cfg.buffer_s <= cfg.hop_s:
            raise ValueError("buffer must be longer than the hop")
        self._capacity = int(cfg.buffer_s * cfg.fs)
        self._hop = int(cfg.hop_s * cfg.fs)
        if self._hop < 1:
            # A zero-sample hop would burst on every push and never
            # advance push_block.
            raise ValueError("hop must span at least one sample")
        self._margin = int(cfg.confirm_margin_s * cfg.fs)
        # Preallocated circular buffer: O(1) per sample, the ordered view
        # is materialized only once per burst.
        self._buffer = np.empty(self._capacity)
        self._head = 0           # next write position
        self._filled = 0         # valid samples (<= capacity)
        self._total = 0          # absolute samples consumed
        self._since_burst = 0
        self._emitted_up_to = -1  # last confirmed R-peak position
        self._detector = RPeakDetector(cfg.fs)
        self._delineator = WaveletDelineator(cfg.fs)

    @property
    def samples_consumed(self) -> int:
        """Absolute number of samples pushed so far."""
        return self._total

    def push(self, sample: float) -> list[BeatAnnotation]:
        """Consume one sample; return newly confirmed beats (absolute)."""
        self._buffer[self._head] = sample
        self._head = (self._head + 1) % self._capacity
        self._filled = min(self._filled + 1, self._capacity)
        self._total += 1
        self._since_burst += 1
        if self._since_burst >= self._hop:
            self._since_burst = 0
            return self._burst(final=False)
        return []

    def push_block(self, samples: np.ndarray) -> list[BeatAnnotation]:
        """Consume a block of samples with numpy slicing (no per-sample
        python loop); equivalent to ``push`` called once per sample.

        The block is written into the ring buffer one slice per hop
        boundary: between bursts the copy is a (wrap-aware) vectorized
        slice assignment, and a burst fires exactly where the
        sample-at-a-time path would fire it, so emitted beats are
        identical (tested).

        Args:
            samples: 1-D block of consecutive samples (one lead).

        Returns:
            Newly confirmed beats across all bursts the block triggered.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("push_block expects a 1-D sample block")
        out: list[BeatAnnotation] = []
        pos = 0
        n = samples.shape[0]
        while pos < n:
            take = min(n - pos, self._hop - self._since_burst)
            self._write(samples[pos:pos + take])
            pos += take
            self._since_burst += take
            if self._since_burst >= self._hop:
                self._since_burst = 0
                out.extend(self._burst(final=False))
        return out

    def _write(self, chunk: np.ndarray) -> None:
        """Copy one chunk into the ring at ``_head`` (wrap-aware)."""
        k = chunk.shape[0]
        if k >= self._capacity:
            # Only the trailing capacity samples survive; realign head.
            self._buffer[:] = chunk[k - self._capacity:]
            self._head = 0
        else:
            first = min(k, self._capacity - self._head)
            self._buffer[self._head:self._head + first] = chunk[:first]
            if k > first:
                self._buffer[:k - first] = chunk[first:]
            self._head = (self._head + k) % self._capacity
        self._filled = min(self._filled + k, self._capacity)
        self._total += k

    def flush(self) -> list[BeatAnnotation]:
        """Process whatever remains (end of recording)."""
        return self._burst(final=True)

    def _window(self) -> np.ndarray:
        """The buffered history in chronological order."""
        if self._filled < self._capacity:
            return self._buffer[:self._filled].copy()
        return np.concatenate((self._buffer[self._head:],
                               self._buffer[:self._head]))

    def _burst(self, final: bool) -> list[BeatAnnotation]:
        window = self._window()
        if window.shape[0] < int(1.5 * self.config.fs):
            return []
        offset = self._total - window.shape[0]
        peaks = self._detector.detect(window)
        horizon = window.shape[0] if final else \
            window.shape[0] - self._margin
        # Emit filter first, on the (sorted, unique) peak positions: skip
        # beats already emitted and beats too close to the leading edge.
        # The kept beats are one contiguous run, and only they are
        # delineated; the transform still covers the whole window.
        first = int(np.searchsorted(peaks, self._emitted_up_to - offset,
                                    side="right"))
        stop = int(np.searchsorted(peaks, horizon, side="left"))
        beats = self._delineator.delineate(window, peaks,
                                           select=slice(first, stop))
        fresh = [beat.shifted(offset) for beat in beats]
        if fresh:
            self._emitted_up_to = fresh[-1].r_peak
        return fresh


def stream_record(signal: np.ndarray,
                  config: StreamingConfig) -> list[BeatAnnotation]:
    """Run the streaming monitor over a full waveform (test harness)."""
    monitor = StreamingMonitor(config)
    out = monitor.push_block(np.asarray(signal, dtype=float))
    out.extend(monitor.flush())
    return out
