"""Bit-exact stand-ins for two library calls the node makes per window.

The R-peak detector runs on every streaming burst, and the library
calls would pay set-up work on each one that no output reads:

* :func:`butter_filtfilt` is ``scipy.signal.sosfiltfilt`` over a
  Butterworth design.  It keeps the design and its ``sosfilt_zi``
  initial state per ``(order, cutoff, btype, fs)``, where scipy designs
  the filter again in each caller and solves for the initial state on
  every call.
* :func:`linear_percentile` is ``np.percentile`` of a 1-D array at one
  ``q`` (numpy's default ``linear`` method), without numpy's
  general-purpose dispatch.

Each repeats its library's arithmetic step by step, so its output
equals the library's bit for bit (the tests pin it against the installed
scipy and numpy, including NaN and infinite input).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import signal as sp_signal


@lru_cache(maxsize=64)
def _design(order: int, cutoff: float | tuple[float, float], btype: str,
            fs: float) -> tuple[np.ndarray, np.ndarray, int]:
    """``(sos, sosfilt_zi(sos), padlen)`` of one Butterworth design.

    The arrays stay private to this module: they are never handed to a
    caller, so no caller can write into the memo.  They stay writable,
    because scipy's ``sosfilt`` kernel refuses a read-only ``sos``.
    ``padlen`` is ``sosfiltfilt``'s default: three times the taps, less
    the poles and zeros at the origin.
    """
    sos = sp_signal.butter(order, cutoff, btype=btype, fs=fs, output="sos")
    ntaps = 2 * sos.shape[0] + 1 - min(int((sos[:, 2] == 0).sum()),
                                       int((sos[:, 5] == 0).sum()))
    return sos, sp_signal.sosfilt_zi(sos), 3 * ntaps


def butter_filtfilt(x: np.ndarray, order: int,
                    cutoff: float | tuple[float, float], btype: str,
                    fs: float) -> np.ndarray:
    """Zero-phase Butterworth filtering of a 1-D signal.

    Equal, bit for bit, to::

        sos = scipy.signal.butter(order, cutoff, btype=btype, fs=fs,
                                  output="sos")
        scipy.signal.sosfiltfilt(sos, x)

    with the same odd extension of ``padlen`` samples at each end, the
    same step-response initial state scaled by the first sample of each
    pass, and the same ``ValueError`` when ``x`` is not longer than
    ``padlen``.

    Args:
        x: 1-D input signal.
        order: Butterworth order.
        cutoff: Cutoff in Hz; a ``(low, high)`` tuple for band filters
            (a tuple, not a list, so the design can be memoized).
        btype: ``"lowpass"``, ``"highpass"``, ``"bandpass"`` or
            ``"bandstop"``.
        fs: Sampling frequency in Hz.
    """
    sos, zi, edge = _design(order, cutoff, btype, fs)
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("butter_filtfilt expects a 1-D signal")
    if x.shape[0] <= edge:
        raise ValueError(
            "The length of the input vector x must be greater than "
            f"padlen, which is {edge}.")
    ext = np.concatenate((2 * x[:1] - x[edge:0:-1], x,
                          2 * x[-1:] - x[-2:-(edge + 2):-1]))
    y, _ = sp_signal.sosfilt(sos, ext, zi=zi * ext[:1])
    y, _ = sp_signal.sosfilt(sos, y[::-1], zi=zi * y[-1:])
    return y[::-1][edge:-edge]


def linear_percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` of a non-empty 1-D array, bit for bit.

    It repeats numpy's ``linear`` method step by step: the virtual index
    ``(n - 1) * (q / 100)``, the same partition points (``0``, ``-1``
    and the index's two neighbours, both ``-1`` at or past the last
    element), the same two-sided lerp, and NaN whenever the partition's
    last element is NaN.
    """
    n = values.shape[0]
    index = (n - 1) * (q / 100)
    if index >= n - 1:
        lo_i = hi_i = -1
    else:
        lo_i = int(index)
        hi_i = lo_i + 1
    part = np.partition(values, sorted({-1, 0, lo_i, hi_i}))
    top = part[-1]
    if top != top:
        return float(top)
    lo = float(part[lo_i])
    hi = float(part[hi_i])
    gamma = index - lo_i
    diff = hi - lo
    if gamma >= 0.5:
        return hi - diff * (1 - gamma)
    return lo + diff * gamma
