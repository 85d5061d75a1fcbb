"""Node-side compressed-sensing encoder (paper §III-A, refs [4][16]).

The encoder is the only CS component that runs on the node, so its cost is
what Fig. 6's "Comp." slice measures.  With a sparse-binary sensing matrix
the product ``y = Phi @ x`` costs exactly ``nnz(Phi) = d * n`` integer
additions per window — no multiplications — and the measurements are then
quantized to the transmission word size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrices import SensingMatrix, sparse_binary_matrix
from .metrics import compression_ratio, measurements_for_cr

#: Distinct sensing-matrix geometries :func:`_sensing_matrix_cached`
#: keeps per process.
SENSING_CACHE_SIZE = 16


@dataclass(frozen=True)
class EncodedWindow:
    """One compressed window as it would be handed to the radio.

    Attributes:
        measurements: The (quantized) measurement vector ``y``.
        scale: Quantization scale to invert at the receiver.
        payload_bits: Bits handed to the radio for this window.
        additions: Integer additions spent encoding the window.
    """

    measurements: np.ndarray
    scale: float
    payload_bits: int
    additions: int


class CsEncoder:
    """Compressed-sensing encoder for fixed-length ECG windows.

    Args:
        n: Window length in samples (the paper's implementations use
            2-second windows: 512 samples at 256 Hz class rates).
        cr_percent: Target compression ratio.
        d: Ones per column of the sparse-binary matrix.
        quant_bits: Transmission word size (the node's ADC resolution).
        seed: Seed for the (node/receiver shared) matrix construction.
    """

    def __init__(self, n: int = 256, cr_percent: float = 50.0, d: int = 12,
                 quant_bits: int = 12, seed: int = 7) -> None:
        if quant_bits < 2:
            raise ValueError("need at least 2 quantization bits")
        self.n = n
        self.quant_bits = quant_bits
        m = measurements_for_cr(n, cr_percent)
        self.sensing = _sensing_matrix_cached(m, n, min(d, m), seed)

    @property
    def m(self) -> int:
        """Measurements per window."""
        return self.sensing.m

    @property
    def cr_percent(self) -> float:
        """Actual compression ratio achieved."""
        return compression_ratio(self.n, self.m)

    def encode(self, window: np.ndarray) -> EncodedWindow:
        """Compress one window.

        Args:
            window: Array of ``n`` samples.

        Raises:
            ValueError: On window-length mismatch.
        """
        window = np.asarray(window, dtype=float)
        if window.shape != (self.n,):
            raise ValueError(f"expected window of {self.n} samples, "
                             f"got {window.shape}")
        y = self.sensing.matrix @ window
        quantized, scale = self._quantize(y)
        return EncodedWindow(
            measurements=quantized,
            scale=scale,
            payload_bits=self.payload_bits_per_window(),
            additions=self.sensing.additions_per_window(),
        )

    def encode_multilead(self, windows: np.ndarray) -> list[EncodedWindow]:
        """Compress one window per lead with the *same* matrix.

        Note: for joint multi-lead recovery, :class:`MultiLeadCsEncoder`
        (one matrix per lead) is the right tool — identical matrices on
        proportional leads add no information for the joint decoder.
        """
        windows = np.atleast_2d(np.asarray(windows, dtype=float))
        return [self.encode(windows[i]) for i in range(windows.shape[0])]

    def payload_bits_per_window(self) -> int:
        """Radio payload per window: m words plus one 16-bit scale."""
        return self.m * self.quant_bits + 16

    def additions_per_sample(self) -> float:
        """Average integer additions per input sample (cost model hook)."""
        return self.sensing.additions_per_window() / self.n

    def _quantize(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Uniform mid-rise quantization to ``quant_bits`` bits."""
        peak = float(np.max(np.abs(y)))
        if peak == 0.0:
            return np.zeros_like(y), 1.0
        levels = 2 ** (self.quant_bits - 1) - 1
        scale = peak / levels
        quantized = np.rint(y / scale) * scale
        return quantized, scale


@lru_cache(maxsize=SENSING_CACHE_SIZE, typed=True)
def _sensing_matrix_cached(m: int, n: int, d: int,
                           seed: int) -> SensingMatrix:
    """The seeded sparse-binary matrix of one geometry, built once.

    The draw depends on ``(m, n, d, seed)`` alone, so every encoder and
    decoder of a geometry shares one matrix, stored read-only because
    it is shared.  The key is typed: a seed ``numpy.random.default_rng``
    refuses (``7.0``) still raises instead of aliasing ``7``.
    """
    sensing = sparse_binary_matrix(m, n, d, rng=np.random.default_rng(seed))
    sensing.matrix.setflags(write=False)
    return sensing


def raw_payload_bits(n_samples: int, sample_bits: int = 12) -> int:
    """Radio payload of uncompressed streaming (the Fig. 6 baseline)."""
    return n_samples * sample_bits


class MultiLeadCsEncoder:
    """Joint multi-lead CS encoder: one sparse-binary matrix *per lead*.

    Each lead gets its own matrix (derived seeds, shared with the
    receiver).  The node-side cost is identical to running the single-lead
    encoder on every lead, but the measurements become complementary
    projections of the (shared-support) lead set, which is what the joint
    decoder of ref [6] needs to outperform per-lead recovery (Fig. 5).

    Args:
        n_leads: Number of leads.
        n: Window length per lead.
        cr_percent: Per-lead compression ratio.
        d: Ones per matrix column.
        quant_bits: Transmission word size.
        seed: Base seed; lead ``l`` uses ``seed + l``.
    """

    def __init__(self, n_leads: int = 3, n: int = 256,
                 cr_percent: float = 50.0, d: int = 12, quant_bits: int = 12,
                 seed: int = 7) -> None:
        if n_leads < 1:
            raise ValueError("need at least one lead")
        self.encoders = [
            CsEncoder(n=n, cr_percent=cr_percent, d=d, quant_bits=quant_bits,
                      seed=seed + lead)
            for lead in range(n_leads)
        ]
        self.n = n

    @property
    def n_leads(self) -> int:
        """Number of leads."""
        return len(self.encoders)

    @property
    def m(self) -> int:
        """Measurements per lead per window."""
        return self.encoders[0].m

    @property
    def cr_percent(self) -> float:
        """Per-lead compression ratio achieved."""
        return self.encoders[0].cr_percent

    @property
    def sensing_matrices(self) -> list:
        """Per-lead sensing matrices (receiver side needs these)."""
        return [enc.sensing for enc in self.encoders]

    def encode(self, windows: np.ndarray) -> list[EncodedWindow]:
        """Compress one multi-lead window (shape ``(n_leads, n)``)."""
        windows = np.atleast_2d(np.asarray(windows, dtype=float))
        if windows.shape[0] != self.n_leads:
            raise ValueError(f"expected {self.n_leads} leads, "
                             f"got {windows.shape[0]}")
        return [enc.encode(windows[i])
                for i, enc in enumerate(self.encoders)]

    def payload_bits_per_window(self) -> int:
        """Total radio payload per multi-lead window."""
        return sum(enc.payload_bits_per_window() for enc in self.encoders)

    def additions_per_window(self) -> int:
        """Total integer additions per multi-lead window."""
        return sum(enc.sensing.additions_per_window()
                   for enc in self.encoders)
