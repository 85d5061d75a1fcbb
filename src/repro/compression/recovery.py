"""Receiver-side CS recovery: FISTA basis-pursuit denoising and OMP.

The paper's system reconstructs off-node (a phone or server, ref [5]), so
the decoder favours quality over embedded cost.  Windows are sparse in an
orthogonal Daubechies wavelet basis ``W`` (``alpha = W x``); with sensing
matrix ``Phi`` the recovery solves

    min_alpha  0.5 * ||y - Phi W^T alpha||^2 + lam * ||alpha||_1

via FISTA (Beck & Teboulle), followed by a least-squares *debias* step on
the detected support — standard practice that recovers the amplitude lost
to soft thresholding.  Orthogonal matching pursuit is provided as the
greedy baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.wavelets import orthogonal_dwt_matrix
from .encoder import EncodedWindow
from .matrices import SensingMatrix


def soft_threshold(x: np.ndarray, threshold: float) -> np.ndarray:
    """Element-wise soft threshold (the l1 proximal operator)."""
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def lipschitz_constant(*operators: np.ndarray) -> float:
    """FISTA gradient Lipschitz constant ``max_l ||A_l||_2^2``.

    Costs one SVD per operator.  It depends on the operators alone, so
    the decoders compute it once at construction and hand it to every
    solve instead of paying the SVDs per window.
    """
    return max(float(np.linalg.norm(A, 2)) ** 2 for A in operators)


def fista(A: np.ndarray, y: np.ndarray, lam: float, n_iter: int = 200,
          tol: float = 1e-7, lipschitz: float | None = None) -> np.ndarray:
    """FISTA for ``min 0.5 ||y - A a||^2 + lam ||a||_1``.

    Args:
        A: Measurement operator (m x n).
        y: Measurements.
        lam: l1 weight (absolute).
        n_iter: Maximum iterations.
        tol: Stop when the iterate moves less than this (l2, relative).
        lipschitz: ``||A||_2^2`` (:func:`lipschitz_constant`); computed
            here when omitted.

    Returns:
        The sparse coefficient estimate.
    """
    if lipschitz is None:
        lipschitz = lipschitz_constant(A)
    if lipschitz == 0.0:
        return np.zeros(A.shape[1])
    step = 1.0 / lipschitz
    alpha = np.zeros(A.shape[1])
    momentum = alpha.copy()
    t = 1.0
    At = A.T
    for _ in range(n_iter):
        grad = At @ (A @ momentum - y)
        new_alpha = soft_threshold(momentum - step * grad, lam * step)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = new_alpha + ((t - 1.0) / t_next) * (new_alpha - alpha)
        moved = np.linalg.norm(new_alpha - alpha)
        scale = max(1e-12, np.linalg.norm(alpha))
        alpha = new_alpha
        t = t_next
        if moved / scale < tol:
            break
    return alpha


def omp(A: np.ndarray, y: np.ndarray, sparsity: int,
        tol: float = 1e-9) -> np.ndarray:
    """Orthogonal matching pursuit with a fixed sparsity budget."""
    m, n = A.shape
    if not 0 < sparsity <= m:
        raise ValueError("sparsity must lie in (0, m]")
    residual = y.astype(float).copy()
    support: list[int] = []
    alpha = np.zeros(n)
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0] = 1.0
    for _ in range(sparsity):
        correlations = np.abs(A.T @ residual) / norms
        correlations[support] = -1.0
        best = int(np.argmax(correlations))
        support.append(best)
        sub = A[:, support]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        residual = y - sub @ coef
        if np.linalg.norm(residual) < tol:
            break
    alpha[support] = coef
    return alpha


def debias(A: np.ndarray, y: np.ndarray, alpha: np.ndarray,
           rel_support: float = 0.005) -> np.ndarray:
    """Least-squares refit on the support of ``alpha``.

    Args:
        A: Measurement operator.
        y: Measurements.
        alpha: Sparse estimate whose support is reused.
        rel_support: Entries below this fraction of the largest magnitude
            are excluded from the support.
    """
    magnitude = np.abs(alpha)
    peak = magnitude.max() if magnitude.size else 0.0
    if peak == 0.0:
        return alpha
    support = np.flatnonzero(magnitude > rel_support * peak)
    # Keep the system over-determined.
    if support.shape[0] == 0 or support.shape[0] > A.shape[0]:
        return alpha
    refined = np.zeros_like(alpha)
    coef, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
    refined[support] = coef
    return refined


@dataclass
class RecoveryResult:
    """Reconstruction output.

    Attributes:
        window: Reconstructed time-domain window.
        coefficients: Recovered wavelet coefficients.
        support_size: Number of significant coefficients kept.
    """

    window: np.ndarray
    coefficients: np.ndarray
    support_size: int


class CsDecoder:
    """Single-lead CS decoder over a Daubechies wavelet basis.

    Args:
        sensing: The sensing matrix shared with the encoder.
        wavelet: Sparsity basis (``haar`` / ``db2`` / ``db4``).
        lam_rel: l1 weight relative to ``max |A^T y|``.
        n_iter: FISTA iteration budget.
        method: ``"fista"`` (default) or ``"omp"``.
        omp_sparsity_frac: OMP support budget as a fraction of m.
    """

    def __init__(self, sensing: SensingMatrix, wavelet: str = "db4",
                 lam_rel: float = 0.002, n_iter: int = 200,
                 method: str = "fista",
                 omp_sparsity_frac: float = 0.33) -> None:
        if method not in ("fista", "omp"):
            raise ValueError("method must be 'fista' or 'omp'")
        self.sensing = sensing
        self.basis = orthogonal_dwt_matrix(sensing.n, wavelet)
        # x = W^T alpha  =>  y = Phi W^T alpha.
        self.A = sensing.matrix @ self.basis.T
        #: FISTA step constant of ``A``, fixed for the decoder's life.
        self.lipschitz = lipschitz_constant(self.A)
        self.lam_rel = lam_rel
        self.n_iter = n_iter
        self.method = method
        self.omp_sparsity_frac = omp_sparsity_frac

    def recover(self, y: np.ndarray | EncodedWindow) -> RecoveryResult:
        """Reconstruct one window from its measurements."""
        if isinstance(y, EncodedWindow):
            y = y.measurements
        y = np.asarray(y, dtype=float)
        if self.method == "omp":
            sparsity = max(1, int(self.omp_sparsity_frac * self.sensing.m))
            alpha = omp(self.A, y, sparsity)
        else:
            lam = self.lam_rel * float(np.max(np.abs(self.A.T @ y)))
            alpha = fista(self.A, y, lam, n_iter=self.n_iter,
                          lipschitz=self.lipschitz)
            alpha = debias(self.A, y, alpha)
        window = self.basis.T @ alpha
        support = int(np.count_nonzero(alpha))
        return RecoveryResult(window=window, coefficients=alpha,
                              support_size=support)
