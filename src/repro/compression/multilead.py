"""Joint multi-lead CS recovery with group sparsity (ref [6], §III-A).

Multi-lead ECGs share wavelet support: the same beat produces coefficients
at the same locations on every lead, scaled by the lead projection ("a
strong correlation between the sparsity structure among the leads, each
lead therefore conveying useful information about other leads").  The
joint decoder exploits this with an l2,1 mixed norm over coefficient rows:

    min_A  0.5 * sum_l ||y_l - Phi_l W^T a_l||^2 + lam * sum_i ||A[i, :]||_2

solved by block FISTA (row-wise group soft thresholding) over *per-lead*
sensing matrices, followed by a per-lead least-squares debias on the union
row support.

Why per-lead matrices matter: with a single shared matrix and strongly
correlated leads, the measurement blocks are nearly proportional and carry
no extra information about the common support.  Giving each lead its own
sparse-binary matrix (same node-side cost) turns the stack into ``L * m``
complementary looks at the shared support — that is what buys the extra
compression Fig. 5 shows for multi-lead CS (20 dB at CR 72.7 % vs 65.9 %
single-lead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dsp.wavelets import orthogonal_dwt_matrix
from .encoder import EncodedWindow
from .matrices import SensingMatrix
from .recovery import lipschitz_constant


#: Row-block height of :func:`row_stable_matmul`.  Fixed so every
#: product runs the same BLAS kernel path no matter how many rows the
#: caller batched together; 4 keeps zero-padding waste low at the
#: FISTA active-set sizes the fleet actually sees.
_MATMUL_TILE = 4


def row_stable_matmul(a: np.ndarray, b: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` whose per-row results are independent of the batch.

    BLAS chooses different kernels — and therefore different summation
    orders — for different left-operand heights, so ``(a @ b)[i]`` can
    move by an ulp depending on how many rows ride along in the same
    call.  That breaks any equivalence built on batch *partitioning*:
    the sharded fleet runner must produce byte-identical summaries for
    every shard layout, which requires each window's products to be a
    pure function of that window.

    Computing the product in fixed-height row tiles (zero padded to a
    multiple of :data:`_MATMUL_TILE`) pins the kernel path: every row
    is evaluated by the same fixed-shape ``(tile, k) @ (k, m)`` call,
    so its result depends only on the row itself and ``b`` (tested in
    ``tests/test_compression_multilead.py``).  Within a few percent of
    a single full-height gemm at fleet batch sizes.

    Args:
        a: Left operand, shape ``(rows, k)`` (any strides).
        b: Right operand, shape ``(k, m)``.
        out: Optional destination of shape ``(rows, m)`` (any strides).
    """
    a = np.ascontiguousarray(a, dtype=float)
    rows = a.shape[0]
    padded_rows = -(-max(rows, 1) // _MATMUL_TILE) * _MATMUL_TILE
    if padded_rows != rows:
        padded = np.zeros((padded_rows, a.shape[1]), dtype=a.dtype)
        padded[:rows] = a
        a = padded
    tiles = [a[i:i + _MATMUL_TILE] @ b
             for i in range(0, padded_rows, _MATMUL_TILE)]
    full = tiles[0] if len(tiles) == 1 else np.concatenate(tiles)
    if out is not None:
        out[...] = full[:rows]
        return out
    return full[:rows]


def group_soft_threshold(rows: np.ndarray,
                         threshold: float | np.ndarray) -> np.ndarray:
    """Row-wise group shrinkage (the l2,1 proximal operator).

    Args:
        rows: Coefficient matrix of shape ``(n, L)``, or a batch of
            them of shape ``(B, n, L)``; rows run along the last axis.
        threshold: Shrinkage amount applied to each row's l2 norm; a
            ``(B, 1, 1)`` array gives each batch entry its own.
    """
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    scale = np.maximum(0.0, 1.0 - threshold / np.maximum(norms, 1e-12))
    return rows * scale


def group_fista(operators: Sequence[np.ndarray], ys: Sequence[np.ndarray],
                lam: float, n_iter: int = 400,
                tol: float = 1e-7,
                lipschitz: float | None = None) -> np.ndarray:
    """Block FISTA for the l2,1-regularized multi-lead problem.

    Args:
        operators: Per-lead measurement operators, each ``(m, n)``.
        ys: Per-lead measurement vectors.
        lam: Group-l1 weight (absolute).
        n_iter: Maximum iterations.
        tol: Relative-motion stopping criterion.
        lipschitz: ``max_l ||A_l||_2^2``
            (:func:`~repro.compression.recovery.lipschitz_constant`);
            computed here when omitted.

    Returns:
        Coefficient matrix of shape ``(n, L)``.
    """
    n_leads = len(operators)
    if n_leads == 0 or n_leads != len(ys):
        raise ValueError("need one measurement vector per operator")
    n = operators[0].shape[1]
    if lipschitz is None:
        lipschitz = lipschitz_constant(*operators)
    if lipschitz == 0.0:
        return np.zeros((n, n_leads))
    step = 1.0 / lipschitz
    alpha = np.zeros((n, n_leads))
    momentum = alpha.copy()
    t = 1.0
    for _ in range(n_iter):
        grad = np.stack(
            [operators[lead].T @ (operators[lead] @ momentum[:, lead] - ys[lead])
             for lead in range(n_leads)], axis=1)
        new_alpha = group_soft_threshold(momentum - step * grad, lam * step)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = new_alpha + ((t - 1.0) / t_next) * (new_alpha - alpha)
        moved = np.linalg.norm(new_alpha - alpha)
        scale = max(1e-12, np.linalg.norm(alpha))
        alpha = new_alpha
        t = t_next
        if moved / scale < tol:
            break
    return alpha


def group_fista_batch(operators: Sequence[np.ndarray],
                      ys: np.ndarray, lams: np.ndarray,
                      n_iter: int = 400,
                      tol: float = 1e-7,
                      lipschitz: float | None = None,
                      operators_t: Sequence[np.ndarray] | None = None,
                      ) -> np.ndarray:
    """Block FISTA over a whole batch of windows at once.

    Runs the same iteration as :func:`group_fista` for ``W`` independent
    windows that share one operator family, replacing ``W * L`` separate
    matrix-vector products per iteration with ``L`` stacked
    matrix-matrix products.  Each window keeps its own scalar ``lam``
    and its own stopping test: a window whose relative motion falls
    below ``tol`` is frozen (dropped from the active set) exactly where
    the scalar loop would have stopped it, so results match the
    one-window path to float round-off.  The stacked products run
    through :func:`row_stable_matmul`, so each window's trajectory is
    *bit-identical* under any batch partition — the property the
    sharded fleet runner's byte-equivalence rests on.

    Args:
        operators: Per-lead measurement operators, each ``(m, n)``.
        ys: Measurements, shape ``(W, L, m)``.
        lams: Per-window group-l1 weights, shape ``(W,)``.
        n_iter: Maximum iterations.
        tol: Relative-motion stopping criterion (per window).
        lipschitz: ``max_l ||A_l||_2^2``
            (:func:`~repro.compression.recovery.lipschitz_constant`);
            computed here when omitted.
        operators_t: C-contiguous transposes of ``operators``; copied
            here when omitted.

    Returns:
        Coefficient batch of shape ``(W, n, L)``.
    """
    n_leads = len(operators)
    ys = np.asarray(ys, dtype=float)
    lams = np.asarray(lams, dtype=float)
    if ys.ndim != 3 or ys.shape[1] != n_leads:
        raise ValueError(f"expected measurements of shape (W, {n_leads}, "
                         f"m), got {ys.shape}")
    n_windows = ys.shape[0]
    n = operators[0].shape[1]
    alpha = np.zeros((n_windows, n, n_leads))
    if n_windows == 0:
        return alpha
    if lipschitz is None:
        lipschitz = lipschitz_constant(*operators)
    if lipschitz == 0.0:
        return alpha
    step = 1.0 / lipschitz
    if operators_t is None:
        operators_t = [A.T.copy() for A in operators]
    active = np.arange(n_windows)
    momentum = alpha.copy()
    t = 1.0
    grad = np.empty((n_windows, n, n_leads))
    for _ in range(n_iter):
        mom = momentum[active]
        grad_act = grad[:active.shape[0]]
        for lead in range(n_leads):
            residual = row_stable_matmul(mom[:, :, lead],
                                         operators_t[lead]) \
                - ys[active, lead, :]
            row_stable_matmul(residual, operators[lead],
                              out=grad_act[:, :, lead])
        new_alpha = group_soft_threshold(
            mom - step * grad_act, (lams[active] * step)[:, None, None])
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        old = alpha[active]
        momentum[active] = new_alpha + ((t - 1.0) / t_next) * \
            (new_alpha - old)
        moved = np.linalg.norm(new_alpha - old, axis=(1, 2))
        scale = np.maximum(1e-12, np.linalg.norm(old, axis=(1, 2)))
        alpha[active] = new_alpha
        t = t_next
        active = active[moved / scale >= tol]
        if active.shape[0] == 0:
            break
    return alpha


@dataclass
class MultiLeadRecovery:
    """Joint reconstruction output.

    Attributes:
        windows: Reconstructed windows, shape ``(L, n)``.
        coefficients: Recovered coefficients, shape ``(n, L)``.
        support_size: Rows kept by the group threshold.
    """

    windows: np.ndarray
    coefficients: np.ndarray
    support_size: int


class JointCsDecoder:
    """Group-sparse joint decoder for multi-lead windows.

    Args:
        sensing: Per-lead sensing matrices (a single matrix is accepted
            and replicated, but per-lead matrices are what produce the
            multi-lead gain — see the module docstring).
        wavelet: Sparsity basis name.
        lam_rel: Group-l1 weight relative to the largest row norm of the
            stacked correlations.
        n_iter: FISTA iteration budget.
        n_leads: Number of leads when a single matrix is replicated.
    """

    def __init__(self, sensing: SensingMatrix | Sequence[SensingMatrix],
                 wavelet: str = "db4", lam_rel: float = 0.002,
                 n_iter: int = 400, n_leads: int = 3) -> None:
        if isinstance(sensing, SensingMatrix):
            matrices = [sensing] * n_leads
        else:
            matrices = list(sensing)
        if not matrices:
            raise ValueError("need at least one sensing matrix")
        self.sensing = matrices
        n = matrices[0].n
        if any(mt.n != n for mt in matrices):
            raise ValueError("all leads must share the window length")
        self.basis = orthogonal_dwt_matrix(n, wavelet)
        self.operators = [mt.matrix @ self.basis.T for mt in matrices]
        #: FISTA step data, fixed by the operators: computed once here
        #: and handed to every solve (one SVD per lead per decoder, not
        #: per call).
        self.lipschitz = lipschitz_constant(*self.operators)
        self.operators_t = [A.T.copy() for A in self.operators]
        self.lam_rel = lam_rel
        self.n_iter = n_iter

    @property
    def n_leads(self) -> int:
        """Number of leads."""
        return len(self.operators)

    def recover(self,
                measurements: np.ndarray | Sequence[np.ndarray]
                | Sequence[EncodedWindow]) -> MultiLeadRecovery:
        """Jointly reconstruct all leads of one window.

        Args:
            measurements: One measurement vector per lead: an ``(L, m)``
                array, a sequence of vectors, or the encoder's
                :class:`EncodedWindow` list.
        """
        ys = []
        for item in measurements:
            if isinstance(item, EncodedWindow):
                ys.append(np.asarray(item.measurements, dtype=float))
            else:
                ys.append(np.asarray(item, dtype=float))
        if len(ys) != self.n_leads:
            raise ValueError(f"expected {self.n_leads} measurement vectors, "
                             f"got {len(ys)}")
        correlations = np.stack(
            [self.operators[lead].T @ ys[lead] for lead in range(self.n_leads)],
            axis=1)
        lam = self.lam_rel * float(
            np.max(np.linalg.norm(correlations, axis=1)))
        alpha = group_fista(self.operators, ys, lam, n_iter=self.n_iter,
                            lipschitz=self.lipschitz)
        alpha = self._debias(ys, alpha)
        windows = (self.basis.T @ alpha).T
        support = int(np.count_nonzero(np.linalg.norm(alpha, axis=1)))
        return MultiLeadRecovery(windows=windows, coefficients=alpha,
                                 support_size=support)

    def recover_batch(self, frames: Sequence) -> list[MultiLeadRecovery]:
        """Jointly reconstruct many windows in one vectorized pass.

        All windows must share this decoder's geometry (they do by
        construction when they come from one encoder family).  The batch
        runs :func:`group_fista_batch` — ``L`` stacked matrix products
        per iteration instead of ``W * L`` matrix-vector products — and
        matches per-window :meth:`recover` to float round-off.

        Args:
            frames: Sequence of per-window measurements, each accepted
                in any form :meth:`recover` takes.

        Returns:
            One :class:`MultiLeadRecovery` per input window, in order.
        """
        frames = list(frames)
        if not frames:
            return []
        ys = np.empty((len(frames), self.n_leads,
                       self.operators[0].shape[0]))
        for w, frame in enumerate(frames):
            if len(frame) != self.n_leads:
                raise ValueError(
                    f"expected {self.n_leads} measurement vectors, "
                    f"got {len(frame)}")
            for lead, item in enumerate(frame):
                # Direct assignment casts straight into the float64
                # batch row, so integer measurements (such as the wire
                # decoder's owned read-only arrays) need no float
                # temporary.
                ys[w, lead, :] = (item.measurements
                                  if isinstance(item, EncodedWindow)
                                  else item)
        # Per-window lam from the stacked correlations (same formula as
        # the scalar path): corr[w, :, l] = operators[l].T @ y[w, l].
        corr = np.stack([row_stable_matmul(ys[:, lead, :],
                                           self.operators[lead])
                         for lead in range(self.n_leads)], axis=2)
        lams = self.lam_rel * np.max(
            np.linalg.norm(corr, axis=2), axis=1)
        alphas = group_fista_batch(self.operators, ys, lams,
                                   n_iter=self.n_iter,
                                   lipschitz=self.lipschitz,
                                   operators_t=self.operators_t)
        out: list[MultiLeadRecovery] = []
        for w in range(len(frames)):
            alpha = self._debias(list(ys[w]), alphas[w])
            windows = (self.basis.T @ alpha).T
            support = int(np.count_nonzero(np.linalg.norm(alpha, axis=1)))
            out.append(MultiLeadRecovery(windows=windows,
                                         coefficients=alpha,
                                         support_size=support))
        return out

    def _debias(self, ys: Sequence[np.ndarray], alpha: np.ndarray,
                rel_support: float = 0.005) -> np.ndarray:
        """Per-lead least squares on the union (row) support."""
        row_norms = np.linalg.norm(alpha, axis=1)
        peak = row_norms.max() if row_norms.size else 0.0
        if peak == 0.0:
            return alpha
        support = np.flatnonzero(row_norms > rel_support * peak)
        m_min = min(A.shape[0] for A in self.operators)
        if support.shape[0] == 0 or support.shape[0] > m_min:
            return alpha
        refined = np.zeros_like(alpha)
        for lead in range(self.n_leads):
            sub = self.operators[lead][:, support]
            coef, *_ = np.linalg.lstsq(sub, ys[lead], rcond=None)
            refined[support, lead] = coef
        return refined
