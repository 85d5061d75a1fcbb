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


def _tile_rows(rows: int) -> int:
    """``rows`` rounded up to a whole number of tiles (at least one)."""
    return -(-max(rows, 1) // _MATMUL_TILE) * _MATMUL_TILE


def _rows_contiguous(x: np.ndarray) -> bool:
    """Whether each ``(rows, cols)`` matrix of ``x`` is C-contiguous.

    Leading (batch) axes may have any strides.
    """
    rows, cols = x.shape[-2:]
    return ((cols <= 1 or x.strides[-1] == x.itemsize)
            and (rows <= 1 or x.strides[-2] == cols * x.itemsize))


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

    The product runs as one ``np.matmul`` over ``a`` viewed as fixed
    tiles of :data:`_MATMUL_TILE` rows (zero padded to a multiple of
    it), shape ``(..., tiles, tile, k)``, against ``b[..., None, :, :]``.
    That pins the kernel path: every tile is the same fixed-shape
    ``(tile, k) @ (k, m)`` call, so a row's result depends only on the
    row itself and ``b`` (tested in
    ``tests/test_compression_multilead.py``).  Within a few percent of
    a single full-height gemm at fleet batch sizes.

    Args:
        a: Left operand, shape ``(rows, k)`` or a stack ``(L, rows, k)``
            (any strides).  A float64 ``a`` whose matrices are
            C-contiguous with a whole number of tiles of rows is used in
            place; anything else is copied into a padded buffer.
        b: Right operand, shape ``(k, m)``, or ``(L, k, m)`` with one
            matrix per entry of a stacked ``a``.
        out: Optional destination of shape ``(..., rows, m)`` (any
            strides).
    """
    a = np.asarray(a, dtype=float)
    *batch, rows, k = a.shape
    padded = _tile_rows(rows)
    if padded != rows or not _rows_contiguous(a):
        src = a
        a = np.zeros((*batch, padded, k))
        a[..., :rows, :] = src
    tiles = (*batch, padded // _MATMUL_TILE, _MATMUL_TILE)
    b_tiles = b[..., None, :, :]
    m = b.shape[-1]
    if out is not None and padded == rows and _rows_contiguous(out):
        # Splitting the row axis is always a view, so the tiles land
        # in ``out`` itself.
        np.matmul(a.reshape(*tiles, k), b_tiles,
                  out=out.reshape(*tiles, m))
        return out
    full = np.matmul(a.reshape(*tiles, k), b_tiles).reshape(
        *batch, padded, m)
    if out is not None:
        out[...] = full[..., :rows, :]
        return out
    return full[..., :rows, :]


def _lead_norms(z: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """Group norms of lead-major ``z`` (shape ``(L, ...)``) over its leads.

    Bit for bit ``np.linalg.norm`` over a contiguous last axis of
    length ``L`` (the window-major layout the group threshold used to
    reduce): numpy sums such an axis with its pairwise kernel, which
    adds fewer than 8 terms left to right, up to 128 terms in eight
    interleaved accumulators folded ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    plus a left-to-right tail, and more by halves.  The lead planes are
    summed in exactly that order, so a numpy release that changes it
    fails ``tests/test_compression_multilead.py`` instead of moving
    golden bytes.

    Args:
        z: Lead-major values, shape ``(L, ...)``.
        out: Optional destination of shape ``z.shape[1:]``.
        work: Optional scratch of ``z``'s shape, overwritten.
    """
    squares = np.multiply(z, z, out=work)
    return np.sqrt(_pairwise_sum(squares), out=out)


def _pairwise_sum(planes: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum over axis 0 of non-negative ``planes``.

    Accumulates in place into ``planes`` and returns the plane holding
    the sum.  Starting from the first term instead of numpy's zero is
    exact because every term is a square.
    """
    n = planes.shape[0]
    if n < 8:
        for i in range(1, n):
            np.add(planes[0], planes[i], out=planes[0])
        return planes[0]
    if n <= 128:
        stop = n - n % 8
        for i in range(8, stop, 8):
            np.add(planes[:8], planes[i:i + 8], out=planes[:8])
        np.add(planes[0:8:2], planes[1:8:2], out=planes[0:8:2])
        np.add(planes[0:8:4], planes[2:8:4], out=planes[0:8:4])
        np.add(planes[0], planes[4], out=planes[0])
        for i in range(stop, n):
            np.add(planes[0], planes[i], out=planes[0])
        return planes[0]
    half = n // 2
    half -= half % 8
    return np.add(_pairwise_sum(planes[:half]),
                  _pairwise_sum(planes[half:]), out=planes[0])


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


def group_fista_batch(operators: Sequence[np.ndarray] | np.ndarray,
                      ys: np.ndarray, lams: np.ndarray,
                      n_iter: int = 400,
                      tol: float = 1e-7,
                      lipschitz: float | None = None,
                      operators_t: Sequence[np.ndarray] | np.ndarray
                      | None = None,
                      ) -> np.ndarray:
    """Block FISTA over a whole batch of windows at once.

    Runs the same iteration as :func:`group_fista` for ``W`` independent
    windows that share one operator family.  The state is lead-major,
    ``(L, W, n)``, in buffers allocated once per call and padded to
    whole :func:`row_stable_matmul` tiles, so each iteration makes two
    stacked products — ``A x - y`` and ``A^T r`` over every lead and
    window at once — and runs the gradient step, group threshold and
    momentum in place.  Each window keeps its own scalar ``lam``
    and its own stopping test: a window whose relative motion falls
    below ``tol`` is frozen (dropped from the active set, which is
    compacted then) exactly where the scalar loop would have stopped
    it, so results match the one-window path to float round-off.  The
    products are row-stable and every reduction follows numpy's own
    order (:func:`_lead_norms` for the group norms; the stopping norms
    reduce a window-major copy), so each window's trajectory is
    *bit-identical* under any batch partition — the property the
    sharded fleet runner's byte-equivalence rests on.

    Args:
        operators: Per-lead measurement operators, each ``(m, n)``, or
            their ``(L, m, n)`` stack.
        ys: Measurements, shape ``(W, L, m)``.
        lams: Per-window group-l1 weights, shape ``(W,)``.
        n_iter: Maximum iterations.
        tol: Relative-motion stopping criterion (per window).
        lipschitz: ``max_l ||A_l||_2^2``
            (:func:`~repro.compression.recovery.lipschitz_constant`);
            computed here when omitted.
        operators_t: C-contiguous transposes of ``operators`` (or their
            ``(L, n, m)`` stack); copied here when omitted.

    Returns:
        Coefficient batch of shape ``(W, n, L)``.
    """
    ops = np.asarray(operators, dtype=float)
    n_leads = ops.shape[0]
    ys = np.asarray(ys, dtype=float)
    lams = np.asarray(lams, dtype=float)
    if ys.ndim != 3 or ys.shape[1] != n_leads:
        raise ValueError(f"expected measurements of shape (W, {n_leads}, "
                         f"m), got {ys.shape}")
    n_windows, _, m = ys.shape
    n = ops.shape[2]
    out = np.zeros((n_windows, n, n_leads))
    if n_windows == 0:
        return out
    if lipschitz is None:
        lipschitz = lipschitz_constant(*ops)
    if lipschitz == 0.0:
        return out
    step = 1.0 / lipschitz
    ops_t = (np.ascontiguousarray(ops.transpose(0, 2, 1))
             if operators_t is None else np.asarray(operators_t, dtype=float))
    # Rows past the active windows stay zero, so the padding of the
    # last tile computes zeros (and raises no floating-point warning).
    rows = _tile_rows(n_windows)
    y = np.zeros((n_leads, rows, m))
    y[:, :n_windows] = ys.transpose(1, 0, 2)
    thresh = np.zeros(rows)
    thresh[:n_windows] = lams * step
    alpha = np.zeros((n_leads, rows, n))
    fresh = np.empty_like(alpha)
    momentum = np.zeros_like(alpha)
    grad = np.empty_like(alpha)
    work = np.empty_like(alpha)
    residual = np.empty((n_leads, rows, m))
    shrink = np.empty((rows, n))
    window_major = np.empty((n_windows, n, n_leads))
    # ||alpha|| per active window: the previous iteration's ||fresh||.
    alpha_norm = np.zeros(n_windows)
    active = np.arange(n_windows)
    t = 1.0
    for _ in range(n_iter):
        count = active.shape[0]
        live = _tile_rows(count)
        x, x_new, mom, g, res = (buf[:, :live] for buf in (
            alpha, fresh, momentum, grad, residual))
        # Gradient step: z = momentum - step * A^T (A momentum - y).
        row_stable_matmul(mom, ops_t, out=res)
        np.subtract(res, y[:, :live], out=res)
        row_stable_matmul(res, ops, out=g)
        np.multiply(g, step, out=g)
        np.subtract(mom, g, out=g)
        # Group soft threshold (:func:`group_soft_threshold`).
        scale = _lead_norms(g, out=shrink[:live], work=work[:, :live])
        np.maximum(scale, 1e-12, out=scale)
        np.divide(thresh[:live, None], scale, out=scale)
        np.subtract(1.0, scale, out=scale)
        np.maximum(0.0, scale, out=scale)
        np.multiply(g, scale, out=x_new)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        diff = np.subtract(x_new, x, out=work[:, :live])
        np.multiply(diff, (t - 1.0) / t_next, out=mom)
        np.add(x_new, mom, out=mom)
        moved = np.linalg.norm(_to_window_major(diff, window_major, count),
                               axis=(1, 2))
        new_norm = np.linalg.norm(
            _to_window_major(x_new, window_major, count), axis=(1, 2))
        keep = moved / np.maximum(1e-12, alpha_norm[:count]) >= tol
        alpha, fresh = fresh, alpha
        t = t_next
        if keep.all():
            alpha_norm[:count] = new_norm
            continue
        stopped = np.flatnonzero(~keep)
        out[active[stopped]] = alpha[:, stopped].transpose(1, 2, 0)
        kept = np.flatnonzero(keep)
        active = active[kept]
        if active.shape[0] == 0:
            break
        count = active.shape[0]
        for buf in (alpha, momentum, y):
            buf[:, :count] = buf[:, kept]
            buf[:, count:live] = 0.0
        thresh[:count] = thresh[kept]
        thresh[count:live] = 0.0
        alpha_norm[:count] = new_norm[kept]
    out[active] = alpha[:, :active.shape[0]].transpose(1, 2, 0)
    return out


def _to_window_major(z: np.ndarray, buf: np.ndarray,
                     count: int) -> np.ndarray:
    """The first ``count`` windows of lead-major ``z`` as a C-contiguous
    ``(count, n, L)`` view of ``buf``: the layout whose per-window
    ``np.linalg.norm(..., axis=(1, 2))`` the stopping test pins.

    One strided copy per lead: at the fleet's 1-3 leads that is about
    three times faster than one transposed copy, whose inner loop runs
    over the leads.
    """
    dest = buf[:count]
    for lead in range(z.shape[0]):
        dest[:, :, lead] = z[lead, :count]
    return dest


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
        if any((mt.m, mt.n) != (matrices[0].m, n) for mt in matrices):
            raise ValueError("all leads must share the window length "
                             "and measurement count")
        self.basis = orthogonal_dwt_matrix(n, wavelet)
        #: Per-lead operators ``Phi_l W^T``, stacked ``(L, m, n)``.
        self.operators = np.stack([mt.matrix @ self.basis.T
                                   for mt in matrices])
        #: FISTA step data, fixed by the operators: computed once here
        #: and handed to every solve (one SVD per lead per decoder, not
        #: per call).
        self.lipschitz = lipschitz_constant(*self.operators)
        #: C-contiguous transposes, stacked ``(L, n, m)``.
        self.operators_t = np.ascontiguousarray(
            self.operators.transpose(0, 2, 1))
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
        runs :func:`group_fista_batch` — two stacked matrix products
        per iteration instead of ``2 * W * L`` matrix-vector products —
        and matches per-window :meth:`recover` to float round-off.

        Args:
            frames: Sequence of per-window measurements, each accepted
                in any form :meth:`recover` takes.

        Returns:
            One :class:`MultiLeadRecovery` per input window, in order.
        """
        frames = list(frames)
        if not frames:
            return []
        ys = np.empty((len(frames), self.n_leads, self.operators.shape[1]))
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
        # the scalar path): corr[l, w] = operators[l].T @ y[w, l].
        corr = row_stable_matmul(ys.transpose(1, 0, 2), self.operators)
        lams = self.lam_rel * np.max(_lead_norms(corr), axis=1)
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
        if not 0 < support.shape[0] <= self.operators.shape[1]:
            return alpha
        refined = np.zeros_like(alpha)
        for lead in range(self.n_leads):
            sub = self.operators[lead][:, support]
            coef, *_ = np.linalg.lstsq(sub, ys[lead], rcond=None)
            refined[support, lead] = coef
        return refined
