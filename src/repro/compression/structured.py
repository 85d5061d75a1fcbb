"""Tree-structured (model-based) CS recovery (paper §IV-A, ref [17]).

Section IV-A: "wavelet coefficients are naturally organized into a tree
structure, and the largest coefficients cluster along the branches of this
tree.  A CS reconstruction algorithm based on the connected tree model has
been proposed in [17]."  This module implements that idea as model-based
iterative hard thresholding (IHT): at every iteration the coefficient
estimate is projected onto the set of *rooted connected subtrees* instead
of plain k-sparse vectors, which rejects isolated recovery artifacts that
plain l1/IHT keeps.

Layout: the orthogonal DWT of :mod:`repro.dsp.wavelets` packs
coefficients as ``[a_L | d_L | d_{L-1} | ... | d_1]``.  Within the detail
pyramid, coefficient ``j`` of band ``d_k`` is the parent of coefficients
``2j`` and ``2j + 1`` of band ``d_{k-1}``; approximation coefficients form
the roots and are always kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.wavelets import orthogonal_dwt_matrix
from .encoder import EncodedWindow
from .matrices import SensingMatrix
from .recovery import fista, lipschitz_constant


def tree_parents(n: int, levels: int) -> np.ndarray:
    """Parent index of every coefficient in the packed DWT layout.

    Args:
        n: Window length.
        levels: DWT decomposition depth (``n`` divisible by 2**levels).

    Returns:
        Integer array ``parent`` of length ``n``; roots (the approximation
        band and the coarsest detail band) carry ``-1``.
    """
    if n % (2 ** levels) != 0:
        raise ValueError(f"n={n} not divisible by 2**levels={2 ** levels}")
    parent = np.full(n, -1, dtype=int)
    approx_len = n // 2 ** levels
    # Band k (k = levels .. 1) spans [start_k, start_k + len_k); the
    # packed order after the approximation is d_L (coarsest) .. d_1.
    starts = {}
    offset = approx_len
    for k in range(levels, 0, -1):
        length = n // 2 ** k
        starts[k] = offset
        offset += length
    for k in range(levels, 1, -1):
        coarse_start = starts[k]
        fine_start = starts[k - 1]
        length = n // 2 ** k
        for j in range(length):
            parent[fine_start + 2 * j] = coarse_start + j
            parent[fine_start + 2 * j + 1] = coarse_start + j
    # Coarsest detail band roots at the corresponding approximation
    # coefficient (same spatial position).
    for j in range(approx_len):
        parent[starts[levels] + j] = j
    return parent


def tree_support(alpha: np.ndarray, k: int,
                 parent: np.ndarray) -> np.ndarray:
    """Boolean mask of the greedy rooted-subtree support of size <= k.

    Ancestors are admitted together with each coefficient (even when
    their own value is zero), so the mask is always connected towards the
    roots.
    """
    n = alpha.shape[0]
    kept = np.zeros(n, dtype=bool)
    if k >= n:
        kept[:] = True
        return kept
    order = np.argsort(-np.abs(alpha))
    budget = k
    for idx in order:
        if budget <= 0:
            break
        if kept[idx]:
            continue
        chain = [int(idx)]
        node = int(parent[idx])
        while node >= 0 and not kept[node]:
            chain.append(node)
            node = int(parent[node])
        if len(chain) > budget:
            continue
        for node in chain:
            kept[node] = True
        budget -= len(chain)
    return kept


def tree_project(alpha: np.ndarray, k: int, parent: np.ndarray,
                 ) -> np.ndarray:
    """Greedy projection onto rooted connected subtrees of size <= k.

    Coefficients are admitted in decreasing magnitude; admitting one
    admits all its not-yet-kept ancestors (counted against the budget), so
    the kept support is always connected towards the roots — the CSSA-style
    greedy used by practical tree-based recovery.

    Args:
        alpha: Coefficient vector (packed DWT layout).
        k: Support budget.
        parent: Parent map from :func:`tree_parents`.

    Returns:
        ``alpha`` with everything outside the selected subtree zeroed.
    """
    kept = tree_support(alpha, k, parent)
    projected = np.zeros_like(alpha)
    projected[kept] = alpha[kept]
    return projected


@dataclass
class TreeRecoveryResult:
    """Output of :class:`TreeCsDecoder`.

    Attributes:
        window: Reconstructed time-domain window.
        coefficients: Tree-sparse coefficient estimate.
        support_size: Kept coefficients.
    """

    window: np.ndarray
    coefficients: np.ndarray
    support_size: int


class TreeCsDecoder:
    """Tree-model CS decoder.

    Two modes:

    * ``"fista+tree"`` (default) — solve the l1 problem first, then
      project the coefficient estimate onto the connected-tree model and
      refit on the tree support.  The tree acts exactly as §IV-A frames
      it: a structural prior that "differentiates signal information from
      recovery artifacts" (isolated l1 survivors without ancestors are
      dropped).
    * ``"iht"`` — pure model-based iterative hard thresholding with the
      tree projection as the model step (the algorithmic skeleton of
      ref [17]).

    Args:
        sensing: Sensing matrix shared with the encoder.
        wavelet: Sparsity basis name.
        levels: DWT depth (default: the basis default).
        sparsity_frac: Tree budget as a fraction of the measurement count.
        n_iter: Iteration budget.
        method: ``"fista+tree"`` or ``"iht"``.
    """

    def __init__(self, sensing: SensingMatrix, wavelet: str = "db4",
                 levels: int | None = None, sparsity_frac: float = 0.4,
                 n_iter: int = 200, method: str = "fista+tree") -> None:
        from ..dsp.wavelets import max_dwt_levels

        if method not in ("fista+tree", "iht"):
            raise ValueError("method must be 'fista+tree' or 'iht'")
        self.sensing = sensing
        self.levels = levels or max_dwt_levels(sensing.n, wavelet)
        self.basis = orthogonal_dwt_matrix(sensing.n, wavelet, self.levels)
        self.A = sensing.matrix @ self.basis.T
        #: Step constant shared by the l1 solve and IHT (one SVD).
        self.lipschitz = lipschitz_constant(self.A)
        self.parent = tree_parents(sensing.n, self.levels)
        self.sparsity_frac = sparsity_frac
        self.n_iter = n_iter
        self.method = method

    def recover(self, y: np.ndarray | EncodedWindow) -> TreeRecoveryResult:
        """Reconstruct one window under the connected-tree model."""
        if isinstance(y, EncodedWindow):
            y = y.measurements
        y = np.asarray(y, dtype=float)
        k = max(1, int(self.sparsity_frac * self.sensing.m))
        if self.method == "iht":
            alpha = self._iht(y, k)
        else:
            lam = 0.002 * float(np.max(np.abs(self.A.T @ y)))
            alpha = fista(self.A, y, lam, n_iter=self.n_iter,
                          lipschitz=self.lipschitz)
        support = np.flatnonzero(tree_support(alpha, k, self.parent))
        alpha = self._refit(y, alpha, support)
        window = self.basis.T @ alpha
        return TreeRecoveryResult(window=window, coefficients=alpha,
                                  support_size=support.shape[0])

    def _iht(self, y: np.ndarray, k: int) -> np.ndarray:
        step = 1.0 / max(self.lipschitz, 1e-12)
        alpha = np.zeros(self.A.shape[1])
        for _ in range(self.n_iter):
            gradient = self.A.T @ (y - self.A @ alpha)
            alpha = tree_project(alpha + step * gradient, k, self.parent)
        return alpha

    def _refit(self, y: np.ndarray, alpha: np.ndarray,
               support: np.ndarray) -> np.ndarray:
        """Least-squares refit on the (tree-connected) support."""
        if support.shape[0] == 0 or support.shape[0] > self.A.shape[0]:
            return tree_project(alpha, max(1, self.A.shape[0] // 2),
                                self.parent)
        refined = np.zeros_like(alpha)
        coef, *_ = np.linalg.lstsq(self.A[:, support], y, rcond=None)
        refined[support] = coef
        return refined
