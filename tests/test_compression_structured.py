"""Unit tests for tree-structured CS recovery (§IV-A, ref [17])."""

import numpy as np
import pytest

from repro.compression import (
    CsDecoder,
    CsEncoder,
    TreeCsDecoder,
    reconstruction_snr_db,
    tree_parents,
    tree_project,
)


class TestTreeParents:
    def test_roots_have_no_parent(self):
        parent = tree_parents(64, levels=3)
        approx_len = 8
        assert np.all(parent[:approx_len] == -1)

    def test_coarsest_detail_rooted_at_approximation(self):
        parent = tree_parents(64, levels=3)
        # d_3 band spans [8, 16); its parents are approx coefficients.
        assert np.all(parent[8:16] == np.arange(8))

    def test_binary_fanout(self):
        parent = tree_parents(64, levels=3)
        counts = np.bincount(parent[parent >= 0], minlength=64)
        # Every detail coefficient above the finest band has 2 children
        # (approximation roots have 1: their d_L coefficient).
        assert np.all(counts[8:32] == 2)
        assert np.all(counts[:8] == 1)
        assert np.all(counts[32:] == 0)  # finest band is leaves

    def test_every_chain_terminates(self):
        parent = tree_parents(128, levels=4)
        for start in range(128):
            node, hops = start, 0
            while node >= 0:
                node = int(parent[node])
                hops += 1
                assert hops < 10

    def test_validates_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            tree_parents(100, levels=3)


class TestTreeProject:
    def test_keeps_connected_support(self):
        parent = tree_parents(64, levels=3)
        rng = np.random.default_rng(3)
        alpha = rng.standard_normal(64)
        projected = tree_project(alpha, 12, parent)
        kept = np.flatnonzero(projected)
        kept_set = set(kept.tolist())
        for idx in kept:
            p = int(parent[idx])
            assert p == -1 or p in kept_set  # ancestors kept

    def test_budget_respected(self):
        parent = tree_parents(64, levels=3)
        alpha = np.random.default_rng(4).standard_normal(64)
        projected = tree_project(alpha, 10, parent)
        assert np.count_nonzero(projected) <= 10

    def test_large_budget_is_identity(self):
        parent = tree_parents(32, levels=2)
        alpha = np.random.default_rng(5).standard_normal(32)
        assert np.array_equal(tree_project(alpha, 32, parent), alpha)

    def test_kept_values_unchanged(self):
        parent = tree_parents(64, levels=3)
        alpha = np.random.default_rng(6).standard_normal(64)
        projected = tree_project(alpha, 8, parent)
        kept = np.flatnonzero(projected)
        assert np.array_equal(projected[kept], alpha[kept])


class TestTreeCsDecoder:
    def test_recovers_clean_window(self, clean_record):
        x = clean_record.signals[1][1000:1256]
        encoder = CsEncoder(n=256, cr_percent=45.0, seed=3)
        decoder = TreeCsDecoder(encoder.sensing)
        result = decoder.recover(encoder.encode(x))
        assert reconstruction_snr_db(x, result.window) > 18.0

    def test_support_is_tree_connected(self, clean_record):
        x = clean_record.signals[1][1000:1256]
        encoder = CsEncoder(n=256, cr_percent=50.0, seed=3)
        decoder = TreeCsDecoder(encoder.sensing)
        result = decoder.recover(encoder.encode(x))
        kept = set(np.flatnonzero(result.coefficients).tolist())
        for idx in kept:
            p = int(decoder.parent[idx])
            assert p == -1 or p in kept

    def test_competitive_with_l1_at_high_cr(self, clean_record):
        # The §IV-A claim: the tree model helps separate signal structure
        # from recovery artifacts in the underdetermined regime.
        x = clean_record.signals[1][2000:2256]
        encoder = CsEncoder(n=256, cr_percent=70.0, seed=3)
        tree = TreeCsDecoder(encoder.sensing).recover(encoder.encode(x))
        l1 = CsDecoder(encoder.sensing).recover(encoder.encode(x))
        tree_snr = reconstruction_snr_db(x, tree.window)
        l1_snr = reconstruction_snr_db(x, l1.window)
        assert tree_snr > l1_snr - 3.0  # at least competitive

    @pytest.mark.parametrize("method", ["fista+tree", "iht"])
    def test_recover_runs_no_svd(self, clean_record, svd_calls, method):
        x = clean_record.signals[1][1000:1256]
        encoder = CsEncoder(n=256, cr_percent=50.0, seed=3)
        decoder = TreeCsDecoder(encoder.sensing, n_iter=20, method=method)
        svd_calls.clear()  # construction computes the step constant
        decoder.recover(encoder.encode(x))
        assert svd_calls == []

    def test_accepts_raw_measurements(self, clean_record):
        x = clean_record.signals[1][1000:1256]
        encoder = CsEncoder(n=256, cr_percent=45.0, seed=3)
        decoder = TreeCsDecoder(encoder.sensing)
        y = encoder.sensing.matrix @ x
        result = decoder.recover(y)
        assert result.window.shape == (256,)
