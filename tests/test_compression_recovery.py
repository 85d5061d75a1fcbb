"""Unit tests for CS recovery (FISTA, OMP, debias, CsDecoder)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import (
    CsDecoder,
    CsEncoder,
    debias,
    fista,
    group_fista,
    omp,
    reconstruction_snr_db,
    soft_threshold,
)


class TestSoftThreshold:
    @settings(max_examples=40, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(1, 50),
                        elements=st.floats(-1e3, 1e3, allow_nan=False)),
           t=st.floats(0.0, 100.0))
    def test_shrinks_towards_zero(self, x, t):
        out = soft_threshold(x, t)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
        assert np.all(np.sign(out) * np.sign(x) >= 0)

    def test_exact_values(self):
        x = np.array([3.0, -3.0, 0.5, -0.5])
        out = soft_threshold(x, 1.0)
        assert np.allclose(out, [2.0, -2.0, 0.0, 0.0])

    def test_nan_propagates_with_numpy_sign_semantics(self):
        out = soft_threshold(np.array([np.nan, -2.0, 0.0, 2.0]), 0.5)
        assert np.isnan(out[0])
        assert out[1] == -1.5 and out[2] == 0.0 and out[3] == 1.5

    def test_zero_threshold_is_identity(self, rng):
        x = rng.standard_normal(64)
        assert soft_threshold(x, 0.0).tobytes() == x.tobytes()


def _sparse_problem(rng, m=60, n=120, k=6, noise=0.0):
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    truth = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    truth[support] = rng.uniform(1.0, 3.0, k) * rng.choice([-1, 1], k)
    y = A @ truth + noise * rng.standard_normal(m)
    return A, y, truth


class TestFista:
    def test_recovers_sparse_vector(self, rng):
        A, y, truth = _sparse_problem(rng)
        lam = 0.02 * np.max(np.abs(A.T @ y))
        estimate = debias(A, y, fista(A, y, lam, n_iter=800))
        assert np.max(np.abs(estimate - truth)) < 0.05

    def test_zero_operator(self):
        estimate = fista(np.zeros((4, 8)), np.ones(4), 0.1)
        assert np.allclose(estimate, 0.0)

    def test_large_lambda_gives_zero(self, rng):
        A, y, _ = _sparse_problem(rng)
        lam = 10 * np.max(np.abs(A.T @ y))
        assert np.allclose(fista(A, y, lam), 0.0)

    def test_objective_decreases(self, rng):
        A, y, _ = _sparse_problem(rng, noise=0.05)
        lam = 0.01 * np.max(np.abs(A.T @ y))

        def objective(a):
            return 0.5 * np.sum((y - A @ a) ** 2) + lam * np.sum(np.abs(a))

        short = fista(A, y, lam, n_iter=5, tol=0.0)
        long = fista(A, y, lam, n_iter=200, tol=0.0)
        assert objective(long) <= objective(short) + 1e-9

    def test_single_lead_group_fista_matches_fista(self, rng):
        # With one lead the l2,1 prox is the l1 prox, so the joint
        # solver must land on the single-lead solution.
        A, y, _ = _sparse_problem(rng, noise=0.05)
        lam = 0.02 * np.max(np.abs(A.T @ y))
        joint = group_fista([A], [y], lam, n_iter=300, tol=0.0)
        assert joint.shape == (A.shape[1], 1)
        assert np.allclose(joint[:, 0], fista(A, y, lam, n_iter=300,
                                              tol=0.0),
                           rtol=1e-9, atol=1e-12)


class TestOmp:
    def test_exact_recovery(self, rng):
        A, y, truth = _sparse_problem(rng, k=5)
        estimate = omp(A, y, sparsity=5)
        assert np.allclose(estimate, truth, atol=1e-8)

    def test_sparsity_budget_respected(self, rng):
        A, y, _ = _sparse_problem(rng, noise=0.1)
        estimate = omp(A, y, sparsity=7)
        assert np.count_nonzero(estimate) <= 7

    def test_invalid_sparsity(self, rng):
        A, y, _ = _sparse_problem(rng)
        with pytest.raises(ValueError):
            omp(A, y, sparsity=0)
        with pytest.raises(ValueError):
            omp(A, y, sparsity=A.shape[0] + 1)


class TestDebias:
    def test_removes_shrinkage_bias(self, rng):
        A, y, truth = _sparse_problem(rng)
        lam = 0.05 * np.max(np.abs(A.T @ y))
        biased = fista(A, y, lam, n_iter=400)
        refined = debias(A, y, biased)
        assert np.linalg.norm(refined - truth) < np.linalg.norm(
            biased - truth)

    def test_zero_estimate_passthrough(self, rng):
        A, y, _ = _sparse_problem(rng)
        zero = np.zeros(A.shape[1])
        assert np.array_equal(debias(A, y, zero), zero)

    def test_oversized_support_passthrough(self, rng):
        A, y, _ = _sparse_problem(rng, m=20, n=40)
        dense = rng.standard_normal(40)
        assert np.array_equal(debias(A, y, dense, rel_support=0.0), dense)


class TestCsDecoder:
    def test_high_snr_at_moderate_cr(self, clean_record):
        x = clean_record.signals[1][1000:1256]
        encoder = CsEncoder(n=256, cr_percent=40.0, seed=3)
        decoder = CsDecoder(encoder.sensing)
        result = decoder.recover(encoder.encode(x))
        assert reconstruction_snr_db(x, result.window) > 22.0

    def test_quality_degrades_with_cr(self, clean_record):
        x = clean_record.signals[1][1000:1256]
        snrs = []
        for cr in (30.0, 60.0, 85.0):
            encoder = CsEncoder(n=256, cr_percent=cr, seed=3)
            decoder = CsDecoder(encoder.sensing)
            result = decoder.recover(encoder.encode(x))
            snrs.append(reconstruction_snr_db(x, result.window))
        assert snrs[0] > snrs[1] > snrs[2]

    def test_omp_method(self, clean_record):
        x = clean_record.signals[1][1000:1256]
        encoder = CsEncoder(n=256, cr_percent=40.0, seed=3)
        decoder = CsDecoder(encoder.sensing, method="omp")
        result = decoder.recover(encoder.encode(x))
        assert reconstruction_snr_db(x, result.window) > 22.0

    def test_invalid_method(self):
        encoder = CsEncoder(n=64)
        with pytest.raises(ValueError, match="method"):
            CsDecoder(encoder.sensing, method="lasso")

    def test_recover_runs_no_svd(self, clean_record, svd_calls):
        encoder = CsEncoder(n=256, cr_percent=50.0, seed=3)
        decoder = CsDecoder(encoder.sensing)
        svd_calls.clear()  # construction computes the step constant
        for lo in (1000, 1256):
            decoder.recover(encoder.encode(
                clean_record.signals[1][lo:lo + 256]))
        assert svd_calls == []

    def test_support_size_reported(self, clean_record):
        x = clean_record.signals[1][1000:1256]
        encoder = CsEncoder(n=256, cr_percent=50.0, seed=3)
        result = CsDecoder(encoder.sensing).recover(encoder.encode(x))
        assert 0 < result.support_size <= 256

    def test_accepts_raw_measurements(self, clean_record):
        x = clean_record.signals[1][1000:1256]
        encoder = CsEncoder(n=256, cr_percent=40.0, seed=3)
        decoder = CsDecoder(encoder.sensing)
        y = encoder.sensing.matrix @ x
        result = decoder.recover(y)
        assert reconstruction_snr_db(x, result.window) > 22.0
