"""Unit tests for joint multi-lead CS recovery (the Fig. 5 ML curve)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import (
    CsDecoder,
    CsEncoder,
    JointCsDecoder,
    MultiLeadCsEncoder,
    group_fista,
    group_fista_batch,
    group_soft_threshold,
    lipschitz_constant,
    reconstruction_snr_db,
    row_stable_matmul,
    soft_threshold,
)


class TestGroupSoftThreshold:
    @settings(max_examples=30, deadline=None)
    @given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 20),
                                                 st.integers(1, 5)),
                           elements=st.floats(-100, 100, allow_nan=False)),
           t=st.floats(0.0, 50.0))
    def test_row_norms_shrink(self, rows, t):
        out = group_soft_threshold(rows, t)
        before = np.linalg.norm(rows, axis=1)
        after = np.linalg.norm(out, axis=1)
        assert np.all(after <= before + 1e-9)

    def test_rows_below_threshold_zeroed(self):
        rows = np.array([[0.1, 0.1], [3.0, 4.0]])
        out = group_soft_threshold(rows, 1.0)
        assert np.allclose(out[0], 0.0)
        assert np.linalg.norm(out[1]) == pytest.approx(4.0)  # 5 - 1

    def test_direction_preserved(self):
        rows = np.array([[3.0, 4.0]])
        out = group_soft_threshold(rows, 1.0)
        assert np.allclose(out / np.linalg.norm(out),
                           rows / np.linalg.norm(rows))

    def test_batch_thresholds_match_per_entry_calls(self, rng):
        # The batched FISTA shrinks (B, n, L) with one threshold per
        # window; each entry must equal the scalar call bit for bit.
        batch = rng.standard_normal((4, 16, 3))
        thresholds = np.array([0.0, 0.5, 1.0, 2.5])
        out = group_soft_threshold(batch, thresholds[:, None, None])
        for b in range(batch.shape[0]):
            single = group_soft_threshold(batch[b], thresholds[b])
            assert out[b].tobytes() == single.tobytes()

    def test_zero_norm_rows_shrink_to_zero(self):
        # The norm floor keeps all-zero rows finite: no 0/0, no warning.
        rows = np.zeros((3, 2))
        with np.errstate(all="raise"):
            out = group_soft_threshold(rows, 0.25)
        assert np.all(out == 0.0)

    def test_nan_row_stays_local(self):
        rows = np.array([[np.nan, 1.0], [3.0, 4.0]])
        out = group_soft_threshold(rows, 1.0)
        assert np.all(np.isnan(out[0]))
        assert out[1].tobytes() == group_soft_threshold(
            rows[1:], 1.0)[0].tobytes()

    def test_zero_threshold_is_identity(self, rng):
        rows = rng.standard_normal((16, 3))
        assert group_soft_threshold(rows, 0.0).tobytes() == rows.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(1, 50),
                        elements=st.floats(-1e3, 1e3, allow_nan=False)),
           t=st.floats(0.0, 100.0))
    def test_single_lead_reduces_to_soft_threshold(self, x, t):
        # One lead per row: the l2,1 prox is the scalar l1 prox.
        out = group_soft_threshold(x[:, None], t)[:, 0]
        assert np.allclose(out, soft_threshold(x, t), rtol=1e-12,
                           atol=1e-9)


class TestGroupFista:
    def test_recovers_jointly_sparse_rows(self, rng):
        m, n, leads, k = 50, 100, 3, 6
        operators = [rng.standard_normal((m, n)) / np.sqrt(m)
                     for _ in range(leads)]
        truth = np.zeros((n, leads))
        support = rng.choice(n, size=k, replace=False)
        truth[support] = rng.uniform(1, 3, size=(k, leads))
        ys = [operators[lead] @ truth[:, lead] for lead in range(leads)]
        correlations = np.stack([operators[lead].T @ ys[lead]
                                 for lead in range(leads)], axis=1)
        lam = 0.02 * np.max(np.linalg.norm(correlations, axis=1))
        estimate = group_fista(operators, ys, lam, n_iter=800)
        # Debias on the detected union support (as the decoder does).
        rows = np.linalg.norm(estimate, axis=1)
        detected = np.flatnonzero(rows > 0.01 * rows.max())
        refined = np.zeros_like(estimate)
        for lead in range(leads):
            coef, *_ = np.linalg.lstsq(operators[lead][:, detected], ys[lead],
                                       rcond=None)
            refined[detected, lead] = coef
        assert sorted(detected.tolist()) == sorted(support.tolist())
        assert np.max(np.abs(refined - truth)) < 0.05

    def test_validates_lengths(self, rng):
        A = rng.standard_normal((4, 8))
        with pytest.raises(ValueError, match="per operator"):
            group_fista([A], [np.zeros(4), np.zeros(4)], 0.1)


class TestJointCsDecoder:
    def test_multilead_beats_single_lead_at_high_cr(self, clean_record):
        start, n = 1000, 512
        seg = clean_record.signals[:, start:start + n]
        cr = 70.0
        sl_encoder = CsEncoder(n=n, cr_percent=cr, seed=3)
        sl_decoder = CsDecoder(sl_encoder.sensing)
        sl = reconstruction_snr_db(
            seg[1], sl_decoder.recover(sl_encoder.encode(seg[1])).window)

        ml_encoder = MultiLeadCsEncoder(n_leads=3, n=n, cr_percent=cr,
                                        seed=100)
        ml_decoder = JointCsDecoder(ml_encoder.sensing_matrices)
        recovery = ml_decoder.recover(ml_encoder.encode(seg))
        ml = np.mean([reconstruction_snr_db(seg[lead], recovery.windows[lead])
                      for lead in range(3)])
        assert ml > sl + 2.0  # the Fig. 5 multi-lead gain

    def test_replicated_single_matrix_accepted(self, clean_record):
        n = 256
        seg = clean_record.signals[:, 1000:1000 + n]
        encoder = CsEncoder(n=n, cr_percent=40.0, seed=3)
        decoder = JointCsDecoder(encoder.sensing, n_leads=3)
        Y = np.vstack([encoder.sensing.matrix @ seg[lead] for lead in range(3)])
        recovery = decoder.recover(Y)
        assert recovery.windows.shape == (3, n)

    def test_lead_count_checked(self, clean_record):
        encoder = MultiLeadCsEncoder(n_leads=3, n=256)
        decoder = JointCsDecoder(encoder.sensing_matrices)
        with pytest.raises(ValueError, match="expected 3"):
            decoder.recover([np.zeros(encoder.m)] * 2)

    def test_window_length_consistency_checked(self):
        a = MultiLeadCsEncoder(n_leads=1, n=256).sensing_matrices[0]
        b = MultiLeadCsEncoder(n_leads=1, n=128).sensing_matrices[0]
        with pytest.raises(ValueError, match="window length"):
            JointCsDecoder([a, b])

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError, match="at least one"):
            JointCsDecoder([])

    def test_support_is_shared_across_leads(self, clean_record):
        n = 256
        seg = clean_record.signals[:, 2000:2000 + n]
        encoder = MultiLeadCsEncoder(n_leads=3, n=n, cr_percent=55.0,
                                     seed=100)
        decoder = JointCsDecoder(encoder.sensing_matrices)
        recovery = decoder.recover(encoder.encode(seg))
        # Rows are zero or non-zero together (group sparsity).
        nonzero = recovery.coefficients != 0
        rows_any = nonzero.any(axis=1)
        rows_all = nonzero.all(axis=1)
        assert np.array_equal(rows_any, rows_all)


class TestRecoverBatch:
    """Batched joint recovery vs the per-window scalar path."""

    @pytest.fixture(scope="class")
    def decoder_and_frames(self, clean_record):
        encoder = MultiLeadCsEncoder(n_leads=3, n=256, cr_percent=60.0,
                                     seed=11)
        decoder = JointCsDecoder(encoder.sensing_matrices, n_iter=120)
        frames = [encoder.encode(clean_record.signals[:, lo:lo + 256])
                  for lo in range(500, 500 + 4 * 256, 256)]
        return decoder, frames

    def test_matches_scalar_recover(self, decoder_and_frames):
        decoder, frames = decoder_and_frames
        batch = decoder.recover_batch(frames)
        assert len(batch) == len(frames)
        for frame, got in zip(frames, batch):
            want = decoder.recover(frame)
            assert np.allclose(got.windows, want.windows,
                               rtol=1e-9, atol=1e-12)
            assert got.support_size == want.support_size

    def test_empty_batch(self, decoder_and_frames):
        decoder, _ = decoder_and_frames
        assert decoder.recover_batch([]) == []

    def test_solves_run_no_svd(self, decoder_and_frames, svd_calls):
        # The step constant belongs to the decoder: batch and scalar
        # solves reuse it instead of one SVD per lead per call.
        decoder, frames = decoder_and_frames
        decoder.recover_batch(frames)
        decoder.recover(frames[0])
        assert svd_calls == []

    def test_lead_count_mismatch_rejected(self, decoder_and_frames):
        decoder, frames = decoder_and_frames
        with pytest.raises(ValueError, match="measurement vectors"):
            decoder.recover_batch([frames[0][:2]])

    def test_batch_fista_shape_validation(self):
        ops = [np.eye(4)]
        with pytest.raises(ValueError, match="shape"):
            group_fista_batch(ops, np.zeros((2, 3, 4)), np.zeros(2))


class TestGroupFistaBatch:
    """Per-window independence of the batched joint solver."""

    @staticmethod
    def _problem(n_leads, n_windows=5, m=24, n=48, seed=0):
        rng = np.random.default_rng(seed)
        operators = [rng.standard_normal((m, n)) / np.sqrt(m)
                     for _ in range(n_leads)]
        ys = rng.standard_normal((n_windows, n_leads, m))
        lams = rng.uniform(0.01, 0.2, size=n_windows)
        return operators, ys, lams

    @pytest.mark.parametrize("n_leads", [1, 2, 3, 8])
    def test_bit_identical_under_any_partition(self, n_leads):
        # Windows freeze at different iterations; neither that nor the
        # batch they share may move another window's trajectory by a bit.
        operators, ys, lams = self._problem(n_leads, seed=n_leads)
        batch = group_fista_batch(operators, ys, lams, n_iter=150)
        for w in range(ys.shape[0]):
            solo = group_fista_batch(operators, ys[w:w + 1],
                                     lams[w:w + 1], n_iter=150)
            assert solo[0].tobytes() == batch[w].tobytes()

    def test_supplied_step_matches_computed_step(self):
        operators, ys, lams = self._problem(3)
        computed = group_fista_batch(operators, ys, lams, n_iter=150)
        supplied = group_fista_batch(
            operators, ys, lams, n_iter=150,
            lipschitz=lipschitz_constant(*operators),
            operators_t=[A.T.copy() for A in operators])
        assert supplied.tobytes() == computed.tobytes()

    def test_zero_operator_returns_zeros(self):
        out = group_fista_batch([np.zeros((4, 8))] * 2,
                                np.ones((3, 2, 4)), np.full(3, 0.1))
        assert out.shape == (3, 8, 2)
        assert np.all(out == 0.0)

    def test_dominant_lambda_zeroes_only_its_window(self):
        operators, ys, lams = self._problem(3)
        correlations = np.stack([operators[lead].T @ ys[2, lead]
                                 for lead in range(3)], axis=1)
        lams[2] = 2.0 * np.max(np.linalg.norm(correlations, axis=1))
        out = group_fista_batch(operators, ys, lams, n_iter=150)
        assert np.all(out[2] == 0.0)
        for w in (0, 1, 3, 4):
            assert np.any(out[w] != 0.0)


class TestRowStableMatmul:
    """Fixed-tile matmul: the primitive shard equivalence rests on."""

    def test_matches_gemm_values(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(13, 256))
        b = rng.normal(size=(256, 103))
        assert np.allclose(row_stable_matmul(a, b), a @ b,
                           rtol=1e-12, atol=0.0)

    def test_rows_independent_of_batch_size(self):
        # The property plain ``@`` does NOT have: BLAS switches kernels
        # (and summation orders) with the left operand's height.
        rng = np.random.default_rng(1)
        a = rng.normal(size=(23, 256))
        b = rng.normal(size=(256, 103))
        full = row_stable_matmul(a, b)
        for rows in (1, 2, 5, 8, 9, 23):
            assert np.array_equal(row_stable_matmul(a[:rows], b),
                                  full[:rows])

    def test_rows_independent_of_companions(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 64))
        b = rng.normal(size=(64, 32))
        solo = [row_stable_matmul(a[i:i + 1], b)[0] for i in range(6)]
        batched = row_stable_matmul(a, b)
        for i in range(6):
            assert np.array_equal(batched[i], solo[i])

    def test_out_parameter_fills_views(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 16))
        b = rng.normal(size=(16, 8))
        dest = np.zeros((4, 3, 8))
        result = row_stable_matmul(a, b, out=dest[:, 1, :])
        assert np.array_equal(dest[:, 1, :], row_stable_matmul(a, b))
        assert np.array_equal(result, dest[:, 1, :])

    def test_noncontiguous_input_accepted(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(5, 3, 64))
        b = rng.normal(size=(64, 16))
        view = stack[:, 1, :]  # strided over the middle axis
        assert np.array_equal(row_stable_matmul(view, b),
                              row_stable_matmul(np.ascontiguousarray(view),
                                                b))
