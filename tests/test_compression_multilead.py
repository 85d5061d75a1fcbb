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


def _tile_list_matmul(a, b, out=None):
    """Reference: the Python list of 4-row tiles ``row_stable_matmul``
    ran before its stacked form (kept to pin the bits it must keep)."""
    a = np.ascontiguousarray(a, dtype=float)
    rows = a.shape[0]
    padded_rows = -(-max(rows, 1) // 4) * 4
    if padded_rows != rows:
        padded = np.zeros((padded_rows, a.shape[1]), dtype=a.dtype)
        padded[:rows] = a
        a = padded
    tiles = [a[i:i + 4] @ b for i in range(0, padded_rows, 4)]
    full = tiles[0] if len(tiles) == 1 else np.concatenate(tiles)
    if out is not None:
        out[...] = full[:rows]
        return out
    return full[:rows]


def _per_lead_fista_batch(operators, ys, lams, n_iter=400, tol=1e-7):
    """Reference: the window-major batched FISTA with one pair of tile
    lists per lead per iteration, which ``group_fista_batch`` replaced
    bit for bit."""
    n_leads = len(operators)
    n = operators[0].shape[1]
    alpha = np.zeros((ys.shape[0], n, n_leads))
    lipschitz = lipschitz_constant(*operators)
    if lipschitz == 0.0:
        return alpha
    step = 1.0 / lipschitz
    operators_t = [A.T.copy() for A in operators]
    active = np.arange(ys.shape[0])
    momentum = alpha.copy()
    t = 1.0
    grad = np.empty_like(alpha)
    for _ in range(n_iter):
        mom = momentum[active]
        grad_act = grad[:active.shape[0]]
        for lead in range(n_leads):
            residual = _tile_list_matmul(mom[:, :, lead],
                                         operators_t[lead]) \
                - ys[active, lead, :]
            _tile_list_matmul(residual, operators[lead],
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


class TestLeadMajorKernel:
    """The lead-major kernel against the per-lead loop it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(n_leads=st.integers(1, 12), n_windows=st.integers(1, 13),
           tol=st.sampled_from([1e-7, 1e-3, 3e-2]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_lead_reference(self, n_leads, n_windows, tol,
                                       seed):
        # A large tol stops windows at different iterations, so the
        # active set compacts mid-run; the dominant lam zeroes (and
        # stops) one window at the first iteration.
        rng = np.random.default_rng(seed)
        m, n = 24, 48
        operators = [rng.standard_normal((m, n)) / np.sqrt(m)
                     for _ in range(n_leads)]
        ys = rng.standard_normal((n_windows, n_leads, m))
        lams = rng.uniform(0.01, 0.2, size=n_windows)
        dominant = int(rng.integers(n_windows))
        correlations = np.stack([operators[lead].T @ ys[dominant, lead]
                                 for lead in range(n_leads)], axis=1)
        lams[dominant] = 2.0 * np.max(np.linalg.norm(correlations, axis=1))
        got = group_fista_batch(operators, ys, lams, n_iter=150, tol=tol)
        want = _per_lead_fista_batch(operators, ys, lams, n_iter=150,
                                     tol=tol)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[dominant] == 0.0)

    @pytest.mark.parametrize("n_leads", [1, 3, 12])
    def test_zero_operator_equals_reference(self, n_leads):
        operators = [np.zeros((4, 8))] * n_leads
        ys = np.ones((5, n_leads, 4))
        lams = np.full(5, 0.1)
        assert group_fista_batch(operators, ys, lams).tobytes() == \
            _per_lead_fista_batch(operators, ys, lams).tobytes()

    def test_stacked_operators_accepted(self):
        rng = np.random.default_rng(7)
        operators = rng.standard_normal((3, 24, 48)) / np.sqrt(24)
        ys = rng.standard_normal((6, 3, 24))
        lams = rng.uniform(0.01, 0.2, size=6)
        stacked = group_fista_batch(
            operators, ys, lams, n_iter=80,
            operators_t=np.ascontiguousarray(operators.transpose(0, 2, 1)))
        assert stacked.tobytes() == group_fista_batch(
            list(operators), ys, lams, n_iter=80).tobytes()

    def test_decoder_batch_equals_reference_pipeline(self, clean_record):
        # recover_batch's stacked corr and kernel against the per-lead
        # corr and kernel, through the same debias.
        encoder = MultiLeadCsEncoder(n_leads=3, n=256, cr_percent=60.0,
                                     seed=11)
        decoder = JointCsDecoder(encoder.sensing_matrices, n_iter=120)
        frames = [encoder.encode(clean_record.signals[:, lo:lo + 256])
                  for lo in range(500, 500 + 5 * 256, 256)]
        ys = np.array([[w.measurements for w in frame] for frame in frames])
        operators = list(decoder.operators)
        corr = np.stack([_tile_list_matmul(ys[:, lead, :], operators[lead])
                         for lead in range(3)], axis=2)
        lams = decoder.lam_rel * np.max(np.linalg.norm(corr, axis=2), axis=1)
        alphas = _per_lead_fista_batch(operators, ys, lams, n_iter=120)
        for w, got in enumerate(decoder.recover_batch(frames)):
            want = decoder._debias(list(ys[w]), alphas[w])
            assert got.coefficients.tobytes() == want.tobytes()


class TestStackedRowStableMatmul:
    """One matmul over a tile view, with an optional lead axis."""

    @pytest.mark.parametrize("rows,k,m", [
        (1, 64, 32), (4, 64, 32), (7, 256, 102), (13, 102, 256),
        (9, 1, 17), (6, 17, 1), (5, 1, 1), (69, 33, 2)])
    @pytest.mark.parametrize("n_leads", [1, 3, 12])
    def test_stack_equals_per_lead_and_tile_list(self, rows, k, m,
                                                 n_leads):
        rng = np.random.default_rng(rows * 1000 + k + m + n_leads)
        a = rng.standard_normal((n_leads, rows, k))
        b = rng.standard_normal((n_leads, k, m))
        stacked = row_stable_matmul(a, b)
        assert stacked.shape == (n_leads, rows, m)
        for lead in range(n_leads):
            assert np.array_equal(stacked[lead],
                                  row_stable_matmul(a[lead], b[lead]))
            assert np.array_equal(stacked[lead],
                                  _tile_list_matmul(a[lead], b[lead]))

    def test_strided_stack_and_out(self):
        rng = np.random.default_rng(5)
        wide = rng.standard_normal((3, 10, 2, 40))
        a = wide[:, :, 1, :]  # rows strided over the middle axis
        b = rng.standard_normal((3, 40, 9))
        dest = np.zeros((3, 10, 2, 9))
        row_stable_matmul(a, b, out=dest[:, :, 0, :])
        for lead in range(3):
            assert np.array_equal(dest[lead, :, 0, :],
                                  _tile_list_matmul(a[lead], b[lead]))
        assert np.all(dest[:, :, 1, :] == 0.0)

    def test_tile_views_in_and_out(self):
        # The kernel's path: whole tiles of row-contiguous rows, read
        # and written through views of larger buffers, with no copy.
        rng = np.random.default_rng(6)
        buf = rng.standard_normal((2, 12, 16))
        b = rng.standard_normal((2, 16, 5))
        out = np.zeros((2, 12, 5))
        row_stable_matmul(buf[:, :8], b, out=out[:, :8])
        assert np.all(out[:, 8:] == 0.0)
        for lead in range(2):
            assert np.array_equal(out[lead, :8],
                                  _tile_list_matmul(buf[lead, :8], b[lead]))


class TestLeadNorms:
    """The kernel's group norms reduce the leads in numpy's order."""

    @pytest.mark.parametrize("n_leads", range(1, 13))
    def test_equals_numpy_norm_over_contiguous_leads(self, n_leads):
        # If a numpy release changes how it sums a short contiguous
        # axis, this fails and names the cause, instead of moving the
        # golden bytes.
        from repro.compression.multilead import _lead_norms

        rng = np.random.default_rng(n_leads)
        z = rng.standard_normal((n_leads, 9, 40)) * np.exp(
            rng.uniform(-20.0, 20.0, size=(n_leads, 9, 40)))
        want = np.linalg.norm(np.ascontiguousarray(z.transpose(1, 2, 0)),
                              axis=-1)
        assert _lead_norms(z).tobytes() == want.tobytes()
        if n_leads >= 8:
            # Past 8 terms numpy's sum is no longer left to right.
            squares = z * z
            left_to_right = squares[0].copy()
            for plane in squares[1:]:
                left_to_right += plane
            assert np.sqrt(left_to_right).tobytes() != want.tobytes()
