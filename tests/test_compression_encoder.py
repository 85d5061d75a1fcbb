"""Unit tests for the node-side CS encoders."""

import numpy as np
import pytest

from repro.compression import (
    CsEncoder,
    MultiLeadCsEncoder,
    raw_payload_bits,
    reconstruction_snr_db,
    sparse_binary_matrix,
)


class TestCsEncoder:
    def test_cr_realized(self):
        encoder = CsEncoder(n=256, cr_percent=60.0)
        assert encoder.cr_percent >= 60.0
        assert encoder.m == int(256 * 0.4)

    def test_encode_applies_matrix(self, rng):
        encoder = CsEncoder(n=128, cr_percent=50.0, quant_bits=16)
        x = rng.standard_normal(128)
        encoded = encoder.encode(x)
        exact = encoder.sensing.matrix @ x
        assert np.max(np.abs(encoded.measurements - exact)) < \
            np.max(np.abs(exact)) / 2 ** 12

    def test_quantization_error_bounded(self, rng):
        encoder = CsEncoder(n=256, cr_percent=50.0, quant_bits=12)
        x = rng.standard_normal(256)
        encoded = encoder.encode(x)
        exact = encoder.sensing.matrix @ x
        assert reconstruction_snr_db(exact, encoded.measurements) > 55.0

    def test_window_length_checked(self):
        encoder = CsEncoder(n=256)
        with pytest.raises(ValueError, match="expected window"):
            encoder.encode(np.zeros(100))

    def test_payload_accounting(self):
        encoder = CsEncoder(n=256, cr_percent=50.0, quant_bits=12)
        assert encoder.payload_bits_per_window() == 128 * 12 + 16

    def test_additions_accounting(self):
        encoder = CsEncoder(n=256, cr_percent=50.0, d=12)
        encoded = encoder.encode(np.zeros(256))
        assert encoded.additions == 256 * 12
        assert encoder.additions_per_sample() == pytest.approx(12.0)

    def test_zero_window(self):
        encoder = CsEncoder(n=64)
        encoded = encoder.encode(np.zeros(64))
        assert np.all(encoded.measurements == 0.0)

    def test_quant_bits_validated(self):
        with pytest.raises(ValueError, match="quantization bits"):
            CsEncoder(n=64, quant_bits=1)

    def test_same_seed_same_matrix(self):
        a = CsEncoder(n=64, seed=5)
        b = CsEncoder(n=64, seed=5)
        assert np.array_equal(a.sensing.matrix, b.sensing.matrix)

    def test_encode_multilead_uses_same_matrix(self, rng):
        encoder = CsEncoder(n=64, cr_percent=50.0)
        windows = rng.standard_normal((3, 64))
        encoded = encoder.encode_multilead(windows)
        assert len(encoded) == 3


class TestMultiLeadCsEncoder:
    def test_per_lead_matrices_differ(self):
        encoder = MultiLeadCsEncoder(n_leads=3, n=64)
        a, b = encoder.sensing_matrices[0], encoder.sensing_matrices[1]
        assert not np.array_equal(a.matrix, b.matrix)

    def test_encode_shape_checked(self, rng):
        encoder = MultiLeadCsEncoder(n_leads=3, n=64)
        with pytest.raises(ValueError, match="expected 3 leads"):
            encoder.encode(rng.standard_normal((2, 64)))

    def test_payload_sums_leads(self):
        encoder = MultiLeadCsEncoder(n_leads=3, n=256, cr_percent=50.0,
                                     quant_bits=12)
        assert encoder.payload_bits_per_window() == 3 * (128 * 12 + 16)

    def test_additions_sum_leads(self):
        encoder = MultiLeadCsEncoder(n_leads=3, n=256, cr_percent=50.0,
                                     d=12)
        assert encoder.additions_per_window() == 3 * 256 * 12

    def test_needs_a_lead(self):
        with pytest.raises(ValueError, match="at least one lead"):
            MultiLeadCsEncoder(n_leads=0)


class TestSharedSensingMatrix:
    """Each geometry's matrix is drawn once per process and shared."""

    def test_identical_encoders_build_each_lead_once(self, sensing_builds):
        a = MultiLeadCsEncoder(n_leads=3, n=256, cr_percent=60.0, seed=11)
        b = MultiLeadCsEncoder(n_leads=3, n=256, cr_percent=60.0, seed=11)
        # The word size prices the payload; it does not enter the draw.
        c = MultiLeadCsEncoder(n_leads=3, n=256, cr_percent=60.0, seed=11,
                               quant_bits=8)
        assert sensing_builds == [(102, 256, 12)] * 3
        for x, y, z in zip(a.sensing_matrices, b.sensing_matrices,
                           c.sensing_matrices):
            assert x is y is z

    def test_shared_matrix_is_the_seeded_draw(self, sensing_builds):
        for seed in (11, 12):
            shared = CsEncoder(n=128, cr_percent=50.0, d=8, seed=seed)
            drawn = sparse_binary_matrix(64, 128, 8,
                                         rng=np.random.default_rng(seed))
            assert np.array_equal(shared.sensing.matrix, drawn.matrix)
            assert shared.sensing.matrix.dtype == drawn.matrix.dtype
            assert (shared.sensing.kind, shared.sensing.nonzeros_per_column) \
                == (drawn.kind, drawn.nonzeros_per_column)
        assert len(sensing_builds) == 2

    def test_shared_matrix_is_read_only(self, sensing_builds):
        encoder = CsEncoder(n=64)
        with pytest.raises(ValueError, match="read-only"):
            encoder.sensing.matrix[0, 0] = 2.0

    def test_seed_numpy_refuses_still_raises(self, sensing_builds):
        CsEncoder(n=64, seed=7)
        # A typed key: 7.0 misses the cached 7 and reaches numpy.
        with pytest.raises(TypeError):
            CsEncoder(n=64, seed=7.0)
        assert len(sensing_builds) == 1


class TestRawPayload:
    def test_raw_payload_math(self):
        assert raw_payload_bits(500, 12) == 6000
