"""Shared fixtures: session-scoped synthetic records and corpora.

Synthesis is deterministic per seed, so session scope trades memory for a
large test-time saving without coupling tests (records are never mutated;
tests that need to modify data copy first).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.signals import RecordSpec, make_corpus, make_record


@pytest.fixture(scope="session")
def nsr_record():
    """30 s clean-ish normal sinus rhythm record (SNR 25 dB)."""
    return make_record(RecordSpec(name="nsr", duration_s=30.0, snr_db=25.0,
                                  seed=3))


@pytest.fixture(scope="session")
def noisy_record():
    """30 s normal sinus rhythm record at 20 dB SNR."""
    return make_record(RecordSpec(name="nsr20", duration_s=30.0,
                                  snr_db=20.0, seed=11))


@pytest.fixture(scope="session")
def clean_record():
    """40 s noise-free record (CS and fixed-point references)."""
    return make_record(RecordSpec(name="clean", duration_s=40.0,
                                  snr_db=None, seed=5))


@pytest.fixture(scope="session")
def af_record():
    """30 s atrial-fibrillation record at 18 dB SNR."""
    return make_record(RecordSpec(name="af", duration_s=30.0, rhythm="af",
                                  snr_db=18.0, seed=7))


@pytest.fixture(scope="session")
def ectopy_record():
    """60 s record with 10 % PVCs and 8 % APCs at 20 dB SNR."""
    return make_record(RecordSpec(name="ect", duration_s=60.0, snr_db=20.0,
                                  pvc_fraction=0.10, apc_fraction=0.08,
                                  seed=21))


@pytest.fixture(scope="session")
def ectopy_corpus():
    """Small ectopy corpus for classification tests."""
    return make_corpus("ectopy", n_records=4, duration_s=60.0, seed=42)


@pytest.fixture(scope="session")
def af_train_corpus():
    """Paroxysmal-AF corpus for AF-detector training."""
    return make_corpus("af_mix", n_records=3, duration_s=120.0, seed=1)


@pytest.fixture(scope="session")
def af_test_corpus():
    """Held-out paroxysmal-AF corpus for AF-detector evaluation."""
    return make_corpus("af_mix", n_records=3, duration_s=120.0, seed=2)


@pytest.fixture(scope="session")
def trained_af_detector(af_train_corpus):
    """Fleet-shared AF detector (trained once per session)."""
    from repro.classification import AfDetector

    return AfDetector().fit(list(af_train_corpus))


@pytest.fixture()
def rng():
    """Fresh deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def svd_calls(monkeypatch):
    """List that grows by one on every SVD numpy runs during the test.

    Patches the module ``np.linalg.norm`` resolves ``svd`` in, so the
    spectral norm ``norm(A, 2)`` counts as well as direct calls.
    """
    calls: list[tuple] = []
    linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    real = linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "svd", counting)
    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture()
def sensing_builds(monkeypatch):
    """List that grows by ``(m, n, d)`` on every sensing matrix an
    encoder builds during the test.

    Patches the ``sparse_binary_matrix`` the encoder's process-wide
    matrix memo calls, and empties that memo before and after, so the
    test counts its own builds whatever ran before it.
    """
    from repro.compression import encoder

    calls: list[tuple[int, int, int]] = []
    real = encoder.sparse_binary_matrix

    def counting(m, n, d=12, rng=None):
        calls.append((m, n, d))
        return real(m, n, d, rng)

    monkeypatch.setattr(encoder, "sparse_binary_matrix", counting)
    encoder._sensing_matrix_cached.cache_clear()
    yield calls
    encoder._sensing_matrix_cached.cache_clear()


@pytest.fixture()
def decoder_memo():
    """The gateway's process-wide decoder memo, emptied before and after
    the test so ``cache_info().misses`` counts the test's own builds
    whatever ran before it."""
    from repro.fleet import gateway

    gateway._build_decoder.cache_clear()
    yield gateway._build_decoder
    gateway._build_decoder.cache_clear()


@pytest.fixture()
def non_utf8():
    """Function corrupting one length-prefixed string of a wire blob.

    ``non_utf8(blob, text)`` returns ``blob`` with the first byte of
    the u8-length-prefixed string ``text`` replaced by ``0xff``, which
    no UTF-8 sequence starts with.
    """

    def corrupt(blob: bytes, text: str) -> bytes:
        raw = text.encode("utf-8")
        at = blob.index(bytes([len(raw)]) + raw) + 1
        return blob[:at] + b"\xff" + blob[at + 1:]

    return corrupt


@pytest.fixture()
def cs_packet():
    """Function building one CS excerpt packet from noise (no synthesis).

    ``cs_packet(patient_id, seq=0, n_measurements=None)`` returns a
    valid one-lead packet of a 256-sample window at CR 60 %; passing
    ``n_measurements`` truncates its measurement vector, which is the
    malformed geometry the gateway must reject at ingest.
    """
    from dataclasses import replace

    from repro.fleet import (PACKET_EXCERPT, NodeProxy, NodeProxyConfig,
                             PatientProfile)

    def build(patient_id: str, seq: int = 0,
              n_measurements: int | None = None):
        proxy = NodeProxy(PatientProfile(patient_id=patient_id, n_leads=1,
                                         seed=3),
                          NodeProxyConfig(stream_telemetry=False))
        proxy._seq = seq
        window = np.random.default_rng(seq).normal(
            size=(1, proxy.config.window_n))
        frame = proxy.encoder.encode(window)
        if n_measurements is not None:
            frame = [replace(w, measurements=w.measurements[:n_measurements])
                     for w in frame]
        return proxy.packet_from_frames(PACKET_EXCERPT, float(seq), 0,
                                        [frame])

    return build
