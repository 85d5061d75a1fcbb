"""Tests for the binary uplink wire codec (`repro.fleet.wire`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.encoder import EncodedWindow
from repro.fleet import (
    Gateway,
    JournalConfig,
    JournalReader,
    JournalWriter,
    NodeProxy,
    NodeProxyConfig,
    PatientProfile,
    ServeMessage,
    StreamDecoder,
    UplinkPacket,
    WIRE_MAGIC,
    WireFormatError,
    decode_message,
    decode_packet,
    encode_message,
    encode_packet,
    encode_stream_frame,
    synthesize_patient,
)
from repro.power.governor import MODES

PROXY_CONFIG = NodeProxyConfig(stream_telemetry=False,
                               excerpt_period_s=30.0)


def assert_packets_equal(a: UplinkPacket, b: UplinkPacket) -> None:
    """Field-by-field exactness check (NaN-aware for telemetry)."""
    for name in ("patient_id", "seq", "timestamp_s", "kind", "start",
                 "payload_bits", "n_leads", "window_n", "cr_percent",
                 "quant_bits", "cs_seed", "fs", "mode"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("mean_hr_bpm", "soc"):
        x, y = getattr(a, name), getattr(b, name)
        assert x == y or (np.isnan(x) and np.isnan(y)), name
    assert len(a.frames) == len(b.frames)
    for frame_a, frame_b in zip(a.frames, b.frames):
        assert len(frame_a) == len(frame_b)
        for wa, wb in zip(frame_a, frame_b):
            assert np.array_equal(wa.measurements, wb.measurements)
            assert wa.measurements.dtype == wb.measurements.dtype
            assert wa.scale == wb.scale
            assert wa.payload_bits == wb.payload_bits
            assert wa.additions == wb.additions
    if a.reference is None:
        assert b.reference is None
    else:
        assert b.reference is not None
        assert a.reference.shape == b.reference.shape
        assert np.array_equal(a.reference, b.reference)


def _synthetic_packet(rng: np.random.Generator) -> UplinkPacket:
    """One randomized packet across kinds, dtypes and degenerate shapes."""
    kind = rng.choice(["excerpt", "alarm", "telemetry"])
    n_leads = int(rng.integers(1, 4))
    window_n = int(rng.choice([1, 8, 256]))  # single-sample window too
    n_frames = 0 if kind == "telemetry" else int(rng.integers(0, 4))
    dtype = rng.choice([np.float64, np.float32, np.int16])
    frames = tuple(
        tuple(
            EncodedWindow(
                measurements=(rng.normal(size=int(rng.integers(0, 40)))
                              * 100).astype(dtype),
                scale=float(rng.normal()),
                payload_bits=int(rng.integers(0, 4096)),
                additions=int(rng.integers(0, 10_000)))
            for _ in range(n_leads))
        for _ in range(n_frames))
    reference = None
    if rng.random() < 0.5:
        # Degenerate reference shapes included: a 0-window batch.
        ref_frames = int(rng.integers(0, 3))
        reference = rng.normal(size=(ref_frames, n_leads, window_n))
    return UplinkPacket(
        patient_id=f"p{int(rng.integers(0, 10_000)):04d}",
        seq=int(rng.integers(0, 2**40)),
        timestamp_s=float(rng.normal() * 1e3),
        kind=str(kind),
        start=int(rng.integers(0, 2**31)),
        frames=frames,
        payload_bits=int(rng.integers(0, 2**48)),
        n_leads=n_leads,
        window_n=window_n,
        cr_percent=float(rng.uniform(10, 95)),
        quant_bits=int(rng.integers(2, 17)),
        cs_seed=int(rng.integers(-2**31, 2**31)),
        fs=float(rng.choice([250.0, 256.0, 360.0])),
        mean_hr_bpm=(float("nan") if rng.random() < 0.3
                     else float(rng.uniform(40, 180))),
        reference=reference,
        mode=str(rng.choice(list(MODES))),
        soc=(float("nan") if rng.random() < 0.3
             else float(rng.uniform(0, 1))),
    )


class TestRoundTrip:
    def test_seeded_fuzz_round_trip(self):
        # Every packet kind, measurement dtype and degenerate shape
        # must survive encode -> decode bit for bit.
        rng = np.random.default_rng(2014)
        for _ in range(150):
            packet = _synthetic_packet(rng)
            assert_packets_equal(packet, decode_packet(
                encode_packet(packet)))

    def test_real_node_packets_round_trip(self, trained_af_detector):
        profile = PatientProfile(patient_id="wire", rhythm="af",
                                 snr_db=None, seed=9)
        record = synthesize_patient(profile, duration_s=60.0)
        proxy = NodeProxy(profile, PROXY_CONFIG,
                          af_detector=trained_af_detector)
        _, packets = proxy.run(record)
        packets.append(proxy.telemetry_packet(90.0, mean_hr_bpm=70.0,
                                              soc=0.4))
        packets.append(proxy.raw_packet(record, 0, 91.0, soc=0.8))
        packets.append(proxy.single_lead_packet(record, 0, 92.0,
                                                soc=0.2))
        packets.append(proxy.alarm_packet(record, 2000))
        assert {p.kind for p in packets} == {"excerpt", "telemetry",
                                             "alarm"}
        for packet in packets:
            assert_packets_equal(packet, decode_packet(
                encode_packet(packet)))


class TestDecodeErrors:
    def test_every_truncation_raises(self):
        blob = encode_packet(_synthetic_packet(np.random.default_rng(3)))
        for cut in range(0, len(blob), max(1, len(blob) // 60)):
            with pytest.raises(WireFormatError):
                decode_packet(blob[:cut])

    def test_bad_magic_raises(self):
        blob = bytearray(encode_packet(
            _synthetic_packet(np.random.default_rng(4))))
        blob[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            decode_packet(bytes(blob))

    def test_unknown_version_raises(self):
        blob = bytearray(encode_packet(
            _synthetic_packet(np.random.default_rng(4))))
        blob[len(WIRE_MAGIC)] = 0x7F
        with pytest.raises(WireFormatError, match="version"):
            decode_packet(bytes(blob))

    def test_trailing_bytes_raise(self):
        blob = encode_packet(_synthetic_packet(np.random.default_rng(6)))
        with pytest.raises(WireFormatError, match="trailing"):
            decode_packet(blob + b"\x00")


class TestGatewayIngestBytes:
    def test_frame_ingest_equals_predecoded_ingest(self,
                                                   trained_af_detector):
        profile = PatientProfile(patient_id="ib", rhythm="nsr",
                                 snr_db=None, seed=2)
        record = synthesize_patient(profile, duration_s=60.0)
        proxy = NodeProxy(profile, PROXY_CONFIG,
                          af_detector=trained_af_detector)
        _, packets = proxy.run(record)
        predecoded, decoded = Gateway(), Gateway()
        for packet in packets:
            # The decoded frame drives the gateway exactly like the
            # node's own packet handed in as already decoded.
            frame = encode_packet(packet)
            assert predecoded.ingest(frame, packet)
            assert decoded.ingest(frame)
        want = predecoded.drain()
        got = decoded.drain()
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert a.patient_id == b.patient_id
            assert a.snr_db == b.snr_db
            assert np.array_equal(a.signal, b.signal)

    def test_frame_ingest_rejects_garbage(self):
        with pytest.raises(WireFormatError):
            Gateway().ingest(b"not a packet")

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_ingest_accepts_every_bytes_like(self, wrap):
        packet = _synthetic_packet(np.random.default_rng(3))
        gateway = Gateway()
        assert gateway.ingest(wrap(encode_packet(packet)))
        with pytest.raises(WireFormatError):
            gateway.ingest(wrap(b"junk"))
        gateway.flush_reassembly()
        assert gateway.pending == 1

    def test_writable_frame_reused_after_ingest_is_invisible(
            self, trained_af_detector):
        # Writable buffers are copied on decode, so a sender that
        # recycles its frame buffer cannot rewrite a queued packet.
        profile = PatientProfile(patient_id="wf", rhythm="nsr",
                                 snr_db=None, seed=2)
        record = synthesize_patient(profile, duration_s=60.0)
        proxy = NodeProxy(profile, PROXY_CONFIG,
                          af_detector=trained_af_detector)
        _, packets = proxy.run(record)
        reference, recycled = Gateway(), Gateway()
        for packet in packets:
            frame = bytearray(encode_packet(packet))
            assert recycled.ingest(frame)
            frame[:] = bytes(len(frame))
            assert reference.ingest(encode_packet(packet))
        want, got = reference.drain(), recycled.drain()
        assert len(want) == len(got) > 0
        for a, b in zip(want, got):
            assert a.snr_db == b.snr_db
            assert a.signal.tobytes() == b.signal.tobytes()

    def test_hostile_dtype_token_rejected(self):
        # A crafted frame carrying an object dtype must fail as a
        # format error, never reach numpy's object-array path.
        packet = _synthetic_packet(np.random.default_rng(11))
        blob = encode_packet(packet)
        victim = None
        for token in (b"<f8", b"<f4", b"<i2"):
            idx = blob.find(bytes([len(token)]) + token)
            if idx >= 0:
                victim = (idx, token)
                break
        if victim is None:
            pytest.skip("no array field in this packet draw")
        idx, token = victim
        forged = bytearray(blob)
        forged[idx + 1:idx + 1 + len(token)] = b"O" * len(token)
        with pytest.raises(WireFormatError):
            decode_packet(bytes(forged))


def _packet_of_kind(kind: str, seed: int) -> UplinkPacket:
    """Draw synthetic packets until one of the requested kind appears."""
    rng = np.random.default_rng(seed)
    for _ in range(64):
        packet = _synthetic_packet(rng)
        if packet.kind == kind:
            return packet
    raise AssertionError(f"no {kind!r} packet in 64 draws")  # pragma: no cover


class TestOwnedDecode:
    """One buffer rule: a decoded value owns its memory."""

    @pytest.mark.parametrize("kind", ["excerpt", "alarm", "telemetry"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mutating_source_never_corrupts_held_packet(self, kind, seed):
        # Scribbling over a writable source after decode cannot reach
        # into the held packet.
        packet = _packet_of_kind(kind, seed)
        source = bytearray(encode_packet(packet))
        decoded = decode_packet(source)
        source[:] = b"\xff" * len(source)
        assert_packets_equal(packet, decoded)

    @pytest.mark.parametrize("kind", ["excerpt", "alarm", "telemetry"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_decoded_arrays_are_read_only(self, kind, seed):
        packet = _packet_of_kind(kind, seed)
        blob = encode_packet(packet)
        for source in (blob, bytearray(blob), memoryview(blob)):
            decoded = decode_packet(source)
            for arr in _decoded_arrays(decoded):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.setflags(write=True)
                if arr.size:
                    with pytest.raises(ValueError):
                        arr[..., 0] = 0

    @pytest.mark.parametrize("wrap", [
        bytes, bytearray, memoryview,
        lambda blob: memoryview(bytearray(blob)),
        lambda blob: memoryview(blob).toreadonly(),
    ], ids=["bytes", "bytearray", "memoryview", "memoryview-bytearray",
            "readonly-memoryview"])
    def test_decoded_arrays_never_share_memory_with_the_source(self, wrap):
        source = wrap(encode_packet(_packet_with_arrays()))
        arrays = _decoded_arrays(decode_packet(source))
        frame = np.frombuffer(source, dtype=np.uint8)
        for arr in arrays:
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, frame)

    def test_journal_record_decode_owns_its_arrays(self, tmp_path):
        # Replay decodes straight from scanned journal records; the
        # packets must not hold on to the loaded segment.
        packet = _packet_with_arrays()
        config = JournalConfig(dir=str(tmp_path), name="owned")
        with JournalWriter(config) as writer:
            writer.append_packet(encode_packet(packet), packet.patient_id)
        (record,) = JournalReader(config).records()
        decoded = decode_packet(record.frame)
        assert_packets_equal(packet, decoded)
        frame = np.frombuffer(record.frame, dtype=np.uint8)
        for arr in _decoded_arrays(decoded):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, frame)

    def test_decoded_packet_outlives_its_frame(self):
        packet = _packet_of_kind("excerpt", 5)
        decoded = decode_packet(encode_packet(packet))  # blob dropped
        assert_packets_equal(packet, decode_packet(encode_packet(decoded)))


def _packet_with_arrays() -> UplinkPacket:
    """A drawn packet carrying non-empty measurements and reference."""
    rng = np.random.default_rng(33)
    for _ in range(256):
        packet = _synthetic_packet(rng)
        if all(arr.size for arr in _decoded_arrays(packet)) \
                and packet.frames and packet.reference is not None:
            return packet
    raise AssertionError("no array-carrying packet in 256 draws")  # pragma: no cover


def _decoded_arrays(packet: UplinkPacket) -> list[np.ndarray]:
    """Every array a decoded packet holds (measurements + reference)."""
    arrays = [w.measurements for f in packet.frames for w in f]
    if packet.reference is not None:
        arrays.append(packet.reference)
    return arrays


class TestNonUtf8Strings:
    """A string field that is not UTF-8 is a format error, not a crash."""

    @pytest.mark.parametrize("field", ["kind", "mode", "patient_id"])
    def test_decode_packet(self, field, non_utf8):
        packet = _packet_of_kind("excerpt", 33)
        blob = non_utf8(encode_packet(packet), getattr(packet, field))
        with pytest.raises(WireFormatError, match="UTF-8"):
            decode_packet(blob)

    @pytest.mark.parametrize("text", ["sweep", "p7", "key", "value"])
    def test_decode_message(self, text, non_utf8):
        blob = encode_message(ServeMessage(
            "sweep", "p7", t_s=1.0, fields={"key": 1.0},
            info={"state": "value"}))
        with pytest.raises(WireFormatError, match="UTF-8"):
            decode_message(non_utf8(blob, text))


class TestStreamDecoderFrames:
    def test_frames_are_owned_bytes(self):
        bodies = [b"frame-one", b"frame-two longer"]
        chunk = b"".join(encode_stream_frame(b) for b in bodies)
        decoder = StreamDecoder()
        frames = decoder.feed(chunk)
        assert frames == bodies
        assert all(type(frame) is bytes for frame in frames)
        assert decoder.pending_bytes == 0

    def test_split_feeds_reassemble(self):
        body = bytes(range(256)) * 3
        stream = encode_stream_frame(body)
        decoder = StreamDecoder()
        collected = []
        for i in range(0, len(stream), 7):
            collected += decoder.feed(stream[i:i + 7])
        assert collected == [body]
        decoder.finish()

    def test_frames_stay_intact_across_later_feeds(self):
        # Frames may be queued or retained: later feeds, and reuse of
        # the chunk buffer the socket filled, must not touch them.
        decoder = StreamDecoder()
        beta = encode_stream_frame(b"beta")
        chunk = bytearray(encode_stream_frame(b"alpha") + beta[:3])
        held = decoder.feed(chunk)
        chunk[:] = b"\xff" * len(chunk)
        rest = memoryview(beta[3:] + encode_stream_frame(b"gamma"))
        held += decoder.feed(rest)
        decoder.feed(encode_stream_frame(b"delta") * 3)
        assert held == [b"alpha", b"beta", b"gamma"]
        assert all(type(frame) is bytes for frame in held)

    def test_pending_bytes_tracks_the_tail(self):
        stream = encode_stream_frame(b"0123456789")
        decoder = StreamDecoder()
        decoder.feed(stream[:6])
        assert decoder.pending_bytes == 6
        decoder.feed(stream[6:])
        assert decoder.pending_bytes == 0

    def test_oversize_frame_rejected_from_prefix(self):
        decoder = StreamDecoder(max_frame_bytes=8)
        with pytest.raises(WireFormatError, match="exceeds"):
            decoder.feed(encode_stream_frame(b"far too long for that"))
