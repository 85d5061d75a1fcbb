"""Tests for the binary uplink wire codec (`repro.fleet.wire`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.encoder import EncodedWindow
from repro.fleet import (
    Gateway,
    NodeProxy,
    NodeProxyConfig,
    PatientProfile,
    StreamDecoder,
    UplinkPacket,
    WIRE_MAGIC,
    WireFormatError,
    decode_packet,
    decode_packets,
    encode_packet,
    encode_packets,
    encode_stream_frame,
    synthesize_patient,
)
from repro.fleet.wire import encode_packet_into
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

    def test_to_bytes_from_bytes_helpers(self):
        packet = _synthetic_packet(np.random.default_rng(7))
        assert_packets_equal(packet,
                             UplinkPacket.from_bytes(packet.to_bytes()))

    def test_stream_round_trip(self):
        rng = np.random.default_rng(5)
        packets = [_synthetic_packet(rng) for _ in range(7)]
        decoded = decode_packets(encode_packets(packets))
        assert len(decoded) == len(packets)
        for a, b in zip(packets, decoded):
            assert_packets_equal(a, b)

    def test_empty_stream(self):
        assert decode_packets(encode_packets([])) == []


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

    def test_truncated_stream_raises(self):
        rng = np.random.default_rng(8)
        stream = encode_packets([_synthetic_packet(rng)
                                 for _ in range(3)])
        with pytest.raises(WireFormatError):
            decode_packets(stream[:-5])


class TestGatewayIngestBytes:
    def test_frame_ingest_equals_object_ingest(self, trained_af_detector):
        profile = PatientProfile(patient_id="ib", rhythm="nsr",
                                 snr_db=None, seed=2)
        record = synthesize_patient(profile, duration_s=60.0)
        proxy = NodeProxy(profile, PROXY_CONFIG,
                          af_detector=trained_af_detector)
        _, packets = proxy.run(record)
        by_object, by_bytes = Gateway(), Gateway()
        for packet in packets:
            # The one ingest surface: same method, either payload type.
            assert by_object.ingest(packet)
            assert by_bytes.ingest(encode_packet(packet))
        obj_out = by_object.drain()
        byte_out = by_bytes.drain()
        assert len(obj_out) == len(byte_out)
        for a, b in zip(obj_out, byte_out):
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

    def test_zero_copy_ingest_batch(self):
        # Bytes ingest aliases the frame; drain's batched
        # reconstruction then reads measurements straight out of it.
        packet = _synthetic_packet(np.random.default_rng(21))
        decoded = decode_packet(encode_packet(packet))
        for frame in decoded.frames:
            for window in frame:
                assert not window.measurements.flags.writeable

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


class TestZeroCopyAliasing:
    """The decode aliasing rule: views from immutable sources only."""

    @pytest.mark.parametrize("kind", ["excerpt", "alarm", "telemetry"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mutating_source_never_corrupts_held_packet(self, kind, seed):
        # Decoding from a *writable* buffer must copy: scribbling over
        # the source afterwards cannot reach into the held packet.
        packet = _packet_of_kind(kind, seed)
        source = bytearray(encode_packet(packet))
        decoded = decode_packet(source)
        source[:] = b"\xff" * len(source)
        assert_packets_equal(packet, decoded)

    @pytest.mark.parametrize("kind", ["excerpt", "alarm", "telemetry"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_decoded_arrays_are_read_only(self, kind, seed):
        # Both the copy path (bytearray source) and the aliasing path
        # (bytes source) hand out non-writeable arrays.
        packet = _packet_of_kind(kind, seed)
        blob = encode_packet(packet)
        for source in (blob, bytearray(blob)):
            decoded = decode_packet(source)
            arrays = [w.measurements for f in decoded.frames for w in f]
            if decoded.reference is not None:
                arrays.append(decoded.reference)
            for arr in arrays:
                assert not arr.flags.writeable
                if arr.size:
                    with pytest.raises(ValueError):
                        arr[..., 0] = 0

    def test_bytes_decode_aliases_the_frame(self):
        # Measurement arrays decoded from immutable bytes are windows
        # into the frame itself — the zero-copy contract.
        packet = _packet_of_kind("excerpt", 33)
        blob = encode_packet(packet)
        decoded = decode_packet(blob)
        frame_bytes = np.frombuffer(blob, dtype=np.uint8)
        shared = [w.measurements
                  for f in decoded.frames for w in f if w.measurements.size]
        if decoded.reference is not None and decoded.reference.size:
            shared.append(decoded.reference)
        for arr in shared:
            assert np.shares_memory(arr, frame_bytes)

    def test_views_keep_the_buffer_alive(self):
        packet = _packet_of_kind("excerpt", 5)
        decoded = decode_packet(encode_packet(packet))  # blob dropped
        assert_packets_equal(packet, decode_packet(encode_packet(decoded)))

    def test_explicit_copy_flag_overrides_the_auto_rule(self):
        packet = _packet_of_kind("excerpt", 9)
        blob = encode_packet(packet)
        copied = decode_packet(blob, copy=True)
        frame_bytes = np.frombuffer(blob, dtype=np.uint8)
        for frame in copied.frames:
            for window in frame:
                if window.measurements.size:
                    assert not np.shares_memory(window.measurements,
                                                frame_bytes)


class TestEncodeInto:
    def test_pooled_encode_is_byte_identical(self):
        rng = np.random.default_rng(12)
        out = bytearray()
        for _ in range(20):
            packet = _synthetic_packet(rng)
            del out[:]  # pooled-buffer reuse
            n = encode_packet_into(packet, out)
            assert n == len(out)
            assert bytes(out) == encode_packet(packet)

    def test_appends_after_existing_content(self):
        packet = _synthetic_packet(np.random.default_rng(13))
        out = bytearray(b"prefix")
        n = encode_packet_into(packet, out)
        assert out[:6] == b"prefix"
        assert bytes(out[6:]) == encode_packet(packet)
        assert n == len(out) - 6


class TestStreamDecoderViews:
    def test_frames_are_zero_copy_views_over_a_bytes_chunk(self):
        bodies = [b"frame-one", b"frame-two longer"]
        chunk = b"".join(encode_stream_frame(b) for b in bodies)
        decoder = StreamDecoder()
        frames = decoder.feed(chunk)
        assert [bytes(f) for f in frames] == bodies
        for frame in frames:
            assert isinstance(frame, memoryview)
            assert frame.readonly
            # No tail was pending and the chunk is bytes: the views
            # window the chunk itself.
            assert frame.obj is chunk
        assert decoder.pending_bytes == 0

    def test_split_feeds_reassemble(self):
        body = bytes(range(256)) * 3
        stream = encode_stream_frame(body)
        decoder = StreamDecoder()
        collected = []
        for i in range(0, len(stream), 7):
            collected += [bytes(f) for f in decoder.feed(stream[i:i + 7])]
        assert collected == [body]
        decoder.finish()

    def test_views_survive_until_next_feed(self):
        decoder = StreamDecoder()
        first = decoder.feed(encode_stream_frame(b"alpha"))
        held = first[0]
        assert bytes(held) == b"alpha"  # valid now
        decoder.feed(encode_stream_frame(b"beta"))
        # The lifetime contract ends at the next feed; callers that
        # retain must copy first (serve/client do exactly that).

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
