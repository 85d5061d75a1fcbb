"""Versioned binary wire codec for uplink packets.

An :class:`~repro.fleet.UplinkPacket` is a Python dataclass holding
numpy arrays; this module gives every packet kind (multi-/single-lead
CS excerpt, raw excerpt, telemetry, alarm) an exact little-endian
binary form — the radio payload a node hands its receiver.  The frame
is the only thing :meth:`~repro.fleet.Gateway.ingest` accepts: an
in-process scheduler, a served session and a journal replay all hand
the gateway wire frames, so every runtime takes one ingest path.

Round trips are **exact**: measurement vectors and evaluation references
ship as raw numpy buffers (dtype token + ``tobytes()``), floats as IEEE
doubles, so ``decode_packet(encode_packet(p))`` reproduces every field
bit for bit — the gateway cannot tell a decoded packet from the
original.

Frame layout (version 1, all integers little-endian)::

    offset  size  field
    0       4     magic  b"RPW1"
    4       1     version (0x01)
    5       1     flags   (bit 0: reference attached)
    6       var   kind        u8 length + UTF-8 bytes
    .       var   mode        u8 length + UTF-8 bytes
    .       var   patient_id  u8 length + UTF-8 bytes
    .       8     seq          u64
    .       8     timestamp_s  f64
    .       8     start        i64
    .       8     payload_bits u64
    .       2     n_leads      u16
    .       4     window_n     u32
    .       8     cr_percent   f64
    .       2     quant_bits   u16
    .       8     cs_seed      i64
    .       8     fs           f64
    .       8     mean_hr_bpm  f64
    .       8     soc          f64
    .       2     n_frames     u16
    .       var   n_frames x n_leads encoded windows:
                      u32 m, f64 scale, u32 payload_bits,
                      u32 additions, dtype token (u8 len + bytes),
                      m * itemsize raw measurement buffer
    .       var   reference (flag bit 0 only): u8 ndim, ndim x u32
                  dims, dtype token, raw buffer

Decoding is defensive: a wrong magic, unknown version, truncated
buffer, non-UTF-8 string field or trailing garbage raises
:class:`WireFormatError` instead of yielding a corrupt packet.

**A decoded value owns its memory** (see ``docs/transport.md``):
:func:`decode_packet` copies every measurement and reference buffer
out of its source into a read-only array, and
:meth:`StreamDecoder.feed` returns ``bytes`` frames.  Nothing a caller
holds can change when the source buffer is reused, mutated or freed.

On top of the packet codec this module also defines the **stream
layer** the socket gateway service (:mod:`repro.fleet.serve`) speaks:
u32-length-delimited frames (:func:`encode_stream_frame`), an
incremental :class:`StreamDecoder` that re-frames an arbitrary byte
stream, and a compact :class:`ServeMessage` control codec
(:data:`MESSAGE_MAGIC`) carrying the uplink commands and the
governor/triage feedback downlink.  Every frame body starts with a
4-byte magic, so :func:`frame_kind` can route packets and messages off
one TCP stream.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..compression.encoder import EncodedWindow
from .node_proxy import UplinkPacket

#: First bytes of every version-1 packet frame.
WIRE_MAGIC = b"RPW1"

#: First bytes of every version-1 control message (serving downlink /
#: uplink commands); same length as :data:`WIRE_MAGIC` so one stream
#: frame's first four bytes always identify its codec.
MESSAGE_MAGIC = b"RPM1"

#: Current codec version (bump on any layout change).
WIRE_VERSION = 1

#: Default per-frame byte ceiling of :class:`StreamDecoder` — large
#: enough for any reference-carrying excerpt frame, small enough that a
#: corrupt length prefix cannot make a connection buffer gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Flag bit: an evaluation ``reference`` array follows the frames.
_FLAG_REFERENCE = 0x01

_HEAD = struct.Struct("<4sBB")
_BODY = struct.Struct("<QdqQHIdHqdddH")
_WINDOW = struct.Struct("<IdII")


class WireFormatError(ValueError):
    """A buffer does not parse as a valid wire-format frame."""


class StreamFrameError(WireFormatError):
    """A stream length prefix announces an empty or oversized frame.

    Attributes:
        frames: Complete frame bodies the same :meth:`StreamDecoder.feed`
            call decoded ahead of the bad prefix, in order, so a caller
            can apply them before tearing the connection down, however
            TCP chunked the stream.
    """

    def __init__(self, message: str, frames: list[bytes]) -> None:
        super().__init__(message)
        self.frames = frames


def _pack_str(value: str) -> bytes:
    """Length-prefixed UTF-8 (u8 length; 255-byte ceiling)."""
    raw = value.encode("utf-8")
    if len(raw) > 255:
        raise WireFormatError(f"string field too long ({len(raw)} bytes)")
    return bytes([len(raw)]) + raw


def _unpack_str(buf: memoryview, offset: int) -> tuple[str, int]:
    """Read one length-prefixed UTF-8 string; return (value, offset)."""
    if offset + 1 > len(buf):
        raise WireFormatError("truncated frame: string length missing")
    length = buf[offset]
    offset += 1
    if offset + length > len(buf):
        raise WireFormatError("truncated frame: string body missing")
    try:
        value = bytes(buf[offset:offset + length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError("string field is not UTF-8") from exc
    return value, offset + length


def _append_array(out: bytearray, array: np.ndarray) -> None:
    """Append a dtype token + the raw buffer of a 1-D array."""
    array = np.ascontiguousarray(array)
    out += _pack_str(array.dtype.str)
    out += memoryview(array).cast("B")


def _unpack_buffer(buf: memoryview, offset: int,
                   count: int) -> tuple[np.ndarray, int]:
    """Read a dtype token plus ``count`` items into an owned array.

    The array is read-only and backed by its own ``bytes`` copy of the
    items, so it never shares memory with ``buf``.
    """
    dtype_str, offset = _unpack_str(buf, offset)
    try:
        dtype = np.dtype(dtype_str)
    except TypeError as exc:
        raise WireFormatError(f"bad dtype token {dtype_str!r}") from exc
    if dtype.hasobject or dtype.itemsize == 0:
        raise WireFormatError(f"non-buffer dtype token {dtype_str!r}")
    nbytes = count * dtype.itemsize
    if offset + nbytes > len(buf):
        raise WireFormatError("truncated frame: array buffer missing")
    array = np.frombuffer(bytes(buf[offset:offset + nbytes]), dtype=dtype)
    return array, offset + nbytes


def encode_packet(packet: UplinkPacket) -> bytes:
    """Serialize one packet to its version-1 binary frame.

    Raises:
        WireFormatError: A frame's window count contradicts the
            declared lead count, or a field exceeds its wire range.
    """
    flags = _FLAG_REFERENCE if packet.reference is not None else 0
    out = bytearray(_HEAD.pack(WIRE_MAGIC, WIRE_VERSION, flags))
    out += _pack_str(packet.kind)
    out += _pack_str(packet.mode)
    out += _pack_str(packet.patient_id)
    out += _BODY.pack(packet.seq, packet.timestamp_s, packet.start,
                      packet.payload_bits, packet.n_leads,
                      packet.window_n, packet.cr_percent,
                      packet.quant_bits, packet.cs_seed, packet.fs,
                      packet.mean_hr_bpm, packet.soc, packet.n_frames)
    for frame in packet.frames:
        if len(frame) != packet.n_leads:
            raise WireFormatError(
                f"frame holds {len(frame)} windows, packet declares "
                f"{packet.n_leads} leads")
        for window in frame:
            measurements = np.ascontiguousarray(window.measurements)
            if measurements.ndim != 1:
                raise WireFormatError("measurement vectors must be 1-D")
            out += _WINDOW.pack(measurements.shape[0], window.scale,
                                window.payload_bits, window.additions)
            _append_array(out, measurements)
    if packet.reference is not None:
        reference = np.ascontiguousarray(packet.reference)
        if reference.ndim > 255:
            raise WireFormatError("reference rank too large")
        out += bytes([reference.ndim])
        out += struct.pack(f"<{reference.ndim}I", *reference.shape)
        _append_array(out, reference.reshape(-1))
    return bytes(out)


def decode_packet(data: bytes | bytearray | memoryview) -> UplinkPacket:
    """Parse one binary frame back into an :class:`UplinkPacket`.

    Measurement and reference arrays are read-only copies that own
    their memory, whatever kind of buffer ``data`` is.

    Raises:
        WireFormatError: Wrong magic, unsupported version, truncation,
            a non-UTF-8 string field, or trailing bytes after the
            frame.
    """
    buf = memoryview(data)
    if len(buf) < _HEAD.size:
        raise WireFormatError("truncated frame: header missing")
    magic, version, flags = _HEAD.unpack_from(buf, 0)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    offset = _HEAD.size
    kind, offset = _unpack_str(buf, offset)
    mode, offset = _unpack_str(buf, offset)
    patient_id, offset = _unpack_str(buf, offset)
    if offset + _BODY.size > len(buf):
        raise WireFormatError("truncated frame: body missing")
    (seq, timestamp_s, start, payload_bits, n_leads, window_n,
     cr_percent, quant_bits, cs_seed, fs, mean_hr_bpm, soc,
     n_frames) = _BODY.unpack_from(buf, offset)
    offset += _BODY.size
    frames = []
    for _ in range(n_frames):
        frame = []
        for _ in range(n_leads):
            if offset + _WINDOW.size > len(buf):
                raise WireFormatError("truncated frame: window missing")
            m, scale, window_bits, additions = _WINDOW.unpack_from(
                buf, offset)
            offset += _WINDOW.size
            measurements, offset = _unpack_buffer(buf, offset, m)
            frame.append(EncodedWindow(measurements=measurements,
                                       scale=scale,
                                       payload_bits=window_bits,
                                       additions=additions))
        frames.append(tuple(frame))
    reference = None
    if flags & _FLAG_REFERENCE:
        if offset + 1 > len(buf):
            raise WireFormatError("truncated frame: reference rank missing")
        ndim = buf[offset]
        offset += 1
        if offset + 4 * ndim > len(buf):
            raise WireFormatError("truncated frame: reference dims missing")
        shape = struct.unpack_from(f"<{ndim}I", buf, offset)
        offset += 4 * ndim
        flat, offset = _unpack_buffer(buf, offset,
                                      int(np.prod(shape, dtype=np.int64)))
        reference = flat.reshape(shape)
    if offset != len(buf):
        raise WireFormatError(
            f"{len(buf) - offset} trailing bytes after the frame")
    return UplinkPacket(
        patient_id=patient_id,
        seq=seq,
        timestamp_s=timestamp_s,
        kind=kind,
        start=start,
        frames=tuple(frames),
        payload_bits=payload_bits,
        n_leads=n_leads,
        window_n=window_n,
        cr_percent=cr_percent,
        quant_bits=quant_bits,
        cs_seed=cs_seed,
        fs=fs,
        mean_hr_bpm=mean_hr_bpm,
        reference=reference,
        mode=mode,
        soc=soc,
    )


# ---------------------------------------------------------------------------
# Stream layer: length-delimited framing + serve control messages.
# ---------------------------------------------------------------------------

_FRAME_LEN = struct.Struct("<I")
_MSG_HEAD = struct.Struct("<4sB")


def encode_stream_frame(body: bytes | bytearray | memoryview) -> bytes:
    """Wrap one frame body with the u32 stream length prefix.

    The socket transport unit: ``u32 length`` + ``length`` body bytes.
    The body is a complete :func:`encode_packet` or
    :func:`encode_message` frame (never a fragment), so the receiver's
    :class:`StreamDecoder` re-frames the TCP byte soup back into exact
    codec inputs.

    Raises:
        WireFormatError: Empty body (a zero-length frame can never
            carry a magic, so it is malformed by construction).
    """
    if not body:
        raise WireFormatError("stream frames must carry a body")
    return _FRAME_LEN.pack(len(body)) + bytes(body)


def frame_kind(body: bytes | bytearray | memoryview) -> str:
    """Classify one stream-frame body by its leading magic.

    Returns:
        ``"packet"`` for :data:`WIRE_MAGIC` bodies, ``"message"`` for
        :data:`MESSAGE_MAGIC` bodies.

    Raises:
        WireFormatError: Body shorter than a magic or unknown magic.
    """
    head = bytes(body[:4])
    if head == WIRE_MAGIC:
        return "packet"
    if head == MESSAGE_MAGIC:
        return "message"
    raise WireFormatError(f"unknown frame magic {head!r}")


class StreamDecoder:
    """Incremental splitter of a length-delimited byte stream.

    Feed it whatever the socket produced — half a length prefix, three
    frames and a tail, one byte at a time — and it returns each
    complete frame body exactly once, in order.  State between calls is
    just the undecoded tail, so a connection handler owns one decoder
    for its whole lifetime.

    Every malformed input raises :class:`WireFormatError` (never a bare
    ``struct.error``/``IndexError``): a frame longer than
    ``max_frame_bytes`` is rejected *from its length prefix alone*,
    before any body bytes arrive, bounding per-connection memory.

    Frames come back as ``bytes`` that own their memory, so a caller
    may queue or retain them across later :meth:`feed` calls.

    Args:
        max_frame_bytes: Upper bound on one frame body's length.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be positive")
        self.max_frame_bytes = int(max_frame_bytes)
        self._tail = bytearray()
        #: Complete frame bodies returned so far.
        self.n_frames = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._tail)

    def feed(self, data: bytes | bytearray | memoryview) -> list[bytes]:
        """Absorb one chunk; return every frame body it completed.

        Raises:
            StreamFrameError: A length prefix announces an empty frame
                or one larger than ``max_frame_bytes``.  The error
                carries the frames completed ahead of that prefix; the
                prefix stays buffered, so every later feed raises
                again; callers tear the connection down (the serve
                pump and the client both do).
        """
        tail = self._tail
        tail += data
        frames: list[bytes] = []
        offset = 0
        error = None
        with memoryview(tail) as view:
            while len(tail) - offset >= _FRAME_LEN.size:
                (length,) = _FRAME_LEN.unpack_from(tail, offset)
                if length == 0:
                    error = "zero-length stream frame"
                    break
                if length > self.max_frame_bytes:
                    error = (f"stream frame of {length} bytes exceeds "
                             f"the {self.max_frame_bytes}-byte bound")
                    break
                end = offset + _FRAME_LEN.size + length
                if len(tail) < end:
                    break
                frames.append(bytes(view[offset + _FRAME_LEN.size:end]))
                offset = end
        del tail[:offset]
        self.n_frames += len(frames)
        if error is not None:
            raise StreamFrameError(error, frames)
        return frames

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary.

        Raises:
            WireFormatError: Bytes are left mid-frame — the peer closed
                the connection inside a frame.
        """
        if self._tail:
            raise WireFormatError(
                f"stream ended mid-frame with {len(self._tail)} "
                "undecoded bytes")


@dataclass(frozen=True)
class ServeMessage:
    """One control message of the serving protocol.

    The non-packet half of the stream: uplink commands (``hello`` /
    ``expire`` / ``drain`` / ``sweep`` / ``flush`` / ``period`` /
    ``report`` / ``bye``) and downlink replies (``hello-ack`` /
    ``feedback`` / ``report-ack`` / ``error``).  The schema is
    deliberately generic — a kind, the subject patient, a virtual
    timestamp, a float map and a string map — so protocol growth never
    needs a new struct layout.

    Attributes:
        kind: Message verb (see :mod:`repro.fleet.serve`).
        patient_id: Subject node of the message.
        t_s: Virtual time the message refers to (command sweeps carry
            their scheduler tick time).
        fields: Numeric payload (insertion order preserved exactly on
            the wire — aggregate folds downstream stay byte-stable).
        info: String payload (states, modes, error text).
    """

    kind: str
    patient_id: str
    t_s: float = 0.0
    fields: dict[str, float] = field(default_factory=dict)
    info: dict[str, str] = field(default_factory=dict)


def _count_field(fields: dict[str, float], key: str,
                 default: float = 0.0) -> int:
    """Read one count of a control message's float map as an ``int``.

    Raises:
        WireFormatError: The value is NaN or infinite.
    """
    value = fields.get(key, default)
    if not math.isfinite(value):
        raise WireFormatError(f"{key!r} must be finite, got {value!r}")
    return int(value)


def encode_message(message: ServeMessage) -> bytes:
    """Serialize one :class:`ServeMessage` to its binary frame."""
    parts = [
        _MSG_HEAD.pack(MESSAGE_MAGIC, WIRE_VERSION),
        _pack_str(message.kind),
        _pack_str(message.patient_id),
        struct.pack("<d", float(message.t_s)),
        struct.pack("<H", len(message.fields)),
    ]
    for key, value in message.fields.items():
        parts.append(_pack_str(key))
        parts.append(struct.pack("<d", float(value)))
    parts.append(struct.pack("<H", len(message.info)))
    for key, value in message.info.items():
        parts.append(_pack_str(key))
        parts.append(_pack_str(value))
    return b"".join(parts)


def decode_message(data: bytes | bytearray | memoryview) -> ServeMessage:
    """Parse one binary frame back into a :class:`ServeMessage`.

    Map insertion order survives the round trip (tested), which is what
    keeps float folds over ``fields`` byte-identical across the wire.

    Raises:
        WireFormatError: Wrong magic, unsupported version, truncation,
            or trailing bytes after the message.
    """
    buf = memoryview(data)
    if len(buf) < _MSG_HEAD.size:
        raise WireFormatError("truncated message: header missing")
    magic, version = _MSG_HEAD.unpack_from(buf, 0)
    if magic != MESSAGE_MAGIC:
        raise WireFormatError(f"bad message magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported message version {version}")
    offset = _MSG_HEAD.size
    kind, offset = _unpack_str(buf, offset)
    patient_id, offset = _unpack_str(buf, offset)
    if offset + 8 + 2 > len(buf):
        raise WireFormatError("truncated message: body missing")
    (t_s,) = struct.unpack_from("<d", buf, offset)
    offset += 8
    (n_fields,) = struct.unpack_from("<H", buf, offset)
    offset += 2
    fields: dict[str, float] = {}
    for _ in range(n_fields):
        key, offset = _unpack_str(buf, offset)
        if offset + 8 > len(buf):
            raise WireFormatError("truncated message: field value missing")
        (value,) = struct.unpack_from("<d", buf, offset)
        fields[key] = value
        offset += 8
    if offset + 2 > len(buf):
        raise WireFormatError("truncated message: info count missing")
    (n_info,) = struct.unpack_from("<H", buf, offset)
    offset += 2
    info: dict[str, str] = {}
    for _ in range(n_info):
        key, offset = _unpack_str(buf, offset)
        value, offset = _unpack_str(buf, offset)
        info[key] = value
    if offset != len(buf):
        raise WireFormatError(
            f"{len(buf) - offset} trailing bytes after the message")
    return ServeMessage(kind=kind, patient_id=patient_id, t_s=t_s,
                        fields=fields, info=info)
