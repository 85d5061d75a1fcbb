"""Tests for the shard-result transport (`repro.fleet.transport`)."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.fleet.transport import (
    PayloadView,
    PickleTransport,
    SharedMemoryTransport,
    TransportError,
    make_transport,
)

SHM_AVAILABLE = SharedMemoryTransport.available()
needs_shm = pytest.mark.skipif(
    not SHM_AVAILABLE, reason="multiprocessing.shared_memory unavailable")


class TestPayloadView:
    def test_view_is_readonly(self):
        view = PayloadView(bytearray(b"abcd"))
        assert view.view.readonly
        assert len(view) == 4
        assert bytes(view.view) == b"abcd"


class TestPickleTransport:
    def test_round_trip_is_zero_copy(self):
        transport = PickleTransport()
        handle = transport.publish(b"payload bytes", "s0")
        view = transport.open(handle)
        assert bytes(view.view) == b"payload bytes"
        # The view windows the handle itself — no second copy.
        assert view.view.obj is handle
        transport.close()

    def test_bad_handle_rejected(self):
        with pytest.raises(TransportError):
            PickleTransport().open(b"XXXXgarbage")

    def test_spec_round_trips(self):
        transport = make_transport("pickle")
        assert isinstance(transport, PickleTransport)
        assert make_transport(transport.spec).kind == "pickle"


def _publish_blob(spec: str, blob: bytes, tag: str) -> bytes:
    """Worker-process helper: rebuild the fabric and publish one blob."""
    return make_transport(spec).publish(blob, tag)


def _publish_then_die(spec: str, blob: bytes, tag: str) -> None:
    """Worker that parks its blob and then crashes before returning."""
    make_transport(spec).publish(blob, tag)
    os._exit(17)


@needs_shm
class TestSharedMemoryTransport:
    def test_round_trip_same_process(self):
        transport = SharedMemoryTransport()
        payload = os.urandom(4096)
        handle = transport.publish(payload, "s0")
        assert len(handle) < 64  # only the name + size travel
        view = transport.open(handle)
        assert bytes(view.view) == payload
        assert view.view.readonly
        transport.close()
        assert transport.leaked_segments() == []

    def test_round_trip_across_processes(self):
        transport = SharedMemoryTransport()
        payload = np.arange(1000, dtype=np.float64).tobytes()
        ctx = multiprocessing.get_context("spawn")
        transport.expect("s0")
        with ctx.Pool(1) as pool:
            handle = pool.apply(_publish_blob,
                                (transport.spec, payload, "s0"))
        view = transport.open(handle)
        assert bytes(view.view) == payload
        transport.close()
        assert transport.leaked_segments() == []

    def test_empty_blob_round_trips(self):
        transport = SharedMemoryTransport()
        view = transport.open(transport.publish(b"", "s0"))
        assert len(view) == 0
        transport.close()
        assert transport.leaked_segments() == []

    def test_worker_crash_leaves_no_segment(self):
        # The handle never comes home, but the parent pre-registered
        # the tag, so close() reaps the orphan by deterministic name.
        transport = SharedMemoryTransport()
        transport.expect("s0")
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_publish_then_die,
                           args=(transport.spec, b"doomed", "s0"))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 17
        assert transport.leaked_segments() == [f"{transport.prefix}.s0"]
        transport.close()
        assert transport.leaked_segments() == []

    def test_keyboard_interrupt_leaves_no_segment(self):
        transport = SharedMemoryTransport()
        transport.expect("s0")
        transport.expect("s1")
        try:
            handle = transport.publish(b"half done", "s0")
            transport.open(handle)
            raise KeyboardInterrupt  # user hits ^C mid-merge
        except KeyboardInterrupt:
            pass
        finally:
            transport.close()
        assert transport.leaked_segments() == []

    def test_close_without_unlink_keeps_segment(self):
        transport = SharedMemoryTransport()
        handle = transport.publish(b"sticky", "s0")
        transport.open(handle)
        transport.close(unlink=False)
        assert transport.leaked_segments() == [f"{transport.prefix}.s0"]
        reopened = SharedMemoryTransport(prefix=transport.prefix)
        assert bytes(reopened.open(handle).view) == b"sticky"
        reopened.close()
        assert reopened.leaked_segments() == []

    def test_open_after_unlink_raises(self):
        transport = SharedMemoryTransport()
        handle = transport.publish(b"gone", "s0")
        transport.open(handle)
        transport.close()
        with pytest.raises(TransportError):
            SharedMemoryTransport(prefix=transport.prefix).open(handle)

    def test_bad_prefix_and_tag_rejected(self):
        with pytest.raises(TransportError):
            SharedMemoryTransport(prefix="a/b")
        with pytest.raises(TransportError):
            SharedMemoryTransport().publish(b"x", "dotted.tag")

    def test_bad_handle_rejected(self):
        transport = SharedMemoryTransport()
        with pytest.raises(TransportError):
            transport.open(b"XX")
        with pytest.raises(TransportError):
            transport.open(b"RPXP" + b"\x00" * 12)


class TestMakeTransport:
    def test_auto_prefers_shared_memory(self):
        transport = make_transport("auto")
        expected = "shared_memory" if SHM_AVAILABLE else "pickle"
        assert transport.kind == expected

    @needs_shm
    def test_shm_spec_rebuilds_same_prefix(self):
        first = make_transport("shared_memory")
        second = make_transport(first.spec)
        assert second.prefix == first.prefix

    def test_unknown_spec_rejected(self):
        with pytest.raises(TransportError):
            make_transport("carrier-pigeon")
