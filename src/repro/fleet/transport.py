"""Shard-result transport: how a worker's result blob reaches the parent.

A shard worker of :mod:`repro.fleet.sharding` encodes its result as one
binary blob; :class:`ShardTransport` is how that blob travels home:

* :class:`PickleTransport` ships the blob through the executor's result
  pickle (works everywhere);
* :class:`SharedMemoryTransport` writes it into a
  ``multiprocessing.shared_memory`` segment and ships only a tiny
  handle, and the parent maps the segment read-only.

The parent sees either as a :class:`PayloadView` — a read-only window
plus the object keeping its storage alive — and decodes it with
:func:`~repro.fleet.sharding.decode_shard_result`, which copies what it
keeps, so nothing decoded outlives or aliases the window.

Shared-memory segment lifecycle (see ``docs/transport.md``)::

    worker                           parent
    ------                           ------
    publish(blob, tag)
      create segment prefix.tag
      copy blob in, close mapping
      return handle (name + size) -> open(handle)
                                       attach, read-only PayloadView
                                       ... decode (copies), merge
                                     close(unlink=True)
                                       drop views, unmap, unlink

    crash path: the parent registered every expected tag up front
    (expect(tag)), so close() unlinks segments whose handle never
    arrived; leaked_segments() audits /dev/shm for the run prefix.

Every transport is described by a picklable ``spec`` string
(``"pickle"`` / ``"shm:<prefix>"``) so a worker process can rebuild
its side of the fabric with :func:`make_transport`.
"""

from __future__ import annotations

import itertools
import os
import struct
import sys

#: Handle tag of a blob travelling inline through the result pickle.
HANDLE_INLINE = b"RPXP"

#: Handle tag of a blob parked in a shared-memory segment.
HANDLE_SHM = b"RPXS"

_SHM_HANDLE_HEAD = struct.Struct("<4sQ")

#: Monotonic run counter keeping shared-memory prefixes of runs created
#: by one process distinct.
_RUN_COUNTER = itertools.count()


class TransportError(RuntimeError):
    """A payload handle cannot be parsed, opened or released."""


class PayloadView:
    """A read-only window over a shared or inline buffer.

    A read-only :class:`memoryview` plus the object that keeps the
    backing storage alive (a
    :class:`~multiprocessing.shared_memory.SharedMemory` segment, an
    inline handle, or nothing for plain ``bytes``).

    Args:
        buffer: Any buffer object; coerced to a read-only memoryview.
        owner: Object whose lifetime must cover the view.
    """

    __slots__ = ("view", "owner")

    def __init__(self, buffer, owner=None) -> None:
        self.view = memoryview(buffer).toreadonly()
        self.owner = owner

    def __len__(self) -> int:
        """Length in bytes of the window."""
        return len(self.view)

    def release(self) -> None:
        """Release the window's memoryview (best effort, idempotent).

        A no-op while another export of the view is still alive; the
        release then happens when that export is collected.
        """
        try:
            self.view.release()
        except BufferError:
            pass


class ShardTransport:
    """How one shard worker's result blob travels to the parent.

    The worker side calls :meth:`publish` with the encoded blob and
    gets back a small picklable *handle*; the parent side turns the
    handle back into a :class:`PayloadView` with :meth:`open` and
    releases every mapping (plus any orphaned segment) with
    :meth:`close`.  Implementations are described by a picklable
    :attr:`spec` string so the worker process can rebuild its half with
    :func:`make_transport`.
    """

    #: Backend name (``"pickle"`` / ``"shared_memory"``).
    kind = "abstract"

    @property
    def spec(self) -> str:
        """Picklable description a worker rebuilds the fabric from."""
        raise NotImplementedError

    def expect(self, tag: str) -> None:
        """Pre-register a payload tag (crash-safe cleanup hook)."""

    def publish(self, blob, tag: str) -> bytes:
        """Worker side: park ``blob``; return its transport handle."""
        raise NotImplementedError

    def open(self, handle: bytes) -> PayloadView:
        """Parent side: map a published blob back into a view."""
        raise NotImplementedError

    def close(self, unlink: bool = True) -> None:
        """Release every mapping (and unlink segments when asked)."""

    def leaked_segments(self) -> list[str]:
        """Names of this run's segments still present after close."""
        return []


class PickleTransport(ShardTransport):
    """Inline fallback: the blob rides the executor's result pickle.

    Works on every platform and for inline (``n_shards == 1``) runs;
    costs one pickle/unpickle copy of the blob per shard.  The handle
    is the blob itself behind a 4-byte tag, so :meth:`open` is a
    zero-copy slice.
    """

    kind = "pickle"

    @property
    def spec(self) -> str:
        """Always ``"pickle"`` — the backend carries no state."""
        return "pickle"

    def publish(self, blob, tag: str) -> bytes:
        """Tag the blob; it travels inline with the worker result."""
        return HANDLE_INLINE + bytes(blob)

    def open(self, handle: bytes) -> PayloadView:
        """View the inline blob behind its tag (no copy).

        Raises:
            TransportError: The handle does not carry the inline tag.
        """
        if handle[:4] != HANDLE_INLINE:
            raise TransportError(
                f"not an inline payload handle: {bytes(handle[:4])!r}")
        return PayloadView(memoryview(handle)[4:], owner=handle)


class SharedMemoryTransport(ShardTransport):
    """Blob transport over ``multiprocessing.shared_memory`` segments.

    The worker copies its blob into a named segment once; only the
    ~40-byte handle (name + size) crosses the process boundary, and the
    parent maps the segment read-only instead of unpickling a copy.
    Segment names are deterministic (``<prefix>.<tag>``), so the parent
    can unlink a crashed worker's segment without ever having received
    its handle.

    Args:
        prefix: Segment-name prefix shared by both sides; ``None``
            derives a fresh per-run prefix from the PID and a counter.
    """

    kind = "shared_memory"

    def __init__(self, prefix: str | None = None) -> None:
        if prefix is None:
            prefix = f"rpf{os.getpid():x}x{next(_RUN_COUNTER):x}"
        if not prefix or "/" in prefix or ":" in prefix:
            raise TransportError(f"bad segment prefix {prefix!r}")
        self.prefix = prefix
        self._expected: set[str] = set()
        self._open: dict[str, object] = {}
        self._views: dict[str, PayloadView] = {}

    @property
    def spec(self) -> str:
        """``"shm:<prefix>"`` — how workers rebuild their half."""
        return f"shm:{self.prefix}"

    @classmethod
    def available(cls) -> bool:
        """Can this platform host the shared-memory fabric at all?"""
        try:
            from multiprocessing import shared_memory  # noqa: F401
        except ImportError:  # pragma: no cover - always present >= 3.8
            return False
        return True

    def _segment_name(self, tag: str) -> str:
        """Deterministic segment name of one payload tag."""
        if not tag or "." in tag or "/" in tag:
            raise TransportError(f"bad payload tag {tag!r}")
        return f"{self.prefix}.{tag}"

    def expect(self, tag: str) -> None:
        """Register a tag so :meth:`close` can reap it after a crash."""
        self._expected.add(self._segment_name(tag))

    def publish(self, blob, tag: str) -> bytes:
        """Copy ``blob`` into segment ``<prefix>.<tag>``; return handle.

        The worker closes its mapping immediately — the segment lives
        on under its name until the parent unlinks it.  The worker also
        unregisters the segment from its ``resource_tracker`` so the
        *parent's* unlink is the single point of destruction (otherwise
        the tracker double-frees at worker exit and warns).
        """
        from multiprocessing import shared_memory

        name = self._segment_name(tag)
        view = memoryview(blob)
        size = max(1, len(view))
        segment = shared_memory.SharedMemory(name=name, create=True,
                                             size=size)
        try:
            segment.buf[:len(view)] = view
        finally:
            segment.close()
        _untrack_segment(name)
        return _SHM_HANDLE_HEAD.pack(HANDLE_SHM, len(view)) \
            + name.encode("ascii")

    def open(self, handle: bytes) -> PayloadView:
        """Map a published segment as a read-only view (no copy).

        Raises:
            TransportError: Unknown handle tag, truncated handle, or a
                segment that no longer exists.
        """
        from multiprocessing import shared_memory

        buf = memoryview(handle)
        if len(buf) < _SHM_HANDLE_HEAD.size or bytes(buf[:4]) != HANDLE_SHM:
            raise TransportError("not a shared-memory payload handle")
        (_, size) = _SHM_HANDLE_HEAD.unpack_from(buf, 0)
        name = bytes(buf[_SHM_HANDLE_HEAD.size:]).decode("ascii")
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError as exc:
            raise TransportError(
                f"shared-memory segment {name!r} is gone") from exc
        self._open[name] = segment
        view = PayloadView(segment.buf[:size], owner=segment)
        self._views[name] = view
        return view

    def close(self, unlink: bool = True) -> None:
        """Unmap every opened segment; unlink all expected ones.

        Safe after a worker crash or ``KeyboardInterrupt``: segments
        whose handles never arrived are attached by their deterministic
        name and unlinked too.  Unmapping a segment that still has live
        exported views is deferred to garbage collection (the unlink
        still proceeds, so nothing is left in ``/dev/shm``).
        """
        from multiprocessing import shared_memory

        for name in sorted(self._expected - set(self._open)):
            if not unlink:
                continue
            try:
                orphan = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            orphan.close()
            orphan.unlink()
        for name, segment in sorted(self._open.items()):
            view = self._views.pop(name, None)
            if view is not None:
                view.release()
            try:
                segment.close()
            except BufferError:
                # A caller still holds a view over the segment; the
                # mapping is released when it is collected.  The
                # unlink below still removes the name.
                pass
            if unlink:
                try:
                    segment.unlink()
                except FileNotFoundError:
                    _untrack_segment(name)
            else:
                _untrack_segment(name)
        self._open.clear()
        self._views.clear()
        self._expected.clear()

    def leaked_segments(self) -> list[str]:
        """This run's segments still visible to the OS (Linux audit).

        Scans ``/dev/shm`` for the run prefix; returns an empty list on
        platforms without that view (the deterministic-name reaping in
        :meth:`close` is the cross-platform guarantee).
        """
        if not sys.platform.startswith("linux"):  # pragma: no cover
            return []
        try:
            entries = os.listdir("/dev/shm")
        except OSError:  # pragma: no cover - /dev/shm unavailable
            return []
        return sorted(name for name in entries
                      if name.startswith(self.prefix))


def _untrack_segment(name: str) -> None:
    """Drop one segment from ``resource_tracker`` bookkeeping.

    Both sides of the fabric attach and detach segments while the
    *parent's* :meth:`SharedMemoryTransport.close` is the one point of
    destruction; without unregistering, every other process's tracker
    would try to unlink the same name again at interpreter exit and
    warn about it.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def make_transport(spec: str = "auto") -> ShardTransport:
    """Build a transport from its picklable spec string.

    ``"auto"`` picks shared memory where the platform supports it and
    falls back to pickle; ``"pickle"`` / ``"shared_memory"`` force a
    backend; ``"shm:<prefix>"`` rebuilds a worker-side view of an
    existing shared-memory fabric.

    Raises:
        TransportError: Unknown spec, or shared memory requested on a
            platform without it.
    """
    if spec == "auto":
        if SharedMemoryTransport.available():
            return SharedMemoryTransport()
        return PickleTransport()
    if spec == "pickle":
        return PickleTransport()
    if spec == "shared_memory":
        if not SharedMemoryTransport.available():
            raise TransportError(
                "multiprocessing.shared_memory is unavailable here")
        return SharedMemoryTransport()
    if spec.startswith("shm:"):
        return SharedMemoryTransport(prefix=spec[len("shm:"):])
    raise TransportError(f"unknown transport spec {spec!r}")
