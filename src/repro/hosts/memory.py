"""Simulated host memory: buffers, registration arena, and payload chunks.

Data transfers in the simulator can run in two modes:

* **real-bytes mode** — buffers carry a ``bytearray`` and transfers move
  actual bytes (used by the test suite to verify stream integrity end to
  end).  The data path slices with ``memoryview`` so no intermediate copies
  are made in the *Python* process — mirroring the zero-copy discipline of
  the system being modelled.
* **synthetic mode** — buffers carry no bytes, only lengths; transfers move
  :class:`Chunk` records tagged with their position in the byte stream.  The
  receiving side still checks stream continuity, so protocol-safety checking
  stays on even in the large benchmark runs, at negligible cost.

Virtual addresses are fake but unique per :class:`MemoryArena`, so RDMA-style
(addr, rkey) addressing behaves realistically.

Copy semantics (the zero-copy payload plane)
--------------------------------------------

Payload bytes are copied exactly **once** end to end: at the final placement
into receiver memory (:meth:`Buffer.write_chunk` / :meth:`Buffer.write`).
Everything upstream of placement hands around ``memoryview`` slices of the
sender's ``bytearray``:

* the sender slice (:meth:`Buffer.view` / :meth:`Buffer.gather`) is a view,
* the DMA fetch in the simulated HCA is a view,
* :meth:`Chunk.split` slices views instead of copying halves,
* wire messages, retransmission queues, and fault duplication all carry the
  same view object.

**Aliasing rule.**  A view into a sender buffer stays live on the wire until
the transport acknowledges the carrying work request (RC semantics: only the
completion tells the application it may reuse the memory).  Retransmission
and fault-injected duplication may re-deliver a frame carrying the view, but
the receiver's sequence check discards such frames *without* dereferencing
the payload, so a released view is never read.  The rule is enforced by a
debug assertion mode (:func:`set_pin_debug`): every in-flight slice takes a
:class:`ViewPin` on its source range, writes into a pinned range raise, and
placing a chunk whose pin was already released raises.

A buffer can be the source of a write into *itself* (loopback-style reuse).
Plain ``bytearray`` slice assignment from an overlapping ``memoryview`` of
the same object is undefined-order in CPython, so :meth:`Buffer.write` and
:meth:`Buffer.write_chunk` detect a same-object source and snapshot it first
— overlapping writes behave as if the source had been read in full before
the first destination byte is stored (documented snapshot semantics; pure
Python cannot see view offsets, so the snapshot triggers on any same-object
source, overlapping or not).

:class:`CopyMeter` counts what actually happened — payload bytes copied,
views forwarded, pins outstanding — so tests can assert the paper's claim
literally: a direct transfer performs zero Python-level payload copies
before final placement.

Real ``bytearray`` backing is materialised lazily on first touch, so
buffers a run never reads or writes (e.g. the 16 MiB intermediate ring of a
connection that only ever takes the direct path) cost no zero-fill time.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Buffer",
    "Chunk",
    "CopyMeter",
    "MemoryArena",
    "MemoryError_",
    "ViewPin",
    "pin_debug_enabled",
    "set_pin_debug",
]


class MemoryError_(RuntimeError):
    """Out-of-bounds access or misuse of a simulated buffer."""


#: module-global debug switch for pin enforcement (see module docstring)
_PIN_DEBUG = False


def set_pin_debug(enabled: bool) -> None:
    """Enable/disable the view-pinning debug assertions (module-global)."""
    global _PIN_DEBUG
    _PIN_DEBUG = bool(enabled)


def pin_debug_enabled() -> bool:
    """True when view-pinning assertions are active."""
    return _PIN_DEBUG


class CopyMeter:
    """Copy accounting for one connection's payload plane.

    Counts Python-level data movement only (payload bytes, not headers or
    control messages).  ``payload_*`` counters record actual copies —
    on the zero-copy plane that is exactly the final placements plus any
    deliberate staging copies (sender-copy mode).  ``view*`` counters record
    zero-copy forwards.  Pins track the aliasing rule (module docstring).
    """

    __slots__ = (
        "payload_copies",
        "payload_bytes_copied",
        "views_forwarded",
        "view_bytes_forwarded",
        "pins_total",
        "pins_outstanding",
        "pin_violations",
    )

    def __init__(self) -> None:
        self.payload_copies = 0
        self.payload_bytes_copied = 0
        self.views_forwarded = 0
        self.view_bytes_forwarded = 0
        self.pins_total = 0
        self.pins_outstanding = 0
        self.pin_violations = 0

    def count_copy(self, nbytes: int) -> None:
        self.payload_copies += 1
        self.payload_bytes_copied += nbytes

    def count_view(self, nbytes: int) -> None:
        self.views_forwarded += 1
        self.view_bytes_forwarded += nbytes

    def snapshot(self) -> dict:
        """Plain-dict view of all counters (for telemetry / reports)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CopyMeter copies={self.payload_copies}/{self.payload_bytes_copied}B "
            f"views={self.views_forwarded}/{self.view_bytes_forwarded}B "
            f"pins={self.pins_outstanding}/{self.pins_total}>"
        )


class ViewPin:
    """A live claim on ``[offset, offset+nbytes)`` of a source buffer.

    Created when a view of sender memory is handed to the transport
    (:meth:`Buffer.pin_range`), released when the transport acknowledgement
    frees the send window.  Idempotent release; in debug mode
    (:func:`set_pin_debug`) writes into pinned ranges and placement of
    released views raise :class:`MemoryError_`.
    """

    __slots__ = ("buffer", "offset", "nbytes", "released")

    def __init__(self, buffer: "Buffer", offset: int, nbytes: int) -> None:
        self.buffer = buffer
        self.offset = offset
        self.nbytes = nbytes
        self.released = False

    def release(self) -> None:
        if self.released:
            return
        self.released = True
        self.buffer._unpin(self)

    def overlaps(self, offset: int, nbytes: int) -> bool:
        return offset < self.offset + self.nbytes and self.offset < offset + nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self.released else "live"
        return f"<ViewPin {self.buffer.label!r}[{self.offset}:+{self.nbytes}] {state}>"


class Chunk:
    """A contiguous piece of a byte stream travelling on the wire.

    ``stream_offset`` is the position of the first byte within the sender's
    byte stream (the paper's *sequence number* of the transfer); ``data`` is
    ``None`` in synthetic mode and otherwise ``bytes`` *or* a ``memoryview``
    into the sender's buffer (the zero-copy plane — see the module
    docstring for the aliasing rule).  ``obj`` optionally carries a
    structured model payload (EXS control messages) that a real system would
    serialise into the bytes; the wire is still charged ``nbytes``.

    ``pin`` is the :class:`ViewPin` guarding a view payload's source range,
    if any; code that needs actual ``bytes`` (hashing, corruption injection,
    trace capture) must go through :meth:`materialize` rather than assuming
    ``data`` is ``bytes``.

    Chunks are created once per wire message, so this is a slotted plain
    class rather than a frozen dataclass (whose ``object.__setattr__``-based
    init dominated the synthetic-mode transfer path).  Treat instances as
    immutable all the same.
    """

    __slots__ = ("stream_offset", "nbytes", "data", "obj", "pin", "_digest")

    def __init__(self, stream_offset: int, nbytes: int,
                 data: Optional[bytes | memoryview] = None, obj: Any = None,
                 pin: Optional[ViewPin] = None) -> None:
        if nbytes < 0:
            raise MemoryError_("negative chunk length")
        if data is not None and len(data) != nbytes:
            raise MemoryError_("chunk data length mismatch")
        self.stream_offset = stream_offset
        self.nbytes = nbytes
        self.data = data
        self.obj = obj
        self.pin = pin
        self._digest: Optional[bytes] = None

    @property
    def end_offset(self) -> int:
        return self.stream_offset + self.nbytes

    def materialize(self) -> Optional[bytes]:
        """Return the payload as ``bytes`` (copying a view), or ``None``.

        The escape hatch for consumers that truly need owned bytes; the
        data path itself never calls this.
        """
        data = self.data
        if data is None or type(data) is bytes:
            return data
        return bytes(data)

    def content_digest(self) -> Optional[bytes]:
        """Lazy 16-byte content digest (cached); ``None`` in synthetic mode."""
        if self.data is None:
            return None
        digest = self._digest
        if digest is None:
            digest = self._digest = hashlib.blake2b(
                self.data, digest_size=16).digest()
        return digest

    def split(self, nbytes: int) -> tuple["Chunk", "Chunk"]:
        """Split into a head of *nbytes* and the remaining tail.

        Real payloads are split by *view slicing*: both halves alias the
        parent's memory (and share its pin) — no bytes are copied.
        """
        if not (0 <= nbytes <= self.nbytes):
            raise MemoryError_(f"bad split {nbytes} of {self.nbytes}")
        data = self.data
        head = Chunk.__new__(Chunk)
        head.stream_offset = self.stream_offset
        head.nbytes = nbytes
        head.obj = None
        head._digest = None
        tail = Chunk.__new__(Chunk)
        tail.stream_offset = self.stream_offset + nbytes
        tail.nbytes = self.nbytes - nbytes
        tail.obj = None
        tail._digest = None
        if data is None:
            # Synthetic mode: no byte slicing, just offset arithmetic.
            head.data = None
            head.pin = None
            tail.data = None
            tail.pin = None
            return head, tail
        if type(data) is not memoryview:
            data = memoryview(data)
        head.data = data[:nbytes]
        head.pin = self.pin
        tail.data = data[nbytes:]
        tail.pin = self.pin
        return head, tail

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Chunk):
            return NotImplemented
        if (self.stream_offset != other.stream_offset
                or self.nbytes != other.nbytes
                or self.obj != other.obj):
            return False
        if (self.data is None) != (other.data is None):
            return False
        return self.content_digest() == other.content_digest()

    def __hash__(self) -> int:
        # (position, length, lazy content digest): O(n) once per chunk
        # instead of on every hash, and view payloads stay hashable
        # (hashing a raw memoryview raises TypeError).  ``obj`` joins
        # equality but not the hash — control payloads are mutable
        # dataclasses.
        return hash((self.stream_offset, self.nbytes, self.content_digest()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "synthetic" if self.data is None else "real"
        return f"Chunk(stream_offset={self.stream_offset}, nbytes={self.nbytes}, {kind})"


class Buffer:
    """A simulated user/library memory area.

    Buffers are created through :meth:`MemoryArena.alloc`, which assigns a
    unique fake virtual address.  Real backing storage is materialised on
    first touch; ``meter`` (optional) is the :class:`CopyMeter` charged for
    data movement through this buffer.
    """

    __slots__ = ("arena", "addr", "nbytes", "label", "meter", "_data", "_real", "_pins")

    def __init__(self, arena: "MemoryArena", addr: int, nbytes: int, real: bool, label: str) -> None:
        self.arena = arena
        self.addr = addr
        self.nbytes = nbytes
        self.label = label
        self.meter: Optional[CopyMeter] = None
        self._real = real
        self._data: Optional[bytearray] = None
        self._pins: List[ViewPin] = []

    @property
    def is_real(self) -> bool:
        return self._real

    @property
    def data(self) -> Optional[bytearray]:
        """Backing storage (``None`` for synthetic buffers); lazily built."""
        data = self._data
        if data is None and self._real:
            data = self._data = bytearray(self.nbytes)
        return data

    def check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise MemoryError_(
                f"access [{offset}, {offset + nbytes}) outside buffer {self.label!r} "
                f"of {self.nbytes} bytes"
            )

    # -- pinning (aliasing rule) ----------------------------------------
    def pin_range(self, offset: int, nbytes: int) -> Optional[ViewPin]:
        """Pin ``[offset, offset+nbytes)`` while a view of it is in flight.

        Returns ``None`` for synthetic buffers.  The caller must
        :meth:`ViewPin.release` when the transport ack frees the range.
        """
        if not self._real:
            return None
        self.check_range(offset, nbytes)
        pin = ViewPin(self, offset, nbytes)
        self._pins.append(pin)
        meter = self.meter
        if meter is not None:
            meter.pins_total += 1
            meter.pins_outstanding += 1
        return pin

    def _unpin(self, pin: ViewPin) -> None:
        try:
            self._pins.remove(pin)
        except ValueError:  # pragma: no cover - defensive
            pass
        if self.meter is not None:
            self.meter.pins_outstanding -= 1

    def _assert_unpinned(self, offset: int, nbytes: int) -> None:
        for pin in self._pins:
            if pin.overlaps(offset, nbytes):
                if self.meter is not None:
                    self.meter.pin_violations += 1
                raise MemoryError_(
                    f"write to [{offset}, {offset + nbytes}) of buffer "
                    f"{self.label!r} overlaps in-flight view {pin!r} — the "
                    "range may not be reused until its transport ack"
                )

    # -- writes (the single placement copy) -----------------------------
    def write(self, offset: int, payload: bytes | bytearray | memoryview) -> None:
        """Write real bytes at *offset* (no-op on synthetic buffers).

        A ``memoryview`` source aliasing this same buffer is snapshotted
        first (overlap-safe semantics; see module docstring).
        """
        nbytes = len(payload)
        self.check_range(offset, nbytes)
        if not self._real:
            return
        data = self.data
        if _PIN_DEBUG and self._pins:
            self._assert_unpinned(offset, nbytes)
        if type(payload) is memoryview and payload.obj is data:
            payload = bytes(payload)
        meter = self.meter
        if meter is not None:
            meter.count_copy(nbytes)
        data[offset : offset + nbytes] = payload

    def write_chunk(self, offset: int, chunk: Chunk) -> None:
        """Place a wire chunk into this buffer at *offset*.

        This is the zero-copy plane's one real copy: payload bytes land in
        receiver memory here and nowhere else.
        """
        self.check_range(offset, chunk.nbytes)
        payload = chunk.data
        if not self._real or payload is None:
            return
        if _PIN_DEBUG:
            pin = chunk.pin
            if pin is not None and pin.released:
                meter = self.meter
                if meter is not None:
                    meter.pin_violations += 1
                raise MemoryError_(
                    f"placing chunk at stream offset {chunk.stream_offset} whose "
                    f"source pin {pin!r} was already released — the sender may "
                    "have reused the memory"
                )
            if self._pins:
                self._assert_unpinned(offset, chunk.nbytes)
        data = self.data
        if type(payload) is memoryview and payload.obj is data:
            payload = bytes(payload)
        meter = self.meter
        if meter is not None:
            meter.count_copy(chunk.nbytes)
        data[offset : offset + chunk.nbytes] = payload

    def scatter_write(self, offset: int, pieces: Iterable[bytes | bytearray | memoryview]) -> None:
        """Write *pieces* contiguously starting at *offset* (gather → place).

        Each piece is range-checked, overlap-checked, and metered like
        :meth:`write`; receiver-side copy-out uses this to place a gathered
        list of ring views in one call.
        """
        dest = offset
        for piece in pieces:
            self.write(dest, piece)
            dest += len(piece)

    # -- reads ----------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> Optional[bytes]:
        """Return real bytes (or None for synthetic buffers).

        This *materialises* (one copy); the data path uses :meth:`view` /
        :meth:`gather` instead.
        """
        self.check_range(offset, nbytes)
        if not self._real:
            return None
        return bytes(memoryview(self.data)[offset : offset + nbytes])

    def view(self, offset: int, nbytes: int) -> Optional[memoryview]:
        """Zero-copy view of a range (None for synthetic buffers)."""
        self.check_range(offset, nbytes)
        if not self._real:
            return None
        if self.meter is not None:
            self.meter.count_view(nbytes)
        return memoryview(self.data)[offset : offset + nbytes]

    def gather(self, segments: Iterable[Tuple[int, int]]) -> Optional[List[memoryview]]:
        """Zero-copy views for ``(offset, nbytes)`` *segments* (scatter/gather).

        Returns ``None`` for synthetic buffers.
        """
        if not self._real:
            return None
        data = memoryview(self.data)
        meter = self.meter
        out: List[memoryview] = []
        for offset, nbytes in segments:
            self.check_range(offset, nbytes)
            if meter is not None:
                meter.count_view(nbytes)
            out.append(data[offset : offset + nbytes])
        return out

    def fill(self, payload: bytes) -> None:
        """Convenience: write *payload* at offset 0."""
        self.write(0, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "real" if self.is_real else "synthetic"
        return f"<Buffer {self.label!r} addr=0x{self.addr:x} {self.nbytes}B {kind}>"


class MemoryArena:
    """Allocator of simulated buffers with unique fake virtual addresses."""

    #: page-ish alignment for fake addresses, for realistic-looking traces
    ALIGN = 4096

    def __init__(self, base_addr: int = 0x10_0000_0000) -> None:
        self._next_addr = base_addr
        self.allocated_bytes = 0
        self.buffer_count = 0

    def alloc(self, nbytes: int, *, real: bool = True, label: str = "") -> Buffer:
        """Allocate a buffer of *nbytes* bytes.

        ``real=False`` creates a synthetic (length-only) buffer for large
        benchmark runs.
        """
        if nbytes < 0:
            raise MemoryError_("negative allocation")
        addr = self._next_addr
        span = ((nbytes + self.ALIGN - 1) // self.ALIGN + 1) * self.ALIGN
        self._next_addr += span
        self.allocated_bytes += nbytes
        self.buffer_count += 1
        return Buffer(self, addr, nbytes, real, label or f"buf{self.buffer_count}")
