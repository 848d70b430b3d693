"""Chaos suite for the zero-copy payload plane.

The data path forwards ``memoryview`` slices of sender memory all the way
to final placement (see the module docstring of :mod:`repro.hosts.memory`).
That is only sound if the aliasing rule holds under the nastiest schedules
the wire can produce: drops force retransmissions that *replay the original
view-carrying message*, duplication delivers the same view twice, and the
application reuses its send buffer the moment the completion arrives.

Every test here runs real bytes with the view-pinning debug assertions
enabled (:func:`repro.hosts.memory.set_pin_debug`), so any write into an
in-flight source range or placement of a released view raises inside the
engine and fails the test.  On top of that the delivered stream must be
bit-identical to what the application sent, and the per-connection
:class:`~repro.obs.CopyMeter` must account for every byte: exactly one
placement copy per payload byte on the direct path, exactly two on the
forced-indirect path (ring placement + ring→user copy-out).

The sockets pin the WWI plane, so ``test_variants.py`` re-runs these
tests over both reliability modes on that plane.

Set ``REPRO_CHAOS_QUALITY=smoke`` for a reduced sweep (CI smoke target).
"""

import os
import random

import pytest

from helpers import run_procs
from repro.core import ProtocolMode
from repro.exs import TRANSPORT_WWI, BlockingSocket, ExsEventType, ExsSocketOptions
from repro.hosts.memory import set_pin_debug
from repro.simnet import FaultProfile

SMOKE = os.environ.get("REPRO_CHAOS_QUALITY", "").lower() == "smoke"
SEEDS = (1,) if SMOKE else (1, 2, 3)
PAYLOAD_BYTES = 48_000 if SMOKE else 96_000

CHAOS = FaultProfile(drop_prob=0.03, duplicate_prob=0.03)


@pytest.fixture(autouse=True)
def pin_debug():
    """Every test in this module runs with pin assertions armed."""
    set_pin_debug(True)
    yield
    set_pin_debug(False)


def payload_for(seed, nbytes=PAYLOAD_BYTES):
    return random.Random(seed * 6211 + 5).randbytes(nbytes)


def make_testbed(variant, seed, faults=None, mode=None):
    tb = variant.testbed(seed=seed, faults=faults)
    # These assertions describe the WWI plane's copy discipline (direct=1,
    # indirect=2 copies/byte), so the sockets pin that plane.
    options = ExsSocketOptions(
        mode=mode if mode is not None else ProtocolMode.DYNAMIC,
        transport=TRANSPORT_WWI,
    )
    return tb, options


def run_transfer(tb, payload, *, options=None, chunk=8_000, recv=8_192, port=4321):
    """Stream *payload* client→server; returns bytes + both connections."""
    if options is None:
        options = ExsSocketOptions(transport=TRANSPORT_WWI)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, port, options=options)
        chunks = []
        while True:
            data = yield from conn.recv_bytes(recv)
            if data == b"":
                break
            chunks.append(data)
        out["data"] = b"".join(chunks)
        out["rx_conn"] = conn.sock.conn

    def client():
        conn = yield from BlockingSocket.connect(tb.client, port, options=options)
        for off in range(0, len(payload), chunk):
            yield from conn.send_bytes(payload[off:off + chunk])
        out["tx_conn"] = conn.sock.conn
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=200_000_000)
    return out


def assert_plane_clean(*conns):
    """No pin violations anywhere, and every pin released by run end."""
    for conn in conns:
        meter = conn.copy_meter
        assert meter.pin_violations == 0
        assert meter.pins_outstanding == 0


# ---------------------------------------------------------------------------
# chaos: retransmission replays pinned views, duplication re-delivers them
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_stream_is_bit_identical_with_pins_armed(seed, variant):
    """Drops + duplicates with real bytes: the retransmission path replays
    the original view-carrying messages and the wire re-delivers some of
    them twice, yet the delivered stream is bit-identical and no in-flight
    source range is ever overwritten (pin assertions would raise)."""
    tb, _ = make_testbed(variant, seed, faults=CHAOS)
    payload = payload_for(seed)
    out = run_transfer(tb, payload, chunk=6_000)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == payload
    assert_plane_clean(out["tx_conn"], out["rx_conn"])
    # non-vacuous: the wire actually misbehaved and recovery actually ran
    assert tb.impairment.dropped_total + tb.impairment.duplicated_total > 0
    if tb.impairment.dropped_total:
        rel = tb.client_device.reliability.stats
        assert rel.retransmits > 0


def test_sender_buffer_reuse_under_duplication_never_corrupts(variant):
    """The hard aliasing case: one send buffer, refilled with different
    bytes for every message the moment the previous SEND completes, while
    the wire duplicates and drops frames carrying views of that buffer.

    A duplicate that arrives *after* the refill still carries a view of the
    mutated memory — the receiver's sequence check must discard it without
    dereferencing the payload, or the assembled stream would contain bytes
    from the wrong message.  The refill itself proves every pin on the
    buffer was released by completion time (a live pin would raise)."""
    tb, wwi_options = make_testbed(
        variant, 7, faults=FaultProfile(drop_prob=0.02, duplicate_prob=0.10))
    msg_bytes = 8_192
    n_msgs = 6 if SMOKE else 12
    rng = random.Random(40427)
    pieces = [rng.randbytes(msg_bytes) for _ in range(n_msgs)]
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4321, options=wwi_options)
        chunks = []
        while True:
            data = yield from conn.recv_bytes(msg_bytes)
            if data == b"":
                break
            chunks.append(data)
        out["data"] = b"".join(chunks)
        out["rx_conn"] = conn.sock.conn

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4321, options=wwi_options)
        buf = conn.stack.alloc(msg_bytes, label="zc:reuse")
        mr = yield from conn.stack.mregister(buf)
        for piece in pieces:
            buf.fill(piece)  # raises under pin debug if any view is in flight
            conn.sock.send(buf, mr, msg_bytes, conn.eq)
            (yield conn.eq.dequeue()).expect(ExsEventType.SEND)
        conn.stack.mderegister(mr)
        out["tx_conn"] = conn.sock.conn
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=200_000_000)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == b"".join(pieces)
    assert_plane_clean(out["tx_conn"], out["rx_conn"])
    assert tb.impairment.duplicated_total > 0
    rel = tb.server_device.reliability.stats
    assert rel.duplicates_dropped > 0  # stale views arrived and were discarded


def test_chaos_run_with_meters_is_deterministic(variant):
    """Same seed → same bytes *and* same copy accounting, pins included."""

    def run_once():
        tb, _ = make_testbed(variant, 4, faults=CHAOS)
        out = run_transfer(tb, payload_for(4))
        variant.check(tb, out["tx_conn"], out["rx_conn"])
        return (out["data"],
                out["tx_conn"].copy_meter.snapshot(),
                out["rx_conn"].copy_meter.snapshot())

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# copy accounting: "exactly once" on the direct path, exactly twice indirect
# ---------------------------------------------------------------------------

def test_direct_path_copies_each_payload_byte_exactly_once(variant):
    """Forced-direct transfer: every payload byte is copied exactly once
    end to end (final placement into the advertised user buffer), and the
    sender performs zero payload copies — only view forwards."""
    tb, options = make_testbed(variant, 11, mode=ProtocolMode.DIRECT_ONLY)
    payload = payload_for(11)
    out = run_transfer(tb, payload, options=options, chunk=8_192, recv=8_192)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == payload
    assert out["tx_conn"].tx_stats.indirect_transfers == 0
    rx_meter = out["rx_conn"].copy_meter
    tx_meter = out["tx_conn"].copy_meter
    assert rx_meter.payload_bytes_copied == len(payload)
    assert tx_meter.payload_copies == 0
    assert tx_meter.views_forwarded > 0
    assert_plane_clean(out["tx_conn"], out["rx_conn"])


def test_indirect_path_copies_each_payload_byte_exactly_twice(variant):
    """Forced-indirect transfer: ring placement + ring→user copy-out, so
    the receiver's meter records exactly two copies per payload byte."""
    tb, options = make_testbed(variant, 12, mode=ProtocolMode.INDIRECT_ONLY)
    payload = payload_for(12)
    out = run_transfer(tb, payload, options=options, chunk=8_192, recv=8_192)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == payload
    assert out["tx_conn"].tx_stats.direct_transfers == 0
    rx_meter = out["rx_conn"].copy_meter
    assert rx_meter.payload_bytes_copied == 2 * len(payload)
    assert out["tx_conn"].copy_meter.payload_copies == 0
    assert_plane_clean(out["tx_conn"], out["rx_conn"])


def test_direct_accounting_survives_chaos(variant):
    """The exactly-once invariant is per *delivered* byte, not per wire
    frame: retransmitted and duplicated frames must not inflate the
    placement count on the forced-direct path."""
    tb, options = make_testbed(
        variant,
        13,
        faults=FaultProfile(drop_prob=0.08, duplicate_prob=0.08),
        mode=ProtocolMode.DIRECT_ONLY,
    )
    payload = payload_for(13)
    out = run_transfer(tb, payload, options=options, chunk=4_096, recv=8_192)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == payload
    assert tb.impairment.dropped_total + tb.impairment.duplicated_total > 0
    assert out["rx_conn"].copy_meter.payload_bytes_copied == len(payload)
    assert_plane_clean(out["tx_conn"], out["rx_conn"])
