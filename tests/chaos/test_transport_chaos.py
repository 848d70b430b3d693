"""Chaos suite for the eager/rendezvous SEND-RECV transport.

The alternative data plane stages small messages through receiver bounce
slots and rendezvous-places large ones into user memory, all over the same
lossy RC substrate as the WWI plane.  Drops replay eager SENDs and
rendezvous WRITEs (both carrying pinned views), duplicates re-deliver
them, and the RTS/CTS handshake itself rides the control path — so every
failure mode of the reliability layer hits the transport's bookkeeping.

As in :mod:`tests.chaos.test_zero_copy_integrity`, every run arms the
view-pinning debug assertions and checks exact per-byte copy accounting:
two copies per eager byte (slot placement + copy-out), one per rendezvous
byte (placement into the granted buffer).

The sockets pin the eager/rendezvous plane, so ``test_variants.py``
re-runs these tests over both reliability modes on that plane.

Set ``REPRO_CHAOS_QUALITY=smoke`` for a reduced sweep (CI smoke target).
"""

import os
import random

import pytest

from helpers import run_procs
from repro.exs import TRANSPORT_EAGER_RENDEZVOUS, BlockingSocket, ExsSocketOptions
from repro.hosts.memory import set_pin_debug
from repro.simnet import FaultProfile

SMOKE = os.environ.get("REPRO_CHAOS_QUALITY", "").lower() == "smoke"
SEEDS = (1,) if SMOKE else (1, 2, 3)

CHAOS = FaultProfile(drop_prob=0.03, duplicate_prob=0.03)
RDV = ExsSocketOptions(transport=TRANSPORT_EAGER_RENDEZVOUS)


@pytest.fixture(autouse=True)
def pin_debug():
    set_pin_debug(True)
    yield
    set_pin_debug(False)


def run_transfer(tb, pieces, *, recv=8_192, waitall=False, port=4700):
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, port, options=RDV)
        chunks = []
        while True:
            data = yield from conn.recv_bytes(recv, waitall=waitall)
            if data == b"":
                break
            chunks.append(data)
        out["data"] = b"".join(chunks)
        out["rx_conn"] = conn.sock.conn

    def client():
        conn = yield from BlockingSocket.connect(tb.client, port, options=RDV)
        for piece in pieces:
            yield from conn.send_bytes(piece)
        out["tx_conn"] = conn.sock.conn
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=200_000_000)
    return out


def assert_accounting(out, pieces):
    """Bit-identical stream + exact per-class copy counts + clean pins."""
    assert out["data"] == b"".join(pieces)
    eager = sum(len(p) for p in pieces if len(p) <= RDV.eager_threshold)
    rdv = sum(len(p) for p in pieces if len(p) > RDV.eager_threshold)
    tx = out["tx_conn"].tx_stats
    assert tx.indirect_bytes == eager
    assert tx.direct_bytes == rdv
    meter = out["rx_conn"].copy_meter
    assert meter.payload_bytes_copied == 2 * eager + rdv
    for conn in (out["tx_conn"], out["rx_conn"]):
        assert conn.copy_meter.pin_violations == 0
        assert conn.copy_meter.pins_outstanding == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("waitall", (False, True))
def test_eager_chaos_stream_is_bit_identical(seed, waitall, variant):
    """Eager-only traffic under drops + duplicates: retransmitted SENDs
    replay bounce-slot placements, yet delivery order, copy counts, and
    pins all stay exact."""
    tb = variant.testbed(seed=seed, faults=CHAOS)
    rng = random.Random(seed * 7919 + 1)
    n = 6 if SMOKE else 12
    pieces = [rng.randbytes(rng.randrange(64, RDV.eager_threshold)) for _ in range(n)]
    out = run_transfer(tb, pieces, waitall=waitall)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert_accounting(out, pieces)
    assert tb.impairment.dropped_total + tb.impairment.duplicated_total > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_transport_chaos_preserves_accounting(seed, variant):
    """Interleaved eager and rendezvous messages under chaos: the RTS/CTS
    handshake and the data plane recover independently, and each byte is
    still copied exactly its class's count."""
    tb = variant.testbed(seed=seed + 100, faults=CHAOS)
    rng = random.Random(seed * 104729 + 3)
    pieces = []
    for _ in range(4 if SMOKE else 8):
        pieces.append(rng.randbytes(rng.randrange(64, 8_000)))
        pieces.append(rng.randbytes(rng.randrange(20_000, 80_000)))
    out = run_transfer(tb, pieces, recv=16_384)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert_accounting(out, pieces)
    assert tb.impairment.dropped_total + tb.impairment.duplicated_total > 0
    if tb.impairment.dropped_total:
        assert tb.client_device.reliability.stats.retransmits > 0


def test_mixed_transport_chaos_is_deterministic(variant):
    """Same seed → same bytes and same copy accounting under chaos."""

    def run_once():
        tb = variant.testbed(seed=9, faults=CHAOS)
        rng = random.Random(424243)
        pieces = [rng.randbytes(n) for n in (500, 30_000, 7_000, 55_000, 1_200)]
        out = run_transfer(tb, pieces, recv=10_000)
        variant.check(tb, out["tx_conn"], out["rx_conn"])
        return (out["data"],
                out["tx_conn"].copy_meter.snapshot(),
                out["rx_conn"].copy_meter.snapshot())

    assert run_once() == run_once()
