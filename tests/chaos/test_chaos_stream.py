"""Chaos suite: full-stack stream semantics over an impaired wire.

Every transfer here runs the real EXS stack (rings, credits, adverts) over
the RC reliability layer over a faulty link.  The Theorem-1 safety
invariants (`repro.core.invariants.require`) execute inline in the engine,
so any ordering or accounting violation raises ``SafetyViolation`` and
fails the test — byte-exact payload equality plus a clean run *is* the
invariant check.

Every test builds its testbed through the ``variant`` fixture
(tests/chaos/conftest.py), so ``test_variants.py`` re-runs it over each
reliability mode x data plane.

Set ``REPRO_CHAOS_QUALITY=smoke`` for a reduced sweep (CI smoke target).
"""

import os
import random

import pytest

from helpers import run_procs
from repro.exs import BlockingSocket, ExsError
from repro.simnet import DUP_AND_CORRUPT, FaultProfile, ImpairmentModel
from repro.verbs import ReliabilityConfig

SMOKE = os.environ.get("REPRO_CHAOS_QUALITY", "").lower() == "smoke"
SEEDS = (1,) if SMOKE else (1, 2, 3)
DROP_RATES = (0.02,) if SMOKE else (0.01, 0.05)
PAYLOAD_BYTES = 60_000 if SMOKE else 120_000

REL_FIELDS = (
    "retransmits", "timeouts", "naks_sent", "naks_received",
    "rnr_naks_sent", "rnr_naks_received", "duplicates_dropped",
    "gaps_detected", "corrupt_discarded", "qp_fatal", "recoveries",
)


def payload_for(seed, nbytes=PAYLOAD_BYTES):
    return random.Random(seed * 7919 + 11).randbytes(nbytes)


def rel_totals(tb):
    """Client+server reliability counters as a comparable dict."""
    c = tb.client_device.reliability.stats
    s = tb.server_device.reliability.stats
    return {f: getattr(c, f) + getattr(s, f) for f in REL_FIELDS}


def fault_totals(tb):
    m = tb.impairment
    return (m.dropped_total, m.duplicated_total, m.corrupted_total,
            m.down_dropped_total, m.acks_dropped_total)


def run_transfer(tb, payload, *, chunk=10_000, recv=8192, port=4321):
    """Stream *payload* client→server; returns received bytes + end times."""
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, port)
        chunks = []
        while True:
            data = yield from conn.recv_bytes(recv)
            if data == b"":
                break
            chunks.append(data)
        out["data"] = b"".join(chunks)
        out["server_done_ns"] = tb.sim.now
        out["rx_conn"] = conn.sock.conn

    def client():
        conn = yield from BlockingSocket.connect(tb.client, port)
        for off in range(0, len(payload), chunk):
            yield from conn.send_bytes(payload[off:off + chunk])
        yield from conn.close()
        out["client_done_ns"] = tb.sim.now
        out["tx_conn"] = conn.sock.conn

    run_procs(tb.sim, server(), client(), max_events=200_000_000)
    return out


# ---------------------------------------------------------------------------
# acceptance: faults disabled == faults absent, bit for bit
# ---------------------------------------------------------------------------

def test_zero_impairment_is_bit_identical_to_baseline(variant):
    """An all-zero fault profile (reliability machinery armed but idle) must
    reproduce the unimpaired simulation exactly: same bytes, same end times."""
    payload = payload_for(5)
    baseline = variant.testbed(seed=5)
    ref = run_transfer(baseline, payload)

    tb = variant.testbed(seed=5, faults=ImpairmentModel(FaultProfile(), seed=999))
    out = run_transfer(tb, payload)
    variant.check(tb, out["tx_conn"], out["rx_conn"])

    assert ref["data"] == payload
    assert out["data"] == payload
    assert out["client_done_ns"] == ref["client_done_ns"]
    assert out["server_done_ns"] == ref["server_done_ns"]
    totals = rel_totals(tb)
    assert totals["retransmits"] == 0 and totals["timeouts"] == 0
    assert fault_totals(tb) == (0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# drop sweep: zero loss, zero reorder while retries suffice
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("drop", DROP_RATES)
def test_drop_sweep_delivers_every_byte_in_order(drop, seed, variant):
    tb = variant.testbed(seed=seed, faults=FaultProfile(drop_prob=drop))
    payload = payload_for(seed)
    out = run_transfer(tb, payload)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == payload
    # anything the wire ate must have been recovered by a retransmission
    if tb.impairment.dropped_total:
        assert rel_totals(tb)["retransmits"] > 0
    assert rel_totals(tb)["qp_fatal"] == 0


def test_heavy_drop_actually_exercises_recovery(variant):
    """Guard against a vacuously green sweep: at 20% drop over many small
    chunks the impairment model must fire and recovery must engage.  (The
    seed is pinned to a run where retries suffice; some seeds legitimately
    exhaust retry_cnt at this loss rate and surface an error instead.)"""
    tb = variant.testbed(seed=2, faults=FaultProfile(drop_prob=0.2))
    out = run_transfer(tb, payload_for(2), chunk=4_000)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == payload_for(2)
    assert tb.impairment.dropped_total > 0
    totals = rel_totals(tb)
    assert totals["retransmits"] > 0
    assert totals["recoveries"] > 0


def test_rechunking_under_loss_preserves_stream_order(variant):
    """Stream semantics survive loss: odd recv sizes re-chunk the stream
    while the transport is dropping and recovering frames underneath."""
    tb = variant.testbed(seed=2, faults=FaultProfile(drop_prob=0.03))
    payload = payload_for(2)
    out = run_transfer(tb, payload, chunk=7_777, recv=1_013)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == payload


# ---------------------------------------------------------------------------
# determinism: one seed, one simulation
# ---------------------------------------------------------------------------

def test_chaos_runs_are_bit_identical_per_seed(variant):
    def run_once():
        tb = variant.testbed(seed=4, faults=FaultProfile(drop_prob=0.05,
                                                         duplicate_prob=0.02))
        out = run_transfer(tb, payload_for(4))
        variant.check(tb, out.pop("tx_conn"), out.pop("rx_conn"))
        return out, rel_totals(tb), fault_totals(tb)

    first, second = run_once(), run_once()
    assert first == second


# ---------------------------------------------------------------------------
# duplication + corruption: integrity, not just delivery
# ---------------------------------------------------------------------------

def test_duplication_and_corruption_do_not_corrupt_the_stream(variant):
    tb = variant.testbed(seed=3, faults=DUP_AND_CORRUPT)
    payload = payload_for(3)
    out = run_transfer(tb, payload)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == payload
    assert tb.impairment.duplicated_total + tb.impairment.corrupted_total > 0
    totals = rel_totals(tb)
    assert totals["duplicates_dropped"] + totals["corrupt_discarded"] > 0


# ---------------------------------------------------------------------------
# link flap: scheduled outage mid-transfer
# ---------------------------------------------------------------------------

def test_link_flap_mid_transfer_recovers(variant):
    faults = ImpairmentModel(FaultProfile(), seed=7,
                             down_windows=((30_000, 900_000),))
    tb = variant.testbed(seed=2, faults=faults)
    payload = payload_for(6)
    out = run_transfer(tb, payload)
    variant.check(tb, out["tx_conn"], out["rx_conn"])
    assert out["data"] == payload
    assert faults.down_dropped_total + faults.acks_dropped_total > 0
    assert rel_totals(tb)["retransmits"] > 0
    assert rel_totals(tb)["qp_fatal"] == 0
    # progress resumed only after the outage window closed
    assert out["server_done_ns"] > 900_000


# ---------------------------------------------------------------------------
# retry exhaustion: fail loudly, never hang
# ---------------------------------------------------------------------------

def test_total_loss_surfaces_error_on_both_sides_without_hanging(variant):
    """drop_prob=1.0 kills every data frame.  Retries must exhaust, both
    QPs must reach ERROR, and both blocked applications must observe an
    ExsError — the simulation terminates instead of deadlocking."""
    tb = variant.testbed(
        seed=3,
        faults=FaultProfile(drop_prob=1.0),
        reliability=ReliabilityConfig(retry_timeout_ns=100_000, retry_cnt=3),
    )
    variant.check(tb)

    def server():
        try:
            conn = yield from BlockingSocket.accept_one(tb.server, 4321)
            yield from conn.recv_bytes(8192)
        except ExsError as exc:
            return str(exc)
        return None

    def client():
        try:
            conn = yield from BlockingSocket.connect(tb.client, 4321)
            yield from conn.send_bytes(b"x" * 20_000)
        except ExsError as exc:
            return str(exc)
        return None

    results = run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert results[0] is not None, "server never saw the failure"
    assert results[1] is not None, "client never saw the failure"
    assert rel_totals(tb)["qp_fatal"] >= 1
    from repro.verbs import QPState
    dead = [qp for dev in (tb.client_device, tb.server_device)
            for qp in dev._qps.values() if qp.state is QPState.ERROR]
    assert dead, "no QP reached ERROR state"


def test_total_loss_run_is_deterministic(variant):
    """The failure path itself is reproducible: same seed, same error
    surfacing time and counters."""

    def run_once():
        tb = variant.testbed(
            seed=9,
            faults=FaultProfile(drop_prob=1.0),
            reliability=ReliabilityConfig(retry_timeout_ns=100_000, retry_cnt=2),
        )
        variant.check(tb)

        def client():
            try:
                conn = yield from BlockingSocket.connect(tb.client, 4000)
                yield from conn.send_bytes(b"z" * 5_000)
            except ExsError:
                return tb.sim.now
            return None

        def server():
            try:
                conn = yield from BlockingSocket.accept_one(tb.server, 4000)
                yield from conn.recv_bytes(1024)
            except ExsError:
                return tb.sim.now
            return None

        res = run_procs(tb.sim, server(), client(), max_events=50_000_000)
        return res, rel_totals(tb)

    assert run_once() == run_once()
