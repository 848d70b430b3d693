"""SDP-BCopy / rsockets-style send-side staging (``sender_copy``)."""

import os

import pytest

from helpers import run_procs
from repro.apps import BlastConfig, FixedSizes, run_blast
from repro.bench.profiles import ROCE_10G_WAN
from repro.config import ScenarioConfig
from repro.core import ProtocolMode
from repro.exs import BlockingSocket, ExsSocketOptions
from repro.testbed import Testbed


def test_sender_copy_stream_integrity():
    tb = Testbed.from_scenario(ScenarioConfig(seed=3))
    opts = ExsSocketOptions(sender_copy=True)
    payload = os.urandom(90_000)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4970, options=opts)
        got = b""
        while len(got) < len(payload):
            d = yield from conn.recv_bytes(25_000)
            assert d
            got += d
        out["got"] = got

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4970, options=opts)
        for off in range(0, len(payload), 15_000):
            yield from conn.send_bytes(payload[off : off + 15_000])

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert out["got"] == payload


def test_user_buffer_reusable_after_staged_completion():
    """The defining BCopy semantic: once the send completes, mutating the
    user buffer must not affect the data still in flight."""
    tb = Testbed.from_scenario(ScenarioConfig(seed=4))
    opts = ExsSocketOptions(sender_copy=True)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4971, options=opts)
        out["got"] = yield from conn.recv_bytes(64_000, waitall=True)

    def client():
        stack = tb.client
        from repro.exs import ExsEventType

        sock = stack.socket(options=opts)
        eq = stack.qcreate()
        buf = stack.alloc(64_000)
        buf.fill(b"G" * 64_000)
        mr = yield from stack.mregister(buf)
        sock.connect(4971, eq)
        ev = yield eq.dequeue()
        assert ev.kind is ExsEventType.CONNECT
        sock.send(buf, mr, 64_000, eq)
        ev = yield eq.dequeue()
        assert ev.kind is ExsEventType.SEND
        # completion delivered: scribble over the user buffer immediately
        buf.fill(b"X" * 64_000)

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert out["got"] == b"G" * 64_000  # the scribble never reached the wire


def test_sender_copy_over_wan_gives_fast_send_response():
    """Over 48 ms RTT a zero-copy send completes after the transport ACK
    round trip; a staged send completes after a local memcpy — the 'fast
    send response benefit of TCP-style buffering' (paper §I)."""

    def run(sender_copy):
        cfg = BlastConfig(
            total_messages=30,
            sizes=FixedSizes(1 << 20),
            recv_buffer_bytes=1 << 20,
            outstanding_sends=4,
            outstanding_recvs=8,
            options=ExsSocketOptions(sender_copy=sender_copy, ring_capacity=64 << 20),
        )
        return run_blast(cfg, scenario=ScenarioConfig(profile=ROCE_10G_WAN, seed=1),
                         max_events=100_000_000)

    zero_copy = run(False)
    bcopy = run(True)
    assert zero_copy.send_latency_percentile_ns(50) > 40_000_000   # >= ~RTT
    assert bcopy.send_latency_percentile_ns(50) < 10_000_000       # local-ish
    # and the stream still arrives whole
    assert bcopy.total_bytes == zero_copy.total_bytes


def test_send_latency_samples_populated():
    cfg = BlastConfig(total_messages=20, sizes=FixedSizes(1 << 16),
                      recv_buffer_bytes=1 << 16)
    r = run_blast(cfg, scenario=ScenarioConfig(seed=1), max_events=50_000_000)
    assert len(r.send_latencies_ns) == 20
    assert r.send_latency_percentile_ns(0) <= r.send_latency_percentile_ns(99)
