"""Connection shutdown semantics and error paths."""

import os

import pytest

from helpers import run_procs
from repro.config import ScenarioConfig
from repro.exs import BlockingSocket, ExsEventType, ExsSocketOptions
from repro.testbed import Testbed


def test_close_flushes_pending_sends_first():
    """exs_close is graceful: everything submitted before it arrives."""
    tb = Testbed.from_scenario(ScenarioConfig(seed=11))
    payload = os.urandom(250_000)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5100)
        got = b""
        while True:
            d = yield from conn.recv_bytes(40_000)
            if d == b"":
                break
            got += d
        out["got"] = got

    def client():
        stack = tb.client
        sock = stack.socket()
        eq = stack.qcreate()
        buf = stack.alloc(len(payload))
        buf.fill(payload)
        mr = yield from stack.mregister(buf)
        sock.connect(5100, eq)
        ev = yield eq.dequeue()
        assert ev.kind is ExsEventType.CONNECT
        # submit everything and close IMMEDIATELY, before any completion
        for off in range(0, len(payload), 50_000):
            sock.send(buf, mr, 50_000, eq, offset=off)
        sock.close(eq)
        kinds = []
        for _ in range(len(payload) // 50_000 + 1):
            ev = yield eq.dequeue()
            kinds.append(ev.kind)
        assert kinds.count(ExsEventType.SEND) == 5
        assert kinds[-1] is ExsEventType.CLOSE  # close completes last

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    assert out["got"] == payload


def test_simultaneous_close_both_directions():
    tb = Testbed.from_scenario(ScenarioConfig(seed=12))
    out = {}

    def side(role, stack, port):
        if role == "server":
            conn = yield from BlockingSocket.accept_one(stack, port)
        else:
            conn = yield from BlockingSocket.connect(stack, port)
        yield from conn.send_bytes(role.encode())
        peer = yield from conn.recv_bytes(64)
        yield from conn.close()
        eof = yield from conn.recv_bytes(64)
        out[role] = (peer, eof)

    run_procs(
        tb.sim,
        side("server", tb.server, 5101),
        side("client", tb.client, 5101),
        max_events=50_000_000,
    )
    assert out["server"] == (b"client", b"")
    assert out["client"] == (b"server", b"")


def test_send_after_close_rejected():
    tb = Testbed.from_scenario(ScenarioConfig(seed=13))

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5102)
        yield from conn.close()
        with pytest.raises(RuntimeError, match="after close"):
            yield from conn.send_bytes(b"too late")
        return True

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5102)
        eof = yield from conn.recv_bytes(10)
        assert eof == b""

    run_procs(tb.sim, server(), client(), max_events=20_000_000)


def test_receiver_keeps_draining_after_peer_close():
    """Data queued behind the FIN is all delivered before EOF is seen."""
    tb = Testbed.from_scenario(ScenarioConfig(seed=14))
    options = ExsSocketOptions(ring_capacity=8 * 1024)  # force buffering
    payload = os.urandom(60_000)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5103, options=options)
        # sleep long enough for the sender to finish and close before the
        # receiver posts its first receive
        yield tb.sim.timeout(3_000_000)
        got = b""
        while True:
            d = yield from conn.recv_bytes(7_000)
            if d == b"":
                break
            got += d
        out["got"] = got

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5103, options=options)
        yield from conn.send_bytes(payload)
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=100_000_000)
    assert out["got"] == payload


def test_engine_failure_surfaces_loudly():
    """A corrupted protocol state must crash the run, not hang it."""
    tb = Testbed.from_scenario(ScenarioConfig(seed=15))

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5104)
        # sabotage: violate ring accounting from the outside
        conn.sock.conn.rx.algo.ring.stored = -5
        out = yield from conn.recv_bytes(100)

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5104)
        yield from conn.send_bytes(b"x" * 100_000)

    tb.sim.process(server())
    tb.sim.process(client())
    with pytest.raises(Exception):
        tb.run(max_events=20_000_000)


def test_fin_is_idempotent_but_conflicts_are_fatal():
    """A FIN replayed by the reliability layer (or the dup fault) after the
    stream finished is a no-op; a FIN with a *different* final sequence is a
    protocol bug and must trip the safety layer."""
    from repro.core import SafetyViolation

    tb = Testbed.from_scenario(ScenarioConfig(seed=31))
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5140)
        while (yield from conn.recv_bytes(4096)) != b"":
            pass
        out["rx"] = conn.sock.conn.rx

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5140)
        yield from conn.send_bytes(b"q" * 10_000)
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    rx = out["rx"]
    fin_seq = rx.eof_seq
    assert fin_seq == 10_000
    rx.on_fin(fin_seq)  # replayed FIN: silently ignored
    assert rx.eof_seq == fin_seq
    with pytest.raises(SafetyViolation):
        rx.on_fin(fin_seq + 1)  # conflicting FIN: impossible state
