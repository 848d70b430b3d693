"""Multiple concurrent connections sharing hosts, devices, and the link."""

import os

import pytest

from helpers import run_procs
from repro.config import ScenarioConfig
from repro.exs import BlockingSocket, ExsEventType, ExsSocketOptions
from repro.testbed import Testbed


def test_two_streams_share_the_fabric():
    tb = Testbed.from_scenario(ScenarioConfig(seed=6))
    payloads = {p: os.urandom(120_000) for p in (4801, 4802)}
    got = {}

    def server(port):
        conn = yield from BlockingSocket.accept_one(tb.server, port)
        data = b""
        while len(data) < len(payloads[port]):
            chunk = yield from conn.recv_bytes(32768)
            assert chunk
            data += chunk
        got[port] = data

    def client(port):
        conn = yield from BlockingSocket.connect(tb.client, port)
        yield from conn.send_bytes(payloads[port])

    run_procs(
        tb.sim,
        server(4801), server(4802), client(4801), client(4802),
        max_events=50_000_000,
    )
    assert got[4801] == payloads[4801]
    assert got[4802] == payloads[4802]


def test_opposite_direction_connections():
    """A connection from each side simultaneously; streams stay separate."""
    tb = Testbed.from_scenario(ScenarioConfig(seed=7))
    out = {}

    def a_to_b_server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4803)
        out["ab"] = yield from conn.recv_bytes(1000, waitall=True)

    def a_to_b_client():
        conn = yield from BlockingSocket.connect(tb.client, 4803)
        yield from conn.send_bytes(b"A" * 1000)

    def b_to_a_server():
        conn = yield from BlockingSocket.accept_one(tb.client, 4804)
        out["ba"] = yield from conn.recv_bytes(1000, waitall=True)

    def b_to_a_client():
        conn = yield from BlockingSocket.connect(tb.server, 4804)
        yield from conn.send_bytes(b"B" * 1000)

    run_procs(
        tb.sim,
        a_to_b_server(), a_to_b_client(), b_to_a_server(), b_to_a_client(),
        max_events=50_000_000,
    )
    assert out["ab"] == b"A" * 1000
    assert out["ba"] == b"B" * 1000


def test_connections_with_different_options_coexist():
    tb = Testbed.from_scenario(ScenarioConfig(seed=8))
    opts1 = ExsSocketOptions(ring_capacity=64 * 1024)
    opts2 = ExsSocketOptions(ring_capacity=1 << 20, native_write_with_imm=False)
    payload = os.urandom(80_000)
    got = {}

    def server(port, opts):
        conn = yield from BlockingSocket.accept_one(tb.server, port, options=opts)
        data = b""
        while len(data) < len(payload):
            data += yield from conn.recv_bytes(20_000)
        got[port] = data

    def client(port, opts):
        conn = yield from BlockingSocket.connect(tb.client, port, options=opts)
        yield from conn.send_bytes(payload)

    run_procs(
        tb.sim,
        server(4805, opts1), server(4806, opts2),
        client(4805, opts1), client(4806, opts2),
        max_events=50_000_000,
    )
    assert got[4805] == payload and got[4806] == payload


def test_heavy_bidirectional_traffic_on_one_connection():
    """Full-duplex stress: both directions stream simultaneously with the
    dynamic protocol; each direction keeps its own phases/ring/adverts.
    Each pumping process uses its own event queue (the asynchronous API
    allows any number of queues per socket)."""
    tb = Testbed.from_scenario(ScenarioConfig(seed=9))
    options = ExsSocketOptions(ring_capacity=128 * 1024)
    a_payload = os.urandom(200_000)
    b_payload = os.urandom(160_000)
    got = {}

    def pump_send(stack, sock, payload):
        eq = stack.qcreate()
        buf = stack.alloc(len(payload))
        buf.fill(payload)
        mr = yield from stack.mregister(buf)
        step = 25_000
        for off in range(0, len(payload), step):
            n = min(step, len(payload) - off)
            sock.send(buf, mr, n, eq, offset=off)
            ev = yield eq.dequeue()
            assert ev.kind is ExsEventType.SEND

    def pump_recv(stack, sock, total):
        eq = stack.qcreate()
        buf = stack.alloc(total)
        mr = yield from stack.mregister(buf)
        received = 0
        while received < total:
            sock.recv(buf, mr, min(30_000, total - received), eq, offset=received)
            ev = yield eq.dequeue()
            assert ev.kind is ExsEventType.RECV and ev.nbytes > 0
            received += ev.nbytes
        return buf.read(0, total)

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4807, options=options)
        sock = conn.sock
        send_proc = tb.sim.process(pump_send(tb.server, sock, b_payload), name="srv-send")
        got["at_server"] = yield from pump_recv(tb.server, sock, len(a_payload))
        yield send_proc

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4807, options=options)
        sock = conn.sock
        send_proc = tb.sim.process(pump_send(tb.client, sock, a_payload), name="cli-send")
        got["at_client"] = yield from pump_recv(tb.client, sock, len(b_payload))
        yield send_proc

    run_procs(tb.sim, server(), client(), max_events=100_000_000)
    assert got["at_server"] == a_payload
    assert got["at_client"] == b_payload
