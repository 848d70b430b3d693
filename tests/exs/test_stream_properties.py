"""Property-based end-to-end stream tests over the full simulated stack.

Where ``tests/core/test_safety_properties.py`` model-checks the pure
algorithm, these drive the *whole* system — verbs transport, credits,
engine scheduling, copies, EOF — with hypothesis-chosen workloads and
real bytes, asserting only the externally visible contract: the receiver
reads exactly the bytes the sender wrote, in order, for any chunking.
"""

import hashlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import run_procs
from repro.config import ScenarioConfig
from repro.exs import BlockingSocket, ExsSocketOptions, SocketType
from repro.testbed import Testbed


def stream_case(send_sizes, recv_size, ring_capacity, waitall, seed):
    tb = Testbed.from_scenario(ScenarioConfig(seed=seed))
    options = ExsSocketOptions(ring_capacity=ring_capacity)
    total = sum(send_sizes)
    # deterministic, position-dependent payload so any reorder/dup shows up
    payload = bytes((i * 131 + 7) % 256 for i in range(total))
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4950, options=options)
        got = b""
        while len(got) < total:
            chunk = yield from conn.recv_bytes(
                min(recv_size, total - len(got)) if waitall else recv_size,
                waitall=waitall,
            )
            assert chunk != b"", f"premature EOF at {len(got)}/{total}"
            got += chunk
        out["got"] = got

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4950, options=options)
        off = 0
        for n in send_sizes:
            yield from conn.send_bytes(payload[off : off + n])
            off += n
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=100_000_000)
    assert out["got"] == payload


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    send_sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=12),
    recv_size=st.integers(1, 6000),
    ring_capacity=st.integers(512, 32768),
    waitall=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_stream_integrity_for_any_chunking(send_sizes, recv_size, ring_capacity, waitall, seed):
    stream_case(send_sizes, recv_size, ring_capacity, waitall, seed)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    send_sizes=st.lists(st.integers(1, 2000), min_size=1, max_size=8),
    seed=st.integers(0, 100),
)
def test_stream_integrity_with_iwarp_emulation(send_sizes, seed):
    tb = Testbed.from_scenario(ScenarioConfig(seed=seed))
    options = ExsSocketOptions(ring_capacity=4096, native_write_with_imm=False)
    total = sum(send_sizes)
    payload = bytes((i * 29 + 3) % 256 for i in range(total))
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 4951, options=options)
        got = b""
        while len(got) < total:
            chunk = yield from conn.recv_bytes(1500)
            assert chunk != b""
            got += chunk
        out["got"] = got

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 4951, options=options)
        off = 0
        for n in send_sizes:
            yield from conn.send_bytes(payload[off : off + n])
            off += n
        yield from conn.close()

    run_procs(tb.sim, server(), client(), max_events=100_000_000)
    assert hashlib.sha256(out["got"]).digest() == hashlib.sha256(payload).digest()
