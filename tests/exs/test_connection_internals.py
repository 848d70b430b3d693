"""Connection internals: credit flow, receive-pool recycling, hello."""

import os

import pytest

from helpers import run_procs
from repro.config import ScenarioConfig
from repro.core import ProtocolMode
from repro.exs import BlockingSocket, ExsSocketOptions, SocketType
from repro.testbed import Testbed


def run_exchange(options, nbytes=100_000, seed=21):
    tb = Testbed.from_scenario(ScenarioConfig(seed=seed))
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5200, options=options)
        got = b""
        while len(got) < nbytes:
            d = yield from conn.recv_bytes(20_000)
            assert d
            got += d
        out["server_conn"] = conn.sock.conn
        out["got"] = got

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5200, options=options)
        yield from conn.send_bytes(b"k" * nbytes)
        out["client_conn"] = conn.sock.conn

    run_procs(tb.sim, server(), client(), max_events=50_000_000)
    return out


def test_recv_pool_is_recycled_not_drained():
    """Every consumed RECV is reposted: the pool never shrinks."""
    opts = ExsSocketOptions(credits=32, ring_capacity=16 * 1024)
    out = run_exchange(opts)
    for side in ("server_conn", "client_conn"):
        conn = out[side]
        assert conn.qp.recv_queue_depth == opts.credits


def test_credit_conservation_end_to_end():
    """consumed == messages that consumed a peer RECV; grants cover them."""
    opts = ExsSocketOptions(credits=16, ring_capacity=8 * 1024)
    out = run_exchange(opts)
    for side in ("server_conn", "client_conn"):
        cm = out[side].credits
        assert cm.available >= 0
        assert cm.consumed_total <= cm.initial_remote + cm.peer_repost_cum
        # the peer's grant can never exceed what we actually sent
        assert cm.peer_repost_cum <= cm.consumed_total


def test_hello_carries_ring_and_credits():
    tb = Testbed.from_scenario(ScenarioConfig(seed=22))
    opts = ExsSocketOptions(credits=48, ring_capacity=123_456)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(tb.server, 5201, options=opts)
        out["hello"] = conn.sock.conn.hello()
        out["peer"] = conn.sock.peer_hello

    def client():
        conn = yield from BlockingSocket.connect(tb.client, 5201, options=opts)
        out["client_peer"] = conn.sock.peer_hello

    run_procs(tb.sim, server(), client(), max_events=10_000_000)
    hello = out["hello"]
    assert hello["credits"] == 48
    assert hello["ring_capacity"] == 123_456
    assert hello["mode"] == "dynamic"
    assert hello["socket_type"] == "stream"
    # what the client learned matches what the server advertises
    assert out["client_peer"]["ring_capacity"] == 123_456
    # and the server learned the client's hello via the REQ
    assert out["peer"]["credits"] == 48


def test_seqpacket_ignores_sender_copy():
    """sender_copy is a stream-semantics option; SOCK_SEQPACKET keeps its
    one-message-one-transfer behaviour."""
    tb = Testbed.from_scenario(ScenarioConfig(seed=23))
    opts = ExsSocketOptions(sender_copy=True)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(
            tb.server, 5202, SocketType.SOCK_SEQPACKET, opts
        )
        out["msg"] = yield from conn.recv_bytes(256)

    def client():
        conn = yield from BlockingSocket.connect(
            tb.client, 5202, SocketType.SOCK_SEQPACKET, opts
        )
        yield from conn.send_bytes(b"seqpacket-msg")

    run_procs(tb.sim, server(), client(), max_events=10_000_000)
    assert out["msg"] == b"seqpacket-msg"


def test_stats_are_per_direction():
    opts = ExsSocketOptions()
    out = run_exchange(opts)
    client_conn, server_conn = out["client_conn"], out["server_conn"]
    # the client only sent: its rx stats are empty, tx stats busy
    assert client_conn.tx_stats.total_transfers > 0
    assert client_conn.rx_stats.total_transfers == 0
    # the server only received: adverts/copies live on its rx side
    assert server_conn.rx_stats.adverts_sent + server_conn.rx_stats.adverts_suppressed > 0
    assert server_conn.tx_stats.total_transfers == 0
