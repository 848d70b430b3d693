"""Testbed assembly and calibration anchors."""

import pytest

from helpers import run_procs
from repro.bench.profiles import FDR_INFINIBAND, ROCE_10G_WAN
from repro.config import ScenarioConfig
from repro.exs import BlockingSocket
from repro.testbed import Testbed


def test_testbed_wiring():
    tb = Testbed.from_scenario(ScenarioConfig(seed=0))
    assert tb.client_device.peer is tb.server_device
    assert tb.server_device.peer is tb.client_device
    assert tb.host("client").device is tb.client_device
    assert tb.client.host is tb.host("client")


def test_fdr_one_way_latency_matches_ib_write_lat():
    """Paper §IV-B1: measured one-way latency for 64-byte messages is
    0.76 microseconds; the calibrated profile must land near it."""
    tb = Testbed.from_scenario(ScenarioConfig(profile=FDR_INFINIBAND))
    # 64 B payload + headers, unloaded wire, plus HCA processing both ends
    lat = tb.link.one_way_latency_ns(64 + 64)
    lat += FDR_INFINIBAND.device.wr_overhead_ns + FDR_INFINIBAND.device.rx_overhead_ns
    assert 600 <= lat <= 950  # within ~25% of 760 ns


def test_wan_testbed_has_48ms_rtt():
    tb = Testbed.from_scenario(ScenarioConfig(profile=ROCE_10G_WAN))
    one_way = tb.link.one_way_latency_ns(0)
    assert 24_000_000 <= one_way <= 24_100_000


def test_determinism_same_seed_same_timeline():
    def run_once():
        tb = Testbed.from_scenario(ScenarioConfig(seed=11))
        out = {}

        def server():
            conn = yield from BlockingSocket.accept_one(tb.server, 4000)
            out["data"] = yield from conn.recv_bytes(10_000)

        def client():
            conn = yield from BlockingSocket.connect(tb.client, 4000)
            yield from conn.send_bytes(b"q" * 10_000)

        run_procs(tb.sim, server(), client())
        return tb.now, out["data"]

    t1, d1 = run_once()
    t2, d2 = run_once()
    assert t1 == t2 and d1 == d2


def test_different_seeds_differ():
    def run_once(seed):
        tb = Testbed.from_scenario(ScenarioConfig(seed=seed))

        def server():
            conn = yield from BlockingSocket.accept_one(tb.server, 4000)
            yield from conn.recv_bytes(10_000)

        def client():
            conn = yield from BlockingSocket.connect(tb.client, 4000)
            yield from conn.send_bytes(b"q" * 10_000)

        run_procs(tb.sim, server(), client())
        return tb.now

    assert run_once(1) != run_once(2)
