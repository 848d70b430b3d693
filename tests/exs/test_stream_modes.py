"""The three protocol variants end to end, with real data and statistics."""

import os

import pytest

from repro.apps import BlastConfig, FixedSizes, run_blast
from repro.config import ScenarioConfig
from repro.core import ProtocolMode


def blast(mode, *, sends=4, recvs=4, messages=40, size=64 * 1024, seed=2, **kw):
    cfg = BlastConfig(
        total_messages=messages,
        sizes=FixedSizes(size),
        outstanding_sends=sends,
        outstanding_recvs=recvs,
        recv_buffer_bytes=size,
        mode=mode,
        real_data=True,
        **kw,
    )
    return run_blast(cfg, scenario=ScenarioConfig(seed=seed), max_events=50_000_000)


def test_direct_only_never_touches_the_ring():
    r = blast(ProtocolMode.DIRECT_ONLY)
    assert r.tx_stats.indirect_transfers == 0
    assert r.tx_stats.direct_ratio == 1.0
    assert r.rx_stats.copies == 0
    assert r.rx_stats.adverts_sent >= r.config.total_messages


def test_indirect_only_never_advertises():
    r = blast(ProtocolMode.INDIRECT_ONLY)
    assert r.tx_stats.direct_transfers == 0
    assert r.rx_stats.adverts_sent == 0
    assert r.rx_stats.copies > 0
    assert r.rx_stats.copied_bytes == r.total_bytes


def test_dynamic_transfers_all_bytes_either_way():
    r = blast(ProtocolMode.DYNAMIC)
    tx = r.tx_stats
    assert tx.direct_bytes + tx.indirect_bytes == r.total_bytes
    # whatever went indirect must have been copied out at the receiver
    assert r.rx_stats.copied_bytes == tx.indirect_bytes


def test_direct_beats_indirect_on_fdr():
    """The headline LAN result: zero-copy wins when the wire outruns memcpy."""
    direct = blast(ProtocolMode.DIRECT_ONLY, size=1 << 20, messages=30)
    indirect = blast(ProtocolMode.INDIRECT_ONLY, size=1 << 20, messages=30)
    assert direct.throughput_bps > 1.4 * indirect.throughput_bps


def test_indirect_burns_receiver_cpu():
    direct = blast(ProtocolMode.DIRECT_ONLY, size=1 << 20, messages=30)
    indirect = blast(ProtocolMode.INDIRECT_ONLY, size=1 << 20, messages=30)
    assert indirect.receiver_cpu > 0.5
    assert direct.receiver_cpu < 0.2


def test_dynamic_with_receive_headroom_goes_direct():
    r = blast(ProtocolMode.DYNAMIC, sends=2, recvs=8, size=1 << 20, messages=40)
    assert r.direct_ratio > 0.9
    assert r.rx_stats.copies <= 2


def test_dynamic_with_equal_outstanding_goes_indirect():
    r = blast(ProtocolMode.DYNAMIC, sends=4, recvs=4, size=1 << 20, messages=40)
    assert r.direct_ratio < 0.3
    assert r.mode_switches >= 1


def test_waitall_blast_delivers_full_buffers():
    cfg_size = 256 * 1024
    r = blast(ProtocolMode.DYNAMIC, size=cfg_size, messages=20, waitall=True)
    # each completed recv carried exactly one full buffer
    assert r.total_bytes == 20 * cfg_size


def test_time_per_message_consistent():
    r = blast(ProtocolMode.DIRECT_ONLY, messages=20)
    span = r.end_ns - r.start_ns
    assert r.time_per_message_ns == pytest.approx(span / 20)
