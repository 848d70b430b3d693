"""Hardware-variant extensions: older-iWARP emulation and busy polling.

Both come straight from the paper's background section:

* §II-B: WRITE WITH IMM "can be simulated on older iWARP hardware by
  following an RDMA WRITE with a small SEND" — this bench quantifies the
  emulation's cost.
* §IV-B: "All tests use event notification for retrieving RDMA completion
  events, as most messages in this study are large enough that there is
  little advantage to busy polling" — this bench verifies exactly that
  claim, and shows where polling *does* help (small-message latency).
"""

import pytest

from conftest import run_once
from repro.apps import BlastConfig, EchoConfig, FixedSizes, run_blast, run_echo
from repro.apps.workloads import KIB, MIB
from repro.config import ScenarioConfig
from repro.core import ProtocolMode
from repro.exs import ExsSocketOptions


def test_iwarp_emulation_overhead(benchmark, quality):
    """WRITE+SEND emulation doubles the messages on the wire and adds a
    post+completion per transfer at the sender; for the paper's large
    messages its throughput cost is negligible (which is why newer iWARP
    added the native operation mainly for convenience and small-message
    paths)."""

    def run_one(size, native):
        cfg = BlastConfig(
            total_messages=quality.fixed_size_messages(size, hi=500),
            sizes=FixedSizes(size),
            recv_buffer_bytes=size,
            outstanding_sends=4,
            outstanding_recvs=8,
            mode=ProtocolMode.DIRECT_ONLY,
            options=ExsSocketOptions(native_write_with_imm=native),
        )
        return run_blast(cfg, scenario=ScenarioConfig(seed=1), max_events=100_000_000)

    def run():
        return {
            size: (run_one(size, True), run_one(size, False))
            for size in (4 * KIB, 1 * MIB)
        }

    results = run_once(benchmark, run)
    print("\niWARP WRITE+SEND emulation vs native WWI (direct-only):")
    for size, (native, emulated) in results.items():
        print(f"  {size:>8d}B: native {native.throughput_bps / 1e9:6.2f} Gb/s, "
              f"emulated {emulated.throughput_bps / 1e9:6.2f} Gb/s "
              f"({(native.throughput_bps - emulated.throughput_bps) / native.throughput_bps:+.1%} cost)")
    for size, (native, emulated) in results.items():
        # identical goodput delivered either way
        assert emulated.total_bytes == native.total_bytes
        # throughput within a small envelope of the native path
        assert emulated.throughput_bps > 0.85 * native.throughput_bps
    # the 1 MiB cost is negligible (the extra SEND amortises completely)
    big_native, big_emulated = results[1 * MIB]
    assert big_emulated.throughput_bps > 0.97 * big_native.throughput_bps


def test_busy_polling_helps_small_message_latency(benchmark, quality):
    """Ping-pong latency: polling removes two OS wake-ups per hop, a large
    fraction of a 64 B RTT but noise for 1 MiB — the paper's rationale for
    using event notification with its large messages."""

    def rtt(size, busy_poll):
        cfg = EchoConfig(
            iterations=max(40, quality.messages // 8),
            message_bytes=size,
            mode=ProtocolMode.DYNAMIC,
            options=ExsSocketOptions(busy_poll=busy_poll),
        )
        return run_echo(cfg, seed=1).median_ns

    def run():
        return {
            size: (rtt(size, False), rtt(size, True))
            for size in (64, 1 * MIB)
        }

    results = run_once(benchmark, run)
    print("\nmedian ping-pong RTT, event notification vs busy polling:")
    for size, (event_ns, poll_ns) in results.items():
        print(f"  {size:>8d}B: event {event_ns / 1e3:8.2f} us, "
              f"poll {poll_ns / 1e3:8.2f} us "
              f"({(event_ns - poll_ns) / event_ns:+.0%} saved)")
    small_event, small_poll = results[64]
    big_event, big_poll = results[1 * MIB]
    # big win for tiny messages...
    assert small_poll < 0.7 * small_event
    # ...but "little advantage" for the paper's large messages
    assert big_poll > 0.7 * big_event
