"""Wall-clock performance of the simulation substrate itself.

Unlike the reproduction benchmarks (which measure *simulated* time), these
measure how fast the simulator runs on the host — the figure of merit for
scaling the experiment harness.  pytest-benchmark's statistics apply
normally here.
"""

import pytest

from repro.apps import BlastConfig, FixedSizes, run_blast
from repro.config import ScenarioConfig
from repro.core import ProtocolMode
from repro.simnet import Simulator, Timeout


def test_event_calendar_throughput(benchmark):
    """Raw calendar rate: schedule-and-fire chains of timeouts."""

    def run():
        sim = Simulator()

        def chain():
            for _ in range(20_000):
                yield sim.timeout(5)

        sim.process(chain())
        sim.run()
        return sim.events_executed

    events = benchmark(run)
    assert events >= 20_000


def test_retransmit_timer_churn(benchmark):
    """Cancel-heavy regime: retransmit timers that almost always go stale.

    Models ``verbs/reliability.py``: every message arms a 500 µs timer,
    the ACK lands ~100 ns later, and the timer eventually fires as a
    stale no-op (generation check).  The calendar carries thousands of
    pending far-future timers while near-future traffic churns through,
    and the heap pays O(log n) on that standing population for every
    operation.
    """

    def run():
        sim = Simulator()
        acked = [0]

        def on_timer(gen):
            if gen >= acked[0]:  # pragma: no cover - timers are always stale
                raise AssertionError("retransmit fired before its ack")

        def sender():
            for i in range(10_000):
                sim.call_in(500_000, on_timer, i)
                yield sim.timeout(100)  # the "ack"; timer i is now stale
                acked[0] = i + 1

        sim.process(sender())
        sim.run()
        return sim.events_executed

    events = benchmark(run)
    assert events >= 20_000


def test_blast_simulation_rate(benchmark):
    """End-to-end cost of simulating one blast message (full stack)."""

    def run():
        cfg = BlastConfig(
            total_messages=400,
            sizes=FixedSizes(64 * 1024),
            recv_buffer_bytes=64 * 1024,
            outstanding_sends=4,
            outstanding_recvs=8,
            mode=ProtocolMode.DYNAMIC,
        )
        return run_blast(cfg, scenario=ScenarioConfig(seed=1), max_events=50_000_000)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.total_bytes == 400 * 64 * 1024


def test_indirect_copy_path_rate(benchmark):
    """The busiest code path: indirect transfers with ring copies."""

    def run():
        cfg = BlastConfig(
            total_messages=300,
            sizes=FixedSizes(256 * 1024),
            recv_buffer_bytes=256 * 1024,
            outstanding_sends=4,
            outstanding_recvs=4,
            mode=ProtocolMode.INDIRECT_ONLY,
        )
        return run_blast(cfg, scenario=ScenarioConfig(seed=1), max_events=50_000_000)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.rx_stats.copied_bytes == result.total_bytes


def _real_bytes_blast(mode: ProtocolMode):
    """1 MiB real-bytes blast: the data-plane (payload memcpy) hot path.

    Unlike the synthetic-mode benchmarks above, payload bytes actually move
    through every hop here, so this measures the Python-level copy cost of
    the simulated data plane itself.
    """
    cfg = BlastConfig(
        total_messages=64,
        sizes=FixedSizes(1024 * 1024),
        recv_buffer_bytes=1024 * 1024,
        outstanding_sends=4,
        outstanding_recvs=4,
        mode=mode,
        real_data=True,
    )
    return run_blast(cfg, scenario=ScenarioConfig(seed=1), max_events=50_000_000)


def test_real_bytes_direct_blast_rate(benchmark):
    """Zero-copy direct path with real payload bytes (1 MiB messages)."""
    result = benchmark.pedantic(
        lambda: _real_bytes_blast(ProtocolMode.DIRECT_ONLY),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.total_bytes == 64 * 1024 * 1024
    assert result.tx_stats.indirect_transfers == 0


def test_real_bytes_indirect_blast_rate(benchmark):
    """Ring-staged indirect path with real payload bytes (1 MiB messages)."""
    result = benchmark.pedantic(
        lambda: _real_bytes_blast(ProtocolMode.INDIRECT_ONLY),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.total_bytes == 64 * 1024 * 1024
    assert result.rx_stats.copied_bytes == result.total_bytes


def _scale_incast(connections_per_sender: int, srq_depth, cq_shards,
                  bytes_per_sender: int = 32 * 1024,
                  message_bytes: int = 16 * 1024,
                  audit: bool = False):
    """16-sender switched fan-in at scale, synthetic payloads.

    Synthetic mode (like the calendar benchmarks, unlike the real-bytes
    blasts) so the timing measures the harness — engine scheduling, CQ
    polling, switch queueing — not host page-fault cost for hundreds of
    16 MiB rings.
    """
    from repro.apps.incast import IncastConfig, run_incast
    from repro.exs import ExsSocketOptions

    cfg = IncastConfig(
        senders=16,
        connections_per_sender=connections_per_sender,
        bytes_per_sender=bytes_per_sender,
        message_bytes=message_bytes,
        options=ExsSocketOptions(real_data=False),
    )
    return run_incast(cfg, ScenarioConfig(
        seed=1, srq_depth=srq_depth, cq_shards=cq_shards),
        audit=audit)


def test_incast_256_connection_scale(benchmark):
    """256-connection incast on the shared-resource path (SRQ + CQ shards).

    The connection-scale figure of merit for the fabric: posted receive
    buffers are bounded by the pool depth (2048) instead of growing with
    the connection count, and each device polls 8 completion vectors
    instead of 256 per-connection channels.
    """
    result = benchmark.pedantic(
        lambda: _scale_incast(16, srq_depth=2048, cq_shards=8),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.connections == 256
    assert result.switch_drops == 0
    assert result.srq_min_free is not None and result.srq_min_free >= 0
    benchmark.extra_info["end_ns"] = result.end_ns
    benchmark.extra_info["srq_min_free"] = result.srq_min_free
    benchmark.extra_info["sink_port_peak_queue_bytes"] = (
        result.sink_port_peak_queue_bytes)


def test_incast_256_connection_per_conn_resources(benchmark):
    """The same 256-connection incast on per-connection resources.

    The contrast row for the committed baseline: 256 per-connection
    engines/channels/receive queues against the pooled run above — the
    shared path must never be slower than this one.
    """
    result = benchmark.pedantic(
        lambda: _scale_incast(16, srq_depth=None, cq_shards=0),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.connections == 256
    assert result.switch_drops == 0
    benchmark.extra_info["end_ns"] = result.end_ns


def test_incast_1k_connection_scale(benchmark):
    """1024-connection incast: the thousand-endpoint claim of the SRQ
    literature, runnable only on the shared-resource path in reasonable
    time and memory."""
    result = benchmark.pedantic(
        lambda: _scale_incast(64, srq_depth=8192, cq_shards=16,
                              bytes_per_sender=16 * 1024),
        rounds=2, iterations=1, warmup_rounds=0)
    assert result.connections == 1024
    assert result.switch_drops == 0
    benchmark.extra_info["end_ns"] = result.end_ns
    benchmark.extra_info["srq_min_free"] = result.srq_min_free


def test_incast_10k_connection_scale(benchmark):
    """10240-connection audited incast.

    16 senders × 640 connections of 4 KiB each through one switch, with
    the stream-semantics auditor on — every byte ordering and completion
    invariant is checked across all ten thousand connections.  This scale
    is only tractable on the shared-resource path (SRQ pool + CQ shards).
    """
    result = benchmark.pedantic(
        lambda: _scale_incast(640, srq_depth=65536, cq_shards=32,
                              bytes_per_sender=4 * 1024,
                              message_bytes=4 * 1024,
                              audit=True),
        rounds=1, iterations=1, warmup_rounds=0)
    assert result.connections == 10240
    assert result.switch_drops == 0
    assert result.audit_violations == 0
    benchmark.extra_info["end_ns"] = result.end_ns
    benchmark.extra_info["srq_min_free"] = result.srq_min_free
    benchmark.extra_info["audit_violations"] = result.audit_violations


# ----------------------------------------------------------------------
# Micro-benchmarks for the per-event O(N) scans removed at 10k scale
# ----------------------------------------------------------------------
def test_srq_lazy_prefill_bringup(benchmark):
    """SRQ bring-up cost at fabric pool depth (64 pools × 64k slots).

    ``prefill`` materialises receive WRs lazily: bring-up books the range
    and ``take`` mints each WR on first use, so creating a 65536-slot
    pool no longer allocates 65536 RecvWR objects up front — the cost
    that dominated 10k-connection fabric construction.
    """
    from repro.fabric import Fabric
    from repro.verbs.wr import SGE

    def run():
        fab = Fabric.from_scenario(ScenarioConfig())
        device = fab.device("client")
        sge = SGE(0, 256, 0)
        taken = 0
        for _ in range(64):
            srq = device.create_srq(65536)
            srq.prefill(65536, sge, wr_id_start=1)
            assert len(srq) == 65536 and srq.free == 0
            # consume a handful: lazy slots must come out FIFO-first
            for i in range(128):
                assert srq.take().wr_id == i + 1
            taken += 128
        return taken

    assert benchmark(run) == 64 * 128


def test_cq_poll_drain_throughput(benchmark):
    """CompletionQueue.poll drain rate (the per-wakeup engine hot path).

    Full drains take the bulk copy-and-clear fast path instead of
    popleft-per-entry; partial drains keep FIFO order.
    """
    from repro.verbs.cq import CompletionQueue, WorkCompletion
    from repro.verbs.enums import WCOpcode, WCStatus

    wc = WorkCompletion(wr_id=1, opcode=WCOpcode.RECV, status=WCStatus.SUCCESS)

    def run():
        cq = CompletionQueue()
        drained = 0
        for _ in range(200):
            for _ in range(512):
                cq.push(wc)
            drained += len(cq.poll(128))       # partial, FIFO
            drained += len(cq.poll())          # bulk fast path
            assert not len(cq)
        return drained

    assert benchmark(run) == 200 * 512


def test_sparse_incast_idle_shard_laps(benchmark):
    """Shard engines with mostly-idle registrations (256 conns, one 4 KiB
    message each).

    Progress rounds only visit dirty connections and quiescent laps skip
    the trailing no-op pass, so a shard's cost tracks traffic, not its
    registered-connection count — the regime that dominated sink shards
    once fan-in reached thousands of connections.
    """
    result = benchmark.pedantic(
        lambda: _scale_incast(16, srq_depth=2048, cq_shards=8,
                              bytes_per_sender=4 * 1024,
                              message_bytes=4 * 1024),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.connections == 256
    assert result.switch_drops == 0
    benchmark.extra_info["end_ns"] = result.end_ns


def test_transport_crossover_grid(benchmark):
    """Transport bake-off sweep: loss × RTT × message size, every variant.

    Times the full bake-off sweep (both data planes and both reliability
    modes share the simulation substrate, so this is the harness's
    heaviest mixed workload) and publishes the crossover table — which
    variant delivers the highest simulated throughput in each cell — into
    the benchmark JSON via ``extra_info`` so the committed
    ``BENCH_simulator.json`` carries the grid alongside the timings.
    """
    from dataclasses import replace

    from repro.bench.profiles import PROFILES
    from repro.simnet import FaultProfile
    from repro.verbs import ReliabilityConfig

    KIB = 1024
    VARIANTS = (
        ("wwi", "gobackn"),
        ("wwi", "selective_repeat"),
        ("eager_rendezvous", "gobackn"),
        ("eager_rendezvous", "selective_repeat"),
    )

    def run():
        grid = []
        for pname in ("fdr", "roce-wan"):
            prof = PROFILES[pname]
            rel0 = ReliabilityConfig.for_path(
                prof.propagation_delay_ns + prof.emulator_delay_ns)
            for loss in (0.0, 0.02):
                for size in (512, 8 * KIB, 256 * KIB):
                    msgs = 16 if size >= 256 * KIB else 60
                    cell = {
                        "profile": pname,
                        "loss": loss,
                        "size": size,
                        "throughput_bps": {},
                    }
                    for transport, mode in VARIANTS:
                        scenario = ScenarioConfig(
                            profile=pname, seed=17, transport=transport,
                            faults=FaultProfile(drop_prob=loss) if loss else None,
                            reliability=replace(rel0, mode=mode))
                        cfg = BlastConfig(
                            total_messages=msgs, sizes=FixedSizes(size),
                            recv_buffer_bytes=max(size, 64 * KIB),
                            outstanding_sends=4 if size >= 256 * KIB else 8,
                            outstanding_recvs=8)
                        r = run_blast(cfg, scenario=scenario, max_events=100_000_000)
                        assert r.total_bytes == msgs * size
                        key = f"{transport}/{mode}"
                        cell["throughput_bps"][key] = r.throughput_bps
                    cell["best"] = max(cell["throughput_bps"],
                                       key=cell["throughput_bps"].get)
                    grid.append(cell)
        return grid

    grid = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["crossover_grid"] = grid

    def cell(pname, loss, size):
        return next(c for c in grid
                    if c["profile"] == pname and c["loss"] == loss and c["size"] == size)

    # shape claims the bake-off established (deterministic, seed-pinned):
    # the zero-copy WWI plane owns large messages on a clean fast link...
    big = cell("fdr", 0.0, 256 * KIB)
    assert big["best"].startswith("wwi")
    # ...while eager SEND-RECV wins tiny messages there (no ADVERT
    # dependency, one control message less per transfer)
    tiny = cell("fdr", 0.0, 512)
    assert tiny["best"].startswith("eager_rendezvous")
    # and under loss, selective repeat never does worse than go-back-N on
    # the same plane (it retransmits a subset of GBN's frames)
    for c in grid:
        if c["loss"] == 0:
            continue
        t = c["throughput_bps"]
        assert t["wwi/selective_repeat"] >= 0.99 * t["wwi/gobackn"]
