"""The benchmark's three workloads, driven through the public API only.

Each workload turns a seed into one fixed simulated batch and runs it with
:meth:`Workload.run_batch`.  A batch is closed-loop: the simulator drains a
fixed amount of simulated work as fast as the host allows, and the
simulated applications are closed-loop too (blast keeps a fixed window of
``exs_send`` calls outstanding; each incast connection sends one message
and waits for it to complete).  Running the same batch twice must give the
same simulated outputs and the same work counters; the runner checks that.

Entry points used: ``Testbed.from_scenario``, ``run_blast(cfg, testbed=,
scenario=)``, ``Fabric.from_scenario``/``connect``/``run``,
``Fabric.attach_telemetry``, ``ProtocolTracer.attach`` and
``repro.check.audit.audit_events``.  Counters are read from public
attributes after the run.  EXS connections announce themselves at
handshake to ``host.telemetry.register_connection`` (the hook
``repro.obs.Telemetry`` uses); :class:`ConnectionLog` listens on it so the
work ledger can read per-connection counters without telemetry switched on.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import (
    BlastConfig,
    ExponentialSizes,
    ExsEventType,
    ExsSocketOptions,
    PROFILES,
    Fabric,
    MsgFlags,
    ProtocolMode,
    ProtocolTracer,
    ScenarioConfig,
    SwitchConfig,
    Testbed,
    Topology,
    run_blast,
)
from repro.check.audit import audit_events
from repro.simnet.faults import LIGHT_LOSS
from repro.verbs import ReliabilityConfig

KIB = 1 << 10
MIB = 1 << 20


class ConnectionLog:
    """Listens on the ``host.telemetry`` connection hook.

    *forward* is a telemetry session that must still see every connection
    (the ``lossy_observed`` workload runs with telemetry on).
    """

    def __init__(self, forward=None) -> None:
        self.conns: list = []
        self.forward = forward

    def register_connection(self, conn) -> None:
        self.conns.append(conn)
        if self.forward is not None:
            self.forward.register_connection(conn)

    def install(self, fabric: Fabric) -> "ConnectionLog":
        for host in fabric.all_hosts:
            host.telemetry = self
        return self


@dataclass
class Batch:
    """What one simulated batch produced, and what it cost the host."""

    messages: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    #: summed simulated first-post to last-delivery windows (ns)
    window_ns: int = 0
    #: per-message simulated latencies (ns)
    latencies_ns: List[int] = field(default_factory=list)
    #: raw deterministic work counters, summed over the batch's simulations
    counts: Dict[str, int] = field(default_factory=dict)
    #: inputs to the fingerprint: simulated outputs only
    outputs: list = field(default_factory=list)
    setup_s: float = 0.0
    run_s: float = 0.0
    #: correctness check failures
    errors: List[str] = field(default_factory=list)
    #: trace-audit violations (audited batches only)
    violations: int = 0

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self.outputs).encode()).hexdigest()[:16]

    def add_counts(self, counts: Dict[str, int]) -> None:
        for key, value in counts.items():
            if key == "srq_min_free":
                prev = self.counts.get(key)
                self.counts[key] = value if prev is None else min(prev, value)
            elif key == "switch_peak_queue_bytes":
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value


class _Timer:
    """Accumulates host time for one phase; drives the optional profiler."""

    def __init__(self, profiler) -> None:
        self.profiler = profiler
        self.elapsed = 0.0

    def __enter__(self) -> "_Timer":
        if self.profiler is not None:
            self.profiler.enable()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed += time.perf_counter() - self._t0
        if self.profiler is not None:
            self.profiler.disable()


def work_counts(fabric: Fabric, conns: list) -> Dict[str, int]:
    """Raw work counters of one finished simulation, from public state."""
    links = list(fabric.links.values())
    devices = [fabric.device(h.name) for h in fabric.all_hosts]
    stacks = [fabric.stack(h.name) for h in fabric.all_hosts]
    pools = [s.srq_pool for s in stacks if s.srq_pool is not None]
    shards = [shard for s in stacks for shard in s.shards]
    ports = [p for sw in fabric.switches.values() for p in sw.ports.values()]
    cqs = {id(cq): cq for c in conns for cq in (c.qp.send_cq, c.qp.recv_cq)}
    engines = [d.reliability for d in devices if d.reliability is not None]
    tel = fabric.telemetry
    causal = fabric.causal
    return {
        "events": fabric.sim.events_executed,
        "frames": sum(d.stats.messages for link in links for d in link.directions),
        "wire_bytes": sum(d.stats.wire_bytes for link in links for d in link.directions),
        "fault_drops": sum(m.dropped_total for m in fabric.impairments.values()),
        "switch_peak_queue_bytes": max((p.peak_queue_bytes for p in ports), default=0),
        "switch_backpressured": sum(p.backpressured for p in ports),
        "switch_drops": sum(p.drops for p in ports),
        "wrs": sum(c.qp.sends_posted + c.qp.recvs_posted for c in conns)
        + sum(p.srq.posted_total for p in pools),
        "cqes": sum(cq.total_pushed for cq in cqs.values()),
        "acks": sum(d.acks_sent for d in devices),
        "data_frames": sum(d.data_messages_sent for d in devices),
        "retransmits": sum(e.stats.retransmits for e in engines),
        "srq_empty_hits": sum(p.empty_hits for p in pools),
        "srq_min_free": min((p.min_free for p in pools), default=0),
        "control_msgs": sum(c.qp.sends_posted - c.tx_stats.total_transfers for c in conns),
        "direct": sum(c.tx_stats.direct_transfers for c in conns),
        "transfers": sum(c.tx_stats.total_transfers for c in conns),
        "mode_switches": sum(c.tx_stats.mode_switches for c in conns),
        "adverts_received": sum(c.tx_stats.adverts_received for c in conns),
        "adverts_discarded": sum(c.tx_stats.adverts_discarded for c in conns),
        "shard_wcs": sum(s.wcs_dispatched for s in shards),
        "shard_rounds": sum(s.rounds for s in shards),
        "copied_bytes": sum(c.rx_stats.copied_bytes for c in conns),
        "cpu_busy_ns": sum(h.cpu.busy_ns_total + h.app_cpu.busy_ns_total
                           for h in fabric.all_hosts),
        "obs_samples": tel.sampler.samples_taken if tel is not None else 0,
        "flight_records": max(causal.nodes, default=-1) + 1 if causal is not None else 0,
    }


class Workload:
    """One named workload: a seed-determined simulated batch."""

    name = ""

    def batch_messages(self) -> int:
        """Application messages one batch sends (for failure accounting)."""
        raise NotImplementedError

    def run_batch(self, seed: int, *, audit: bool = False, profiler=None,
                  max_events: Optional[int] = None) -> Batch:
        """Build and run the batch for *seed*.

        Set-up and run phases are timed separately; *profiler* (a
        ``cProfile.Profile``) is enabled around both and nothing else.
        With *audit*, every simulation records a protocol trace and the
        auditor re-checks it.  *max_events* caps each simulation (tests
        use it to force a failure).
        """
        raise NotImplementedError


class _BlastWorkload(Workload):
    """A batch of independent 2-host blasts, each with its own sub-seed.

    Several blasts average out where losses fall (``lossy_observed``); one
    long blast keeps the direct prefix before the phase flip a small,
    steady share (``blast``).  Either way the batch's simulated figures
    move little from one seed to the next.
    """

    #: blasts per batch
    runs = 1
    #: messages per blast
    messages = 1

    def scenario(self, seed: int) -> ScenarioConfig:
        raise NotImplementedError

    def config(self, seed: int) -> BlastConfig:
        raise NotImplementedError

    def batch_messages(self) -> int:
        return self.runs * self.messages

    def sub_seeds(self, seed: int) -> List[int]:
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(1 << 30) for _ in range(self.runs)]

    def run_batch(self, seed, *, audit=False, profiler=None, max_events=None):
        batch = Batch()
        setup, run = _Timer(profiler), _Timer(profiler)
        for sub in self.sub_seeds(seed):
            scenario = self.scenario(sub)
            if max_events is not None:
                scenario = scenario.with_(max_events=max_events)
            cfg = self.config(sub)
            with setup:
                tb = Testbed.from_scenario(scenario)
                tel = tb.attach_telemetry() if scenario.telemetry else None
            log = ConnectionLog(forward=tel).install(tb)
            tracer = None
            if audit:
                tracer = tel.tracer if tel is not None else ProtocolTracer.attach(tb)
            with run:
                # run_blast would attach a second session; the one above,
                # which the connection log forwards to, is finished here
                result = run_blast(cfg, testbed=tb, scenario=scenario.with_(telemetry=False))
                if tel is not None:
                    tel.finish()
            sizes = cfg.sizes.sizes(cfg.total_messages)
            server = [c for c in log.conns if c.host.name == "server"]
            batch.messages += cfg.total_messages
            batch.bytes_sent += sum(sizes)
            batch.bytes_delivered += sum(c.rx.bytes_delivered_total for c in server)
            batch.window_ns += result.end_ns - result.start_ns
            batch.latencies_ns.extend(result.send_latencies_ns)
            batch.add_counts(work_counts(tb, log.conns))
            batch.outputs.append((
                result.start_ns, result.end_ns, result.total_bytes,
                result.tx_stats.direct_transfers, result.tx_stats.indirect_transfers,
                result.mode_switches, tuple(result.send_latencies_ns),
            ))
            if tracer is not None:
                batch.violations += len(audit_events(tracer.events).violations)
        batch.setup_s, batch.run_s = setup.elapsed, run.elapsed
        if batch.bytes_delivered != batch.bytes_sent:
            batch.errors.append(
                f"sent {batch.bytes_sent} bytes but delivered {batch.bytes_delivered}")
        return batch


class BlastWorkload(_BlastWorkload):
    """3 sends against 4 receives: the sender starts direct on the first
    ADVERTs and flips to indirect early on every seed, so both paths and a
    mode switch occur (the 2-against-4 Table III row rarely flips here)."""

    name = "blast"
    runs = 1
    messages = 2000

    def scenario(self, seed):
        return ScenarioConfig(profile="fdr", seed=seed)

    def config(self, seed):
        return BlastConfig(
            total_messages=self.messages,
            sizes=ExponentialSizes(mean=1 * MIB, maximum=4 * MIB, seed=seed),
            outstanding_sends=3,
            outstanding_recvs=4,
            mode=ProtocolMode.DYNAMIC,
            real_data=True,
        )


class LossyObservedWorkload(_BlastWorkload):
    name = "lossy_observed"
    runs = 4
    messages = 1000
    #: far above the path's round trip plus a window's serialization (no
    #: spurious retransmissions), but short enough that a few timeouts do
    #: not decide the simulated length of the run
    retry_timeout_ns = 200_000

    def scenario(self, seed):
        fdr = PROFILES["fdr"]
        return ScenarioConfig(
            profile="fdr",
            seed=seed,
            transport="eager_rendezvous",
            faults=LIGHT_LOSS,
            reliability=ReliabilityConfig.for_path(
                fdr.propagation_delay_ns + fdr.emulator_delay_ns,
                mode="selective_repeat",
                retry_timeout_ns=self.retry_timeout_ns,
            ),
            telemetry=True,
            flight_recorder=4096,
        )

    def config(self, seed):
        return BlastConfig(
            total_messages=self.messages,
            sizes=ExponentialSizes(mean=16 * KIB, maximum=256 * KIB, seed=seed),
            outstanding_sends=4,
            outstanding_recvs=8,
            recv_buffer_bytes=256 * KIB,
            mode=ProtocolMode.DYNAMIC,
            real_data=True,
        )


def _incast_sender(handle, nbytes: int):
    yield handle.wait()
    stack = handle.fabric.stack(handle.a)
    buf = stack.alloc(nbytes, real=False, label="incast:snd")
    mr = yield from stack.mregister(buf)
    handle.a_socket.send(buf, mr, nbytes, handle.a_eq)
    (yield handle.a_eq.dequeue()).expect(ExsEventType.SEND)


def _incast_receiver(handle, nbytes: int, finish: Dict[int, int], index: int):
    yield handle.wait()
    stack = handle.fabric.stack(handle.b)
    buf = stack.alloc(nbytes, real=False, label="incast:rcv")
    mr = yield from stack.mregister(buf)
    remaining = nbytes
    while remaining > 0:
        handle.b_socket.recv(buf, mr, remaining, handle.b_eq, flags=MsgFlags.MSG_WAITALL)
        ev = (yield handle.b_eq.dequeue()).expect(ExsEventType.RECV)
        remaining -= ev.nbytes
    finish[index] = stack.sim.now


class Incast4kWorkload(Workload):
    name = "incast_4k"
    senders = 16
    per_sender = 256
    message_bytes = 8 * KIB

    def batch_messages(self) -> int:
        return self.senders * self.per_sender

    def run_batch(self, seed, *, audit=False, profiler=None, max_events=None):
        batch = Batch()
        setup, run = _Timer(profiler), _Timer(profiler)
        names = [f"s{i}" for i in range(self.senders)]
        scenario = ScenarioConfig(
            profile="fdr",
            seed=seed,
            topology=Topology.star(names + ["sink"],
                                   switch=SwitchConfig(policy="backpressure")),
            srq_depth=32768,
            cq_shards=32,
            max_events=max_events,
        )
        options = ExsSocketOptions(real_data=False)
        finish: Dict[int, int] = {}
        handles = []
        with setup:
            fabric = Fabric.from_scenario(scenario)
            log = ConnectionLog().install(fabric)
            tracer = ProtocolTracer.attach(fabric) if audit else None
            for name in names:
                for _ in range(self.per_sender):
                    handle = fabric.connect(name, "sink", options=options)
                    index = len(handles)
                    handles.append(handle)
                    fabric.sim.process(_incast_sender(handle, self.message_bytes))
                    fabric.sim.process(
                        _incast_receiver(handle, self.message_bytes, finish, index))
        with run:
            fabric.run(max_events=scenario.max_events)
        if len(finish) != len(handles):
            raise RuntimeError(
                f"incast did not complete: {len(handles) - len(finish)} of "
                f"{len(handles)} connections never finished")
        sink = [c for c in log.conns if c.host.name == "sink"]
        senders = [c for c in log.conns if c.host.name != "sink"]
        first_post = min(c.tx.first_post_ns for c in senders)
        finish_ns = [finish[i] for i in range(len(handles))]
        counts = work_counts(fabric, log.conns)
        batch.messages = len(handles)
        batch.bytes_sent = len(handles) * self.message_bytes
        batch.bytes_delivered = sum(c.rx.bytes_delivered_total for c in sink)
        batch.window_ns = max(finish_ns) - first_post
        batch.latencies_ns = finish_ns
        batch.add_counts(counts)
        batch.outputs = [
            first_post, tuple(finish_ns), batch.bytes_delivered,
            counts["direct"], counts["transfers"] - counts["direct"],
        ]
        batch.setup_s, batch.run_s = setup.elapsed, run.elapsed
        if tracer is not None:
            batch.violations = len(audit_events(tracer.events).violations)
        if batch.bytes_delivered != batch.bytes_sent:
            batch.errors.append(
                f"sent {batch.bytes_sent} bytes but delivered {batch.bytes_delivered}")
        if counts["switch_drops"]:
            batch.errors.append(
                f"{counts['switch_drops']} switch drops under backpressure")
        return batch


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    w.name: w for w in (BlastWorkload, Incast4kWorkload, LossyObservedWorkload)
}
