"""Helpers shared across the test suite (importable via pytest pythonpath)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.config import ScenarioConfig
from repro.simnet import Event, Simulator
from repro.testbed import Testbed
from repro.verbs import ReliabilityConfig


def run_procs(sim: Simulator, *generators, max_events: int = 5_000_000):
    """Spawn each generator as a process, run to completion, return results.

    Raises if any process failed or if the simulation deadlocked with
    processes still alive.
    """
    procs = [sim.process(g, name=f"test-proc-{i}") for i, g in enumerate(generators)]
    sim.run(max_events=max_events)
    for p in procs:
        if not p.triggered:
            raise AssertionError(f"simulation deadlocked: {p.name} still alive at t={sim.now}")
    return [p.result() for p in procs]


def _lcg(seed):
    """Tiny deterministic PRNG; no dependence on Python's hash or random."""
    state = (seed * 2654435761) & 0x7FFFFFFF or 1
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


SOUP_DELAYS = (0, 1, 3, 7, 100, 1000, 4095, 4096, 4097, 70_000, 16_773_120, 50_000_000)


def event_soup(sim: Simulator, seed: int) -> list:
    """Place a deterministic event soup on *sim*; returns the log it fills.

    Timeout chains, same-instant bursts, ``call_in`` deliveries and
    manually triggered events.  One shared PRNG is drawn from at resume
    time, so any ordering difference derails every later draw and two
    runs' logs diverge widely.  Call ``sim.run()`` afterwards.
    """
    rnd = _lcg(seed)
    log: list = []

    def chain_worker(wid):
        for i in range(15):
            d = SOUP_DELAYS[next(rnd) % len(SOUP_DELAYS)]
            v = yield sim.timeout(d, value=(wid, i))
            log.append(("w", wid, i, v, sim.now))

    def burst_worker(wid):
        for i in range(6):
            base = next(rnd) % 5000
            evs = [sim.timeout(base) for _ in range(next(rnd) % 4 + 2)]
            for j, t in enumerate(evs):
                t.add_callback(
                    lambda e, wid=wid, i=i, j=j: log.append(("b", wid, i, j, sim.now)))
            yield evs[0]
            log.append(("bw", wid, i, sim.now))
            yield sim.timeout(next(rnd) % 64)

    for wid in range(4):
        sim.process(chain_worker(wid))
    for wid in range(2):
        sim.process(burst_worker(wid))
    for i in range(40):
        d = (next(rnd) % 40) * 128
        sim.call_in(d, lambda arg: log.append(("cb",) + arg), (i, d))
    for i in range(20):
        ev = Event(sim)
        ev.add_callback(lambda e, i=i: log.append(("ev", i, e._value, sim.now)))
        ev.succeed(value=i, delay=next(rnd) % 3)
    return log


@dataclass(frozen=True)
class ChaosVariant:
    """One protocol variant of a chaos run, built as ScenarioConfig fields.

    ``None`` leaves the field to the scenario: the WWI data plane, and a
    go-back-N reliability layer derived for a lossy wire.  A set
    ``reliability`` mode also arms the reliability layer on a clean wire.
    """

    reliability: Optional[str] = None
    transport: Optional[str] = None

    @property
    def id(self) -> str:
        return f"{self.reliability}-{self.transport}"

    def scenario(self, **fields) -> ScenarioConfig:
        scenario = ScenarioConfig(**fields)
        if self.transport is not None:
            scenario = scenario.with_(transport=self.transport)
        if self.reliability is not None:
            rel = scenario.reliability
            if rel is None:
                profile = scenario.resolve_profile()
                rel = ReliabilityConfig.for_path(
                    profile.propagation_delay_ns + profile.emulator_delay_ns)
            scenario = scenario.with_(reliability=replace(rel, mode=self.reliability))
        return scenario

    def testbed(self, **fields) -> Testbed:
        return Testbed.from_scenario(self.scenario(**fields))

    def check(self, tb: Testbed, *conns) -> None:
        """Assert the run really used this variant (coverage not lost)."""
        if self.reliability is not None:
            for device in (tb.client_device, tb.server_device):
                assert device.reliability.config.mode == self.reliability
        if self.transport is not None:
            for conn in conns:
                assert conn.transport == self.transport


#: every {reliability mode} x {data plane} pair
CHAOS_VARIANTS = tuple(
    ChaosVariant(mode, transport)
    for mode in ("gobackn", "selective_repeat")
    for transport in ("wwi", "eager_rendezvous")
)
