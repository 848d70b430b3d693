"""Helpers shared across the test suite (importable via pytest pythonpath)."""

from __future__ import annotations

from repro.simnet import Event, Simulator


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
