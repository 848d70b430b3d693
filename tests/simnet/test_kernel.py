"""Kernel basics: clock, calendar ordering, run modes."""

import pytest

from helpers import event_soup
from repro.simnet import Event, FifoPolicy, RandomTiebreakPolicy, Simulator, Timeout
from repro.simnet.kernel import SimulationError


def test_clock_starts_at_zero(sim):
    assert sim.now == 0


def test_timeout_advances_clock(sim):
    fired = []
    t = Timeout(sim, 100, value="x")
    t.add_callback(lambda e: fired.append((sim.now, e.result())))
    sim.run()
    assert fired == [(100, "x")]


def test_events_fire_in_time_order(sim):
    order = []
    for delay in (50, 10, 30, 10, 0):
        Timeout(sim, delay).add_callback(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [0, 10, 10, 30, 50]


def test_same_time_events_fire_in_schedule_order(sim):
    order = []
    for i in range(10):
        Timeout(sim, 42).add_callback(lambda e, i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_run_until_time_stops_clock_exactly(sim):
    Timeout(sim, 100)
    Timeout(sim, 300)
    sim.run(until=200)
    assert sim.now == 200
    # the 300ns event is still pending
    assert sim.peek() == 300


def test_run_until_event_returns_value(sim):
    def proc():
        yield sim.timeout(25)
        return "done"

    p = sim.process(proc())
    assert sim.run(until=p) == "done"
    assert sim.now == 25


def test_run_until_untriggered_event_raises(sim):
    ev = Event(sim)  # never triggered
    Timeout(sim, 10)
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=ev)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(Event(sim), delay=-1)


def test_non_integer_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(Event(sim), delay=1.5)


def test_max_events_guard(sim):
    def ticker():
        while True:
            yield sim.timeout(1)

    sim.process(ticker())
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_events_executed_counter(sim):
    for _ in range(5):
        Timeout(sim, 1)
    sim.run()
    assert sim.events_executed == 5


def test_peek_empty_calendar(sim):
    assert sim.peek() is None


def test_trace_hook_invoked():
    records = []
    sim = Simulator(trace=lambda t, cat, msg: records.append((t, cat, msg)))
    sim.trace("unit", "hello")
    assert records == [(0, "unit", "hello")]


@pytest.mark.parametrize("policy", [None, FifoPolicy(), RandomTiebreakPolicy(seed=3)],
                         ids=["none", "fifo", "random"])
@pytest.mark.parametrize("delay", [1.5, True], ids=["float", "bool"])
def test_call_in_rejects_non_int_delay(policy, delay):
    sim = Simulator(schedule_policy=policy)
    with pytest.raises(SimulationError, match="must be an int"):
        sim.call_in(delay, lambda arg: None)
    assert sim.peek() is None
    assert sim.now == 0


def test_max_events_allows_exactly_n(sim):
    fired = []
    for d in (1, 2, 3):
        Timeout(sim, d).add_callback(lambda e, d=d: fired.append(d))
    sim.run(max_events=3)
    assert fired == [1, 2, 3]


def test_max_events_mid_batch_preserves_order(sim):
    """Tripping max_events among same-instant entries must not lose or
    reorder the undispatched tail."""
    fired = []
    for i in range(6):
        Timeout(sim, 50).add_callback(lambda e, i=i: fired.append(i))
    with pytest.raises(SimulationError, match="max_events=3"):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_step_interleaves_with_run(sim):
    order = []
    for i in range(4):
        Timeout(sim, 5).add_callback(lambda e, i=i: order.append(i))
    Timeout(sim, 9).add_callback(lambda e: order.append("late"))
    sim.step()
    assert order == [0]
    assert sim.now == 5
    sim.step()
    assert order == [0, 1]
    sim.run()
    assert order == [0, 1, 2, 3, "late"]
    with pytest.raises(IndexError):
        sim.step()


def test_run_until_mid_calendar_keeps_tail(sim):
    fired = []
    for i, d in enumerate((100, 200, 200, 200, 300)):
        Timeout(sim, d).add_callback(lambda e, i=i: fired.append((i, sim.now)))
    sim.run(until=150)
    assert sim.now == 150
    assert fired == [(0, 100)]
    assert sim.peek_next_time() == 200
    sim.run()
    assert fired == [(0, 100), (1, 200), (2, 200), (3, 200), (4, 300)]


def test_schedule_for_now_fires_after_pending_peers(sim):
    """An event scheduled for *now* from inside a callback fires after
    every entry already pending for that instant."""
    order = []

    def first(e):
        order.append("first")
        Timeout(sim, 0).add_callback(lambda e: order.append("joined"))

    Timeout(sim, 10).add_callback(first)
    Timeout(sim, 10).add_callback(lambda e: order.append("second"))
    sim.run()
    assert order == ["first", "second", "joined"]


def test_peek_inside_callback_reports_now(sim):
    seen = []
    Timeout(sim, 10).add_callback(lambda e: seen.append(sim.peek_next_time()))
    Timeout(sim, 10).add_callback(lambda e: None)
    Timeout(sim, 99).add_callback(lambda e: None)
    sim.run()
    # peeked at t=10 with a same-instant peer still pending -> 10, not 99
    assert seen == [10]


def _fingerprint(policy, seed):
    sim = Simulator(schedule_policy=policy)
    log = event_soup(sim, seed)
    sim.run()
    return tuple(log), sim.now, sim.events_executed


@pytest.mark.parametrize("seed", [1, 5, 29])
def test_fifo_policy_matches_no_policy(seed):
    assert _fingerprint(FifoPolicy(), seed) == _fingerprint(None, seed)


def test_random_policy_permutes_only_same_instant_ties():
    plain = _fingerprint(None, 5)
    shuffled = _fingerprint(RandomTiebreakPolicy(seed=11), 5)
    assert shuffled != plain
    times = [entry[-1] for entry in shuffled[0]]
    assert times == sorted(times)


def test_process_failure_counts_the_interrupted_event(sim):
    """Events are counted when they leave the calendar, before dispatch."""
    before = []

    def chain():
        for i in range(5):
            yield sim.timeout(10)
            before.append(i)
        raise RuntimeError("boom")

    p = sim.process(chain())
    sim.run()  # the failure is captured by the process event, not raised
    assert before == [0, 1, 2, 3, 4]
    assert p.ok is False
    with pytest.raises(RuntimeError, match="boom"):
        p.result()
    # bootstrap + 5 timeouts + the failed process event = 7
    assert sim.events_executed == 7


def test_run_until_process_counts_the_stopping_event(sim):
    def finite():
        for _ in range(3):
            yield sim.timeout(100)
        return "done"

    p = sim.process(finite())
    assert sim.run(until=p) == "done"
    assert sim.now == 300
    # bootstrap + timeouts at 100/200/300 + the completion event whose
    # callback raised StopSimulation = 5
    assert sim.events_executed == 5


def test_calendar_stats_surface(sim):
    stats = sim.calendar_stats()
    assert stats == {"now": 0, "events_executed": 0, "pending": 0, "next_time": None,
                     "timeout_allocs": 0, "timeout_reuses": 0, "timeout_pool": 0}

    def proc():
        for _ in range(50):
            yield sim.timeout(7)

    sim.process(proc())
    Timeout(sim, 20_000)
    Timeout(sim, 50_000_000)
    assert sim.calendar_stats()["pending"] == 3
    assert sim.peek_next_time() == 0  # process bootstrap event
    sim.run()
    stats = sim.calendar_stats()
    assert stats["pending"] == 0
    assert stats["events_executed"] == sim.events_executed > 50
    # the chain recycles its dispatched timeouts through the freelist
    assert stats["timeout_reuses"] >= 48


def test_recycled_timeout_is_never_one_still_referenced(sim):
    kept = []

    def proc():
        for i in range(20):
            t = sim.timeout(3, value=i)
            kept.append(t)
            got = yield t
            assert got == i

    sim.process(proc())
    sim.run()
    assert len({id(t) for t in kept}) == 20
    assert [t.result() for t in kept] == list(range(20))
