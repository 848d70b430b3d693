"""Causality capture: schedule-identical replay plus a correct causal DAG.

The contract of :mod:`repro.simnet.causality` is twofold:

* **Equivalence** — a captured run executes the exact same schedule as an
  uncaptured one, with no schedule policy, ``FifoPolicy`` and
  ``RandomTiebreakPolicy``.  The fingerprint workload draws from one shared
  PRNG at resume time, so any ordering divergence derails every later draw
  and amplifies.
* **Causal structure** — every placement records its parent (the entry
  executing when it was scheduled), category, and schedule/fire times,
  and ``child.sched_ns == parent.fire_ns`` so chains tile exactly.
"""

import pytest

from helpers import event_soup
from repro.simnet import (
    CausalRecorder,
    Event,
    FifoPolicy,
    RandomTiebreakPolicy,
    SimulationError,
    Simulator,
    enable_capture,
)


def _policy(kind, seed):
    if kind == "fifo":
        return FifoPolicy()
    if kind == "random":
        return RandomTiebreakPolicy(seed=seed * 7 + 5)
    return None


def _fingerprint(policy_kind, seed, capture):
    sim = Simulator(schedule_policy=_policy(policy_kind, seed))
    rec = enable_capture(sim, CausalRecorder()) if capture else None
    log = event_soup(sim, seed)
    sim.run()
    return (tuple(log), sim.now, sim.events_executed), sim, rec


# ----------------------------------------------------------------------
# equivalence: capture replays the identical schedule, every policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 17])
@pytest.mark.parametrize("policy_kind", [None, "fifo", "random"])
def test_capture_is_schedule_identical(policy_kind, seed):
    plain, _, _ = _fingerprint(policy_kind, seed, capture=False)
    captured, _, rec = _fingerprint(policy_kind, seed, capture=True)
    assert plain == captured
    assert len(rec.nodes) > 0


def test_captured_run_matches_heap_reference():
    """Cross-policy AND cross-capture: no policy and ``FifoPolicy``, each
    captured and uncaptured — all four combinations agree."""
    results = {
        (p, c): _fingerprint(p, 23, capture=c)[0]
        for p in (None, "fifo") for c in (False, True)
    }
    assert len(set(results.values())) == 1


# ----------------------------------------------------------------------
# DAG structure
# ----------------------------------------------------------------------
def test_parent_links_and_tiling():
    _, sim, rec = _fingerprint(None, 5, capture=True)
    fired = [n for n in rec.nodes.values() if n.fire_ns >= 0]
    assert fired, "no nodes fired"
    rooted = 0
    for node in fired:
        assert node.fire_ns >= node.sched_ns
        if node.parent >= 0:
            parent = rec.node(node.parent)
            assert parent is not None
            # the child was scheduled during its parent's dispatch
            assert node.sched_ns == parent.fire_ns
        else:
            rooted += 1
    assert rooted > 0, "expected top-level placements with parent=-1"


def test_categories_recorded():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder())
    log = []

    def proc():
        yield sim.timeout(10)
        sim.call_in(5, log.append, "x")
        ev = Event(sim)
        ev.succeed(delay=3)
        yield ev

    sim.process(proc())
    sim.run()
    cats = {n.category for n in rec.nodes.values()}
    assert {"process", "timeout", "call", "event"} <= cats


def test_named_callbacks_get_semantic_categories():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder())

    class Engine:
        def _on_wire(self, arg):
            pass

        def _on_timer(self, arg):
            pass

    eng = Engine()
    sim.call_in(5, eng._on_wire, None)
    sim.call_in(7, eng._on_timer, None)
    sim.run()
    cats = sorted(n.category for n in rec.nodes.values())
    assert cats == ["link", "rto_timer"]


def test_annotate_last_attaches_meta():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder())
    sim.call_in(10, lambda a: None, None)
    rec.annotate_last(1, queue_ns=2, tx_ns=5, prop_ns=3)
    sim.run()
    (node,) = rec.nodes.values()
    assert node.meta == {"queue_ns": 2, "tx_ns": 5, "prop_ns": 3}


# ----------------------------------------------------------------------
# flight ring bounds + failure dumps
# ----------------------------------------------------------------------
def test_ring_mode_bounds_memory():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder(capacity=8))
    for i in range(50):
        sim.call_in(i, lambda a: None, None)
    sim.run()
    # at most the ring (8) plus any never-fired pending nodes (none here)
    assert len(rec.nodes) <= 8
    assert [n.cid for n in rec.fired_nodes()] == list(range(42, 50))


def test_ring_mode_failure_evicts_pushed_out_node():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder(capacity=4))
    for i in range(10):
        sim.call_in(i, lambda a: None, None)
    sim.call_in(20, lambda a: rec.failure("qp_error", sim.now), None)
    sim.run()
    ring = [n.cid for n in rec.fired_nodes()]
    assert len(ring) == 4 and rec.nodes[ring[-1]].category == "failure"
    # every retained fired node is in the ring: the failure append evicted
    # the node it pushed out, exactly as a fire would have
    fired = {cid for cid, n in rec.nodes.items() if n.fire_ns is not None}
    assert fired == set(ring)


def test_credit_windows_recorded_only_under_full_capture():
    full, ring = CausalRecorder(), CausalRecorder(capacity=8)
    for rec in (full, ring):
        for t in range(0, 300, 30):
            rec.note_credit_block("conn", t)
            rec.note_credit_unblock("conn", t + 10)
    assert len(full.credit_windows) == 10
    assert ring.credit_windows == [] and ring._blocked_since == {}


def test_failure_dump_parents_to_current_event(tmp_path):
    sim = Simulator()
    rec = enable_capture(
        sim, CausalRecorder(capacity=16, dump_dir=str(tmp_path),
                            scenario={"seed": 9}))

    def boom(arg):
        rec.failure("qp_error", sim.now, qpn=3)

    sim.call_in(100, boom, None)
    sim.run()
    assert len(rec.dumps) == 1
    dump = rec.last_dump
    assert dump["schema"] == "repro.flight/1"
    assert dump["reason"] == "qp_error"
    assert dump["scenario"] == {"seed": 9}
    # the synthetic failure node is parented to the event that was executing
    failure = dump["events"][-1]
    assert failure["category"] == "failure"
    cause = [n for n in dump["events"] if n["id"] == failure["parent"]]
    assert cause and cause[0]["category"] == "call"
    import json, os
    path = dump["path"]
    assert os.path.exists(path)
    with open(path) as fh:
        assert json.load(fh)["reason"] == "qp_error"


# ----------------------------------------------------------------------
# guards + step
# ----------------------------------------------------------------------
def test_enable_capture_rejects_pending_calendar():
    sim = Simulator()
    sim.call_in(5, lambda a: None, None)
    with pytest.raises(SimulationError):
        enable_capture(sim, CausalRecorder())


def test_enable_capture_rejects_double_enable():
    sim = Simulator()
    enable_capture(sim, CausalRecorder())
    with pytest.raises(SimulationError):
        enable_capture(sim, CausalRecorder())


def test_step_records():
    sim = Simulator()
    rec = enable_capture(sim, CausalRecorder())
    log = []
    sim.call_in(5, log.append, "a")
    sim.call_in(9, log.append, "b")
    sim.step()
    assert log == ["a"] and sim.now == 5
    sim.step()
    assert log == ["a", "b"] and sim.now == 9
    assert all(n.fire_ns >= 0 for n in rec.nodes.values())
    with pytest.raises(IndexError):
        sim.step()
