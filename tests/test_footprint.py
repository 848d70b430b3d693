"""Per-connection footprint: what one more connection costs in objects.

An incast fabric puts thousands of connections on one host, so every
container a connection owns is paid thousands of times.  The container
rule (docs/SIMULATION.md, "Connection-scale resources"): per-connection
queues are plain lists; deques are kept for host- and pool-level queues,
whose number does not grow with the connection count.
"""

import gc
from collections import Counter, deque

from repro.config import ScenarioConfig
from repro.exs import ExsEventType, ExsSocketOptions, MsgFlags
from repro.exs.connection import ExsConnection
from repro.fabric import Fabric
from repro.simnet.fabric import SwitchConfig, Topology

SENDERS = 4
MESSAGE_BYTES = 4096


def _sender(handle):
    yield handle.wait()
    stack = handle.fabric.stack(handle.a)
    buf = stack.alloc(MESSAGE_BYTES, real=False)
    mr = yield from stack.mregister(buf)
    handle.a_socket.send(buf, mr, MESSAGE_BYTES, handle.a_eq)
    (yield handle.a_eq.dequeue()).expect(ExsEventType.SEND)


def _receiver(handle, done):
    yield handle.wait()
    stack = handle.fabric.stack(handle.b)
    buf = stack.alloc(MESSAGE_BYTES, real=False)
    mr = yield from stack.mregister(buf)
    handle.b_socket.recv(buf, mr, MESSAGE_BYTES, handle.b_eq,
                         flags=MsgFlags.MSG_WAITALL)
    (yield handle.b_eq.dequeue()).expect(ExsEventType.RECV)
    done.append(handle)


def _star_incast(per_sender):
    """A finished star incast (SRQ pool and CQ shards on), kept alive."""
    names = [f"s{i}" for i in range(SENDERS)]
    scenario = ScenarioConfig(
        seed=1,
        topology=Topology.star(names + ["sink"],
                               switch=SwitchConfig(policy="backpressure")),
        srq_depth=1024,
        cq_shards=4,
    )
    fabric = Fabric.from_scenario(scenario)
    options = ExsSocketOptions(real_data=False)
    done = []
    for name in names:
        for _ in range(per_sender):
            handle = fabric.connect(name, "sink", options=options)
            fabric.sim.process(_sender(handle))
            fabric.sim.process(_receiver(handle, done))
    fabric.run()
    assert len(done) == SENDERS * per_sender
    return fabric, done


def _deque_census():
    """Live deques: total, and a count per owning ``Type.attribute``."""
    gc.collect()
    owners = Counter()
    total = 0
    for obj in gc.get_objects():
        if type(obj) is deque:
            total += 1
            continue
        if isinstance(obj, type):
            continue
        attrs = dict(getattr(obj, "__dict__", None) or {})
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                value = getattr(obj, name, None)
                if value is not None:
                    attrs[name] = value
        for name, value in attrs.items():
            if type(value) is deque:
                owners[f"{type(obj).__name__}.{name}"] += 1
    return total, owners


def test_no_deque_grows_with_connection_count():
    # Same hosts, twice the connections: a per-connection deque doubles.
    small = _star_incast(per_sender=8)
    small_total, small_owners = _deque_census()
    del small
    large = _star_incast(per_sender=16)  # noqa: F841 (kept alive for the census)
    large_total, large_owners = _deque_census()
    per_connection = {
        owner: (small_owners.get(owner, 0), n)
        for owner, n in large_owners.items()
        if n != small_owners.get(owner, 0)
    }
    assert per_connection == {}, f"deques per connection (32 vs 64): {per_connection}"
    assert large_total == small_total
    assert large_owners, "census found no host-level deques at all"


def test_exs_connection_has_no_instance_dict():
    fabric, done = _star_incast(per_sender=16)
    conns = [obj for obj in gc.get_objects() if type(obj) is ExsConnection
             and obj.sim is fabric.sim]
    assert len(conns) == 2 * len(done) == 128
    assert not any(hasattr(conn, "__dict__") for conn in conns)
