"""Fabric assembly API, Testbed compatibility, and bit-identity regression."""

import pytest

from helpers import run_procs
from repro.config import ScenarioConfig
from repro.exs import BlockingSocket, ExsSocketOptions
from repro.fabric import Fabric
from repro.simnet import FaultProfile, ImpairmentModel, SwitchConfig, Topology
from repro.testbed import Testbed


def _star(**fields):
    """A fabric of hosts a, b, c around one switch."""
    return Fabric.from_scenario(
        ScenarioConfig(topology=Topology.star(["a", "b", "c"]), **fields))


def _run_transfer(assembly, nbytes=20_000, options=None, port=4321):
    """One client→server stream on any two-host assembly; fingerprint tuple."""
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(
            assembly.stack("server"), port, options=options)
        out["data"] = yield from conn.recv_bytes(nbytes, waitall=True)

    def client():
        conn = yield from BlockingSocket.connect(
            assembly.stack("client"), port, options=options)
        yield from conn.send_bytes(b"x" * nbytes)

    run_procs(assembly.sim, server(), client())
    stats = assembly.sim.calendar_stats()
    return assembly.now, stats["events_executed"], len(out["data"])


# ----------------------------------------------------------------------
# bit-identity: Fabric's two-host wire IS the legacy Testbed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("kwargs", [
    {},
    {"faults": FaultProfile(drop_prob=0.05)},  # reliability auto-derived
], ids=["clean", "lossy"])
def test_fabric_two_host_star_matches_testbed(seed, kwargs):
    legacy = _run_transfer(Testbed.from_scenario(ScenarioConfig(seed=seed, **kwargs)))
    star = _run_transfer(Fabric.from_scenario(ScenarioConfig(
        topology=Topology.star(["client", "server"]), seed=seed, **kwargs)))
    assert star == legacy


@pytest.mark.parametrize("transport", ["wwi", "eager_rendezvous"])
def test_fabric_bit_identity_across_transports(transport):
    options = ExsSocketOptions(transport=transport)
    legacy = _run_transfer(Testbed.from_scenario(ScenarioConfig(seed=7)), options=options)
    fabric = _run_transfer(Fabric.from_scenario(
        ScenarioConfig(topology=Topology.point_to_point(), seed=7)), options=options)
    assert fabric == legacy


def test_from_scenario_matches_direct_construction():
    sc = ScenarioConfig(seed=5)
    assert (_run_transfer(Testbed.from_scenario(sc))
            == _run_transfer(Fabric.from_scenario(sc))
            == _run_transfer(Testbed(sc)))


# ----------------------------------------------------------------------
# Testbed surface: scenario validation
# ----------------------------------------------------------------------
def test_testbed_rejects_multi_host_topology():
    sc = ScenarioConfig(topology=Topology.star(["a", "b", "c"]))
    with pytest.raises(ValueError, match="two-host wire"):
        Testbed.from_scenario(sc)


def test_fabric_rejects_scenario_plus_knobs():
    """The scenario is the only description of a run: the knobs it holds
    are not constructor keywords."""
    for knobs in ({"seed": 2}, {"topology": Topology.point_to_point()},
                  {"srq_depth": 8}, {"faults": FaultProfile(drop_prob=0.1)}):
        with pytest.raises(TypeError):
            Fabric(ScenarioConfig(seed=1), **knobs)
        with pytest.raises(TypeError):
            Fabric.from_scenario(ScenarioConfig(seed=1), **knobs)
    with pytest.raises(TypeError):
        Fabric(topology=Topology.star(["a", "b", "c"]))


# ----------------------------------------------------------------------
# Fabric public surface
# ----------------------------------------------------------------------
def test_host_lookup_typo_lists_known_hosts():
    fab = _star()
    with pytest.raises(KeyError, match="a, b, c"):
        fab.host("q")
    with pytest.raises(KeyError):
        fab.stack("q")
    with pytest.raises(KeyError):
        fab.device("q")


def test_connect_rejects_self_connection():
    fab = _star()
    with pytest.raises(ValueError, match="itself"):
        fab.connect("a", "a")


def test_legacy_link_property_only_on_direct_fabrics():
    direct = Fabric.from_scenario(ScenarioConfig(topology=Topology.point_to_point()))
    assert direct.link is direct.links["client-server"]
    multi = _star()
    with pytest.raises(AttributeError, match="multiple links"):
        multi.link
    assert multi.impairment is None


def test_connect_establishes_across_a_switch():
    fab = _star(seed=2)
    pair = fab.connect("a", "c")
    fab.run()
    assert pair.established.triggered
    assert pair.a_socket is not None and pair.b_socket is not None
    assert pair.a_socket.stack is fab.stack("a")
    assert pair.b_socket.stack is fab.stack("c")


def test_connect_auto_ports_are_distinct():
    fab = _star()
    p1 = fab.connect("a", "b")
    p2 = fab.connect("a", "c")
    assert p1.port != p2.port


def test_three_host_transfer_over_switch():
    fab = _star(seed=4)
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(fab.stack("c"), 5000)
        out["data"] = yield from conn.recv_bytes(30_000, waitall=True)

    def client():
        conn = yield from BlockingSocket.connect(fab.stack("a"), 5000, to="c")
        yield from conn.send_bytes(b"z" * 30_000)

    run_procs(fab.sim, server(), client())
    assert out["data"] == b"z" * 30_000
    # the payload crossed both access links through the hub
    hub = fab.switches["switch0"]
    assert hub.ports["c"].forwarded_bytes >= 30_000


def test_switched_runs_are_deterministic():
    def once():
        fab = _star(seed=9)
        pair = fab.connect("a", "c")
        fab.run()
        return fab.now, fab.sim.calendar_stats()["events_executed"]

    assert once() == once()


# ----------------------------------------------------------------------
# per-edge fault addressing
# ----------------------------------------------------------------------
def test_fault_profile_applies_to_every_edge():
    fab = _star(faults=FaultProfile(drop_prob=0.1))
    assert set(fab.impairments) == {"a-switch0", "b-switch0", "c-switch0"}
    assert fab.reliability is not None  # auto-derived for the lossy fabric


def test_per_edge_fault_dict_targets_one_edge():
    fab = _star(faults={"c-switch0": FaultProfile(drop_prob=0.2)})
    assert set(fab.impairments) == {"c-switch0"}
    assert fab.impairments["c-switch0"]._dirs[0].profile.drop_prob == 0.2


def test_per_edge_fault_unknown_edge_fails_eagerly():
    with pytest.raises(ValueError, match="unknown edge"):
        _star(faults={"a-b": FaultProfile(drop_prob=0.2)})


def test_per_edge_fault_wrong_value_type():
    with pytest.raises(TypeError, match="must be a FaultProfile"):
        _star(faults={"a-switch0": 0.5})


def test_prebuilt_impairment_model_rejected_on_multi_host():
    model = ImpairmentModel(FaultProfile(drop_prob=0.1), seed=1)
    with pytest.raises(ValueError, match="two-host wire"):
        _star(faults=model)


def test_lossy_switched_transfer_recovers():
    fab = _star(seed=6, faults={"c-switch0": FaultProfile(drop_prob=0.05)})
    out = {}

    def server():
        conn = yield from BlockingSocket.accept_one(fab.stack("c"), 5000)
        out["data"] = yield from conn.recv_bytes(40_000, waitall=True)

    def client():
        conn = yield from BlockingSocket.connect(fab.stack("a"), 5000, to="c")
        yield from conn.send_bytes(b"r" * 40_000)

    run_procs(fab.sim, server(), client(), max_events=20_000_000)
    assert out["data"] == b"r" * 40_000


# ----------------------------------------------------------------------
# ScenarioConfig integration
# ----------------------------------------------------------------------
def test_scenario_round_trips_topology_and_scale_knobs():
    sc = ScenarioConfig(
        seed=2,
        topology=Topology.star(
            ["a", "b", "c"],
            switch=SwitchConfig(policy="backpressure", port_queue_bytes=8192),
        ),
        faults={"a-switch0": FaultProfile(drop_prob=0.01)},
        srq_depth=64,
        cq_shards=2,
    )
    rt = ScenarioConfig.from_dict(sc.to_dict())
    assert rt.topology == sc.topology
    assert rt.srq_depth == 64 and rt.cq_shards == 2
    assert rt.faults == {"a-switch0": FaultProfile(drop_prob=0.01)}


def test_scenario_validates_fabric_knobs():
    with pytest.raises(ValueError, match="topology"):
        ScenarioConfig(faults={"a-switch0": FaultProfile(drop_prob=0.1)})
    with pytest.raises(ValueError, match="unknown edge"):
        ScenarioConfig(topology=Topology.star(["a", "b", "c"]),
                       faults={"zz": FaultProfile(drop_prob=0.1)})
    with pytest.raises(ValueError):
        ScenarioConfig(srq_depth=0)
    with pytest.raises(ValueError):
        ScenarioConfig(cq_shards=-1)


def test_from_scenario_builds_the_described_topology():
    sc = ScenarioConfig(seed=1, topology=Topology.star(["a", "b", "c"]))
    fab = Fabric.from_scenario(sc)
    assert isinstance(fab, Fabric)
    assert fab.host_names == ("a", "b", "c")
    assert "switch0" in fab.switches
