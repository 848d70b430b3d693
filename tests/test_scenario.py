"""ScenarioConfig: round-trips, validation, and being the only run input."""

from __future__ import annotations

import json

import pytest

from repro.apps.blast import BlastConfig, run_blast
from repro.apps.workloads import FixedSizes
from repro.bench.profiles import PROFILES
from repro.config import ScenarioConfig
from repro.simnet import FaultProfile, ImpairmentModel, Topology
from repro.simnet.schedule import FifoPolicy, RandomTiebreakPolicy
from repro.testbed import Testbed
from repro.verbs import ReliabilityConfig

CFG = BlastConfig(total_messages=6, sizes=FixedSizes(32 * 1024),
                  outstanding_sends=2, outstanding_recvs=2)


# ---------------------------------------------------------------------------
# the value object
# ---------------------------------------------------------------------------
def test_round_trip_through_json():
    scenario = ScenarioConfig(
        profile="roce-wan",
        seed=11,
        faults=FaultProfile(drop_prob=0.02),
        reliability=ReliabilityConfig(retry_timeout_ns=100_000),
        schedule=("random", 9),
        telemetry=True,
        telemetry_dir="/tmp/somewhere",
        max_events=123,
    )
    back = ScenarioConfig.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert back == scenario


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown profile"):
        ScenarioConfig(profile="infiniband-9000")


def test_bad_schedule_spec_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(schedule=("lifo", 0))


def test_schedule_policy_resolution():
    assert ScenarioConfig().schedule_policy() is None
    assert isinstance(ScenarioConfig(schedule=("fifo", 0)).schedule_policy(), FifoPolicy)
    policy = ScenarioConfig(schedule=("random", 4)).schedule_policy()
    assert isinstance(policy, RandomTiebreakPolicy)
    assert policy.seed == 4


def test_with_copies_and_overrides():
    base = ScenarioConfig(seed=1)
    derived = base.with_(seed=2, schedule=("random", 3))
    assert derived.seed == 2 and derived.schedule == ("random", 3)
    assert base.seed == 1 and base.schedule is None


def test_unregistered_adhoc_profile_does_not_serialize():
    profile = PROFILES["fdr"]
    import dataclasses

    adhoc = dataclasses.replace(profile, name="adhoc-custom")
    scenario = ScenarioConfig(profile=adhoc)
    assert scenario.resolve_profile() is adhoc
    with pytest.raises(ValueError, match="not registered"):
        scenario.to_dict()


def test_prebuilt_impairment_model_does_not_serialize():
    model = ImpairmentModel(FaultProfile(drop_prob=0.1), seed=1)
    with pytest.raises(ValueError, match="faults"):
        ScenarioConfig(faults=model).to_dict()
    per_edge = ScenarioConfig(topology=Topology.star(["a", "b", "c"]),
                              faults={"a-switch0": model})
    with pytest.raises(ValueError, match="faults"):
        per_edge.to_dict()


def test_prebuilt_impairment_model_runs_with_flight_recorder():
    """Down windows and asymmetry need a pre-built ImpairmentModel; the
    flight recorder then dumps its artifact without the scenario."""
    model = ImpairmentModel(FaultProfile(), seed=1)
    tb = Testbed.from_scenario(ScenarioConfig(faults=model, flight_recorder=64))
    assert tb.impairment is model
    assert tb.causal is not None and tb.causal.scenario is None


# ---------------------------------------------------------------------------
# the scenario is the only description of a run
# ---------------------------------------------------------------------------
def test_testbed_from_scenario_does_not_warn(recwarn):
    Testbed.from_scenario(ScenarioConfig(seed=5))
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


def test_testbed_rejects_scenario_plus_knobs():
    for knobs in ({"seed": 5}, {"profile": PROFILES["fdr"]},
                  {"reliability": ReliabilityConfig()}, {"schedule_policy": None}):
        with pytest.raises(TypeError):
            Testbed(ScenarioConfig(), **knobs)
    with pytest.raises(TypeError):
        Testbed(seed=5)


def test_legacy_testbed_matches_scenario_testbed():
    """A caller-built testbed runs the blast its scenario describes."""
    built = run_blast(CFG, testbed=Testbed.from_scenario(ScenarioConfig(seed=5)))
    modern = run_blast(CFG, scenario=ScenarioConfig(seed=5))
    assert built.total_bytes == modern.total_bytes
    assert built.end_ns == modern.end_ns


def test_run_blast_scenario_does_not_warn(recwarn):
    run_blast(CFG, scenario=ScenarioConfig(seed=5))
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


def test_run_blast_rejects_scenario_plus_knobs():
    for knobs in ({"seed": 5}, {"profile": PROFILES["fdr"]}, {"telemetry": True}):
        with pytest.raises(TypeError):
            run_blast(CFG, scenario=ScenarioConfig(), **knobs)
        with pytest.raises(TypeError):
            run_blast(CFG, **knobs)
    with pytest.raises(TypeError):
        run_blast(CFG, PROFILES["fdr"])


def test_scenario_telemetry_dir_writes_without_env(tmp_path):
    scenario = ScenarioConfig(seed=5, telemetry_dir=str(tmp_path / "artifacts"))
    run_blast(CFG, scenario=scenario)
    assert list((tmp_path / "artifacts").glob("*.jsonl"))
