"""The parallel sweep runner: ordering, failure propagation, determinism.

The headline guarantee is the last test: a Fig. 12 blast configuration run
serially and through the multiprocessing sweep runner produces bit-identical
simulated results — timings, byte counts, and mode-switch counts.
"""

import dataclasses
import os

import pytest

from repro.apps.blast import BlastConfig, run_blast
from repro.apps.workloads import FixedSizes, KIB
from repro.bench.experiment import SMOKE, run_grid, run_repeated
from repro.bench.profiles import FDR_INFINIBAND
from repro.config import ScenarioConfig
from repro.core import ProtocolMode
from repro.sweep import SweepError, default_seeds, processes_from_env, run_sweep


# module-level workers so they pickle into pool processes
def _double(config, seed):
    return (config * 2, seed)


def _boom_on_two(config, seed):
    if config == 2:
        raise ValueError("exploded on purpose")
    return config


def _fig12_like_config(size=32 * KIB, messages=24):
    """A scaled-down Fig. 12 point (dynamic protocol, recv 4 / send 2)."""
    return BlastConfig(
        total_messages=messages,
        sizes=FixedSizes(size),
        outstanding_sends=2,
        outstanding_recvs=4,
        recv_buffer_bytes=max(size, 4096),
        mode=ProtocolMode.DYNAMIC,
    )


def _blast_fingerprint(result):
    """Every numeric field of a BlastResult, recursively, for exact compare."""
    out = {}
    for f in dataclasses.fields(result):
        v = getattr(result, f.name)
        if dataclasses.is_dataclass(v) and f.name != "config":
            out[f.name] = dataclasses.astuple(v)
        elif isinstance(v, (int, float, list, tuple)):
            out[f.name] = v
    return out


# ---------------------------------------------------------------------------
# run_sweep mechanics
# ---------------------------------------------------------------------------
def test_results_come_back_in_config_order_serial():
    assert run_sweep([3, 1, 2], _double, processes=1) == [(6, 1), (2, 2), (4, 3)]


def test_results_come_back_in_config_order_parallel():
    configs = list(range(20))
    expected = [(c * 2, s) for c, s in zip(configs, default_seeds(20))]
    assert run_sweep(configs, _double, processes=4) == expected


def test_explicit_seeds_are_used():
    assert run_sweep([10, 20], _double, processes=1, seeds=[7, 9]) == [(20, 7), (40, 9)]


def test_seed_config_length_mismatch_rejected():
    with pytest.raises(ValueError, match="2 configs but 3 seeds"):
        run_sweep([1, 2], _double, seeds=[1, 2, 3])


@pytest.mark.parametrize("processes", [1, 3])
def test_failure_propagates_with_context(processes):
    with pytest.raises(SweepError, match="exploded on purpose") as info:
        run_sweep([1, 2, 3], _boom_on_two, processes=processes)
    assert info.value.index == 1
    assert info.value.config == 2
    assert info.value.seed == 2


def test_empty_sweep():
    assert run_sweep([], _double) == []


def test_processes_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_SWEEP_PROCESSES", raising=False)
    assert processes_from_env(default=1) == 1
    monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "3")
    assert processes_from_env() == 3
    monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "auto")
    assert processes_from_env() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "nonsense")
    assert processes_from_env(default=2) == 2


# ---------------------------------------------------------------------------
# determinism regression: serial == sweep runner, run to run
# ---------------------------------------------------------------------------
def test_fig12_config_bit_identical_serial_vs_sweep():
    """A Fig. 12 blast config run twice — once serially, once through the
    parallel sweep runner — yields identical simulated timings, byte
    counts, and mode-switch counts (and every other numeric output)."""
    cfg = _fig12_like_config()

    scenario = ScenarioConfig(profile=FDR_INFINIBAND)
    serial = run_repeated(cfg, SMOKE, scenario=scenario, processes=1)
    swept = run_repeated(cfg, SMOKE, scenario=scenario, processes=2)

    assert len(serial.runs) == len(swept.runs) == len(SMOKE.seeds)
    for a, b in zip(serial.runs, swept.runs):
        fa, fb = _blast_fingerprint(a), _blast_fingerprint(b)
        assert fa == fb
        # the claims called out in the issue, asserted explicitly:
        assert (a.start_ns, a.end_ns) == (b.start_ns, b.end_ns)
        assert a.total_bytes == b.total_bytes
        assert a.mode_switches == b.mode_switches
    assert serial.throughput_bps == swept.throughput_bps
    assert serial.mode_switches == swept.mode_switches


def test_fig12_config_repeatable_in_process():
    """Same config, same seed, twice in one process: identical results
    (no hidden global state leaks into the simulation)."""
    cfg = _fig12_like_config(messages=16)
    a = run_blast(cfg, scenario=ScenarioConfig(profile=FDR_INFINIBAND, seed=3))
    b = run_blast(cfg, scenario=ScenarioConfig(profile=FDR_INFINIBAND, seed=3))
    assert _blast_fingerprint(a) == _blast_fingerprint(b)


def test_run_grid_groups_results_per_config():
    cfgs = [_fig12_like_config(messages=12),
            _fig12_like_config(size=8 * KIB, messages=12)]
    aggs = run_grid(cfgs, SMOKE, scenario=ScenarioConfig(profile=FDR_INFINIBAND),
                    processes=2)
    assert len(aggs) == 2
    for agg in aggs:
        assert len(agg.runs) == len(SMOKE.seeds)
    # second config has smaller messages -> lower throughput
    assert aggs[1].throughput_bps.mean < aggs[0].throughput_bps.mean
