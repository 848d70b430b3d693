"""Telemetry observes, never perturbs: results are bit-identical either way."""

from repro.apps import BlastConfig, ExponentialSizes, run_blast
from repro.bench.experiment import SMOKE, run_grid
from repro.config import ScenarioConfig
from repro.obs import load_jsonl
from repro.testbed import Testbed


def fingerprint(result):
    return (
        result.total_bytes, result.start_ns, result.end_ns,
        result.throughput_bps, result.sender_cpu, result.receiver_cpu,
        result.tx_stats.direct_transfers, result.tx_stats.indirect_transfers,
        result.tx_stats.direct_bytes, result.tx_stats.indirect_bytes,
        result.tx_stats.mode_switches, result.rx_stats.copies,
        tuple(result.send_latencies_ns),
    )


def test_results_identical_with_telemetry_on_and_off():
    cfg = BlastConfig(total_messages=120, sizes=ExponentialSizes(seed=6))
    plain = run_blast(cfg, scenario=ScenarioConfig(seed=6))
    observed = run_blast(cfg, scenario=ScenarioConfig(seed=6, telemetry=True))
    assert fingerprint(plain) == fingerprint(observed)


def test_sampling_interval_does_not_change_results():
    cfg = BlastConfig(total_messages=60, sizes=ExponentialSizes(seed=9))
    runs = []
    for interval in (10_000, 1_000_000):
        tb = Testbed.from_scenario(ScenarioConfig(seed=9))
        tb.attach_telemetry(sample_interval_ns=interval)
        runs.append(run_blast(cfg, testbed=tb))
    assert fingerprint(runs[0]) == fingerprint(runs[1])


def test_telemetry_attach_is_reported_on_testbed():
    tb = Testbed.from_scenario(ScenarioConfig(seed=1))
    assert tb.telemetry is None
    tel = tb.attach_telemetry()
    assert tb.telemetry is tel
    assert tb.host("client").telemetry is tel
    assert tb.host("server").telemetry is tel
    assert tb.host("client").tracer is tel.tracer


def test_finish_is_idempotent():
    cfg = BlastConfig(total_messages=20, sizes=ExponentialSizes(seed=3))
    tb = Testbed.from_scenario(ScenarioConfig(seed=3))
    tel = tb.attach_telemetry()
    run_blast(cfg, testbed=tb)
    spans = tel.finish(scenario="x")
    again = tel.finish()
    assert again is spans
    # stage histograms were not double-observed
    assert tel.registry.get_histogram("span.e2e_ns").count == len(spans)


def test_env_var_emits_artifacts_from_sweep_workers(tmp_path):
    """``scenario.telemetry_dir`` (the former ``REPRO_TELEMETRY_DIR``)
    reaches sweep workers inside the pickled work unit."""
    cfg = BlastConfig(total_messages=40, sizes=ExponentialSizes(seed=1))
    run_grid([cfg], SMOKE, processes=2,
             scenario=ScenarioConfig(telemetry_dir=str(tmp_path)))
    files = sorted(tmp_path.glob("*.jsonl"))
    assert len(files) == len(SMOKE.seeds)
    for f in files:
        with f.open() as fh:
            art = load_jsonl(fh)
        assert art.meta["scenario"] == "blast"
        assert art.spans and all(s.complete for s in art.spans)
