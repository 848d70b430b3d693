"""Tests of the benchmark itself: python -m pytest perfbench -q

They run shrunken copies of the workloads, so the whole file takes seconds.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class SmallBlast(workloads.BlastWorkload):
    messages = 40


class SmallLossy(workloads.LossyObservedWorkload):
    runs = 2
    messages = 60


class SmallIncast(workloads.Incast4kWorkload):
    senders = 2
    per_sender = 4


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "blast", SmallBlast)
    monkeypatch.setitem(workloads.WORKLOADS, "lossy_observed", SmallLossy)
    monkeypatch.setitem(workloads.WORKLOADS, "incast_4k", SmallIncast)


def _bench(name, trace, **kw):
    return run.run_benchmark(name, 3, 0.3, trace, out=io.StringIO(), **kw)


def _modules():
    root = os.path.join(SRC, "repro")
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            if f.endswith((".py", ".c")):
                yield os.path.relpath(os.path.join(dirpath, f), root).replace(os.sep, "/")


def test_every_module_maps_to_exactly_one_layer():
    prefixes = list(layers.PACKAGE_RULES)
    for a in prefixes:
        assert not any(b != a and b.startswith(a) for b in prefixes), a
    assert set(layers.FILE_RULES.values()) <= set(layers.LAYERS)
    assert set(layers.PACKAGE_RULES.values()) <= set(layers.LAYERS)
    seen = set()
    for module in _modules():
        package_hits = [p for p in prefixes if module.startswith(p)]
        assert len(package_hits) <= 1, module
        assert layers.layer_of_module(module) in layers.LAYERS, module
        seen.add(layers.layer_of_module(module))
    assert seen == set(layers.LAYERS)
    # reassigned definitions must still exist where the rule says
    for module, names in layers.DEFINITION_RULES.items():
        path = os.path.join(SRC, "repro", module)
        if os.path.exists(path):
            found = {layer for _a, _b, layer in layers.definition_ranges(path, names)}
            assert len(layers.definition_ranges(path, names)) == len(names), module
            assert found <= set(layers.LAYERS)


def test_attribution_charges_foreign_time_to_callers():
    lm = layers.LayerMap(SRC)
    repro = os.path.join(SRC, "repro")
    kernel = (os.path.join(repro, "simnet", "kernel.py"), 10, "run")
    exs = (os.path.join(repro, "exs", "connection.py"), 10, "pump")
    builtin = ("~", 0, "<built-in method len>")
    accel = ("~", 0, "<built-in method _cbatch_run>")
    assert lm.owner(kernel) == "simnet.calendar"
    assert lm.owner(builtin) is None
    if layers.accelerator_names(SRC):
        assert lm.owner(accel) == "simnet.calendar"
    stats = {
        kernel: (1, 1, 1.0, 4.0, {}),
        exs: (5, 5, 2.0, 3.0, {kernel: (5, 5, 2.0, 3.0)}),
        builtin: (9, 9, 0.9, 0.9, {kernel: (3, 3, 0.3, 0.3), exs: (6, 6, 0.6, 0.6)}),
    }
    self_s, calls = layers.attribute(stats, lm)
    assert self_s["simnet.calendar"] == pytest.approx(1.3)
    assert self_s["exs"] == pytest.approx(2.6)
    assert calls["exs"] == 5 and calls["simnet.calendar"] == 0


def test_refuses_behaviour_changing_environment():
    with pytest.raises(SystemExit):
        run.prepare_environment({"REPRO_KERNEL": "heap"})
    env = {"REPRO_KERNEL": ""}
    run.prepare_environment(env)
    assert env["REPRO_ACCEL_CACHE"].startswith(ROOT)


def test_every_metric_printed_with_name_and_unit(small, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_ACCEL_CACHE", "")
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", ""))
    for name in run.REFUSED_ENV:
        monkeypatch.delenv(name, raising=False)
    for trace, spec in (("0", run.END_TO_END), ("1", run.per_layer_spec())):
        code = run.main(["--workload", "lossy_observed", "--seed", "2",
                         "--seconds", "0.3", "--trace", trace])
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"] is True
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert [(n, u) for n, u, _b in spec] == [
            (n, m["unit"]) for n, m in result["metrics"].items()]
        table = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
        for name, unit, _better in spec:
            assert table[name] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float))


def test_forced_failure_is_counted(small):
    result = _bench("blast", False, max_events=50)
    assert result["correct"] is False
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["delivered_frac"]["value"] == 0.0


@pytest.mark.parametrize("name", ["blast", "incast_4k", "lossy_observed"])
def test_batches_repeat_exactly(small, name):
    runner = run.Runner(workloads.WORKLOADS[name](), 5, out=io.StringIO())
    first = runner.batch()
    second = runner.batch()
    assert not runner.errors
    assert first.fingerprint == second.fingerprint
    assert first.counts == second.counts
    other = workloads.WORKLOADS[name]().run_batch(6)
    assert other.fingerprint != first.fingerprint


def test_traced_run_separates_layers(small):
    metrics = {name: _bench(name, True)["metrics"]
               for name in ("blast", "incast_4k", "lossy_observed")}
    v = {name: {k: m["value"] for k, m in ms.items()} for name, ms in metrics.items()}
    assert v["lossy_observed"]["obs.self_s"] > 0
    assert v["blast"]["obs.self_s"] == v["incast_4k"]["obs.self_s"] == 0
    for layer in ("exs.shard", "simnet.switch"):
        assert v["incast_4k"][f"{layer}.self_s"] > 0
        assert v["blast"][f"{layer}.self_s"] == v["lossy_observed"][f"{layer}.self_s"] == 0
    for name in v:
        assert v[name]["trace.overhead"] > 1.0
        assert sum(v[name][f"{layer}.share"] for layer in layers.LAYERS) == pytest.approx(1.0)


def test_audit_runs_clean(small):
    runner = run.Runner(SmallIncast(), 1, out=io.StringIO())
    runner.batch(count=False)
    runner.audit()
    assert not runner.errors


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.per_layer_spec())


def test_exits_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
