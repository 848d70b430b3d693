"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload blast --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``).  The
run is single-process and single-threaded:

1. one untimed warm-up batch (imports, the C accelerator cache under
   ``.bench_build/``, allocator freelists); its simulated outputs and work
   counters are the reference every later batch of the seed must repeat;
2. ``--trace 0``: timed batches until ``--seconds`` have passed; prints the
   end-to-end metrics (medians over the batches);
   ``--trace 1``: untimed-by-profiler batches for a third of the time, then
   batches under ``cProfile`` for the rest; prints the per-layer metrics,
   the work ledger and the tracing overhead;
3. one audited batch (protocol trace + ``repro.check.audit``) that must
   report zero violations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: behaviour-changing environment variables the runner refuses to run under
REFUSED_ENV = (
    "REPRO_KERNEL",
    "REPRO_KERNEL_C",
    "REPRO_TRANSPORT",
    "REPRO_RELIABILITY_MODE",
    "REPRO_TELEMETRY_DIR",
    "REPRO_ZC_DEBUG",
    "REPRO_BENCH_QUALITY",
)

#: (name, unit, better) of every metric printed with --trace 0
END_TO_END = (
    ("msgs_per_s", "msgs/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_goodput_gbps", "Gb/s", "higher"),
    ("sim_latency_p50_us", "us", "lower"),
    ("sim_latency_p99_us", "us", "lower"),
    ("delivered_frac", "ratio", "higher"),
)

#: (name, unit, better) of the deterministic work ledger
LEDGER = (
    ("simnet.events_per_msg", "events/msg", "lower"),
    ("simnet.host_ns_per_event", "ns", "lower"),
    ("simnet.link.frames_per_msg", "frames/msg", "lower"),
    ("simnet.link.wire_bytes_per_byte", "B/B", "lower"),
    ("simnet.link.fault_drops", "count", "lower"),
    ("simnet.switch.peak_queue_bytes", "B", "lower"),
    ("simnet.switch.backpressured", "count", "lower"),
    ("verbs.wrs_per_msg", "WRs/msg", "lower"),
    ("verbs.cqes_per_msg", "CQEs/msg", "lower"),
    ("verbs.acks_per_msg", "acks/msg", "lower"),
    ("verbs.reliability.retransmits_per_msg", "frames/msg", "lower"),
    ("verbs.reliability.useful_frame_ratio", "ratio", "higher"),
    ("verbs.srq.empty_hits", "count", "lower"),
    ("verbs.srq.min_free", "slots", "higher"),
    ("exs.control_msgs_per_msg", "msgs/msg", "lower"),
    ("exs.direct_ratio", "ratio", "higher"),
    ("exs.mode_switches", "count", "lower"),
    ("exs.advert_use_ratio", "ratio", "higher"),
    ("exs.shard.wcs_per_round", "WCs/round", "higher"),
    ("hosts.copied_bytes_per_byte", "B/B", "lower"),
    ("hosts.cpu_busy_ns_per_msg", "ns/msg", "lower"),
    ("obs.samples", "count", "lower"),
    ("obs.flight_records", "count", "lower"),
)


def per_layer_spec():
    """(name, unit, better) of every metric printed with --trace 1."""
    from layers import LAYERS

    spec = []
    for layer in LAYERS:
        spec += [
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "ratio", "lower"),
            (f"{layer}.calls", "count", "lower"),
        ]
    spec += list(LEDGER)
    spec.append(("trace.overhead", "x", "lower"))
    return tuple(spec)


def prepare_environment(environ) -> None:
    """Refuse behaviour-changing settings; keep build outputs in the checkout.

    The C accelerator is compiled into ``.bench_build/accel`` and the
    compiler's temporary files go to ``.bench_build/tmp``.
    """
    bad = [name for name in REFUSED_ENV if environ.get(name, "").strip()]
    if bad:
        raise SystemExit(f"perfbench: refusing to run with {', '.join(bad)} set")
    build = os.path.join(ROOT, ".bench_build")
    environ["REPRO_ACCEL_CACHE"] = os.path.join(build, "accel")
    environ["TMPDIR"] = os.path.join(build, "tmp")


def import_program() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")
    # the benchmark may only use current spellings: repro's deprecation
    # shims all point at docs/API.md
    warnings.filterwarnings("error", message=r".*docs/API\.md",
                            category=DeprecationWarning)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of *values* (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(n: int) -> float:
    """Highest percentile up to 99 that leaves at least 10 samples beyond it."""
    if n <= 10:
        return 100.0
    return min(99.0, 100.0 * (1.0 - 10.0 / n))


def ledger(batch, run_times) -> dict:
    """Normalised work ledger of one batch (deterministic but for host time)."""
    c = batch.counts
    msgs = max(1, batch.messages)
    nbytes = max(1, batch.bytes_delivered)
    host_ns = statistics.median(run_times) * 1e9 if run_times else 0.0
    return {
        "simnet.events_per_msg": c["events"] / msgs,
        "simnet.host_ns_per_event": host_ns / max(1, c["events"]),
        "simnet.link.frames_per_msg": c["frames"] / msgs,
        "simnet.link.wire_bytes_per_byte": c["wire_bytes"] / nbytes,
        "simnet.link.fault_drops": c["fault_drops"],
        "simnet.switch.peak_queue_bytes": c["switch_peak_queue_bytes"],
        "simnet.switch.backpressured": c["switch_backpressured"],
        "verbs.wrs_per_msg": c["wrs"] / msgs,
        "verbs.cqes_per_msg": c["cqes"] / msgs,
        "verbs.acks_per_msg": c["acks"] / msgs,
        "verbs.reliability.retransmits_per_msg": c["retransmits"] / msgs,
        "verbs.reliability.useful_frame_ratio":
            1.0 - c["retransmits"] / c["data_frames"] if c["data_frames"] else 1.0,
        "verbs.srq.empty_hits": c["srq_empty_hits"],
        "verbs.srq.min_free": c["srq_min_free"],
        "exs.control_msgs_per_msg": c["control_msgs"] / msgs,
        "exs.direct_ratio": c["direct"] / c["transfers"] if c["transfers"] else 0.0,
        "exs.mode_switches": c["mode_switches"],
        "exs.advert_use_ratio":
            1.0 - c["adverts_discarded"] / c["adverts_received"]
            if c["adverts_received"] else 1.0,
        "exs.shard.wcs_per_round":
            c["shard_wcs"] / c["shard_rounds"] if c["shard_rounds"] else 0.0,
        "hosts.copied_bytes_per_byte": c["copied_bytes"] / nbytes,
        "hosts.cpu_busy_ns_per_msg": c["cpu_busy_ns"] / msgs,
        "obs.samples": c["obs_samples"],
        "obs.flight_records": c["flight_records"],
    }


class Runner:
    """Runs batches of one workload and keeps the failure accounting."""

    def __init__(self, workload, seed: int, *, max_events=None, out=sys.stderr) -> None:
        self.workload = workload
        self.seed = seed
        self.max_events = max_events
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None

    def log(self, text: str) -> None:
        print(text, file=self.out, flush=True)

    def batch(self, *, count=True, audit=False, profiler=None):
        """Run one batch; returns it, or ``None`` if it raised.

        A batch that raises counts all of its messages as failed.  Every
        batch is checked against the reference (the first good batch):
        identical simulated outputs and identical work counters.
        """
        if count:
            self.attempted += self.workload.batch_messages()
        gc.collect()
        try:
            b = self.workload.run_batch(self.seed, audit=audit, profiler=profiler,
                                        max_events=self.max_events)
        except Exception:
            if count:
                self.failed += self.workload.batch_messages()
            self.error("batch raised:\n" + traceback.format_exc(limit=4))
            return None
        for problem in b.errors:
            self.error(problem)
        ref = self.reference
        if ref is None:
            self.reference = b
        else:
            if b.fingerprint != ref.fingerprint:
                self.error(f"fingerprint {b.fingerprint} differs from {ref.fingerprint}")
            for key, value in ref.counts.items():
                if b.counts.get(key) != value:
                    self.error(f"work counter {key} not repeated: {value} then "
                               f"{b.counts.get(key)}")
        return b

    def error(self, text: str) -> None:
        if len(self.errors) < 20:
            self.log("ERROR " + text)
        self.errors.append(text)

    def timed(self, seconds: float, *, profiler=None):
        """Batches until *seconds* of wall time have passed (at least one
        good batch, unless every batch in that time raised)."""
        done = []
        start = time.perf_counter()
        while not done or time.perf_counter() - start < seconds:
            b = self.batch(profiler=profiler)
            if b is not None:
                done.append(b)
                self.log(f"batch {len(done)}: set-up {b.setup_s:.4f}s run {b.run_s:.4f}s")
            elif time.perf_counter() - start >= seconds:
                break
        return done

    def audit(self) -> None:
        b = self.batch(count=False, audit=True)
        if b is not None and b.violations:
            self.error(f"audit found {b.violations} protocol violations")
        if b is not None:
            self.log(f"audit: {b.violations} violations, fingerprint {b.fingerprint}")


def end_to_end_metrics(runner: Runner, batches) -> dict:
    ref = runner.reference
    values = dict.fromkeys((name for name, _u, _b in END_TO_END), 0.0)
    values["delivered_frac"] = 1.0 - runner.failed / max(1, runner.attempted)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if batches:
        values["msgs_per_s"] = statistics.median(b.messages / b.run_s for b in batches)
        values["setup_s"] = statistics.median(b.setup_s for b in batches)
    if ref is not None:
        lat = ref.latencies_ns
        values["sim_goodput_gbps"] = ref.bytes_delivered * 8 / max(1, ref.window_ns)
        values["sim_latency_p50_us"] = percentile(lat, 50) / 1e3
        values["sim_latency_p99_us"] = percentile(lat, tail_percentile(len(lat))) / 1e3
        runner.log(f"latency samples {len(lat)}, tail percentile "
                   f"p{tail_percentile(len(lat)):g}; fingerprint {ref.fingerprint}")
    return values


def per_layer_metrics(runner: Runner, plain, traced, profiler, layer_map) -> dict:
    from layers import LAYERS, attribute

    values = {}
    if traced:
        profiler.create_stats()
        self_s, calls = attribute(profiler.stats, layer_map)
        total = sum(self_s.values()) or 1.0
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self_s[layer] / len(traced)
            values[f"{layer}.share"] = self_s[layer] / total
            values[f"{layer}.calls"] = calls[layer] / len(traced)
    else:
        for layer in LAYERS:
            values.update({f"{layer}.self_s": 0.0, f"{layer}.share": 0.0,
                           f"{layer}.calls": 0.0})
    if runner.reference is not None:
        values.update(ledger(runner.reference, [b.run_s for b in plain]))
    else:
        values.update(dict.fromkeys((name for name, _u, _b in LEDGER), 0.0))
    if plain and traced:
        untraced = statistics.median(b.setup_s + b.run_s for b in plain)
        values["trace.overhead"] = statistics.median(
            b.setup_s + b.run_s for b in traced) / untraced
    else:
        values["trace.overhead"] = 0.0
    return values


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, *,
                  max_events=None, out=sys.stderr) -> dict:
    """Run one workload and return the result object the CLI prints."""
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[name](), seed, max_events=max_events, out=out)
    t0 = time.perf_counter()
    runner.batch(count=False)  # warm-up and reference
    runner.log(f"warm-up batch {time.perf_counter() - t0:.2f}s")
    if not trace:
        batches = runner.timed(seconds)
        runner.log(f"{len(batches)} timed batches")
        metrics = end_to_end_metrics(runner, batches)
        spec = END_TO_END
    else:
        import cProfile

        from layers import LayerMap

        plain = runner.timed(seconds / 3.0)
        profiler = cProfile.Profile()
        traced = runner.timed(seconds * 2.0 / 3.0, profiler=profiler)
        runner.log(f"{len(plain)} untraced and {len(traced)} traced batches")
        metrics = per_layer_metrics(runner, plain, traced, profiler, LayerMap(SRC))
        spec = per_layer_spec()
    runner.audit()
    return {
        "correct": not runner.errors and runner.reference is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u, _b in spec},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("blast", "incast_4k", "lossy_observed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_environment(os.environ)
    import_program()
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    sys.path.insert(0, HERE)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, entry in result["metrics"].items():
        print(f"{name:42s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
