"""One workload in one fresh process: set up, run the closed loop, report.

run.py starts this script with PYTHONPATH pointing at the checkout's src/
and passes --t0, its monotonic clock reading just before the spawn. The
last line of stdout is one JSON object for run.py to merge; it is not the
benchmark's result line.

Set-up time is the span from --t0 until `import cubelike` (and this
script's own small modules) has finished, plus the busy time of the
warm-up ops. The warm-up inputs come from their own seeded stream, and
their generation and checks are not counted. Warm-up is needed because the
first BLAS-backed call pays for the library's thread start-up.
"""

from __future__ import annotations

import argparse
import array
import itertools
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import machine
from tracing import Tracer, layer_summary, op_time_without_probes, summarise
from workloads import WORKLOADS, Margins

TIMED_LAYERS = (
    "spectral_engine.normalize",
    "spectral_engine.fwht",
    "spectral_engine.eigenvalues",
    "spectral_engine.adjacency",
    "pst_analyzer.classify",
    "pst_analyzer.sigma_from_weights",
    "pst_analyzer.sigma_from_spectrum",
    "walk_oracle.verify",
    "walk_oracle.transition_taylor",
    "walk_oracle.transition_spectral_quarter",
    "walk_oracle.transition_spectral_exp",
    "walk_oracle.fidelity",
    "eigenbasis_builder.walsh_basis",
    "eigenbasis_builder.select_index_set",
    "eigenbasis_builder.reconstruct",
    "boolean_domain.sign_matrix",
    "cli.import",
    "cli.main",
)
# Layer times derived from several spans; calls and errors belong to their composite.
DERIVED_LAYERS = ("pst_analyzer.classify_self", "walk_oracle.verify_self", "cli.process_overhead")
COUNT_UNITS = {
    "spectral_engine.fwht_ops": "count",
    "spectral_engine.fwht_bytes": "B",
    "walk_oracle.dense_bytes": "B",
}
# Share of --seconds given to the untraced phase of a traced run; the
# traced phase then replays the same inputs.
UNTRACED_SHARE = 0.5
# Which window of a run end_to_end reads throughput and p50 from, as a
# quantile of the windows ranked from fastest to slowest.
SLOW_WINDOW_QUANTILE = 0.8
TAIL_WINDOW_OPS = 1000
MAX_REPORTED_FAILURES = 5


class Loop:
    """Runs ops on an input stream, checking each; keeps latencies and failures."""

    def __init__(self, workload, tracer: Tracer):
        self.workload = workload
        self.tracer = tracer
        self.margins = Margins()
        # Seconds per op; a flat array keeps the benchmark's own memory small
        # next to the package's in peak_rss_mb.
        self.latencies = array.array("d")
        self.attempted = 0
        self.failed = 0

    def run(self, inputs, seconds: float | None = None, limit: int | None = None) -> None:
        start = time.monotonic()
        for i, x in enumerate(inputs):
            if limit is not None and i >= limit:
                break
            if seconds is not None and time.monotonic() - start >= seconds:
                break
            self.once(x)

    def once(self, x) -> None:
        self.tracer.op = self.attempted
        self.attempted += 1
        begin = time.perf_counter_ns()
        try:
            try:
                with self.tracer.span("op"):
                    out = self.workload.op(x, self.tracer)
            finally:
                self.latencies.append((time.perf_counter_ns() - begin) / 1e9)
            self.workload.check(x, out, self.margins)
        except Exception:  # a failed op is counted and the loop goes on
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                traceback.print_exc(file=sys.stderr)


def distinct(inputs):
    """Drop any input whose weights already occurred in this stream.

    Only vectors of up to 8 entries are remembered: a longer one has at
    least 16 independent entries of at least 41 values each, so a repeat
    has probability below 1e-25 per pair.
    """
    seen = set()
    for x in inputs:
        z = np.asarray(x.z)
        if z.size <= 8:
            key = z.tobytes()
            if key in seen:
                continue
            seen.add(key)
        yield x


def stream(workload, seed: int, part: int, tiny: bool):
    return distinct(workload.stream(np.random.default_rng([seed, part]), tiny))


def tail(latencies) -> dict:
    """The highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {
        "value_s": ordered[n - 1 - beyond],
        "percentile": 100.0 * (n - beyond) / n,
        "beyond": beyond,
        "samples": n,
    }


def windows(latencies, size: int) -> list:
    """Consecutive windows of `size` ops; a partial last window is dropped."""
    full = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)]
    return full or [latencies]


def end_to_end(workload, loop: Loop) -> tuple[dict, dict]:
    """Throughput and p50 come from one window of ops; the tail from all ops.

    A shared host runs this process at two speeds, switching every few
    seconds; the slow one is about 1.6 times slower and may last for a
    whole run, or be absent from one. A figure pooled over the run, or a
    median over its windows, therefore measures how long the host was slow.
    The window at SLOW_WINDOW_QUANTILE of the windows ranked from fastest to
    slowest sits in the slow level whenever the run spends a fifth of its
    time there, which held in nearly every run measured while this
    benchmark was built; the fastest window did not, because some runs had
    no quiet second. Either level moves with the program's own speed.

    When the chosen window holds at least TAIL_WINDOW_OPS ops (only
    sweep_small's do), the tail is read from it as well. Over a whole run of
    some 80k sub-millisecond ops, the 11th-largest latency is a scheduler
    preemption by another task on the host, and how often those come
    changed from run to run (spread 0.7 over ten runs).
    """
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    # Read before the statistics below allocate anything.
    peak_rss_kib = resource.getrusage(who).ru_maxrss
    parts = sorted(windows(loop.latencies, workload.window), key=lambda w: sum(w) / len(w))
    chosen = parts[round(SLOW_WINDOW_QUANTILE * (len(parts) - 1))]
    tail_info = tail(chosen if len(chosen) >= TAIL_WINDOW_OPS else loop.latencies)
    metrics = {
        "ops_per_s": (len(chosen) / sum(chosen), "1/s"),
        "latency_p50_ms": (statistics.median(chosen) * 1e3, "ms"),
        "latency_tail_ms": (tail_info["value_s"] * 1e3, "ms"),
        "success_rate": (1.0 - loop.failed / loop.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MB"),
    }
    detail = {
        "ops": len(loop.latencies),
        "busy_s": sum(loop.latencies),
        "windows": len(parts),
        "window_ops": workload.window,
        "pooled_ops_per_s": len(loop.latencies) / sum(loop.latencies),
        "pooled_p50_ms": statistics.median(loop.latencies) * 1e3,
        "tail": {k: v for k, v in tail_info.items() if k != "value_s"},
        "error_rate": loop.failed / loop.attempted,
    }
    return metrics, detail


def per_layer(tracer: Tracer, margins: Margins, overhead: float) -> dict:
    layers = summarise(tracer)
    metrics = {}
    for name in TIMED_LAYERS + DERIVED_LAYERS:
        summary = layers.get(name, layer_summary([]))
        metrics[f"{name}.busy_s"] = (summary["busy_s"], "s")
        metrics[f"{name}.p50_ms"] = (summary["p50_ms"], "ms")
        if name in TIMED_LAYERS:
            metrics[f"{name}.calls"] = (summary["calls"], "count")
            metrics[f"{name}.errors"] = (summary["errors"], "count")
    for name, unit in COUNT_UNITS.items():
        values = tracer.counts.get(name, [])
        metrics[name] = (statistics.fmean(values) if values else 0.0, unit)
    metrics["pst_analyzer.pst_share"] = (margins.pst_share, "ratio")
    metrics["walk_oracle.route_delta_max"] = (margins.route_delta_max, "amplitude")
    metrics["walk_oracle.min_fidelity"] = (margins.min_fidelity, "amplitude")
    metrics["walk_oracle.max_leakage"] = (margins.max_leakage, "amplitude")
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=int, required=True, help="spawn time, monotonic ns")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-check sizes")
    args = parser.parse_args(argv)
    imported = time.monotonic_ns()

    workload = WORKLOADS[args.workload]
    warm = Loop(workload, Tracer(False))
    for x in itertools.islice(stream(workload, args.seed, 1, args.tiny), workload.warmup):
        warm.once(x)
    setup_s = (imported - args.t0) / 1e9 + sum(warm.latencies)
    result = {"setup_s": setup_s, "attempted": warm.attempted, "failed": warm.failed}
    if args.tiny:
        result["failed"] += swapped_answers_accepted(workload, args.seed)
    if args.setup_only:
        print(json.dumps(result))
        return 0

    untraced = Loop(workload, Tracer(False))
    if not args.trace:
        untraced.run(stream(workload, args.seed, 0, args.tiny), seconds=args.seconds)
        metrics, detail = end_to_end(workload, untraced)
    else:
        # Same seed, same inputs: the traced phase replays the untraced one.
        untraced.run(stream(workload, args.seed, 0, args.tiny), seconds=args.seconds * UNTRACED_SHARE)
        tracer = Tracer(True)
        traced = Loop(workload, tracer)
        traced.run(stream(workload, args.seed, 0, args.tiny), limit=untraced.attempted)
        base = sum(untraced.latencies)
        overhead = (op_time_without_probes(tracer) - base) / base
        metrics = per_layer(tracer, traced.margins, overhead)
        detail = {"ops": untraced.attempted, "untraced_busy_s": base}
        untraced.attempted += traced.attempted
        untraced.failed += traced.failed
    result["attempted"] += untraced.attempted
    result["failed"] += untraced.failed
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["detail"] = {**detail, "machine": machine.facts()}
    print(json.dumps(result))
    return 0


def swapped_answers_accepted(workload, seed: int) -> int:
    """Feed each check the answer to another input; returns 1 if one passed."""
    first, second = itertools.islice(stream(workload, seed, 2, True), 2)
    tracer, margins = Tracer(False), Margins()
    answer = workload.op(second, tracer)
    try:
        workload.check(first, answer, margins)
    except Exception:
        return 0
    print(f"self-check: {workload.name} accepted a wrong answer", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
