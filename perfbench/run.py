"""Run one workload of the repo benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compress --seed 1 --seconds 30 --trace 0

Workloads: ``compress``, ``cold-start``, ``serve-closed`` (their design is
recorded in ``perfbench/design.json``).  The program is imported from
``src/`` of the same checkout and driven only through its public API.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics: mean self times per op, which with the workload's
``*.unattributed_ms*`` add up to ``traced.op_ms``; the counters the
program exposes; the throughput and tail latencies of the untraced ops; and
the tracing overhead.  Spans go to ``.perfbench/spans/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-layer metrics
of layers a workload does not exercise read 0.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from typing import Dict, List

import harness

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: name -> unit of every end-to-end metric (reported with ``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "compression_ratio": "x",
}

#: name -> unit of every per-layer metric (reported with ``--trace 1``)
PER_LAYER = {
    "traced.op_ms": "ms",
    "tracing_overhead_pct": "%",
    # of the untraced ops of the traced run; too noisy on a shared host to
    # be bounded end-to-end (see perfbench/design.json, "left_out")
    "throughput_per_s": "1/s",
    "latency_ms.p90": "ms",
    "latency_ms.p99": "ms",
    # compress
    "core.assessment.ms": "ms",
    "core.assessment.trials": "count",
    "core.assessment.evaluations": "count",
    "core.assessment.useful_ratio": "ratio",
    "core.optimizer.ms": "ms",
    "core.encoder.ms": "ms",
    "store.archive.write_ms": "ms",
    "core.decoder.ms": "ms",
    "nn.evaluate.ms": "ms",
    "compress.unattributed_ms": "ms",
    "compress.accuracy_loss": "fraction",
    "nn.train_s": "s",
    "pruning.prune_s": "s",
    # cold-start
    "store.archive.open_ms": "ms",
    "serve.runtime.decode_ms": "ms",
    **{
        f"sz.decode.{stage}_ms.{container}": "ms"
        for stage in ("lossless", "huffman", "predictor", "dequantize", "build")
        for container in ("v1", "v2")
    },
    "serve.runtime.bytes_read": "bytes",
    "nn.forward_ms": "ms",
    "cold-start.unattributed_ms": "ms",
    # serve-closed
    **{
        f"{span}_ms.p50": "ms"
        for span in (
            "gateway.request", "gateway.admission", "gateway.shard",
            "replica.queue", "replica.batch", "replica.forward",
        )
    },
    "serve.unattributed_ms.p50": "ms",
    **{
        f"{span}_ms.mean": "ms"
        for span in (
            "gateway.admission", "gateway.shard", "replica.queue",
            "replica.batch", "replica.forward", "replica.decode",
        )
    },
    "serve.unattributed_ms.mean": "ms",
    "serve.gateway.submit_us.p50": "us",
    "serve.worker.mean_batch_size": "count",
    "serve.worker.batches": "count",
    "serve.gateway.rejected_share": "fraction",
}

WORKLOADS = ("compress", "cold-start", "serve-closed")


def build(name: str, seed: int, traced: bool):
    """A fresh workload object; imports the program lazily."""
    if name == "compress":
        from wl_compress import CompressWorkload

        return CompressWorkload(seed)
    if name == "cold-start":
        from wl_coldstart import ColdStartWorkload

        return ColdStartWorkload(seed)
    from wl_serve import ServeWorkload

    return ServeWorkload(seed, traced=traced)


def setup_repeatedly(workload) -> Dict[str, List[float]]:
    """Set up ``SETUP_REPEATS`` times, each from scratch, keeping the last;
    every set-up's time and its split, for medians."""
    times: Dict[str, List[float]] = {"setup_s": []}
    for index in range(SETUP_REPEATS):
        if index:
            workload.close()
        start = time.perf_counter()
        workload.setup()
        times["setup_s"].append(time.perf_counter() - start)
        for key, value in workload.setup_split.items():
            times.setdefault(key, []).append(value)
    return times


def measure(workload, seconds: float) -> harness.Outcome:
    if workload.name == "serve-closed":
        return workload.measure(seconds)
    return harness.run_ops(workload, seconds)


def trace(workload, seconds: float, setup_times: Dict[str, List[float]]):
    """The per-layer run; returns the outcome and the spans it recorded."""
    if workload.name == "serve-closed":
        outcome, layers, spans = workload.trace(seconds)
    else:
        outcome, layers, spans = harness.run_traced_ops(workload, seconds)
    breakdown = harness.layer_breakdown(spans, workload.layers, workload.unattributed)
    attributed = sum(breakdown[name] for name in workload.layers.values())
    op_ms = breakdown["traced.op_ms"]
    if abs(attributed + breakdown[workload.unattributed] - op_ms) > 1e-6 * max(op_ms, 1.0):
        outcome.problems.append("per-layer self times do not add up to the op time")
    layers.update(breakdown)
    for key, values in setup_times.items():
        if key != "setup_s":
            layers[key] = harness.percentile(values, 50)
    unknown = sorted(set(layers) - set(PER_LAYER))
    if unknown:
        raise ValueError(f"per-layer metrics missing from the catalog: {unknown}")
    outcome.metrics = {
        name: harness.metric(layers.get(name, 0.0), unit) for name, unit in PER_LAYER.items()
    }
    return outcome, spans


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.pin_environment()
    harness.check_program_origin()
    workload = build(args.workload, args.seed, bool(args.trace))
    try:
        setup_times = setup_repeatedly(workload)
        print(
            f"perfbench: {args.workload} seed {args.seed} inputs sha256:"
            f"{workload.input_digest()}",
            file=sys.stderr,
        )
        if args.trace:
            outcome, spans = trace(workload, args.seconds, setup_times)
            harness.dump_spans(
                spans, harness.OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            )
        else:
            outcome = measure(workload, args.seconds)
    finally:
        workload.close()
        gc.collect()
        harness.stop_resource_tracker()
    outcome.problems.extend(getattr(workload, "problems", []))
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if not args.trace:
        outcome.metrics.update(
            {
                "setup_s": harness.metric(harness.percentile(setup_times["setup_s"], 50), "s"),
                "peak_rss_mb": harness.metric(harness.peak_rss_mb(), "MB"),
                "compression_ratio": harness.metric(workload.compression_ratio, "x"),
            }
        )
    print(outcome.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
