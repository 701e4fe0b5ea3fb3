"""Assessment-engine benchmark: parallel + activation reuse vs serial Step 2.

Step 2 (error-bound assessment) is the hottest remaining path of the
pipeline: every candidate ``(layer, error bound)`` pays one encode (the
codec returns the reconstruction a decode would give) and a test-set
forward pass.  This benchmark times Algorithm 1 on a synthetic trained
LeNet-300-100 workload two ways:

* **serial baseline** — the historical path: one candidate at a time through
  :func:`evaluate_candidate`, full forward pass and a fresh index-array
  lossless fit per candidate;
* **parallel + reuse** — the :class:`AssessmentEngine`: candidates fanned
  out over all cores, each resuming from the perturbed layer's checkpointed
  activations, index sizes hoisted to once per layer.

The two runs must produce *identical* assessment points and identical
Algorithm 2 optimizer plans (asserted below — the engine trims speculative
results so its output is bit-for-bit the serial Algorithm 1 answer), and the
engine must be at least ``REPRO_ASSESS_MIN_SPEEDUP`` times faster (default
2.0; CI relaxes it to 1.2 because the hosted runners have two cores and the
activation-reuse share shrinks when BLAS has no parallel headroom).

Results land in ``benchmarks/results/bench_assessment.{txt,json}``.
"""

from __future__ import annotations

import json
import os
import time

from common import RESULTS_DIR, write_result
from repro.analysis import format_bytes, render_table
from repro.core.assessment import AssessmentConfig, assess_network, evaluate_candidate
from repro.core.optimizer import OptimizerConfig, optimize_error_bounds
from repro.data import mnist_like, train_test_split
from repro.nn import SGDConfig, SGDTrainer, models
from repro.nn.specs import PAPER_PRUNING_RATIOS
from repro.parallel.pool import resolve_workers
from repro.pruning import PruningConfig, prune_network

RESULTS_DIR_NAME = "bench_assessment"
_EXPECTED_LOSS = 0.02


def _workload():
    """A trained + pruned LeNet-300-100 on a forward-heavy synthetic test set."""
    ds = mnist_like(samples_per_class=400, seed=7)
    train, test = train_test_split(ds, test_fraction=0.3, seed=8)
    net = models.lenet_300_100(seed=21)
    SGDTrainer(
        SGDConfig(epochs=4, learning_rate=0.03, weight_decay=1e-3, seed=22)
    ).train(net, train.images, train.labels)
    pruned = prune_network(
        net,
        PruningConfig(
            ratios=PAPER_PRUNING_RATIOS["LeNet-300-100"],
            retrain=True,
            retrain_config=SGDConfig(
                epochs=2, learning_rate=0.02, weight_decay=1e-4, seed=23
            ),
        ),
        train_images=train.images,
        train_labels=train.labels,
    )
    return pruned, test


def _points(result):
    return {
        name: [
            (p.error_bound, p.accuracy, p.degradation, p.compressed_bytes)
            for p in assessment.points
        ]
        for name, assessment in result.layers.items()
    }


def _plan(result):
    return optimize_error_bounds(
        result.candidates(), OptimizerConfig(expected_accuracy_loss=_EXPECTED_LOSS)
    )


def bench_assessment() -> None:
    pruned, test = _workload()
    config = AssessmentConfig(expected_accuracy_loss=_EXPECTED_LOSS, max_fine_tests=12)
    network, sparse = pruned.network, pruned.sparse_layers
    workers = resolve_workers(None)

    def run_serial():
        return assess_network(
            network, sparse, test.images, test.labels,
            config=config, evaluator=evaluate_candidate,
        )

    def run_parallel():
        return assess_network(
            network, sparse, test.images, test.labels,
            config=config, workers=None,
        )

    # Best-of-3 to damp scheduler noise (shared CI runners especially);
    # results are deterministic either way.
    serial_s, parallel_s = float("inf"), float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        serial = run_serial()
        serial_s = min(serial_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        parallel = run_parallel()
        parallel_s = min(parallel_s, time.perf_counter() - t0)

    speedup = serial_s / parallel_s
    min_speedup = float(os.environ.get("REPRO_ASSESS_MIN_SPEEDUP", "2.0"))

    # Correctness bar: the engine's output must be indistinguishable from the
    # serial Algorithm 1 — same points, same test counts, same plan.
    assert _points(serial) == _points(parallel), "assessment points diverged"
    assert serial.tests_performed == parallel.tests_performed
    assert serial.baseline_accuracy == parallel.baseline_accuracy
    plan_serial, plan_parallel = _plan(serial), _plan(parallel)
    assert plan_serial.error_bounds == plan_parallel.error_bounds, "plans diverged"
    assert plan_serial.total_compressed_bytes == plan_parallel.total_compressed_bytes

    results = {
        "samples": int(len(test.images)),
        "workers": workers,
        "tests_performed": serial.tests_performed,
        "parallel_evaluations": parallel.evaluations,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "plan_error_bounds": dict(plan_parallel.error_bounds),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "bench_assessment.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )

    rows = [
        ["serial baseline", f"{serial_s * 1e3:9.1f} ms"],
        ["parallel + reuse", f"{parallel_s * 1e3:9.1f} ms"],
        ["speedup", f"{speedup:9.2f} x"],
        ["assessment points", f"{serial.tests_performed:9d}"],
        ["engine evaluations", f"{parallel.evaluations:9d}"],
        ["pool workers", f"{workers:9d}"],
    ]
    text = render_table(
        ["metric", "value"],
        rows,
        title=(
            f"error-bound assessment: {len(sparse)} layers, "
            f"{len(test.images)} samples, plan "
            f"{format_bytes(plan_parallel.total_compressed_bytes)}"
        ),
    )
    print(text)
    write_result(RESULTS_DIR_NAME, text)

    assert speedup >= min_speedup, (
        f"parallel+reuse assessment speedup {speedup:.2f}x is below the "
        f"{min_speedup:.1f}x bar ({results})"
    )


if __name__ == "__main__":
    bench_assessment()
