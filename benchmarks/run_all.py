#!/usr/bin/env python
"""Unified benchmark runner: one command, stable ``BENCH_*.json`` artifacts.

Runs the serving / assessment / sparse-inference benchmarks (each as a
subprocess of its existing script, so this runner cannot drift from what
the scripts measure), reads the raw ``results/*.json`` each script wrote,
and distills a *stable-schema* artifact per suite::

    {"schema_version": 2, "suite": "serving", "mode": "smoke",
     "host_cores": <usable cores on the recording machine>,
     "metrics": {...flat name -> number...},
     "gate": [...metric names the perf-regression gate enforces...],
     "directions": {"<gated metric>": "higher" | "lower"},
     "core_scaled": {"<metric>": <core cap>, ...}}   # serving only

Metric keys are append-only across PRs: tooling (the CI artifact diff, the
``compare_baselines.py`` gate) may rely on any key that has ever shipped.
``host_cores`` + ``core_scaled`` let ``compare_baselines.py`` relax
parallelism-dependent expectations when the fresh run has fewer usable
cores than the machine that recorded the baseline (a 4-replica scaling
ratio cannot materialise on a 1-core CI runner).

Artifacts land next to this file as ``BENCH_<suite>.json``.  CI runs this
in smoke mode on every push and uploads the artifacts, then runs
``compare_baselines.py`` against the committed ``benchmarks/baselines/``.
Refresh those baselines with ``--update-baselines`` on the reference
machine whenever a PR legitimately moves a gated number (and commit the
result).

Usage::

    PYTHONPATH=src python benchmarks/run_all.py               # smoke mode
    PYTHONPATH=src python benchmarks/run_all.py --full
    PYTHONPATH=src python benchmarks/run_all.py --suites serving,sparse_inference
    PYTHONPATH=src python benchmarks/run_all.py --update-baselines
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINE_DIR = BENCH_DIR / "baselines"

# v2: decode-stage timings, cache hit rate, and the observability
# overhead measurement joined the serving metrics (all info-only).
# v3: the scenarios suite joined (trace-driven scenario×policy matrix;
# artifacts may now carry grid/workload/traces/cells alongside metrics).
# Keep in sync with repro.sim.matrix.ARTIFACT_SCHEMA_VERSION, which emits
# the same envelope for `python -m repro scenario-bench`.
SCHEMA_VERSION = 3


def _extract_serving(raw: dict) -> dict:
    sweep = raw["gateway_sweep"]
    throughput = raw["throughput_accesses_per_s"]
    metrics = {
        "warm_vs_cold_speedup": raw["warm_vs_cold_speedup"],
        "warm_layer_access_us": raw["warm_layer_access_s"] * 1e6,
        "cold_full_decode_ms": raw["cold_full_decode_s"] * 1e3,
        "layer_access_rps_4": throughput.get("4", max(throughput.values())),
        "gateway_scaling_4v1": sweep["scaling_4v1"],
        "gateway_saturation_rejection_rate": sweep["saturation"]["rejection_rate"],
    }
    for count, rate in sweep["throughput_rps"].items():
        metrics[f"gateway_rps_{count}"] = rate
    # Requests per forward pass (info-only): whether batches fill under the
    # sweep's burst load.
    for count, run in sweep["sweep"].items():
        metrics[f"gateway_mean_batch_{count}"] = run["mean_batch_size"]
    # Observability stamps (info-only: never gated — stage timings track
    # codec work that legitimately moves, the overhead delta is noise-sized
    # by design, and the hit rate depends on the access pattern).
    for stage, seconds in raw.get("decode_stages", {}).items():
        metrics[f"decode_stage_{stage}_ms"] = seconds * 1e3
    cache = raw.get("cache", {})
    if "hit_rate" in cache:
        metrics["cache_hit_rate"] = cache["hit_rate"]
    obs = raw.get("obs_overhead", {})
    if "overhead_pct" in obs:
        metrics["obs_overhead_pct"] = obs["overhead_pct"]
    gate = [
        "warm_vs_cold_speedup",
        "layer_access_rps_4",
        "gateway_rps_4",
        "gateway_scaling_4v1",
    ]
    directions = {name: "higher" for name in gate}
    # The asyncio front door A/B (64 closed-loop clients, process backend):
    # the absolute throughput is gated; the async-vs-sync ratio is info
    # (its own assert lives in bench_serving.py, env-relaxed by the runner).
    # The "thread_dispatcher" key name predates the shared admission core:
    # it now means the sync front door.
    async_fd = raw.get("async_front_door")
    if async_fd:
        metrics["async_gateway_rps"] = async_fd["async_rps"]
        metrics["async_vs_thread_dispatcher_ratio"] = async_fd["ratio"]
        metrics["async_mean_batch_size"] = async_fd["async_mean_batch_size"]
        gate.append("async_gateway_rps")
        directions["async_gateway_rps"] = "higher"
    # The primary sweep runs on the process backend by default; the script
    # then re-runs the thread backend under identical load so the legacy
    # path keeps its own gated numbers instead of hiding behind the faster
    # backend.
    thread = sweep.get("thread_comparison")
    if thread:
        for count, rate in thread["throughput_rps"].items():
            metrics[f"gateway_rps_thread_{count}"] = rate
        metrics["gateway_scaling_thread_4v1"] = thread["scaling_4v1"]
        gate.append("gateway_rps_thread_4")
        directions["gateway_rps_thread_4"] = "higher"
    return {
        "gateway_backend": sweep.get("backend", "thread"),
        "metrics": metrics,
        # Absolute-throughput gates catch collapse-class regressions; the
        # ratios are machine-independent between equal-core runners, and
        # core_scaled relaxes them when the fresh host is smaller.
        "gate": gate,
        "directions": directions,
        # metric -> core cap: the metric needs min(cap, cores) usable cores
        # to express itself; compare_baselines.py scales the expectation by
        # min(fresh_cores, cap) / min(baseline_cores, cap), relax-only.
        "core_scaled": {"gateway_scaling_4v1": 4, "gateway_rps_4": 4},
    }


def _extract_assessment(raw: dict) -> dict:
    return {
        "metrics": {
            "assessment_speedup": raw["speedup"],
            "serial_ms": raw["serial_s"] * 1e3,
            "parallel_ms": raw["parallel_s"] * 1e3,
            "tests_performed": raw["tests_performed"],
        },
        "gate": ["assessment_speedup"],
        "directions": {"assessment_speedup": "higher"},
    }


def _extract_sparse(raw: dict) -> dict:
    return {
        "metrics": {
            "byte_reduction": raw["byte_reduction"],
            "forward_speedup": raw["forward_speedup"],
            "dense_forward_ms": raw["dense_forward_s"] * 1e3,
            "sparse_forward_ms": raw["sparse_forward_s"] * 1e3,
        },
        "gate": ["byte_reduction", "forward_speedup"],
        "directions": {"byte_reduction": "higher", "forward_speedup": "higher"},
    }


def _extract_scenarios(raw: dict) -> dict:
    # bench_scenarios.py pre-flattens via repro.sim.matrix.flatten_metrics
    # (this runner stays importable without PYTHONPATH=src); the cells and
    # trace digests ride along so a BENCH artifact is self-describing.
    return {
        "metrics": raw["metrics"],
        "gate": raw["gate"],
        "directions": raw["directions"],
        "grid": raw["grid"],
        "workload": raw["workload"],
        "traces": raw["traces"],
        "cells": raw["cells"],
    }


#: suite -> (benchmark script, raw results file, metric extractor)
SUITES: Dict[str, tuple[str, str, Callable[[dict], dict]]] = {
    "serving": ("bench_serving.py", "bench_serving.json", _extract_serving),
    "assessment": ("bench_assessment.py", "bench_assessment.json", _extract_assessment),
    "sparse_inference": (
        "bench_sparse_inference.py",
        "bench_sparse_inference.json",
        _extract_sparse,
    ),
    "scenarios": ("bench_scenarios.py", "bench_scenarios.json", _extract_scenarios),
}


def _suite_env(smoke: bool) -> dict:
    env = os.environ.copy()
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if smoke:
        env.setdefault("REPRO_BENCH_SMOKE", "1")
    # The runner's job is producing artifacts, not enforcing speed bars:
    # regression detection belongs to compare_baselines.py, which sees the
    # actual numbers.  Correctness asserts inside the scripts (parity,
    # identical plans, bounded-queue rejection) still run at full strength.
    # An explicit environment always wins over these defaults.
    env.setdefault("REPRO_ASSESS_MIN_SPEEDUP", "1.0")
    env.setdefault("REPRO_SPARSE_MIN_SPEEDUP", "1.0")
    env.setdefault("REPRO_GATEWAY_MIN_SCALING", "0")
    env.setdefault("REPRO_OBS_MAX_OVERHEAD_PCT", "100")
    env.setdefault("REPRO_ASYNC_MIN_RATIO", "0")
    return env


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # honours cgroup/affinity limits
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS/Windows


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_suite(name: str, *, smoke: bool, out_dir: Path) -> Path:
    script, raw_name, extract = SUITES[name]
    print(f"== {name}: {script} ({'smoke' if smoke else 'full'} mode) ==", flush=True)
    env = _suite_env(smoke)
    subprocess.run(
        [sys.executable, script],
        cwd=BENCH_DIR,
        env=env,
        check=True,
    )
    raw = json.loads((RESULTS_DIR / raw_name).read_text())
    artifact = {
        "schema_version": SCHEMA_VERSION,
        "suite": name,
        "mode": "smoke" if smoke else "full",
        # Recording-host parallelism: compare_baselines.py reads this from
        # both artifacts to core-scale the expectations in core_scaled.
        "host_cores": _usable_cores(),
        **extract(raw),
    }
    if name == "serving":
        # bench_serving.py setdefaults these to 1; an explicit env override
        # (inherited here) un-pins BLAS and taints per-replica comparisons.
        artifact["blas_pinned"] = all(env.get(var, "1") == "1" for var in _BLAS_VARS)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="run at full scale instead of smoke mode")
    parser.add_argument("--suites", default=",".join(SUITES),
                        help=f"comma-separated subset of: {', '.join(SUITES)}")
    parser.add_argument("--out", default=str(BENCH_DIR),
                        help="directory for the BENCH_*.json artifacts")
    parser.add_argument("--update-baselines", action="store_true",
                        help="copy the fresh artifacts into benchmarks/baselines/")
    args = parser.parse_args(argv)

    names = [s.strip() for s in args.suites.split(",") if s.strip()]
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s) {unknown}; available: {sorted(SUITES)}")
    if not names:
        # e.g. --suites "" or --suites ","; silently running zero suites
        # would let CI "pass" while producing no artifacts to gate on.
        parser.error(f"--suites selected no suites; available: {sorted(SUITES)}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = [run_suite(name, smoke=not args.full, out_dir=out_dir) for name in names]

    if args.update_baselines:
        BASELINE_DIR.mkdir(parents=True, exist_ok=True)
        for path in artifacts:
            target = BASELINE_DIR / path.name
            shutil.copyfile(path, target)
            print(f"baseline refreshed: {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
