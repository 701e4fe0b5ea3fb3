"""Serving benchmark: runtime cold/warm access + gateway replica scaling.

The archive + runtime subsystem exists so an edge node never pays the
monolithic-blob tax.  This benchmark quantifies that on a synthetic
multi-layer model:

* **cold full decode** — decode every layer up front (the v1 experience);
* **cold first layer** — lazy time-to-first-layer through the runtime;
* **warm layer access** — per-access latency against the hot LRU cache,
  asserted to be >= 10x faster than the cold full decode (in practice it is
  thousands of times faster: a dictionary hit vs a full codec pass);
* **layer-access throughput** at 1/2/4/8 threads hammering the warm cache.

A second experiment drives the multi-model :class:`repro.serve.Gateway`
over a chained synthetic MLP and sweeps the replica pool 1 -> 2 -> 4 under
closed-loop client load.  Every gateway load here is a trace replayed by
:func:`repro.sim.driver.drive_gateway` and held to its accounting
(:func:`repro.sim.driver.check_accounting`).  The sweep runs on the
``REPRO_GATEWAY_BACKEND`` replica backend — default ``process``: worker
processes serving zero-copy from the shared-memory weight cache, the
configuration whose throughput can actually rise with the pool because
replicas stop sharing one GIL.
When the primary sweep is process-backed, a second ``thread``-backend
sweep runs under identical load for the thread-vs-process comparison (and
so the thread numbers stay gated against their own baseline).  On a
machine with >= 4 cores the aggregate throughput must rise monotonically
and reach >= ``REPRO_GATEWAY_MIN_SCALING``x (default 2.0) at 4 replicas;
on smaller machines the bar auto-relaxes (replica workers cannot beat the
core count) down to a non-collapse check.  The sweep ends with an
open-loop saturation burst against a depth-8 admission queue, asserting
that overload produces *fast-fail rejections* (bounded queue) rather than
unbounded latency for the admitted requests.

A final A/B experiment measures the cost of the observability layer
itself: the same closed-loop gateway load runs with instrumentation
enabled (the default) and disabled (``repro.obs.metrics.set_enabled``),
arms interleaved, best-of-three per arm.  With no exporter attached the
enabled arm must stay within ``REPRO_OBS_MAX_OVERHEAD_PCT`` (default 2%)
of the disabled arm's throughput.

Results are rendered to ``benchmarks/results/bench_serving.txt`` and the raw
numbers to ``benchmarks/results/bench_serving.json``.  ``REPRO_SCALE=full``
grows the synthetic layers to paper-ish sizes; ``REPRO_BENCH_SMOKE=1``
shrinks the gateway load for CI smoke runs.
"""

from __future__ import annotations

import os

# The replica sweep measures *process-level* parallelism: one replica must
# not silently fan its matmuls across every core via BLAS threading, or the
# 1-replica baseline already saturates the machine.  Pin BLAS to one thread
# per op before numpy loads (no-op when the user already chose).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json

import numpy as np

from common import RESULTS_DIR, scale_factor, write_result
from repro.analysis import format_bytes, render_table
from repro.core.encoder import DeepSZEncoder
from repro.pruning.magnitude import prune_weights
from repro.pruning.sparse_format import encode_sparse
from repro.serve.bench import serving_benchmark
from repro.sim.driver import check_accounting, drive_gateway
from repro.sim.workload import SimRequest, WorkloadTrace
from repro.store import archive_bytes, archive_input_dim

#: Paper-ish fc-layer shapes (AlexNet fc6/fc7/fc8), shrunk by REPRO_SCALE.
_LAYER_SHAPES = {"fc6": (9216, 4096), "fc7": (4096, 4096), "fc8": (4096, 1000)}
_DENSITY = 0.1
_ERROR_BOUND = 1e-3


def _synthetic_archive() -> bytes:
    scale = scale_factor()
    rng = np.random.default_rng(42)
    sparse = {}
    for name, (rows, cols) in _LAYER_SHAPES.items():
        shape = (max(8, int(rows * scale)), max(8, int(cols * scale)))
        weights = (rng.standard_normal(shape) * 0.04).astype(np.float32)
        pruned, _ = prune_weights(weights, _DENSITY)
        sparse[name] = encode_sparse(pruned)
    model = DeepSZEncoder().encode(
        "bench-serving", sparse, {name: _ERROR_BOUND for name in sparse}
    )
    return archive_bytes(model)


#: Chained MLP shapes for the gateway sweep: each layer's in-features equal
#: the previous layer's out-features ((out, in) convention, ``h @ W.T``).
_GATEWAY_LAYERS = "g6=512x768:0.1,g7=256x512:0.1,g8=64x256:0.25"
_REPLICA_SWEEP = (1, 2, 4)


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _gateway_archive(seed: int) -> bytes:
    from repro.cli import synthetic_sparse_layers

    sparse = synthetic_sparse_layers(_GATEWAY_LAYERS, seed=seed)
    model = DeepSZEncoder().encode(
        f"bench-gateway-{seed}", sparse, {name: _ERROR_BOUND for name in sparse}
    )
    return archive_bytes(model)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # honours cgroup/affinity limits
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS/Windows


def _gateway_backend() -> str:
    backend = os.environ.get("REPRO_GATEWAY_BACKEND", "process")
    if backend not in ("thread", "process"):
        raise SystemExit(
            f"REPRO_GATEWAY_BACKEND={backend!r} is not one of: thread, process"
        )
    return backend


def _replay(names, requests) -> WorkloadTrace:
    """A trace of ``requests``, every arrival at 0."""
    return WorkloadTrace(
        scenario="bench-serving",
        seed=0,
        duration_s=0.0,
        rate_rps=0.0,
        models=tuple(names),
        tenants=tuple(sorted({req.tenant for req in requests})),
        params={},
        requests=tuple(requests),
    )


def _gateway_run(
    sources, *, replicas, clients, requests_per_client, backend,
    sparse=None, frontdoor="sync", burst=1, max_concurrency=None,
    saturation_queue_depth=None,
) -> dict:
    """Closed-loop load on a fresh gateway, then optionally a flood.

    Every model gets ``replicas`` round-robin replicas (batch 16) and an
    admission queue that never rejects.  ``clients`` clients each send
    ``requests_per_client`` requests in rounds of ``burst``, cycling the
    models round by round.  With ``saturation_queue_depth`` set, a second
    gateway with that queue depth and one in-service slot per replica
    takes 6x its capacity per model, all at t=0.  Both phases must pass
    :func:`check_accounting`.
    """
    names = list(sources)
    sparse = sparse or {}
    rng = np.random.default_rng(0)
    inputs = {
        name: rng.standard_normal((1, archive_input_dim(src))).astype(np.float32)[0]
        for name, src in sources.items()
    }

    def hosted(max_queue_depth, concurrency_cap):
        return {
            name: dict(
                source=src, replicas=replicas, sparse=sparse.get(name, False),
                max_queue_depth=max_queue_depth, max_concurrency=concurrency_cap,
                batch_size=16, replica_backend=backend,
            )
            for name, src in sources.items()
        }

    # Request j belongs to client j % clients (the driver's slicing); that
    # client's round r = (j // clients) // burst goes to model (client + r).
    total = clients * requests_per_client
    closed = _replay(names, [
        SimRequest(0.0, names[(j % clients + j // clients // burst) % len(names)],
                   f"client-{j % clients}")
        for j in range(total)
    ])
    run, stats = drive_gateway(
        hosted(total + 1, max_concurrency), closed, inputs, frontdoor=frontdoor,
        mode="closed", observe=lambda gateway: gateway.stats(),
        clients=clients, burst=burst,
    )
    check_accounting("closed-loop", run, stats)
    servers = [
        replica.server for model in stats.models.values() for replica in model.replicas
    ]
    batches = sum(server.batches for server in servers)
    batch_items = sum(server.mean_batch_size * server.batches for server in servers)
    result = {
        "models": len(names),
        "replicas": replicas,
        "backend": backend,
        "frontdoor": frontdoor,
        "policy": "round-robin",
        "clients": clients,
        "burst": burst,
        "requests": total,
        "completed": run.completed,
        "failures": run.failures,
        "rejected": run.rejected,
        "elapsed_s": run.elapsed_s,
        "throughput_rps": run.rps,
        "latency_ms": dict(stats.latencies_ms),
        "mean_batch_size": batch_items / batches if batches else 0.0,
        "cache_bytes": stats.cache_bytes,
        "shared_bytes": stats.shared_bytes,
        "per_model": {
            name: {
                "completed": model.completed,
                "throughput_rps": model.throughput_rps,
                "latency_ms": dict(model.latencies_ms),
                "cache_bytes": model.cache_bytes,
                "dispatched": [replica.dispatched for replica in model.replicas],
            }
            for name, model in stats.models.items()
        },
    }
    if saturation_queue_depth is not None:
        depth, cap = saturation_queue_depth, replicas
        flood = _replay(names, [
            SimRequest(0.0, name, f"flood-{i}")
            for name in names for i in range(6 * (depth + cap))
        ])
        run, stats = drive_gateway(
            hosted(depth, cap), flood, inputs, frontdoor=frontdoor, mode="open",
            observe=lambda gateway: gateway.stats(),
        )
        check_accounting("saturation", run, stats)
        result["saturation"] = {
            "queue_depth_limit": depth,
            "max_concurrency": cap,
            "offered": run.offered,
            "admitted": run.offered - run.rejected,
            "rejected": run.rejected,
            "rejection_rate": run.rejection_rate,
            "elapsed_s": run.elapsed_s,
            "latency_ms": dict(stats.latencies_ms),
        }
    return result


def _replica_sweep(
    sources, sparse_flags, *, backend, clients, requests_per_client, burst,
    saturate_last=True,
) -> dict:
    sweep: dict = {}
    for count in _REPLICA_SWEEP:
        saturate = saturate_last and count == _REPLICA_SWEEP[-1]
        sweep[str(count)] = _gateway_run(
            sources,
            replicas=count,
            clients=clients,
            requests_per_client=requests_per_client,
            burst=burst,
            sparse=sparse_flags,
            backend=backend,
            # The sweep varies replicas only: a generous in-service cap
            # keeps admission control out of the scaling measurement.
            max_concurrency=clients * burst,
            saturation_queue_depth=8 if saturate else None,
        )
    return sweep


def bench_gateway_scaling() -> dict:
    """Sweep gateway replicas 1 -> 4; assert scaling + bounded overload."""
    cores = _usable_cores()
    backend = _gateway_backend()
    clients = 4 if _smoke() else 8
    requests_per_client = 32 if _smoke() else 96
    burst = 16
    # Two models, one dense and one compressed-domain sparse, to exercise
    # the multi-model path under the same load the assertions read.
    sources = {"dense": _gateway_archive(seed=1), "sparse": _gateway_archive(seed=2)}
    sparse_flags = {"dense": False, "sparse": True}

    sweep = _replica_sweep(
        sources, sparse_flags, backend=backend,
        clients=clients, requests_per_client=requests_per_client, burst=burst,
    )

    rates = [sweep[str(count)]["throughput_rps"] for count in _REPLICA_SWEEP]
    scaling = rates[-1] / rates[0] if rates[0] else 0.0
    saturation = sweep[str(_REPLICA_SWEEP[-1])]["saturation"]

    rows = [
        [
            str(count),
            f"{sweep[str(count)]['throughput_rps']:,.0f} req/s",
            f"{sweep[str(count)]['latency_ms'].get('p50', 0.0):.2f} ms",
            f"{sweep[str(count)]['latency_ms'].get('p99', 0.0):.2f} ms",
            f"{sweep[str(count)]['mean_batch_size']:.2f}",
        ]
        for count in _REPLICA_SWEEP
    ]
    rows.append(["4 vs 1", f"{scaling:.2f}x", "", "", ""])
    text = render_table(
        ["replicas", "aggregate throughput", "p50", "p99", "mean batch"],
        rows,
        title=(
            f"gateway scaling [{backend} backend]: 2 models (dense + sparse), "
            f"{clients} clients, {cores} core(s)"
        ),
    )
    text += (
        f"\nsaturation @ queue depth {saturation['queue_depth_limit']}: "
        f"{saturation['offered']} offered -> {saturation['admitted']} admitted, "
        f"{saturation['rejected']} rejected ({saturation['rejection_rate']:.0%}), "
        f"admitted p99 {saturation['latency_ms'].get('p99', 0.0):.1f} ms"
    )
    print(text)

    # Scaling bar: replica threads cannot outrun the core count — a replica
    # pool only pays off on parallel hardware, and on a 1-core machine the
    # extra server threads are pure scheduling overhead.  The default
    # expectation therefore follows the physics (>= 2x at 4 replicas on
    # >= 4 cores, >= 1.15x on 2-3 cores, report-only on 1 core);
    # REPRO_GATEWAY_MIN_SCALING overrides both ways for noisy/shared CI
    # runners.
    if cores >= 4:
        default_min, monotonic_tol = 2.0, 0.9
    elif cores >= 2:
        default_min, monotonic_tol = 1.15, None
    else:
        default_min, monotonic_tol = 0.0, None
    min_scaling = float(os.environ.get("REPRO_GATEWAY_MIN_SCALING", default_min))
    monotonic_env = os.environ.get("REPRO_GATEWAY_MONOTONIC_TOL")
    if monotonic_env is not None:
        monotonic_tol = float(monotonic_env) or None
    if min_scaling <= 0.0:
        monotonic_tol = None  # report-only mode
    if monotonic_tol is not None:
        for prev, cur in zip(rates, rates[1:]):
            assert cur >= prev * monotonic_tol, (
                f"gateway throughput fell from {prev:.0f} to {cur:.0f} req/s "
                f"while adding replicas on {cores} core(s): {rates}"
            )
    if min_scaling > 0.0:
        assert scaling >= min_scaling, (
            f"gateway 4-replica scaling {scaling:.2f}x is below the "
            f"{min_scaling:.2f}x bar on {cores} core(s): {rates}"
        )
    else:
        print(
            f"note: {cores} core(s) cannot express replica parallelism; "
            "scaling asserts skipped (set REPRO_GATEWAY_MIN_SCALING to force)"
        )

    # Overload bar: the burst must be shed by the bounded queue (fast-fail
    # rejections) while every admitted request still resolves promptly.
    assert saturation["rejected"] > 0, f"saturation produced no rejections: {saturation}"
    assert saturation["admitted"] > 0, f"saturation admitted nothing: {saturation}"
    assert saturation["latency_ms"].get("p99", float("inf")) < 2000.0, (
        f"admitted-request p99 exploded under saturation: {saturation}"
    )

    result = {
        "backend": backend,
        "cores": cores,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "throughput_rps": {str(c): r for c, r in zip(_REPLICA_SWEEP, rates)},
        "scaling_4v1": scaling,
        "min_scaling": min_scaling,
        "saturation": saturation,
        "sweep": sweep,
    }

    # Thread-vs-process comparison: when the primary sweep is process-backed
    # the thread backend re-runs under identical load, report-only (no
    # scaling asserts — it shares one GIL by design) but still extracted to
    # gated baseline metrics so the thread path keeps its current numbers.
    if backend == "process":
        thread_sweep = _replica_sweep(
            sources, sparse_flags, backend="thread",
            clients=clients, requests_per_client=requests_per_client,
            burst=burst, saturate_last=False,
        )
        thread_rates = [
            thread_sweep[str(count)]["throughput_rps"] for count in _REPLICA_SWEEP
        ]
        thread_scaling = thread_rates[-1] / thread_rates[0] if thread_rates[0] else 0.0
        result["thread_comparison"] = {
            "throughput_rps": {
                str(c): r for c, r in zip(_REPLICA_SWEEP, thread_rates)
            },
            "scaling_4v1": thread_scaling,
        }
        top = _REPLICA_SWEEP[-1]
        ratio = rates[-1] / thread_rates[-1] if thread_rates[-1] else 0.0
        print(
            f"process vs thread @ {top} replicas: {rates[-1]:,.0f} vs "
            f"{thread_rates[-1]:,.0f} req/s ({ratio:.2f}x) on {cores} core(s)"
        )

    return result


def bench_async_front_door() -> dict:
    """A/B the asyncio front door against the blocking sync gateway.

    Both arms drive the *same* process-backed replica over the same archive
    with 64 closed-loop clients — coroutines on one event loop versus 64
    client threads on the sync front door.  Arms are interleaved and
    best-of-three per arm (this host's run-to-run noise is far larger than
    the architectural delta).  The asyncio front door must at least match
    the sync one: ratio >= ``REPRO_ASYNC_MIN_RATIO`` (default 0.9, a noise
    floor below parity; set it to 0 to report only).  The artifact keys
    ``thread_dispatcher_rps`` / ``async_vs_thread_dispatcher_ratio`` keep
    their historical names so baselines still compare; they now measure
    the sync front door, which has no dispatcher thread any more.
    """
    source = {"model": _gateway_archive(seed=4)}
    clients = 64
    requests_per_client = 8 if _smoke() else 32

    runs = {"async": [], "sync": []}
    for _ in range(3):
        for frontdoor, outs in runs.items():
            out = _gateway_run(
                source,
                frontdoor=frontdoor,
                replicas=1,
                clients=clients,
                requests_per_client=requests_per_client,
                backend="process",
                max_concurrency=clients,
            )
            assert out["failures"] == 0 and out["rejected"] == 0, out
            outs.append(out)

    rps = {door: [out["throughput_rps"] for out in outs] for door, outs in runs.items()}
    best = {
        door: max(outs, key=lambda out: out["throughput_rps"])
        for door, outs in runs.items()
    }
    best_async, best_sync = max(rps["async"]), max(rps["sync"])
    ratio = best_async / best_sync if best_sync else 0.0
    min_ratio = float(os.environ.get("REPRO_ASYNC_MIN_RATIO", "0.9"))
    print(
        render_table(
            ["front door", "best throughput", "mean batch"],
            [
                [
                    door,
                    f"{out['throughput_rps']:,.0f} req/s",
                    f"{out['mean_batch_size']:.2f}",
                ]
                for door, out in best.items()
            ],
            title=(
                f"async vs sync front door @ {clients} clients, 1 process "
                f"replica: {ratio:.2f}x (floor {min_ratio:.2f}x)"
            ),
        )
    )
    if min_ratio > 0.0:
        assert ratio >= min_ratio, (
            f"asyncio front door fell to {ratio:.2f}x of the sync front "
            f"door ({best_async:.0f} vs {best_sync:.0f} req/s at "
            f"{clients} clients; async runs {rps['async']}, "
            f"thread runs {rps['sync']})"
        )
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "async_rps": best_async,
        "thread_dispatcher_rps": best_sync,
        "async_mean_batch_size": best["async"]["mean_batch_size"],
        "sync_mean_batch_size": best["sync"]["mean_batch_size"],
        "ratio": ratio,
        "min_ratio": min_ratio,
    }


def bench_obs_overhead() -> dict:
    """A/B the gateway hot path with observability enabled vs disabled.

    The obs layer's contract is "free when nobody is looking": with no
    exporter attached and no scrape in flight, the instrumentation must
    cost <= ``REPRO_OBS_MAX_OVERHEAD_PCT`` (default 2%) of end-to-end
    throughput.  Arms are interleaved and the best of three runs per arm
    is compared, so a noisy-neighbour blip in one run cannot manufacture
    a phantom overhead.
    """
    from repro.obs import metrics as obs_metrics

    source = {"model": _gateway_archive(seed=3)}
    requests_per_client = 24 if _smoke() else 64

    def throughput() -> float:
        out = _gateway_run(
            source,
            replicas=2,
            clients=4,
            requests_per_client=requests_per_client,
            burst=2,
            backend="thread",
        )
        return out["throughput_rps"]

    enabled_rps, disabled_rps = [], []
    for _ in range(3):
        assert obs_metrics.is_enabled(), "obs must start enabled (the default)"
        enabled_rps.append(throughput())
        obs_metrics.set_enabled(False)
        try:
            disabled_rps.append(throughput())
        finally:
            obs_metrics.set_enabled(True)

    best_on, best_off = max(enabled_rps), max(disabled_rps)
    overhead_pct = (best_off - best_on) / best_off * 100.0 if best_off else 0.0
    max_pct = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD_PCT", "2.0"))
    print(
        f"obs overhead: enabled {best_on:,.0f} vs disabled {best_off:,.0f} req/s "
        f"-> {overhead_pct:+.2f}% (limit {max_pct:.1f}%)"
    )
    assert overhead_pct <= max_pct, (
        f"observability overhead {overhead_pct:+.2f}% exceeds the "
        f"{max_pct:.1f}% limit: enabled best {best_on:.0f} req/s vs "
        f"disabled best {best_off:.0f} req/s "
        f"(enabled runs {enabled_rps}, disabled runs {disabled_rps})"
    )
    return {
        "enabled_rps": best_on,
        "disabled_rps": best_off,
        "overhead_pct": overhead_pct,
        "max_overhead_pct": max_pct,
    }


def bench_serving_cold_vs_warm() -> None:
    blob = _synthetic_archive()
    results = serving_benchmark(
        blob,
        concurrency=(1, 2, 4, 8),
        accesses_per_thread=500,
        warm_repeats=50,
    )
    results["gateway_sweep"] = bench_gateway_scaling()
    results["async_front_door"] = bench_async_front_door()
    results["obs_overhead"] = bench_obs_overhead()

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "bench_serving.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )

    rows = [
        ["cold full decode", f"{results['cold_full_decode_s'] * 1e3:.2f} ms"],
        ["cold first layer", f"{results['cold_first_layer_s'] * 1e3:.2f} ms"],
        ["warm layer access", f"{results['warm_layer_access_s'] * 1e6:.2f} us"],
        ["warm vs cold speedup", f"{results['warm_vs_cold_speedup']:.0f}x"],
    ]
    for workers, rate in results["throughput_accesses_per_s"].items():
        rows.append([f"throughput @{workers} threads", f"{rate:,.0f} accesses/s"])
    text = render_table(
        ["metric", "value"],
        rows,
        title=(
            f"serving runtime: {results['layers']} layers, "
            f"archive {format_bytes(results['archive_bytes'])}, "
            f"decoded {format_bytes(results['decoded_bytes'])}"
        ),
    )
    print(text)
    write_result("bench_serving", text)

    # The acceptance bar: a warm cached access must beat re-decoding the
    # whole model by >= 10x (it is a lock + dict hit vs a full codec pass).
    assert results["warm_vs_cold_speedup"] >= 10.0, results
    # Lazy first-layer access must not cost more than the full decode.
    assert results["cold_first_layer_s"] <= results["cold_full_decode_s"] * 1.5, results


if __name__ == "__main__":
    bench_serving_cold_vs_warm()
