"""Measurement harnesses for the serving runtime and the gateway.

Two functions produce the numbers the serving story is judged on, shared by
``python -m repro serve-bench`` / ``gateway-bench`` and
``benchmarks/bench_serving.py``:

:func:`serving_benchmark` measures one runtime:

* **cold full decode** — a fresh runtime decoding every layer up front (the
  v1 monolithic experience);
* **cold first layer** — time until the *first* layer is usable on a fresh
  runtime (what random access buys: you do not wait for siblings);
* **warm layer access** — mean per-access latency once the decoded-layer
  cache is hot (must be orders of magnitude below cold full decode);
* **layer-access throughput** at several thread counts against the warm
  cache (the cache is the serving hot path; this measures its contention);
* optionally a **gateway replica sweep** (``gateway_replicas=(1, 2, 4)``)
  over the same archive, reporting end-to-end request throughput per
  replica count.

:func:`gateway_benchmark` drives a whole :class:`~repro.serve.Gateway`
under closed-loop client load (every client waits for each response before
sending the next), then optionally slams it with an open-loop burst against
a deliberately tiny admission queue to measure how overload degrades:
bounded-queue rejections and stable latency for the admitted requests, not
a latency collapse.

:func:`async_gateway_benchmark` runs the same closed-loop shape against the
:class:`~repro.serve.AsyncGateway`: N concurrent client *coroutines* on one
event loop instead of N threads, over the identical replica backend.  Its
``throughput_rps`` is directly comparable to :func:`gateway_benchmark` at
the same client count — the number the blocking-vs-event-loop front door
comparison is judged on.
"""

from __future__ import annotations

import asyncio
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.obs.metrics import registry as metrics_registry
from repro.obs.trace import JsonlSpanExporter, Tracer
from repro.serve.async_gateway import AsyncGateway
from repro.serve.gateway import Gateway
from repro.serve.runtime import DEFAULT_CACHE_BYTES, ModelRuntime
from repro.store.archive import ModelArchive
from repro.utils.errors import DeadlineExceeded, GatewayOverloaded, ValidationError

__all__ = [
    "archive_input_dim",
    "serving_benchmark",
    "gateway_benchmark",
    "async_gateway_benchmark",
    "dump_metrics",
]


def dump_metrics(path: Union[str, Path]) -> Path:
    """Write the process-wide metrics registry to ``path``.

    ``.prom`` suffix selects Prometheus text exposition; anything else gets
    the JSON form.  Returns the written path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".prom":
        path.write_text(metrics_registry().to_prometheus(), encoding="utf-8")
    else:
        import json

        path.write_text(
            json.dumps(metrics_registry().to_json(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
    return path


def _fresh_runtime(source, cache_bytes: int, sparse: bool) -> ModelRuntime:
    # bytes are re-wrapped per run; paths are re-opened (and re-mmapped),
    # so every "cold" measurement really starts from the container.
    return ModelRuntime(source, cache_bytes=cache_bytes, sparse=sparse)


def archive_input_dim(source: Union[str, bytes]) -> int:
    """The in-features of a chained archive's first fc layer (request width).

    Shared with :mod:`repro.sim`, whose zoo builder sizes each model's
    input sample off the archive instead of re-parsing the synthetic spec.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        archive = ModelArchive.from_bytes(source)
    else:
        archive = ModelArchive.open(source)
    try:
        first = archive.layer_names[0]
        return int(archive.manifest.layers[first].shape[1])
    finally:
        archive.close()


# Backwards-compatible private alias (pre-repro.sim callers).
_archive_input_dim = archive_input_dim


def gateway_benchmark(
    sources: Dict[str, Union[str, bytes]],
    *,
    replicas: int = 1,
    clients: int = 4,
    requests_per_client: int = 64,
    burst: int = 1,
    policy: str = "round-robin",
    sparse: Union[bool, Dict[str, bool]] = False,
    batch_size: int = 16,
    max_batch_delay: float = 0.002,
    max_concurrency: Optional[int] = None,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    seed: int = 0,
    saturation_queue_depth: Optional[int] = 8,
    backend: str = "thread",
    trace_sample: float = 0.0,
    trace_path: Optional[Union[str, Path]] = None,
    metrics_path: Optional[Union[str, Path]] = None,
) -> Dict:
    """Drive a multi-model gateway under closed-loop load, then saturate it.

    ``sources`` maps model names to archive paths/bytes; every model gets
    ``replicas`` replicas and the same shard ``policy``.  ``sparse`` is a
    bool for all models or a per-model dict.  ``clients`` threads each send
    ``requests_per_client`` requests round-robin across the models, waiting
    for every response (closed loop), which measures sustainable aggregate
    throughput rather than queue growth.  ``burst`` submits that many
    samples per round before waiting (a client with a camera roll, not a
    single frame): outstanding requests ≈ ``clients * burst``, which is
    what keeps a replica pool busy and lets dynamic batching coalesce.

    With ``saturation_queue_depth`` set, a second gateway with that tiny
    admission queue (and one in-service slot per replica) takes an
    open-loop burst of ~6x its capacity per model; the report shows how
    many requests were fast-fail rejected versus admitted, and the p99 of
    the admitted ones — bounded-queue overload, not latency collapse.
    ``backend`` selects the replica execution backend (``"thread"`` keeps
    everything in-process; ``"process"`` runs GIL-free worker processes
    over the shared-memory weight cache).

    ``trace_sample`` > 0 (with ``trace_path``) traces that fraction of the
    closed-loop requests into a span JSONL file; ``metrics_path`` dumps the
    metrics registry after the closed-loop phase (``.prom`` → Prometheus
    text, else JSON).  Returns a JSON-ready dict.
    """
    if not sources:
        raise ValidationError("gateway_benchmark needs at least one model source")
    if int(clients) < 1 or int(requests_per_client) < 1:
        raise ValidationError("clients and requests_per_client must be >= 1")
    if int(burst) < 1:
        raise ValidationError("burst must be >= 1")
    if float(trace_sample) > 0.0 and trace_path is None:
        raise ValidationError("trace_sample > 0 needs a trace_path to export to")
    names = list(sources)
    sparse_by_name = (
        dict(sparse) if isinstance(sparse, dict) else {name: bool(sparse) for name in names}
    )
    input_dims = {name: _archive_input_dim(src) for name, src in sources.items()}
    exporter: Optional[JsonlSpanExporter] = None
    tracer: Optional[Tracer] = None
    if float(trace_sample) > 0.0:
        exporter = JsonlSpanExporter(trace_path)
        tracer = Tracer(float(trace_sample), exporter, seed=seed)

    def build(
        max_queue_depth: int,
        concurrency_cap: Optional[int],
        gw_tracer: Optional[Tracer] = None,
    ) -> Gateway:
        gateway = Gateway(replica_backend=backend, tracer=gw_tracer)
        for name, src in sources.items():
            gateway.add_model(
                name,
                src,
                replicas=replicas,
                sparse=sparse_by_name.get(name, False),
                policy=policy,
                max_queue_depth=max_queue_depth,
                max_concurrency=concurrency_cap,
                batch_size=batch_size,
                max_batch_delay=max_batch_delay,
                cache_bytes=cache_bytes,
            )
        return gateway

    # -- closed-loop load phase --------------------------------------------
    total_requests = int(clients) * int(requests_per_client)
    gateway = build(
        max_queue_depth=total_requests + 1,
        concurrency_cap=max_concurrency,
        gw_tracer=tracer,
    )
    rng = np.random.default_rng(seed)
    inputs = {
        name: rng.standard_normal((1, dim)).astype(np.float32)[0]
        for name, dim in input_dims.items()
    }
    errors: list = []
    barrier = threading.Barrier(int(clients) + 1)

    def client(client_index: int) -> None:
        try:
            barrier.wait()
            sent = 0
            round_no = 0
            while sent < int(requests_per_client):
                name = names[(client_index + round_no) % len(names)]
                size = min(int(burst), int(requests_per_client) - sent)
                futures = [
                    gateway.submit(name, inputs[name], key=f"client-{client_index}")
                    for _ in range(size)
                ]
                for future in futures:
                    future.result(timeout=120)
                sent += size
                round_no += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    try:
        gateway.start()
        threads = [
            threading.Thread(target=client, args=(i,), name=f"gw-client-{i}")
            for i in range(int(clients))
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = gateway.stats()
        if metrics_path is not None:
            # While the gateway is still running: its collector only feeds
            # the registry between start() and stop().
            dump_metrics(metrics_path)
    finally:
        gateway.close()
        if tracer is not None:
            tracer.close()
    if errors:
        raise errors[0]

    results: Dict = {
        "models": len(names),
        "replicas": int(replicas),
        "backend": backend,
        "policy": policy,
        "clients": int(clients),
        "burst": int(burst),
        "requests": total_requests,
        "completed": stats.completed,
        "failures": stats.failures,
        "rejected": stats.rejected,
        "elapsed_s": elapsed,
        "throughput_rps": total_requests / elapsed if elapsed else 0.0,
        "latency_ms": dict(stats.latencies_ms),
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
    if exporter is not None:
        results["trace"] = {
            "sample_rate": float(trace_sample),
            "path": str(trace_path),
            "spans_exported": int(exporter.exported),
        }
    if metrics_path is not None:
        results["metrics_path"] = str(metrics_path)

    # -- open-loop saturation phase ----------------------------------------
    if saturation_queue_depth is not None:
        depth = int(saturation_queue_depth)
        concurrency_cap = max(1, int(replicas))
        burst_per_model = 6 * (depth + concurrency_cap)
        gateway = build(max_queue_depth=depth, concurrency_cap=concurrency_cap)
        admitted = []
        rejected = 0
        try:
            gateway.start()
            start = time.perf_counter()
            for name in names:
                for _ in range(burst_per_model):
                    try:
                        admitted.append(gateway.submit(name, inputs[name]))
                    except GatewayOverloaded:
                        rejected += 1
            for future in admitted:
                future.result(timeout=120)
            burst_elapsed = time.perf_counter() - start
            saturation_stats = gateway.stats()
        finally:
            gateway.close()
        offered = burst_per_model * len(names)
        results["saturation"] = {
            "queue_depth_limit": depth,
            "max_concurrency": concurrency_cap,
            "offered": offered,
            "admitted": len(admitted),
            "rejected": rejected,
            "rejection_rate": rejected / offered if offered else 0.0,
            "elapsed_s": burst_elapsed,
            "latency_ms": dict(saturation_stats.latencies_ms),
        }
    return results


def async_gateway_benchmark(
    sources: Dict[str, Union[str, bytes]],
    *,
    replicas: int = 1,
    clients: int = 64,
    requests_per_client: int = 32,
    policy: str = "round-robin",
    sparse: Union[bool, Dict[str, bool]] = False,
    batch_size: int = 16,
    max_batch_delay: float = 0.002,
    max_concurrency: Optional[int] = None,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    seed: int = 0,
    backend: str = "process",
    deadline: Optional[float] = None,
) -> Dict:
    """Drive the asyncio gateway under closed-loop coroutine load.

    The load shape mirrors :func:`gateway_benchmark`: ``clients`` closed-loop
    clients each send ``requests_per_client`` requests round-robin across the
    models, waiting for every response before the next.  Here the clients are
    coroutines multiplexed on the one event loop the
    :class:`~repro.serve.AsyncGateway` runs on — the whole front half of the
    system is a single thread, which is exactly what the comparison with the
    blocking front door measures (64 coroutines cost one stack; 64 client
    threads cost a scheduler).

    ``deadline`` (seconds) is attached to every request when set;
    :class:`~repro.utils.errors.DeadlineExceeded` responses are counted, not
    fatal, and ``throughput_rps`` then counts completed requests only.
    Returns a JSON-ready dict shaped like :func:`gateway_benchmark`'s
    closed-loop section.
    """
    if not sources:
        raise ValidationError("async_gateway_benchmark needs at least one model source")
    if int(clients) < 1 or int(requests_per_client) < 1:
        raise ValidationError("clients and requests_per_client must be >= 1")
    if deadline is not None and float(deadline) <= 0.0:
        raise ValidationError("deadline must be > 0 seconds")
    names = list(sources)
    sparse_by_name = (
        dict(sparse) if isinstance(sparse, dict) else {name: bool(sparse) for name in names}
    )
    input_dims = {name: _archive_input_dim(src) for name, src in sources.items()}
    rng = np.random.default_rng(seed)
    inputs = {
        name: rng.standard_normal((1, dim)).astype(np.float32)[0]
        for name, dim in input_dims.items()
    }
    total_requests = int(clients) * int(requests_per_client)

    async def run() -> tuple:
        gateway = AsyncGateway(replica_backend=backend)
        for name, src in sources.items():
            gateway.add_model(
                name,
                src,
                replicas=int(replicas),
                sparse=sparse_by_name.get(name, False),
                policy=policy,
                max_queue_depth=total_requests + 1,
                max_concurrency=max_concurrency,
                batch_size=batch_size,
                max_batch_delay=max_batch_delay,
                cache_bytes=cache_bytes,
            )
        go = asyncio.Event()
        deadline_hits = 0

        async def client(client_index: int) -> None:
            nonlocal deadline_hits
            await go.wait()
            for round_no in range(int(requests_per_client)):
                name = names[(client_index + round_no) % len(names)]
                try:
                    await gateway.submit(
                        name,
                        inputs[name],
                        key=f"client-{client_index}",
                        deadline=deadline,
                    )
                except DeadlineExceeded:
                    deadline_hits += 1

        try:
            await gateway.start()
            tasks = [
                asyncio.ensure_future(client(i)) for i in range(int(clients))
            ]
            go.set()
            start = time.perf_counter()
            await asyncio.gather(*tasks)
            elapsed = time.perf_counter() - start
            stats = gateway.stats()
        finally:
            await gateway.close()
        return elapsed, stats, deadline_hits

    elapsed, stats, deadline_hits = asyncio.run(run())
    finished = total_requests - deadline_hits
    return {
        "models": len(names),
        "replicas": int(replicas),
        "backend": backend,
        "policy": policy,
        "clients": int(clients),
        "requests": total_requests,
        "completed": stats.completed,
        "failures": stats.failures,
        "rejected": stats.rejected,
        "deadline_exceeded": deadline_hits,
        "elapsed_s": elapsed,
        "throughput_rps": finished / elapsed if elapsed else 0.0,
        "latency_ms": dict(stats.latencies_ms),
        "cache_bytes": stats.cache_bytes,
        "shared_bytes": stats.shared_bytes,
        "per_model": {
            name: {
                "completed": model.completed,
                "throughput_rps": model.throughput_rps,
                "latency_ms": dict(model.latencies_ms),
                "dispatched": [replica.dispatched for replica in model.replicas],
            }
            for name, model in stats.models.items()
        },
    }


def serving_benchmark(
    source: Union[str, bytes],
    *,
    concurrency: Sequence[int] = (1, 2, 4, 8),
    accesses_per_thread: int = 200,
    warm_repeats: int = 50,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    seed: int = 0,
    sparse: bool = False,
    gateway_replicas: Optional[Sequence[int]] = None,
    gateway_clients: int = 4,
    gateway_requests_per_client: int = 48,
    gateway_backend: str = "thread",
) -> Dict:
    """Benchmark cold/warm layer access and concurrent throughput.

    ``source`` is a ``.dsz`` archive path or its raw bytes.  ``sparse``
    serves layers in compressed-domain form (``decoded_bytes`` then reports
    the resident CSC footprint the cache is charged, not dense bytes).
    ``gateway_replicas`` additionally sweeps a single-model gateway over
    the archive at those replica counts (end-to-end request throughput;
    chained-MLP archives only) into a ``"gateway"`` section, running
    replicas on ``gateway_backend`` (``"thread"`` or ``"process"``).
    Returns a JSON-ready dict (see the module docstring for the metrics).
    """
    # -- cold: full-model decode on a fresh runtime -------------------------
    with _fresh_runtime(source, cache_bytes, sparse) as runtime:
        start = time.perf_counter()
        decoded = runtime.decode_all()
        cold_full_s = time.perf_counter() - start
        layer_names = runtime.layer_names
        decoded_bytes = int(sum(a.nbytes for a in decoded.values()))
        archive_size = runtime.archive.size

    # -- cold: time-to-first-layer -----------------------------------------
    with _fresh_runtime(source, cache_bytes, sparse) as runtime:
        start = time.perf_counter()
        runtime.layer(layer_names[0])
        cold_first_layer_s = time.perf_counter() - start

    # -- warm accesses and concurrent throughput ---------------------------
    runtime = _fresh_runtime(source, cache_bytes, sparse)
    try:
        runtime.prefetch(workers=1)
        start = time.perf_counter()
        touches = 0
        for _ in range(max(1, warm_repeats)):
            for name in layer_names:
                runtime.layer(name)
                touches += 1
        warm_total_s = time.perf_counter() - start
        warm_per_access_s = warm_total_s / touches

        throughput: Dict[str, float] = {}
        for workers in concurrency:
            workers = int(workers)
            if workers < 1:
                continue

            def hammer(thread_idx: int) -> None:
                rng = np.random.default_rng(seed + thread_idx)
                for _ in range(accesses_per_thread):
                    runtime.layer(layer_names[rng.integers(len(layer_names))])

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(workers)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            total_accesses = workers * accesses_per_thread
            throughput[str(workers)] = total_accesses / elapsed if elapsed else 0.0

        runtime_stats = runtime.stats()
        cache_stats = runtime_stats.cache.as_dict()
        decode_stages = dict(runtime_stats.stage_seconds)
    finally:
        runtime.close()

    results = {
        "layers": len(layer_names),
        "sparse": bool(sparse),
        "archive_bytes": archive_size,
        "decoded_bytes": decoded_bytes,
        "cold_full_decode_s": cold_full_s,
        "cold_first_layer_s": cold_first_layer_s,
        "warm_layer_access_s": warm_per_access_s,
        "warm_vs_cold_speedup": (
            cold_full_s / warm_per_access_s if warm_per_access_s else float("inf")
        ),
        "throughput_accesses_per_s": throughput,
        "cache": cache_stats,
        # Per-codec-stage decode seconds for the warm runtime's decodes
        # (obs profiling hooks; empty when instrumentation is disabled).
        "decode_stages": decode_stages,
    }

    if gateway_replicas:
        counts = sorted({int(r) for r in gateway_replicas if int(r) >= 1})
        sweep: Dict[str, Dict] = {}
        for count in counts:
            sweep[str(count)] = gateway_benchmark(
                {"model": source},
                replicas=count,
                clients=gateway_clients,
                requests_per_client=gateway_requests_per_client,
                sparse=sparse,
                cache_bytes=cache_bytes,
                seed=seed,
                backend=gateway_backend,
                # One saturation probe per sweep (at the largest pool) is
                # enough to characterise overload behaviour.
                saturation_queue_depth=8 if count == counts[-1] else None,
            )
        results["gateway"] = sweep
    return results
