"""On-demand model serving: cache, runtime, server, and multi-model gateway.

* :mod:`repro.serve.cache` — :class:`LRUCache`, the byte-bounded,
  thread-safe, single-flight LRU for decoded dense layers;
* :mod:`repro.serve.runtime` — :class:`ModelRuntime`, lazy per-layer decode
  over a memory-mapped ``.dsz`` archive with prefetch on the shared task
  pool;
* :mod:`repro.serve.server` — :class:`Server`, the dynamic-batching
  inference front-end with throughput / latency-percentile reporting, and
  :func:`~repro.serve.server.serve_batches`, the one replica batching
  loop (batch policy, forward pass, replica spans) both backends run;
* :mod:`repro.serve.shm` — :class:`SharedWeightStore` /
  :class:`SharedRuntime`, the once-per-host shared-memory weight cache:
  decode a model's layers into one ``multiprocessing.shared_memory``
  segment and reconstruct zero-copy read-only views in worker processes;
* :mod:`repro.serve.worker` — :class:`ProcessServer`, the process-backed
  replica: a worker process running that same batching loop over pipes,
  with crash containment (:class:`~repro.utils.errors.ReplicaCrashed`) and
  automatic respawn;
* :mod:`repro.serve.gateway` — :class:`Gateway`, the multi-model,
  multi-replica front door: pluggable shard policies (round-robin,
  least-loaded, consistent-hash), thread- or process-backed replica pools
  (``replica_backend=``), and fleet-wide stats.  Its per-model admission
  core — inline dispatch into a free concurrency slot, a bounded FIFO
  queue otherwise, fast-fail
  :class:`~repro.utils.errors.GatewayOverloaded` rejection — serves both
  front doors;
* :mod:`repro.serve.async_gateway` — :class:`AsyncGateway`, the asyncio
  adapter over the same core and backend, with per-request deadlines
  (:class:`~repro.utils.errors.DeadlineExceeded`), real cancellation, and
  graceful drain;
* :mod:`repro.serve.http` — the minimal stdlib HTTP surface
  (``python -m repro serve-http``): ``/v1/infer/<model>``, ``/metrics``,
  ``/healthz``;
* :mod:`repro.serve.bench` — the cold/warm/concurrency runtime harness
  behind ``python -m repro serve-bench`` and
  ``benchmarks/bench_serving.py``, and the metrics dump behind
  ``scenario-bench --metrics-out``.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use (see repro._lazy).
_EXPORTS = {
    "AsyncGateway": ".async_gateway",
    "HttpFrontDoor": ".http",
    "CacheStats": ".cache",
    "LRUCache": ".cache",
    "DEFAULT_CACHE_BYTES": ".runtime",
    "ModelRuntime": ".runtime",
    "RuntimeStats": ".runtime",
    "decode_compressed_layer": ".runtime",
    "Server": ".server",
    "ServerStats": ".server",
    "SharedModelWeights": ".shm",
    "SharedRuntime": ".shm",
    "SharedWeightStore": ".shm",
    "shared_weight_store": ".shm",
    "ProcessServer": ".worker",
    "REPLICA_BACKENDS": ".gateway",
    "ArchiveMLP": ".gateway",
    "ConsistentHashPolicy": ".gateway",
    "Gateway": ".gateway",
    "GatewayStats": ".gateway",
    "LeastLoadedPolicy": ".gateway",
    "ModelStats": ".gateway",
    "Replica": ".gateway",
    "ReplicaStats": ".gateway",
    "RoundRobinPolicy": ".gateway",
    "ShardPolicy": ".gateway",
    "resolve_policy": ".gateway",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
