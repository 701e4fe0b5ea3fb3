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

from repro.serve.async_gateway import AsyncGateway
from repro.serve.cache import CacheStats, LRUCache
from repro.serve.http import HttpFrontDoor
from repro.serve.gateway import (
    REPLICA_BACKENDS,
    ArchiveMLP,
    ConsistentHashPolicy,
    Gateway,
    GatewayStats,
    LeastLoadedPolicy,
    ModelStats,
    Replica,
    ReplicaStats,
    RoundRobinPolicy,
    ShardPolicy,
    resolve_policy,
)
from repro.serve.runtime import (
    DEFAULT_CACHE_BYTES,
    ModelRuntime,
    RuntimeStats,
    decode_compressed_layer,
)
from repro.serve.server import Server, ServerStats
from repro.serve.shm import (
    SharedModelWeights,
    SharedRuntime,
    SharedWeightStore,
    shared_weight_store,
)
from repro.serve.worker import ProcessServer

__all__ = [
    "AsyncGateway",
    "HttpFrontDoor",
    "CacheStats",
    "LRUCache",
    "DEFAULT_CACHE_BYTES",
    "ModelRuntime",
    "RuntimeStats",
    "decode_compressed_layer",
    "Server",
    "ServerStats",
    "SharedModelWeights",
    "SharedRuntime",
    "SharedWeightStore",
    "shared_weight_store",
    "ProcessServer",
    "REPLICA_BACKENDS",
    "ArchiveMLP",
    "ConsistentHashPolicy",
    "Gateway",
    "GatewayStats",
    "LeastLoadedPolicy",
    "ModelStats",
    "Replica",
    "ReplicaStats",
    "RoundRobinPolicy",
    "ShardPolicy",
    "resolve_policy",
]
