"""Multi-model, multi-replica serving gateway with admission control.

The :class:`~repro.serve.server.Server` answers requests for *one* model on
*one* runtime.  A production node hosts a fleet: many named models, each
backed by a pool of replicas, behind one front door that decides which
replica takes a request and — just as important — which requests never get
in.  :class:`Gateway` is that front door:

* **models** are added by name, resolved either from a raw archive source
  (path / bytes / :class:`~repro.store.ModelArchive`) or from a
  :class:`~repro.store.ModelStore` by content digest (prefixes accepted via
  :meth:`ModelStore.resolve`), each with its own replica count, shard
  policy, and admission limits;
* **replicas** are full serving stacks behind one of two backends.  The
  default ``thread`` backend keeps everything in-process: an independent
  :class:`~repro.serve.runtime.ModelRuntime` (own mmap + decoded-layer
  cache, dense or compressed-domain sparse) plus a dynamic-batching
  :class:`Server`.  The ``process`` backend breaks the GIL: each replica
  is a worker **process** (:class:`~repro.serve.worker.ProcessServer`)
  whose forward passes run on their own interpreter, reconstructing the
  model's weights zero-copy from a host-wide shared-memory segment the
  gateway decodes **once** per model
  (:mod:`repro.serve.shm`).  A model without a ``network_factory`` serves
  through :class:`ArchiveMLP`, a feed-forward stack straight over the
  archive's fc layers — what the synthetic benchmarks use;
* **sharding** is pluggable via :class:`ShardPolicy`: ``round-robin``
  (fair, stateful), ``least-loaded`` (reads each replica's in-flight
  gauge), and ``consistent-hash`` (stable key → replica mapping that
  keeps a client's requests on one replica's warm cache);
* **admission control** keeps overload predictable: a request that finds
  a free ``max_concurrency`` slot is handed to a replica inline, inside
  ``submit``; otherwise it parks in a bounded FIFO (``max_queue_depth``)
  until a completing request frees a slot.  A full queue fast-fails with
  :class:`~repro.utils.errors.GatewayOverloaded` (429-style) instead of
  stretching everyone's latency.  One lock-guarded core per model
  (:class:`_Model`) does this bookkeeping for both front doors — this
  blocking one and :class:`~repro.serve.async_gateway.AsyncGateway`;
* **stats** aggregate the whole fleet: per-model throughput and latency
  percentiles (measured submit→resolve, queue wait included), rejection
  rates and live queue depth, per-replica dispatch counts, in-flight
  gauges, decode counts and resident cache bytes.  Each level has one
  reader: :meth:`Replica.stats` reads a replica's runtime (or its
  worker's counters) once, :meth:`_Model.stats` snapshots a model's
  counters under its lock, and :meth:`Gateway.stats` sums those.  The
  registry collector renders one ``stats()`` call as metric samples, so
  ``stats()`` and ``/metrics`` cannot disagree.

Lifecycle mirrors :class:`Server`: ``start()`` spins up every replica
server, ``stop()`` closes admission, waits until every parked request has
been handed to a replica, then stops the replica servers, which drain
in-flight work (every accepted future resolves), and freezes the stats
clock; a stopped gateway restarts cleanly with fresh queues and counters.
``close()`` additionally releases the replica runtimes (after which the
gateway cannot be restarted).
"""

from __future__ import annotations

import abc
import hashlib
import threading
import time
from bisect import bisect_right
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.encoder import CompressedModel
from repro.lint.lockcheck import make_lock
from repro.nn.sparse import SparseWeight
from repro.obs import metrics as obs_metrics
from repro.obs import profile
from repro.obs.metrics import Histogram, MetricSample, MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.serve.cache import CacheStats
from repro.serve.runtime import DEFAULT_CACHE_BYTES, ModelRuntime
from repro.serve.server import Server, ServerStats
from repro.serve.shm import shared_weight_store
from repro.serve.worker import ProcessServer
from repro.store.archive import archive_bytes
from repro.utils.errors import GatewayOverloaded, ValidationError

__all__ = [
    "REPLICA_BACKENDS",
    "ShardPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "ConsistentHashPolicy",
    "resolve_policy",
    "ArchiveMLP",
    "Replica",
    "ReplicaStats",
    "ModelStats",
    "GatewayStats",
    "Gateway",
]

#: Replica execution backends a gateway model can run on.
REPLICA_BACKENDS = ("thread", "process")


def _hash64(text: str) -> int:
    """Stable 64-bit point on the hash ring (first 8 bytes of SHA-256)."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _resolve_backend(backend: Optional[str], default: str) -> str:
    resolved = default if backend is None else str(backend)
    if resolved not in REPLICA_BACKENDS:
        raise ValidationError(
            f"unknown replica backend {resolved!r}; "
            f"available: {list(REPLICA_BACKENDS)}"
        )
    return resolved


# ---------------------------------------------------------------------------
# shard policies
# ---------------------------------------------------------------------------


class ShardPolicy(abc.ABC):
    """Chooses which replica of a model takes the next request.

    One policy instance belongs to one model (policies may hold state);
    :meth:`bind` is called once with the model's replica ids — in index
    order — before any :meth:`choose`.  ``choose`` runs on whichever
    thread dispatches — a submitting caller or a completing request — so
    stateful implementations guard their state with a lock.
    """

    name: str = "?"

    def bind(self, replica_ids: Sequence[str]) -> None:  # noqa: B027 - optional hook
        """Learn the replica topology (default: nothing to precompute)."""

    @abc.abstractmethod
    def choose(self, replicas: Sequence["Replica"], key: Optional[str] = None) -> int:
        """Index of the replica that takes the request."""


class RoundRobinPolicy(ShardPolicy):
    """Cycle through replicas in index order — fair and cheap."""

    name = "round-robin"

    def __init__(self) -> None:
        self._lock = make_lock("serve.gateway.policy")
        self._next = 0

    def choose(self, replicas: Sequence["Replica"], key: Optional[str] = None) -> int:
        with self._lock:
            index = self._next % len(replicas)
            self._next += 1
        return index


class LeastLoadedPolicy(ShardPolicy):
    """Send the request to the replica with the fewest in-flight requests.

    Reads each replica server's ``inflight`` gauge (queued + batching, not
    yet resolved) — a plain counter on a thread-backed
    :class:`~repro.serve.server.Server`, a cross-process shared
    ``multiprocessing.Value`` on a
    :class:`~repro.serve.worker.ProcessServer`, so the signal stays correct
    when replicas run in worker processes.  Ties break to the lowest index
    so the choice is deterministic under equal load.
    """

    name = "least-loaded"

    def choose(self, replicas: Sequence["Replica"], key: Optional[str] = None) -> int:
        return min(range(len(replicas)), key=lambda i: (replicas[i].inflight, i))


class ConsistentHashPolicy(ShardPolicy):
    """Stable key → replica mapping over a virtual-node hash ring.

    Each replica id is hashed onto ``vnodes`` ring positions; a keyed
    request lands on the first position at or after its own hash.  The
    mapping depends only on the replica ids (``"<model>/<index>"``) and the
    key, so it is reproducible across gateway instances and restarts, and
    adding a replica remaps only ~``1/n`` of the key space.  Keyless
    requests fall back to round-robin.
    """

    name = "consistent-hash"

    def __init__(self, vnodes: int = 64) -> None:
        if int(vnodes) < 1:
            raise ValidationError("vnodes must be >= 1")
        self._vnodes = int(vnodes)
        self._ring: List[tuple[int, int]] = []
        self._points: List[int] = []
        self._fallback = RoundRobinPolicy()

    def bind(self, replica_ids: Sequence[str]) -> None:
        ring = [
            (_hash64(f"{replica_id}#{v}"), index)
            for index, replica_id in enumerate(replica_ids)
            for v in range(self._vnodes)
        ]
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]

    def replica_for(self, key: str) -> int:
        """The replica index a key maps to (pure function of bind() + key)."""
        if not self._ring:
            raise ValidationError("policy is not bound to a replica set yet")
        slot = bisect_right(self._points, _hash64(key)) % len(self._ring)
        return self._ring[slot][1]

    def choose(self, replicas: Sequence["Replica"], key: Optional[str] = None) -> int:
        if key is None:
            return self._fallback.choose(replicas)
        return self.replica_for(key)


_POLICIES: Dict[str, Callable[[], ShardPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    ConsistentHashPolicy.name: ConsistentHashPolicy,
}


def resolve_policy(policy: Union[str, ShardPolicy]) -> ShardPolicy:
    """A fresh policy instance from a name, or the caller's own instance."""
    if isinstance(policy, ShardPolicy):
        return policy
    try:
        return _POLICIES[str(policy)]()
    except KeyError:
        raise ValidationError(
            f"unknown shard policy {policy!r}; available: {sorted(_POLICIES)}"
        ) from None


# ---------------------------------------------------------------------------
# default replica network
# ---------------------------------------------------------------------------


class ArchiveMLP:
    """Feed-forward stack straight over a runtime's archived fc layers.

    The default replica network when a gateway model ships without a
    ``network_factory`` — synthetic archives have weights but no trained
    zoo network.  Layers apply in manifest order as ``h @ W.T`` (each
    stored matrix is ``(out_features, in_features)``) with ReLU between
    layers and a linear head; sparse-mode runtimes serve
    :class:`~repro.nn.sparse.SparseWeight` operands and the stack runs the
    compressed-domain CSC matmul instead.  Weights are pulled through the
    runtime's decoded-layer cache on every forward pass, so the gateway's
    cache-byte stats reflect real serving traffic.

    The runtime only needs the serving slice of the
    :class:`ModelRuntime` surface (``layer`` / ``layer_names`` /
    ``layer_shape``), so the same class runs over a
    :class:`~repro.serve.shm.SharedRuntime` inside a process-backed
    replica's worker.
    """

    def __init__(self, runtime) -> None:
        self._runtime = runtime
        self._names = list(runtime.layer_names)
        if not self._names:
            raise ValidationError("archive has no layers to serve")
        shapes = [runtime.layer_shape(n) for n in self._names]
        for i in range(1, len(shapes)):
            if shapes[i][1] != shapes[i - 1][0]:
                raise ValidationError(
                    f"archive layers do not chain into an MLP: "
                    f"{self._names[i - 1]!r} is {shapes[i - 1][0]}x{shapes[i - 1][1]} "
                    f"but {self._names[i]!r} expects {shapes[i][1]} inputs "
                    f"({shapes[i][0]}x{shapes[i][1]})"
                )
        self._input_dim = int(shapes[0][1])
        self._output_dim = int(shapes[-1][0])

    @property
    def input_dim(self) -> int:
        return self._input_dim

    @property
    def output_dim(self) -> int:
        return self._output_dim

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        h = np.asarray(x, dtype=np.float32)
        if h.ndim == 1:
            h = h[None, :]
        last = len(self._names) - 1
        fetch_log = profile.active_fetch_log()
        for i, name in enumerate(self._names):
            if fetch_log is not None:
                # A traced/profiled batch: time each weight fetch (a cache
                # hit, a decode-on-demand, or a shared-segment view lookup).
                fetch_start = time.time()
                weight = self._runtime.layer(name)
                profile.record_fetch(name, fetch_start, time.time())
            else:
                weight = self._runtime.layer(name)
            if isinstance(weight, SparseWeight):
                h = weight.matmul(h)
            else:
                h = h @ weight.T
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


#: ``repro_gateway_requests_total`` outcome label -> :class:`ModelStats`
#: count field (the admission core counts under the label names).
_OUTCOME_FIELDS = {
    "cancelled": "cancelled",
    "completed": "completed",
    "deadline_exceeded": "deadline_exceeded",
    "failed": "failures",
    "rejected": "rejected",
    "submitted": "submitted",
}


@dataclass
class ReplicaStats:
    """One replica's share of a model's traffic plus its serving internals.

    ``cache`` (thread replicas) and ``worker_counters`` (process replicas)
    feed the metrics exposition only and stay out of :meth:`as_dict`.
    """

    id: str
    dispatched: int
    inflight: int
    cache_bytes: int
    decodes: int
    server: ServerStats
    cache: Optional[CacheStats] = None
    worker_counters: Optional[Dict[str, int]] = None

    def as_dict(self) -> dict:
        out = {
            k: v for k, v in self.__dict__.items() if k not in ("cache", "worker_counters")
        }
        out["server"] = self.server.as_dict()
        return out


class _Rates:
    """Rates derived from a stats record's counts and elapsed time."""

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def rejection_rate(self) -> float:
        offered = self.submitted + self.rejected
        return self.rejected / offered if offered else 0.0


@dataclass
class ModelStats(_Rates):
    """One hosted model's admission, latency, and replica breakdown."""

    name: str
    policy: str
    backend: str = "thread"
    shared_bytes: int = 0
    submitted: int = 0
    completed: int = 0
    failures: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    cancelled: int = 0
    queue_depth: int = 0
    max_queue_depth: int = 0
    max_concurrency: int = 0
    elapsed_seconds: float = 0.0
    latencies_ms: Dict[str, float] = field(default_factory=dict)
    replicas: List[ReplicaStats] = field(default_factory=list)
    #: The latency histogram behind ``latencies_ms`` (exposition only).
    latency: Optional[Histogram] = None

    @property
    def cache_bytes(self) -> int:
        return int(sum(r.cache_bytes for r in self.replicas))

    def as_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k not in ("replicas", "latency")}
        out["replicas"] = [r.as_dict() for r in self.replicas]
        out["throughput_rps"] = self.throughput_rps
        out["rejection_rate"] = self.rejection_rate
        out["cache_bytes"] = self.cache_bytes
        return out


@dataclass
class GatewayStats(_Rates):
    """Fleet-wide aggregates plus the per-model breakdown."""

    elapsed_seconds: float = 0.0
    submitted: int = 0
    completed: int = 0
    failures: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    cancelled: int = 0
    cache_bytes: int = 0
    shared_bytes: int = 0
    latencies_ms: Dict[str, float] = field(default_factory=dict)
    models: Dict[str, ModelStats] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "models"}
        out["models"] = {name: m.as_dict() for name, m in self.models.items()}
        out["throughput_rps"] = self.throughput_rps
        out["rejection_rate"] = self.rejection_rate
        return out


# ---------------------------------------------------------------------------
# replicas and per-model state
# ---------------------------------------------------------------------------


class Replica:
    """One serving copy of a model behind either backend.

    A thread replica owns an independent :class:`ModelRuntime` (its own
    archive handle and decoded-layer cache, so replicas never contend on a
    shared cache lock) plus a :class:`Server` whose batching loop is the
    replica's execution thread.  A process replica owns no runtime at all —
    its server is a :class:`~repro.serve.worker.ProcessServer` handle and
    the weights live in the model's host-wide shared segment; :meth:`stats`
    makes both shapes answer the same questions.
    """

    def __init__(
        self,
        model_name: str,
        index: int,
        server,
        *,
        runtime: Optional[ModelRuntime] = None,
        network=None,
    ) -> None:
        self.id = f"{model_name}/{index}"
        self.index = index
        self.runtime = runtime
        self.network = network
        self.server = server
        self.dispatched = 0  # guarded by the owning model's lock

    @property
    def inflight(self) -> int:
        return self.server.inflight

    def stats(self, dispatched: int) -> ReplicaStats:
        """One read of this replica's serving state.

        A thread replica reads its runtime's stats once (cache counters,
        resident bytes, decodes).  A process replica reports its worker's
        counters.  It holds no private cache, because its weights alias
        the shared segment, counted once per model.  Its decode count is
        0: the worker only builds views over the segment the gateway
        decoded once per host, which is the property this stat shows.
        """
        if self.runtime is not None:
            runtime = self.runtime.stats()
            cache_bytes, decodes = runtime.cache.current_bytes, runtime.decodes
            cache, worker = runtime.cache, None
        else:
            cache_bytes, decodes = 0, 0
            cache, worker = None, self.server.worker_counters()
        return ReplicaStats(
            id=self.id,
            dispatched=dispatched,
            inflight=self.inflight,
            cache_bytes=int(cache_bytes),
            decodes=int(decodes),
            server=self.server.stats(),
            cache=cache,
            worker_counters=worker,
        )

    def close_runtime(self) -> None:
        if self.runtime is not None:
            self.runtime.close()


@dataclass(eq=False)
class _Request:
    """One admitted request as the admission core tracks it.

    ``state`` moves ``queued`` (parked, holds no slot) → ``dispatched``
    (holds a concurrency slot) → ``settled``.  A caller that leaves first
    (an async deadline or cancellation) ends it ``abandoned`` instead.
    Every transition happens under the model lock, so the outcome is
    assigned exactly once.
    """

    x: np.ndarray
    key: Optional[str]
    future: Future
    enqueued: float
    span: Optional[Span] = None
    wall_enqueued: float = 0.0  # time.time() twin of enqueued, traced only
    state: str = "queued"


def _finish_span(span: Optional[Span], outcome: str) -> None:
    """Stamp a request's terminal outcome on its root span and finish it."""
    if span is None:
        return
    if outcome == "completed":
        span.set(outcome=outcome)
    else:
        span.set(status="error" if outcome == "failed" else outcome, outcome=outcome)
    span.finish()


class _Model:
    """Per-model state: replicas, shard policy, and the admission core.

    The core is one lock over a free-slot count, a FIFO of parked requests
    and the outcome counters; both front doors run every request through
    it.  :meth:`admit` grants a free ``max_concurrency`` slot at once (the
    submitting thread then dispatches the request inline) or parks the
    request.  :meth:`_settle` frees a finished request's slot and grants
    it to the oldest parked request, which the completing thread
    dispatches next.  The lock covers bookkeeping only: replica submits
    and caller-future resolution run with it released, so no pipe write
    waits under it and a caller's done-callback may ``submit`` again.
    """

    def __init__(
        self,
        name: str,
        replicas: List[Replica],
        policy: ShardPolicy,
        *,
        max_queue_depth: int,
        max_concurrency: int,
        backend: str = "thread",
        source_bytes: Optional[bytes] = None,
        sparse: bool = False,
        input_dim: Optional[int] = None,
    ) -> None:
        self.name = name
        self.replicas = replicas
        self.policy = policy
        self.max_queue_depth = max_queue_depth
        self.max_concurrency = max_concurrency
        self.backend = backend
        # Expected request width, when the serving network declares one —
        # what admission-time shape validation checks against (None skips
        # the width check but still requires a 1-D float32-castable sample).
        self.input_dim = input_dim
        # Process backend: the archive bytes the shared segment is decoded
        # from at every start() (released/unlinked at stop()), plus the
        # live handle and the last-known segment size for post-stop stats.
        self.source_bytes = source_bytes
        self.sparse = sparse
        self.shared = None
        self.shared_bytes = 0
        self.lock = make_lock("serve.gateway.model")
        # Notified whenever ``queued`` reaches zero; stop() waits on it.
        self.idle = threading.Condition(self.lock)
        self.reset_for_run(accepting=False)

    def reset_for_run(self, accepting: bool = True) -> None:
        """Fresh slots, queue and counters for a new gateway run (stats are
        per run, exactly like :class:`Server`'s)."""
        with self.lock:
            self.free = self.max_concurrency
            self.parked: Deque[_Request] = deque()
            self.queued = 0  # admitted, not yet handed to a replica server
            self.counts = dict.fromkeys(
                ("submitted", "completed", "failed", "rejected",
                 "deadline_exceeded", "cancelled"),
                0,
            )
            # Log-scale buckets for percentile exposition plus a fixed
            # reservoir that keeps small-run percentiles exact.
            self.latency_hist = Histogram()
            for replica in self.replicas:
                replica.dispatched = 0
            self.accepting = accepting

    # -- admission core ----------------------------------------------------
    def admit(self, request: _Request) -> bool:
        """Count ``request`` in: ``True`` when it holds a slot and must be
        dispatched now, ``False`` when it parked behind busy replicas."""
        with self.lock:
            if not self.accepting:
                raise ValidationError("gateway is not running (call start())")
            granted = self.free > 0 and not self.parked
            if granted:
                self.free -= 1
                request.state = "dispatched"
            elif len(self.parked) >= self.max_queue_depth:
                self.counts["rejected"] += 1
                raise GatewayOverloaded(
                    f"model {self.name!r} is saturated: gateway queue is at its "
                    f"depth limit of {self.max_queue_depth}; retry with "
                    "backoff or shed load"
                )
            else:
                self.parked.append(request)
            self.counts["submitted"] += 1
            self.queued += 1
        return granted

    def dispatch(self, request: Optional[_Request]) -> None:
        """Hand slot-holding requests to replicas, one after another.

        A hand-off that fails settles its request, and the slot it frees
        passes to the next parked request, which this loop dispatches too.
        """
        while request is not None:
            request = self._hand_off(request)

    def _hand_off(self, request: _Request) -> Optional[_Request]:
        # A sync caller may have cancelled its future while it was parked;
        # the standard grant hook reports that, and the request is skipped.
        if not request.future.set_running_or_notify_cancel():
            return self._settle(request, "cancelled", handed=False)
        span = request.span
        if span is not None:
            # Admission wait: submit-time enqueue → concurrency slot.
            span.child("gateway.admission", start_s=request.wall_enqueued).finish()
        try:
            shard_start = time.time() if span is not None else 0.0
            replica = self.replicas[int(self.policy.choose(self.replicas, request.key))]
            if span is not None:
                span.child(
                    "gateway.shard",
                    start_s=shard_start,
                    attrs={"policy": self.policy.name, "replica": replica.id},
                ).finish()
            inner = replica.server.submit(request.x, span)
        except BaseException as exc:
            # A raising shard policy or a down replica fails this request
            # only; its slot passes on.
            return self._settle(request, "error", error=exc, handed=False)
        with self.lock:
            replica.dispatched += 1
            self._unqueue_locked()
        inner.add_done_callback(lambda f, r=request: self.dispatch(self._on_done(r, f)))
        return None

    def _on_done(self, request: _Request, inner: Future) -> Optional[_Request]:
        error = inner.exception()
        if error is None:
            return self._settle(request, "completed", result=inner.result())
        return self._settle(request, "failed", error=error)

    def _settle(
        self,
        request: _Request,
        outcome: str,
        *,
        result=None,
        error: Optional[BaseException] = None,
        handed: bool = True,
    ) -> Optional[_Request]:
        """A slot-holding request is finished: free the slot, assign the
        outcome unless the caller already left, resolve the caller.

        Returns the parked request the slot passed to, for the caller to
        dispatch.
        """
        with self.lock:
            if not handed:
                self._unqueue_locked()
            owner = request.state == "dispatched"
            if owner:
                self._assign_locked(request, "settled", outcome)
            granted = self.parked.popleft() if self.parked else None
            if granted is None:
                self.free += 1
            else:
                granted.state = "dispatched"
        if owner:
            _finish_span(request.span, outcome)
            if error is not None:
                request.future.set_exception(error)
            elif outcome == "completed":
                request.future.set_result(result)
        return granted

    def abandon(self, request: _Request, outcome: str) -> bool:
        """The caller left (deadline or cancellation): assign ``outcome`` now.

        A parked request leaves the queue at once; a dispatched one keeps
        its slot until the replica answers, and that answer is discarded.
        ``False`` when the request had already settled.
        """
        with self.lock:
            if request.state == "queued":
                self.parked.remove(request)
                self._unqueue_locked()
            elif request.state != "dispatched":
                return False
            self._assign_locked(request, "abandoned", outcome)
        _finish_span(request.span, outcome)
        return True

    def _assign_locked(self, request: _Request, state: str, outcome: str) -> None:
        request.state = state
        self.counts["failed" if outcome == "error" else outcome] += 1
        self.latency_hist.observe(time.perf_counter() - request.enqueued)

    def _unqueue_locked(self) -> None:
        self.queued -= 1
        if not self.queued:
            self.idle.notify_all()

    def close_admission(self) -> None:
        with self.lock:
            self.accepting = False

    def wait_handed_off(self) -> None:
        """Block until every admitted request has reached a replica."""
        with self.lock:
            self.idle.wait_for(lambda: not self.queued)

    def stats(self, elapsed: float) -> ModelStats:
        """This model's stats from one snapshot taken under the model lock."""
        with self.lock:
            counts = dict(self.counts)
            queued = self.queued
            latency = self.latency_hist.copy()
            dispatched = [replica.dispatched for replica in self.replicas]
        return ModelStats(
            name=self.name,
            policy=self.policy.name,
            backend=self.backend,
            shared_bytes=self.shared_bytes,
            queue_depth=queued,
            max_queue_depth=self.max_queue_depth,
            max_concurrency=self.max_concurrency,
            elapsed_seconds=elapsed,
            latencies_ms=latency.percentiles(scale=1e3),
            replicas=[
                replica.stats(count) for replica, count in zip(self.replicas, dispatched)
            ],
            latency=latency,
            **{name: counts[outcome] for outcome, name in _OUTCOME_FIELDS.items()},
        )


# ---------------------------------------------------------------------------
# the gateway
# ---------------------------------------------------------------------------


class Gateway:
    """Multi-model serving front door with sharding and admission control.

    Parameters
    ----------
    store:
        Optional default :class:`~repro.store.ModelStore` that
        ``add_model(digest=...)`` resolves content digests against.
    replica_backend:
        Default execution backend for hosted models: ``"thread"`` (replicas
        share the gateway's interpreter — the PR-5 behaviour and still the
        default) or ``"process"`` (each replica is a worker process serving
        zero-copy from a shared-memory weight segment decoded once per
        model; scales past the GIL).  Per-model override via
        ``add_model(replica_backend=...)``.

    Usage::

        gateway = Gateway(store=store)
        gateway.add_model("ranker", digest="ab12cd34", replicas=4,
                          policy="least-loaded", max_queue_depth=128)
        gateway.add_model("embedder", source="embedder.dsz", sparse=True,
                          policy="consistent-hash")
        with gateway:
            future = gateway.submit("ranker", x, key=user_id)
            probs = future.result()
    """

    def __init__(
        self,
        *,
        store=None,
        replica_backend: str = "thread",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._store = store
        self._default_backend = _resolve_backend(replica_backend, "thread")
        self._models: Dict[str, _Model] = {}
        self._gate_lock = make_lock("serve.gateway.gate")
        # Names reserved by in-flight add_model() calls: source resolution
        # and replica construction run outside the gate lock, so the name
        # is claimed first and installed (or abandoned) afterwards.
        self._pending_models: set = set()
        self._running = False
        self._starting = False
        self._closed = False
        self._started_at = 0.0
        self._stopped_at: Optional[float] = None
        # Tracing: no exporter → Tracer.sample() short-circuits to False and
        # the request path never builds a span.  Metrics: the gateway is a
        # *collector* on the registry (registered per run), so serving hot
        # paths write only their existing counters; metric samples are
        # rendered from stats() at scrape time.
        self._tracer = tracer if tracer is not None else Tracer()
        self._registry = metrics if metrics is not None else obs_metrics.registry()

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this gateway's collector publishes into."""
        return self._registry

    # -- model management --------------------------------------------------
    def add_model(
        self,
        name: str,
        source: Union[str, bytes, object, None] = None,
        *,
        digest: Optional[str] = None,
        store=None,
        replicas: int = 1,
        sparse: bool = False,
        network_factory: Optional[Callable[[], object]] = None,
        policy: Union[str, ShardPolicy] = "round-robin",
        max_queue_depth: int = 64,
        max_concurrency: Optional[int] = None,
        batch_size: int = 32,
        max_batch_delay: float = 0.002,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        verify: bool = True,
        replica_backend: Optional[str] = None,
    ) -> None:
        """Host a model behind the gateway under ``name``.

        Exactly one of ``source`` (archive path / bytes / open archive /
        :class:`CompressedModel`) or ``digest`` (resolved against a
        :class:`ModelStore` — full digest or unique prefix, ``sha256:``
        scheme accepted) must be given.  ``network_factory`` builds one
        fresh network per replica (the replica's server installs the
        decoded archive weights into it at start); without it the replica
        serves an :class:`ArchiveMLP` directly over the archive.
        ``max_concurrency`` defaults to two requests in service per
        replica.  Models can only be added while the gateway is stopped.

        ``replica_backend`` overrides the gateway default (``None`` keeps
        it).  Process-backed models need a re-shareable source — path,
        bytes, ``CompressedModel``, or ``digest`` (an already-open
        :class:`ModelArchive` cannot cross process boundaries) — and a
        *picklable* ``network_factory`` (a module-level function, not a
        closure) since the factory runs inside each worker; ``cache_bytes``
        is ignored there because workers serve zero-copy from the shared
        segment instead of a private decoded-layer cache.
        """
        if int(replicas) < 1:
            raise ValidationError("replicas must be >= 1")
        if int(max_queue_depth) < 1:
            raise ValidationError("max_queue_depth must be >= 1")
        if max_concurrency is None:
            max_concurrency = 2 * int(replicas)
        if int(max_concurrency) < 1:
            raise ValidationError("max_concurrency must be >= 1")
        if (source is None) == (digest is None):
            raise ValidationError("pass exactly one of source= or digest=")
        backend = _resolve_backend(replica_backend, self._default_backend)
        # Reserve the name under the gate lock, then do all the slow work —
        # store reads, file reads, archive probes, runtime construction —
        # outside it, and install (re-checking lifecycle state) at the end.
        # Two gateways' or two threads' add_model calls must not serialise
        # each other's multi-second decodes on this lock.
        with self._gate_lock:
            self._check_can_add(name)
            self._pending_models.add(name)
        try:
            if digest is not None:
                resolved_store = store if store is not None else self._store
                if resolved_store is None:
                    raise ValidationError(
                        "digest= needs a store (Gateway(store=...) or add_model(store=...))"
                    )
                source = resolved_store.get_bytes(resolved_store.resolve(digest))
            if isinstance(source, CompressedModel):
                # Encode the container once, not once per replica.
                source = archive_bytes(source)

            source_bytes: Optional[bytes] = None
            input_dim: Optional[int] = None
            pool: List[Replica] = []
            try:
                if backend == "process":
                    if isinstance(source, (str, Path)):
                        source_bytes = Path(source).read_bytes()
                    elif isinstance(source, (bytes, bytearray, memoryview)):
                        source_bytes = bytes(source)
                    else:
                        raise ValidationError(
                            "process-backed models need a re-shareable source "
                            "(path, bytes, CompressedModel, or digest=); an "
                            f"open {type(source).__name__} cannot cross "
                            "process boundaries"
                        )
                    # Validate the archive (and, for the default network,
                    # the MLP chain) now — add_model is where a bad source
                    # should fail, not inside a worker at start().
                    with ModelRuntime(
                        source_bytes, cache_bytes=1, verify=False, sparse=sparse
                    ) as probe:
                        if network_factory is None:
                            input_dim = ArchiveMLP(probe).input_dim
                    for index in range(int(replicas)):
                        server = ProcessServer(
                            f"{name}/{index}",
                            batch_size=batch_size,
                            max_batch_delay=max_batch_delay,
                            network_factory=network_factory,
                        )
                        pool.append(Replica(name, index, server))
                else:
                    for index in range(int(replicas)):
                        runtime = ModelRuntime(
                            source, cache_bytes=cache_bytes, verify=verify,
                            sparse=sparse,
                        )
                        network = (
                            network_factory() if network_factory is not None
                            else ArchiveMLP(runtime)
                        )
                        # ArchiveMLP pulls weights through the runtime cache
                        # per forward; factory networks get the decoded
                        # weights installed at start().
                        server = Server(
                            network,
                            runtime if network_factory is not None else None,
                            batch_size=batch_size,
                            max_batch_delay=max_batch_delay,
                        )
                        pool.append(
                            Replica(name, index, server, runtime=runtime,
                                    network=network)
                        )
                    # Factory networks that declare an input width get the
                    # same admission-time shape check as ArchiveMLP stacks.
                    width = getattr(pool[0].network, "input_dim", None)
                    input_dim = int(width) if width is not None else None
            except BaseException:
                for replica in pool:
                    replica.close_runtime()
                raise

            shard_policy = resolve_policy(policy)
            shard_policy.bind([replica.id for replica in pool])
            model = _Model(
                name,
                pool,
                shard_policy,
                max_queue_depth=int(max_queue_depth),
                max_concurrency=int(max_concurrency),
                backend=backend,
                source_bytes=source_bytes,
                sparse=bool(sparse),
                input_dim=input_dim,
            )
            with self._gate_lock:
                installable = not (self._closed or self._running or self._starting)
                if installable:
                    self._models[name] = model
            if not installable:
                # The gateway changed state while we built replicas (e.g. a
                # concurrent start()); leave no half-registered model behind.
                for replica in pool:
                    replica.close_runtime()
                raise ValidationError(
                    "cannot add models while the gateway is running (stop() first)"
                )
        finally:
            with self._gate_lock:
                self._pending_models.discard(name)

    def _check_can_add(self, name: str) -> None:
        """Gate-lock-held validation that ``name`` can be registered."""
        if self._closed:
            raise ValidationError("gateway is closed")
        if self._running or self._starting:
            raise ValidationError(
                "cannot add models while the gateway is running (stop() first)"
            )
        if name in self._models or name in self._pending_models:
            raise ValidationError(f"gateway already hosts a model named {name!r}")

    def models(self) -> List[str]:
        with self._gate_lock:
            return list(self._models)

    def _model(self, name: str) -> _Model:
        try:
            return self._models[name]
        except KeyError:
            raise ValidationError(
                f"gateway hosts no model named {name!r}; "
                f"available: {sorted(self._models)}"
            ) from None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Gateway":
        """Start every replica server and open admission.

        The slow half — shared-segment acquisition (a full decode on first
        touch) and worker process spawns — runs *outside* the gate lock,
        guarded by a ``_starting`` flag, so a gateway warming up never
        blocks another thread's ``submit``/``stats`` on a multi-second
        decode.
        """
        entries = self._begin_start()
        if not entries:
            return self  # already running
        self._start_replica_servers(entries)
        self._mark_running(entries)
        return self

    def _begin_start(self) -> List[_Model]:
        """Lifecycle checks + the ``_starting`` flag; the model list to
        start, or ``[]`` when the gateway is already running."""
        with self._gate_lock:
            if self._closed:
                raise ValidationError("gateway is closed")
            if self._running:
                return []
            if self._starting:
                raise ValidationError("gateway start already in progress")
            if not self._models:
                raise ValidationError("gateway hosts no models (call add_model())")
            self._starting = True
            return list(self._models.values())

    def _start_replica_servers(self, entries: List[_Model]) -> None:
        """The slow half of start(), run outside the gate lock.

        Acquires shared weight segments and boots every replica server.  A
        failed weight install / worker spawn leaves the gateway cleanly
        stopped (everything already started is stopped, segments released,
        the ``_starting`` flag cleared) so start() can be retried.
        """
        started: List = []
        acquired: List[_Model] = []
        try:
            for entry in entries:
                if entry.backend == "process":
                    # Decode once per (model, host): first acquire for
                    # these bytes builds the segment, replicas share it.
                    entry.shared = shared_weight_store().acquire(
                        entry.source_bytes, sparse=entry.sparse
                    )
                    entry.shared_bytes = entry.shared.total_bytes
                    acquired.append(entry)
                    for replica in entry.replicas:
                        replica.server.set_shared(entry.shared)
                for replica in entry.replicas:
                    replica.server.start()
                    started.append(replica.server)
        except BaseException:
            for server in started:
                server.stop()
            for entry in acquired:
                shared_weight_store().release(entry.shared)
                entry.shared = None
            with self._gate_lock:
                self._starting = False
            raise

    def _mark_running(self, entries: List[_Model]) -> None:
        """Tail of start(): open admission, flip flags, start the stats clock."""
        with self._gate_lock:
            for entry in entries:
                entry.reset_for_run()
            self._running = True
            self._starting = False
            self._started_at = time.perf_counter()
            self._stopped_at = None
            self._registry.register_collector(self._collect)

    def _shutdown_replica_servers(self, entries: List[_Model]) -> None:
        """Tail of stop(): stop every replica server, release the segments."""
        for entry in entries:
            for replica in entry.replicas:
                replica.server.stop()
            if entry.shared is not None:
                # Workers are gone; dropping the gateway's reference unlinks
                # the segment once no other model/gateway shares it.  A
                # restart re-acquires (and, if needed, re-decodes) cleanly.
                shared_weight_store().release(entry.shared)
                entry.shared = None
        self._registry.unregister_collector(self._collect)
        self._stopped_at = time.perf_counter()

    def stop(self) -> None:
        """Close admission, drain every accepted request, stop the fleet.

        Parked requests still get their slots as in-flight ones complete;
        once every admitted request has reached a replica, ``Server.stop``
        drains those — every future returned by ``submit`` resolves.
        """
        entries = self._close_admission()
        if entries:
            self._drain(entries)

    def _close_admission(self) -> List[_Model]:
        """Head of stop(): the models to drain, or ``[]`` when not running."""
        with self._gate_lock:
            if not self._running:
                return []
            self._running = False
            entries = list(self._models.values())
        for entry in entries:
            entry.close_admission()
        return entries

    def _drain(self, entries: List[_Model]) -> None:
        """Blocking tail of stop(): hand off the backlog, stop the fleet."""
        for entry in entries:
            entry.wait_handed_off()
        self._shutdown_replica_servers(entries)

    def close(self) -> None:
        """Stop (if running) and release every replica runtime."""
        self.stop()
        self._release_runtimes()

    def _release_runtimes(self) -> None:
        with self._gate_lock:
            if self._closed:
                return
            self._closed = True
            for entry in self._models.values():
                for replica in entry.replicas:
                    replica.close_runtime()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path ------------------------------------------------------
    def _validate_sample(self, entry: _Model, x: np.ndarray) -> np.ndarray:
        """Admission-time shape/dtype validation; the float32 sample.

        A replica server stacks co-batched samples and runs one forward
        pass over the lot, so a single wrong-shaped or non-castable sample
        would fail every neighbour in its batch.  Rejecting it here keeps
        bad inputs a caller-local :class:`ValidationError` instead of a
        batch-wide failure.
        """
        try:
            sample = np.asarray(x, dtype=np.float32)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"sample for model {entry.name!r} is not castable to "
                f"float32: {exc}"
            ) from None
        if sample.ndim != 1:
            raise ValidationError(
                f"sample for model {entry.name!r} must be a 1-D feature "
                f"vector, got shape {sample.shape}"
            )
        if entry.input_dim is not None and sample.shape[0] != entry.input_dim:
            raise ValidationError(
                f"sample for model {entry.name!r} has {sample.shape[0]} "
                f"features but the model expects {entry.input_dim}"
            )
        return sample

    def submit(self, model: str, x: np.ndarray, *, key: Optional[str] = None) -> Future:
        """Admit one sample for ``model``; the future resolves to its
        output row.

        ``key`` is the shard key (consistent-hash policies route by it;
        others ignore it).  With a free concurrency slot the request goes
        to a replica before ``submit`` returns; otherwise it waits in the
        model's bounded queue.  Raises :class:`GatewayOverloaded`
        immediately — never blocks — when that queue is full, and
        :class:`ValidationError` for a bad sample (wrong shape/width or not
        float32-castable — checked at admission so one bad input can never
        fail a co-batched group) or when the gateway is not running.
        Cancelling the future while the request is still queued withdraws
        it (counted ``cancelled``).
        """
        return self._enqueue(model, x, key)[1].future

    def _enqueue(
        self, model: str, x: np.ndarray, key: Optional[str]
    ) -> "tuple[_Model, _Request]":
        """Admission shared by both front doors: validate, admit, and
        dispatch at once when a slot is free."""
        entry = self._model(model)
        # Validate before the span exists: a rejected sample must not leak
        # an unfinished gateway.request span.
        sample = self._validate_sample(entry, x)
        span: Optional[Span] = None
        if self._tracer.sample():
            span = self._tracer.start_span("gateway.request", attrs={"model": model})
            if key is not None:
                span.set(key=key)
        request = _Request(
            x=sample,
            key=key,
            future=Future(),
            enqueued=time.perf_counter(),
            span=span,
            wall_enqueued=time.time() if span is not None else 0.0,
        )
        try:
            granted = entry.admit(request)
        except BaseException as exc:
            _finish_span(span, "rejected" if isinstance(exc, GatewayOverloaded) else "error")
            raise
        if granted:
            entry.dispatch(request)
        return entry, request

    def submit_many(
        self,
        model: str,
        xs: Sequence[np.ndarray],
        *,
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Future]:
        """Enqueue a sequence of samples (``keys`` parallels ``xs``).

        Admission is per sample, so a mid-sequence rejection (a full queue
        raising :class:`GatewayOverloaded`, or a bad sample raising
        :class:`ValidationError`) can leave earlier samples already
        admitted and in flight.  Those handles ride on the exception as
        ``exc.admitted`` (a tuple of futures) so callers can drain or await
        the partial batch instead of leaking it.
        """
        if keys is not None and len(keys) != len(xs):
            raise ValidationError("keys must parallel xs")
        futures: List[Future] = []
        try:
            for i, x in enumerate(xs):
                futures.append(
                    self.submit(model, x, key=keys[i] if keys is not None else None)
                )
        except BaseException as exc:
            try:
                exc.admitted = tuple(futures)
            except AttributeError:  # exotic exception with __slots__
                pass
            raise
        return futures

    def infer(
        self, model: str, x: np.ndarray, *, key: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Synchronous single-sample inference through the gateway."""
        return self.submit(model, x, key=key).result(timeout=timeout)

    def queue_depth(self, model: str) -> int:
        """Requests admitted for ``model`` but not yet handed to a replica."""
        entry = self._model(model)
        with entry.lock:
            return entry.queued

    # -- statistics --------------------------------------------------------
    def stats(self) -> GatewayStats:
        """Fleet totals summed over one :meth:`_Model.stats` per model."""
        end = self._stopped_at if self._stopped_at is not None else time.perf_counter()
        elapsed = max(end - self._started_at, 0.0) if self._started_at else 0.0
        total = GatewayStats(elapsed_seconds=elapsed)
        fleet_hist = Histogram()
        with self._gate_lock:
            entries = list(self._models.values())
        for entry in entries:
            model = total.models[entry.name] = entry.stats(elapsed)
            for name in (*_OUTCOME_FIELDS.values(), "cache_bytes", "shared_bytes"):
                setattr(total, name, getattr(total, name) + getattr(model, name))
            fleet_hist.merge(model.latency)
        total.latencies_ms = fleet_hist.percentiles(scale=1e3)
        return total

    def _collect(self) -> List[MetricSample]:
        """Registry collector: :meth:`stats` rendered as metric samples.

        Runs at scrape time only — the request hot path never touches the
        registry — and reads no serving state of its own.  Registered at
        :meth:`start`, unregistered at :meth:`stop`.
        """
        samples: List[MetricSample] = []
        for model in self.stats().models.values():
            for outcome, name in _OUTCOME_FIELDS.items():
                samples.append(
                    MetricSample(
                        name="repro_gateway_requests_total",
                        kind="counter",
                        help="Gateway requests by model and outcome.",
                        labels={"model": model.name, "outcome": outcome},
                        value=float(getattr(model, name)),
                    )
                )
            samples.append(
                # The dedicated family (naming.GATEWAY_DEADLINE_EXCEEDED_TOTAL)
                # alongside the outcome label: deadline misses are the SLO
                # signal dashboards alert on, so they get a first-class name.
                MetricSample(
                    name="repro_gateway_deadline_exceeded_total",
                    kind="counter",
                    help="Requests whose deadline expired before a result.",
                    labels={"model": model.name},
                    value=float(model.deadline_exceeded),
                )
            )
            samples.append(
                MetricSample(
                    name="repro_gateway_queue_depth",
                    kind="gauge",
                    help="Requests admitted but not yet dispatched to a replica.",
                    labels={"model": model.name},
                    value=float(model.queue_depth),
                )
            )
            samples.append(
                MetricSample(
                    name="repro_gateway_latency_seconds",
                    kind="histogram",
                    help="Submit-to-resolve request latency by model.",
                    labels={"model": model.name},
                    histogram=model.latency.to_dict(),
                )
            )
            cache_events = dict.fromkeys(("coalesced", "evictions", "hits", "misses"), 0)
            for replica in model.replicas:
                labels = {"model": model.name, "replica": replica.id}
                samples.append(
                    MetricSample(
                        name="repro_replica_inflight",
                        kind="gauge",
                        help="Requests in service on a replica (queued + batching).",
                        labels=labels,
                        value=float(replica.inflight),
                    )
                )
                samples.append(
                    MetricSample(
                        name="repro_replica_dispatched_total",
                        kind="counter",
                        help="Requests the shard policy routed to a replica.",
                        labels=labels,
                        value=float(replica.dispatched),
                    )
                )
                if replica.cache is not None:
                    for event in cache_events:
                        cache_events[event] += getattr(replica.cache, event)
                if replica.worker_counters is not None:
                    counters = replica.worker_counters
                    for stage in ("forward", "fetch"):
                        samples.append(
                            MetricSample(
                                name="repro_worker_stage_seconds_total",
                                kind="counter",
                                help=(
                                    "Worker-process time by serving stage "
                                    "(forward pass, per-layer weight fetch)."
                                ),
                                labels={**labels, "stage": stage},
                                value=counters[f"{stage}_ns"] / 1e9,
                            )
                        )
                        samples.append(
                            MetricSample(
                                name="repro_worker_stage_total",
                                kind="counter",
                                help="Worker-process stage executions.",
                                labels={**labels, "stage": stage},
                                value=float(counters[f"{stage}_count"]),
                            )
                        )
            for event, value in cache_events.items():
                samples.append(
                    MetricSample(
                        name="repro_cache_events_total",
                        kind="counter",
                        help="Decoded-layer cache events across a model's replicas.",
                        labels={"model": model.name, "event": event},
                        value=float(value),
                    )
                )
            samples.append(
                MetricSample(
                    name="repro_cache_resident_bytes",
                    kind="gauge",
                    help="Decoded bytes resident across a model's replica caches.",
                    labels={"model": model.name},
                    value=float(model.cache_bytes),
                )
            )
        return samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(
            f"{name}x{len(entry.replicas)}" for name, entry in self._models.items()
        )
        state = "running" if self._running else ("closed" if self._closed else "stopped")
        return f"<Gateway {state} [{names}]>"
