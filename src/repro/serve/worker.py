"""Process-backed replica: a worker process plus its parent-side handle.

A thread replica keeps everything in the gateway process — which is exactly
why thread pools stop scaling: every forward pass serializes on the one
interpreter's GIL.  A *process* replica moves the hot loop out:

* :func:`_worker_main` is the child entry point.  It reconstructs the
  model's weights **zero-copy** from the host's shared-memory segment
  (:class:`~repro.serve.shm.SharedRuntime` — no archive read, no codec
  pass, no private weight copy), builds the serving network (the default
  :class:`~repro.serve.gateway.ArchiveMLP`, or a picklable
  ``network_factory``), and runs :func:`~repro.serve.server.serve_batches`
  — the one batching loop the in-process
  :class:`~repro.serve.server.Server` runs too — over the requests a
  reader thread drains off the request pipe: a batch closes when it is
  full, when nothing more is on the way (the parent's per-worker ``sent``
  counter, a shared ``RawValue``, equals the requests taken; a saturated
  replica keeps waiting regardless), or when the oldest request has waited
  ``max_batch_delay`` since the reader received it; then one forward pass
  answers the whole batch with a single response message.  Because the
  pipe is always drained, a parent-side send never waits on the worker's
  response writes.  That matters because the parent's receiver thread
  sends too: settling a response batch runs each future's done-callback,
  and the gateway's callback dispatches the next parked request from that
  same thread.
* :class:`ProcessServer` is the parent-side handle with the same surface a
  :class:`~repro.serve.gateway.Replica` expects from a ``Server``
  (``start/stop/submit/infer/inflight/stats``), so the gateway's dispatch,
  draining, and stats code is backend-agnostic.  Requests travel as
  ``(id, sample, trace_ctx)`` tuples over a one-way pipe; responses come
  back batched.  The in-flight gauge is a shared ``multiprocessing.Value``
  — readable from any process, which keeps :class:`LeastLoadedPolicy`
  correct no matter where it runs.

**Observability.**  Batch and stage counters live in a per-run
:class:`~repro.obs.metrics.MetricsBlock` (a shared-memory slot array the
worker single-writes and the parent reads live), created at :meth:`start`
and unlinked at :meth:`stop` — same per-run lifecycle as the weight
segment.  Per-request latency lands in a bounded
:class:`~repro.obs.metrics.Histogram`.  A request submitted with a live
trace span ships its span *context* to the worker, whose batching loop
builds queue/batch/forward/decode span dicts with wall-clock timestamps,
returned piggybacked on the response batch; the parent exports them
through the span's tracer, stitching worker-process spans under the
gateway-side root (see :mod:`repro.obs.trace`).

**Crash containment.**  If the worker dies (OOM-kill, segfault, ``kill
-9``), the parent's receiver thread sees the pipe break, fails exactly the
requests that were pending on that replica with
:class:`~repro.utils.errors.ReplicaCrashed` (a retryable 503), respawns
the worker against the still-live shared segment, and keeps serving.
After ``max_respawns`` consecutive crashes the replica stays down and
rejects submissions instead of crash-looping.  Workers never own the
shared segment, so no crash can leak ``/dev/shm``.

**Start method.**  Workers default to ``spawn``: ``fork`` from a gateway
that already runs receiver threads inherits locks in unknown
states (the same reason the codec registry documents spawn semantics), and
spawn behaves identically across platforms.  The decoded weights cross via
shared memory, so spawn's fresh imports are the only startup cost, and
they stay on the serving path: package ``__init__`` modules re-export
lazily (:mod:`repro._lazy`), so :func:`_worker_main` loads this module,
:mod:`~repro.serve.shm` and :mod:`~repro.serve.gateway` with the codecs,
decoder, network and observability code they import, and never the
assessment engine, training, asyncio or the HTTP front door.  SciPy loads
only for a sparse model, on its first
:class:`~repro.nn.sparse.SparseWeight`.  On a 2-vCPU x86 guest that import
set takes ~0.3 s and ~38 MB max RSS in a fresh interpreter, and
``Gateway.start()`` with one dense process replica ~0.5 s.
``REPRO_WORKER_START_METHOD=fork`` opts into faster starts where safe.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.lint.lockcheck import make_lock
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.obs.metrics import Histogram, MetricsBlock
from repro.obs.trace import Span
from repro.serve.server import Pending, ServerStats, serve_batches, settle_batch
from repro.utils.errors import ReplicaCrashed, ValidationError

__all__ = [
    "ProcessServer",
    "REQUEST_FIELDS",
    "RESPONSE_KINDS",
    "WorkerSpec",
    "resolve_start_method",
]

_log = get_logger("serve.worker")

_READY_TIMEOUT_S = 120.0  # a spawned worker boots in ~0.3 s; slow CI boxes need slack

#: The pipe protocol schema — the single source of truth the PIPE-PROTOCOL
#: lint rule checks every sender and receiver against.  A request crosses
#: the request pipe as a tuple with exactly these fields, in this order
#: (``None`` is the stop sentinel):
REQUEST_FIELDS = ("req_id", "sample", "ctx")
#: Response messages are ``(kind, *payload)`` tuples; this maps each kind
#: to its total tuple arity (kind tag included).
RESPONSE_KINDS = {"ready": 2, "failed": 2, "ok": 4, "err": 4, "bye": 1}

#: MetricsBlock slot layout shared between parent and worker.  ``fetch`` is
#: per-layer weight-view lookup time inside the forward pass, ``forward``
#: the whole batched network pass; both in integer nanoseconds so the slots
#: stay plain int64 adds.
_WORKER_SLOTS = (
    "batches",
    "batch_items",
    "forward_ns",
    "forward_count",
    "fetch_ns",
    "fetch_count",
)


def resolve_start_method(override: Optional[str] = None) -> str:
    """``spawn`` unless overridden (argument > REPRO_WORKER_START_METHOD)."""
    method = override or os.environ.get("REPRO_WORKER_START_METHOD") or "spawn"
    if method not in multiprocessing.get_all_start_methods():
        raise ValidationError(
            f"start method {method!r} not available here; "
            f"choose from {multiprocessing.get_all_start_methods()}"
        )
    return method


@dataclass
class WorkerSpec:
    """Everything a worker needs, small enough to pickle through spawn.

    The weights themselves never cross: ``manifest`` is the shared-memory
    layout manifest (segment name + per-layer dtype/shape/offsets), a few
    hundred bytes regardless of model size.
    """

    replica_id: str
    manifest: dict
    batch_size: int
    max_batch_delay: float
    network_factory: Optional[Callable[[], object]] = None
    metrics: Optional[dict] = None  # MetricsBlock manifest, when one is live


# ---------------------------------------------------------------------------
# child process
# ---------------------------------------------------------------------------


def _send_safely(conn, message) -> None:
    try:
        conn.send(message)
    except Exception:  # parent gone; nothing left to tell
        _log.debug("response pipe send failed (parent gone?)", exc_info=True)


def _pump_requests(request_conn, inbox) -> None:
    """Worker reader thread: request pipe → :func:`serve_batches` inbox.

    Each request is stamped with its receive time: the batch deadline runs
    from it, and for a traced request it starts the ``replica.queue`` span.
    The stop sentinel, or a parent gone mid-pipe, ends the pump with
    ``None``.
    """
    try:
        while True:
            message = request_conn.recv()
            if message is None:
                break
            req_id, sample, ctx = message
            wall = time.time() if ctx is not None else 0.0
            inbox.put((req_id, sample, ctx, time.perf_counter(), wall))
    except (EOFError, OSError):  # parent died; the batching loop winds down
        pass
    inbox.put(None)


def _worker_main(spec: WorkerSpec, request_conn, response_conn, sent) -> None:
    """Child entry: attach shared weights, answer batched requests.

    ``sent`` is the parent's shared count of requests written to
    ``request_conn`` — what tells the batching loop whether a batch-mate
    is still on the way.
    """
    # Imported lazily: the parent-side module must stay importable without
    # pulling the gateway (gateway imports this module for ProcessServer).
    from repro.serve.gateway import ArchiveMLP
    from repro.serve.shm import SharedRuntime

    runtime = None
    block = None
    try:
        runtime = SharedRuntime(spec.manifest)
        if spec.network_factory is not None:
            network = spec.network_factory()
            runtime.load_into(network)
        else:
            network = ArchiveMLP(runtime)
        if spec.metrics is not None:
            block = MetricsBlock.attach(spec.metrics)
    except BaseException as exc:
        _send_safely(response_conn, ("failed", f"{type(exc).__name__}: {exc}"))
        if runtime is not None:
            runtime.close()
        return
    _send_safely(response_conn, ("ready", runtime.shared_bytes))

    # A reader thread drains the request pipe into ``inbox`` as requests
    # arrive, so a parent send never waits on this process's response
    # writes.  The parent's receiver thread, the only reader of those
    # responses, sends as well: settling a batch runs the gateway's
    # done-callbacks, which dispatch parked requests.  Without this pump a
    # full request pipe plus a full response pipe would wedge both sides.
    inbox: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
    threading.Thread(
        target=_pump_requests, args=(request_conn, inbox), daemon=True
    ).start()

    def reply(ids, outputs, error, spans, forward_ns, fetches) -> None:
        # Counters land before the response goes out, so a parent that
        # sees the batch resolve also sees it counted.
        if block is not None:
            block.add("batches", 1)
            block.add("batch_items", len(ids))
            if forward_ns is not None:
                block.add("forward_ns", forward_ns)
                block.add("forward_count", 1)
                if fetches:
                    fetch_ns = sum(end - start for _, start, end in fetches)
                    block.add("fetch_ns", int(fetch_ns * 1e9))
                    block.add("fetch_count", len(fetches))
        if error is None:
            _send_safely(response_conn, ("ok", ids, outputs, spans))
            return
        try:
            response_conn.send(("err", ids, error, []))
        except Exception:
            # The exception object itself would not pickle; say so
            # (otherwise a custom exception type degrades to a bare string
            # parent-side with no hint why) and fall back to the
            # stringified form.
            _log.debug(
                "worker %s: error response for %r did not pickle; "
                "sending stringified form",
                spec.replica_id,
                type(error).__name__,
                exc_info=True,
            )
            _send_safely(
                response_conn, ("err", ids, f"{type(error).__name__}: {error}", [])
            )

    try:
        serve_batches(
            inbox,
            network,
            spec.batch_size,
            spec.max_batch_delay,
            reply,
            lambda: sent.value,
            profiled=block is not None and obs_metrics.is_enabled(),
        )
        _send_safely(response_conn, ("bye",))
    except (EOFError, OSError):  # parent died; exit quietly
        pass
    finally:
        if block is not None:
            block.close()
        runtime.close()


# ---------------------------------------------------------------------------
# parent-side handle
# ---------------------------------------------------------------------------


@dataclass
class _Link:
    """One spawned worker: process + pipes (replaced on respawn).

    ``send_lock`` serialises writes to the request pipe *only* — requests
    and the stop sentinel — so a pipe send never runs under the server's
    state lock.  ``closed`` flips (under ``send_lock``) before the sentinel
    goes out, which is what keeps a racing ``submit`` from landing a
    request behind the sentinel the worker drains up to.
    """

    process: multiprocessing.process.BaseProcess
    request_conn: object
    response_conn: object
    sent: object  # shared count of requests written to request_conn
    shared_bytes: int = 0
    generation: int = 0
    pending: Dict[int, Pending] = field(default_factory=dict)
    send_lock: object = field(default_factory=lambda: make_lock("serve.worker.send"))
    closed: bool = False


class ProcessServer:
    """Parent-side handle of a replica worker process.

    Server-compatible surface (``start/stop/submit/infer/inflight/stats``)
    over a request pipe + response pipe + shared gauge counters.  Call
    :meth:`set_shared` with the model's
    :class:`~repro.serve.shm.SharedModelWeights` before each
    :meth:`start` — the gateway acquires the segment per run and releases
    (unlinks) it on stop, so a restarted gateway re-shares cleanly.
    """

    def __init__(
        self,
        replica_id: str,
        *,
        batch_size: int = 32,
        max_batch_delay: float = 0.002,
        network_factory: Optional[Callable[[], object]] = None,
        start_method: Optional[str] = None,
        max_respawns: int = 3,
    ) -> None:
        if int(batch_size) < 1:
            raise ValidationError("batch_size must be >= 1")
        if float(max_batch_delay) < 0:
            raise ValidationError("max_batch_delay must be >= 0")
        if int(max_respawns) < 0:
            raise ValidationError("max_respawns must be >= 0")
        self._replica_id = replica_id
        self._batch_size = int(batch_size)
        self._max_batch_delay = float(max_batch_delay)
        self._network_factory = network_factory
        self._ctx = multiprocessing.get_context(resolve_start_method(start_method))
        self._max_respawns = int(max_respawns)
        self._shared = None
        self._lock = make_lock("serve.worker.state")
        # Guards the start/respawn windows: spawning a worker (process
        # start + ready handshake) and creating its MetricsBlock run
        # *outside* the state lock, flagged here so concurrent
        # start()/stop() calls wait on the condition instead of racing.
        self._cond = threading.Condition(self._lock)
        self._starting = False
        self._respawning = False
        self._running = False
        self._dead = False
        self._link: Optional[_Link] = None
        self._receiver: Optional[threading.Thread] = None
        self._next_id = 0
        self._crashes = 0
        self._latency_hist = Histogram()
        self._failures = 0
        self._started_at = 0.0
        self._stopped_at: Optional[float] = None
        # Shared in-flight gauge: readable from any process (the
        # cross-process signal least-loaded sharding reads).  Created once;
        # reset per run.
        self._inflight = self._ctx.Value("q", 0)
        # Batch/stage counters live in a per-run MetricsBlock (created at
        # start(), snapshotted into _metrics_final and unlinked at stop())
        # so /dev/shm stays clean between runs, same as the weight segment.
        self._metrics: Optional[MetricsBlock] = None
        self._metrics_final: Dict[str, int] = dict.fromkeys(_WORKER_SLOTS, 0)

    # -- wiring ------------------------------------------------------------
    def set_shared(self, shared) -> None:
        """Point the next start() at a model's shared weight segment."""
        self._shared = shared

    @property
    def shared_bytes(self) -> int:
        """Size of the shared segment this replica serves from."""
        link = self._link
        return int(link.shared_bytes) if link is not None else 0

    @property
    def worker_pid(self) -> Optional[int]:
        """PID of the current worker process (changes across respawns)."""
        link = self._link
        return link.process.pid if link is not None else None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ProcessServer":
        with self._lock:
            while self._starting:
                self._cond.wait()
            if self._running:
                return self
            if self._shared is None:
                raise ValidationError(
                    "no shared weights attached (call set_shared() first)"
                )
            self._starting = True
        # The slow half — shared-memory block creation and the worker spawn
        # (process start + ready handshake) — runs outside the state lock so
        # a starting replica never blocks submit/stats on its siblings.
        metrics: Optional[MetricsBlock] = None
        try:
            metrics = MetricsBlock.create(_WORKER_SLOTS)
            link = self._spawn(generation=0, metrics=metrics)
        except BaseException:
            if metrics is not None:
                metrics.close()
            with self._lock:
                self._starting = False
                self._cond.notify_all()
            raise
        with self._lock:
            self._metrics = metrics
            self._link = link
            self._running = True
            self._dead = False
            self._crashes = 0
            self._latency_hist = Histogram()
            self._metrics_final = dict.fromkeys(_WORKER_SLOTS, 0)
            self._failures = 0
            with self._inflight.get_lock():
                self._inflight.value = 0
            self._started_at = time.perf_counter()
            self._stopped_at = None
            self._receiver = threading.Thread(
                target=self._recv_loop,
                args=(link,),
                name=f"repro-replica-{self._replica_id}",
                daemon=True,
            )
            self._receiver.start()
            self._starting = False
            self._cond.notify_all()
        return self

    def stop(self) -> None:
        """Drain the worker (sentinel behind every accepted request), stop it."""
        with self._lock:
            while self._starting or self._respawning:
                self._cond.wait()
            if not self._running:
                return
            self._running = False
            link = self._link
            receiver, self._receiver = self._receiver, None
        if link is not None:
            # closed flips under the send lock, then the sentinel goes out
            # under the same hold: any submit that already passed its closed
            # check has finished its send, so the sentinel lands behind
            # every accepted request.
            try:
                with link.send_lock:
                    link.closed = True
                    link.request_conn.send(None)
            except Exception:  # worker already dead; receiver winds down
                link.closed = True
                _log.debug(
                    "replica %s: stop sentinel send failed (worker dead?)",
                    self._replica_id,
                    exc_info=True,
                )
        if receiver is not None:
            receiver.join()
        if link is not None:
            link.process.join(timeout=30.0)
            if link.process.is_alive():  # pragma: no cover - hung worker
                link.process.terminate()
                link.process.join(timeout=10.0)
            self._resolve(
                link, error=ReplicaCrashed("replica worker stopped with requests pending")
            )
            self._close_link(link)
        with self._lock:
            block, self._metrics = self._metrics, None
            if block is not None:
                self._metrics_final = block.values()
        if block is not None:
            block.close()  # owner: unlinks the per-run segment
        self._stopped_at = time.perf_counter()

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "ProcessServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path ------------------------------------------------------
    def submit(self, x: np.ndarray, span: Optional[Span] = None) -> Future:
        """Enqueue one sample; the future resolves to its output row.

        ``span`` (a sampled request's gateway-side root) ships its context
        to the worker, whose replica spans come back with the response and
        export through this span's tracer.
        """
        sample = np.asarray(x, dtype=np.float32)
        ctx = span.context() if span is not None else None
        future: Future = Future()
        with self._lock:
            if not self._running:
                raise ValidationError("server is not running (call start())")
            if self._dead:
                raise ReplicaCrashed(
                    f"replica {self._replica_id} is down after "
                    f"{self._crashes} crash(es); not respawning"
                )
            link = self._link
            req_id = self._next_id
            self._next_id += 1
            link.pending[req_id] = Pending(future, time.perf_counter(), span)
        with self._inflight.get_lock():
            self._inflight.value += 1
        # The pipe write happens outside the state lock: it can block on a
        # full pipe buffer (or a wedged worker), and nothing else — not
        # stats, not a sibling submit's bookkeeping — should wait on that.
        delivered = True
        try:
            with link.send_lock:
                if link.closed:
                    delivered = False
                else:
                    link.sent.value += 1
                    link.request_conn.send((req_id, sample, ctx))
        except Exception:
            # Worker just died mid-send; the receiver's crash handling will
            # fail this pending entry.
            _log.debug(
                "replica %s: request send failed (worker dead?)",
                self._replica_id,
                exc_info=True,
            )
        if not delivered:
            # Lost the race with stop(): the sentinel is already queued, so
            # the worker will never see this request.  Withdraw it (unless a
            # crash handler got there first and failed the future for us).
            with self._lock:
                mine = link.pending.pop(req_id, None)
            if mine is not None:
                with self._inflight.get_lock():
                    self._inflight.value -= 1
                raise ValidationError("server is not running (call start())")
        return future

    def infer(self, x: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        return self.submit(x).result(timeout=timeout)

    @property
    def inflight(self) -> int:
        """Accepted requests not yet resolved — a cross-process gauge."""
        return int(self._inflight.value)

    # -- worker management -------------------------------------------------
    def _spawn(
        self, generation: int, metrics: Optional[MetricsBlock]
    ) -> _Link:
        # Runs outside the state lock (start() and _handle_crash() guard
        # their windows with _starting/_respawning): a worker spawn blocks
        # on process start plus the ready handshake.
        request_recv, request_send = self._ctx.Pipe(duplex=False)
        response_recv, response_send = self._ctx.Pipe(duplex=False)
        # Written under send_lock only, read lock-free by the worker.
        sent = self._ctx.RawValue("q", 0)
        spec = WorkerSpec(
            replica_id=self._replica_id,
            manifest=self._shared.manifest,
            batch_size=self._batch_size,
            max_batch_delay=self._max_batch_delay,
            network_factory=self._network_factory,
            metrics=metrics.manifest if metrics is not None else None,
        )
        process = self._ctx.Process(
            target=_worker_main,
            args=(spec, request_recv, response_send, sent),
            name=f"repro-worker-{self._replica_id}",
            daemon=True,
        )
        process.start()
        # The child owns its pipe ends now; closing the parent's copies is
        # what makes recv() raise EOFError the moment the worker dies.
        request_recv.close()
        response_send.close()
        link = _Link(
            process=process,
            request_conn=request_send,
            response_conn=response_recv,
            sent=sent,
            generation=generation,
        )
        deadline = time.monotonic() + _READY_TIMEOUT_S
        try:
            while not link.response_conn.poll(min(1.0, _READY_TIMEOUT_S)):
                if time.monotonic() >= deadline:
                    raise ValidationError(
                        f"replica {self._replica_id} worker did not become "
                        f"ready within {_READY_TIMEOUT_S:.0f}s"
                    )
                if not process.is_alive():
                    raise ValidationError(
                        f"replica {self._replica_id} worker died during startup"
                    )
            try:
                message = link.response_conn.recv()
            except (EOFError, OSError):
                raise ValidationError(
                    f"replica {self._replica_id} worker died during startup "
                    f"(exit code {process.exitcode}); with the spawn start "
                    "method the main module must be import-safe"
                ) from None
        except BaseException:
            self._close_link(link, terminate=True)
            raise
        if message[0] != "ready":
            self._close_link(link, terminate=True)
            raise ValidationError(
                f"replica {self._replica_id} worker failed to start: {message[1]}"
            )
        link.shared_bytes = int(message[1])
        return link

    @staticmethod
    def _close_link(link: _Link, *, terminate: bool = False) -> None:
        if terminate and link.process.is_alive():
            link.process.terminate()
            link.process.join(timeout=10.0)
        for conn in (link.request_conn, link.response_conn):
            try:
                conn.close()
            except Exception:
                _log.debug("worker pipe close failed", exc_info=True)

    def _recv_loop(self, link: _Link) -> None:
        """Receiver thread: settle responses until the worker says bye."""
        while True:
            try:
                message = link.response_conn.recv()
            except (EOFError, OSError):
                replacement = self._handle_crash(link)
                if replacement is None:
                    return
                link = replacement
                continue
            kind = message[0]
            if kind == "ok":
                self._resolve(link, message[1], results=message[2], spans=message[3])
            elif kind == "err":
                self._resolve(link, message[1], error=message[2])
            elif kind == "bye":
                return

    def _handle_crash(self, link: _Link) -> Optional[_Link]:
        """Fail this worker's pending requests; respawn unless exhausted.

        Returns the replacement link (receiver keeps reading), or ``None``
        when the server is stopping / the replica is staying down.
        """
        with self._lock:
            if not self._running or self._link is not link:
                return None  # stop() in progress, or an already-replaced link
            self._crashes += 1
            exit_code = link.process.exitcode
            respawn = self._crashes <= self._max_respawns
            _log.warning(
                "replica %s worker died (exit code %s, crash %d/%d); %s",
                self._replica_id,
                exit_code,
                self._crashes,
                self._max_respawns,
                "respawning" if respawn else "staying down",
            )
            metrics = self._metrics
            if respawn:
                self._respawning = True
        replacement: Optional[_Link] = None
        if respawn:
            # Spawn outside the state lock (stop()/submit() must not queue
            # behind a worker boot); _respawning keeps stop() honest.
            try:
                replacement = self._spawn(
                    generation=link.generation + 1, metrics=metrics
                )
            except BaseException:
                _log.warning(
                    "replica %s: respawn after crash failed; staying down",
                    self._replica_id,
                    exc_info=True,
                )
                replacement = None
        stale: Optional[_Link] = None
        with self._lock:
            if respawn:
                self._respawning = False
                self._cond.notify_all()
            if not self._running:
                # stop() flipped state while the spawn ran: the fresh worker
                # must not outlive the server.
                stale, replacement = replacement, None
            elif replacement is None:
                self._dead = True
            else:
                self._link = replacement
        if stale is not None:
            self._close_link(stale, terminate=True)
        self._resolve(
            link,
            error=ReplicaCrashed(
                f"replica {self._replica_id} worker died (exit code {exit_code}) "
                f"with the request in flight"
            ),
        )
        self._close_link(link, terminate=True)
        return replacement

    def _resolve(self, link: _Link, ids=None, results=None, error=None, spans=None) -> None:
        """Settle ``ids`` of ``link`` — every pending request when ``None``."""
        done = time.perf_counter()
        if error is not None and not isinstance(error, BaseException):
            error = RuntimeError(str(error))
        requests: List[Pending] = []
        rows: List[Optional[np.ndarray]] = []
        with self._lock:
            for position, req_id in enumerate(list(link.pending) if ids is None else ids):
                request = link.pending.pop(req_id, None)
                if request is None:  # already failed by a crash handler
                    continue
                self._latency_hist.observe(done - request.arrived)
                requests.append(request)
                rows.append(results[position] if results is not None else None)
            if error is not None:
                self._failures += len(requests)
        if requests:
            with self._inflight.get_lock():
                self._inflight.value -= len(requests)
        settle_batch(requests, rows, error, spans)

    # -- statistics --------------------------------------------------------
    def worker_counters(self) -> Dict[str, int]:
        """Live (or, after stop, final) worker MetricsBlock counters."""
        with self._lock:
            block = self._metrics
            if block is not None:
                return block.values()
            return dict(self._metrics_final)

    def stats(self) -> ServerStats:
        with self._lock:
            hist = self._latency_hist.copy()
            failures = self._failures
        counters = self.worker_counters()
        return ServerStats.from_run(
            hist,
            batches=counters["batches"],
            batch_items=counters["batch_items"],
            failures=failures,
            started_at=self._started_at,
            stopped_at=self._stopped_at,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"<ProcessServer {self._replica_id} {state}>"
