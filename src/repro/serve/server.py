"""Batched inference front-end over cached decoded weights.

The :class:`Server` completes the paper's edge scenario: after the archive
arrives and the :class:`~repro.serve.runtime.ModelRuntime` decodes the fc
layers on demand, something must actually answer inference requests.  The
server accepts single-sample requests from any number of client threads,
coalesces them into batches, runs one forward pass per batch on the NumPy
network, and resolves each request's future with its probability row.

The batching itself is :func:`serve_batches`, the one replica loop both
backends run: this thread ``Server`` and the process worker
(:mod:`repro.serve.worker`).  A batch closes when it is full, when nothing
more is on the way (every request the backend sent is already taken), or
when its oldest request has waited ``max_batch_delay`` since it arrived:
below saturation the loop never idles for batch-mates that cannot come.
Once a batch fills, later batches wait for mates until one closes with a
single request.  The loop also owns the stacked forward pass and the
replica span tree, so the two backends cannot drift apart; each supplies
only its inbox, a ``reply`` callback and a ``sent`` count of the requests
it has handed over.

The forward pass is whatever the network's fc layers are running: dense
BLAS matmuls, or — when the weights were installed from a sparse-mode
:class:`~repro.serve.runtime.ModelRuntime` — compressed-domain CSC matmuls
that exploit the pruned layers' ~10% density batch after batch.

Per-request latency (submit to result) lands in a bounded
:class:`~repro.obs.metrics.Histogram` (log-scale buckets plus a seeded
reservoir — flat memory under sustained load), and :meth:`Server.stats`
reports throughput, batch counts and latency percentiles through
:meth:`ServerStats.from_run`, the one stats constructor both backends share —
the numbers ``Gateway.stats()`` and ``benchmarks/bench_serving.py``
publish.

Requests submitted with a live trace span (see :mod:`repro.obs.trace`) get
``replica.queue`` / ``replica.batch`` / ``replica.forward`` child spans,
plus one ``replica.decode`` span per decode-on-demand weight fetch the
forward pass triggered; untraced requests pay only a ``None`` check.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.lint.lockcheck import make_lock
from repro.obs import profile
from repro.obs.metrics import Histogram
from repro.obs.trace import Span, span_dict
from repro.serve.runtime import ModelRuntime
from repro.utils.errors import ValidationError

__all__ = ["Pending", "ServerStats", "Server", "serve_batches", "settle_batch"]


@dataclass
class ServerStats:
    """Aggregate request statistics since server start."""

    requests: int = 0
    batches: int = 0
    failures: int = 0
    elapsed_seconds: float = 0.0
    latencies_ms: Dict[str, float] = field(default_factory=dict)
    mean_batch_size: float = 0.0

    @classmethod
    def from_run(
        cls,
        latencies: Histogram,
        *,
        batches: int,
        batch_items: int,
        failures: int,
        started_at: float,
        stopped_at: Optional[float],
    ) -> "ServerStats":
        """Stats of one run from its raw counters (both backends call this).

        ``started_at``/``stopped_at`` are ``perf_counter`` stamps; a run
        that is still live measures its elapsed time up to now.
        """
        end = stopped_at if stopped_at is not None else time.perf_counter()
        return cls(
            requests=latencies.count,
            batches=batches,
            failures=failures,
            elapsed_seconds=max(end - started_at, 0.0) if started_at else 0.0,
            latencies_ms=latencies.percentiles(scale=1e3),
            mean_batch_size=batch_items / batches if batches else 0.0,
        )

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_seconds if self.elapsed_seconds else 0.0

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["throughput_rps"] = self.throughput_rps
        return out


class Pending(NamedTuple):
    """An accepted request awaiting its batch, as either backend books it."""

    future: Future
    arrived: float  # perf_counter at submit: the latency clock's start
    span: Optional[Span]  # gateway-side root; None for untraced requests


def settle_batch(
    requests: Sequence[Pending],
    outputs: Sequence[Optional[np.ndarray]],
    error: Optional[BaseException],
    spans: Sequence[dict],
) -> None:
    """Export a batch's replica spans, then resolve its requests' futures.

    The last step of both backends' batch replies: each future gets its
    ``outputs`` row, or ``error`` when the batch failed.
    """
    if spans:
        # The gateway runs one tracer, so any traced request's is *the* one.
        tracer = next((r.span.tracer for r in requests if r.span is not None), None)
        if tracer is not None:
            tracer.export_dicts(spans)
    for position, request in enumerate(requests):
        if error is not None:
            request.future.set_exception(error)
        else:
            request.future.set_result(outputs[position])


def serve_batches(
    inbox: "queue.SimpleQueue[Optional[tuple]]",
    network,
    batch_size: int,
    max_batch_delay: float,
    reply: Callable[..., None],
    sent: Callable[[], int],
    profiled: bool = False,
) -> None:
    """The replica batching loop: batch, forward, span, reply — until ``None``.

    ``inbox`` carries ``(key, sample, trace_ctx, arrived, wall_arrived)``
    tuples: ``key`` is the backend's handle for the request, ``trace_ctx``
    the gateway-side root's :meth:`~repro.obs.trace.Span.context` (``None``
    when untraced), ``arrived`` a ``perf_counter`` stamp and
    ``wall_arrived`` a ``time.time()`` one (read only for traced requests).
    A ``None`` item stops the loop after the batch it ends.

    ``sent()`` is how many requests the backend has handed to this loop so
    far; the loop counts the ones it has taken off ``inbox``.  A batch
    closes when it holds ``batch_size`` requests, when nothing more is on
    the way (``sent()`` equals the count taken), or when its oldest request
    has waited ``max_batch_delay`` since it *arrived*.  Requests already
    queued (backlog built up during the previous forward pass) always join
    — only *waiting* for more is bounded.

    The "nothing more on the way" rule is suspended while the replica is
    saturated: after a full batch, later batches wait out the delay for
    batch-mates too, until one closes with a single request.  A front
    door that writes one request per step (the asyncio gateway resumes
    each client coroutine in turn) otherwise looks idle between its
    writes, and every batch would close at one request.

    Each batch runs one stacked forward pass.  Decode-on-demand weight
    fetches are collected, and the pass timed, only when a request in the
    batch is traced or ``profiled`` is set.  Every traced request gets the
    same sub-tree under its root: ``replica.queue`` (arrival → batch
    assembled) and ``replica.batch`` (assembled → forward done) as
    siblings, ``replica.forward`` under the batch, and one
    ``replica.decode`` per fetch under the forward span.  Batch-level spans
    are duplicated per traced request so each trace tree stays complete on
    its own.

    Every batch ends in exactly one ``reply(keys, outputs, error, spans,
    forward_ns, fetches)`` call: ``outputs`` rows align with ``keys`` on
    success; on a failed pass ``error`` is the exception and ``outputs``,
    ``forward_ns`` and ``fetches`` are ``None`` with no spans.
    """
    taken = 0
    saturated = False
    stopping = False
    while not stopping:
        first = inbox.get()
        if first is None:
            return
        taken += 1
        batch = [first]
        deadline = first[3] + max_batch_delay
        while len(batch) < batch_size:
            remaining = deadline - time.perf_counter()
            try:
                if remaining > 0 and (saturated or sent() > taken):
                    item = inbox.get(timeout=remaining)
                else:
                    item = inbox.get_nowait()
            except queue.Empty:
                break
            if item is None:
                stopping = True
                break
            taken += 1
            batch.append(item)
        saturated = len(batch) == batch_size or (saturated and len(batch) > 1)
        keys = [item[0] for item in batch]
        traced = [item for item in batch if item[2] is not None]
        forward_ns: Optional[int] = None
        fetches: Optional[List[profile.FetchRecord]] = None
        try:
            inputs = np.stack([item[1] for item in batch])
            if traced or profiled:
                assembled_s = time.time()
                tick = time.perf_counter()
                with profile.collect_fetches() as fetches:
                    outputs = np.asarray(network.forward(inputs, training=False))
                forward_ns = int((time.perf_counter() - tick) * 1e9)
                forward_end_s = time.time()
            else:
                outputs = np.asarray(network.forward(inputs, training=False))
        except BaseException as exc:  # propagate to every caller in the batch
            reply(keys, None, exc, [], None, None)
            continue
        spans: List[dict] = []
        for _key, _x, ctx, _arrived, wall_arrived in traced:
            trace_id, root_id = ctx["trace_id"], ctx["span_id"]
            spans.append(
                span_dict(
                    "replica.queue",
                    trace_id=trace_id,
                    parent_id=root_id,
                    start_s=wall_arrived,
                    end_s=assembled_s,
                )
            )
            batch_span = span_dict(
                "replica.batch",
                trace_id=trace_id,
                parent_id=root_id,
                start_s=assembled_s,
                end_s=forward_end_s,
                attrs={"batch_size": len(batch)},
            )
            spans.append(batch_span)
            # Forward wall start ≈ batch assembled: one clock read for both.
            forward = span_dict(
                "replica.forward",
                trace_id=trace_id,
                parent_id=batch_span["span_id"],
                start_s=assembled_s,
                end_s=forward_end_s,
            )
            spans.append(forward)
            for layer, fetch_start, fetch_end in fetches:
                spans.append(
                    span_dict(
                        "replica.decode",
                        trace_id=trace_id,
                        parent_id=forward["span_id"],
                        start_s=fetch_start,
                        end_s=fetch_end,
                        attrs={"layer": layer},
                    )
                )
        reply(keys, outputs, None, spans, forward_ns, fetches)


class Server:
    """Dynamic-batching inference server over a network + serving runtime.

    Parameters
    ----------
    network:
        A :class:`repro.nn.Network` whose non-compressed parameters are
        already in place (conv layers ship dense in the edge scenario).
    runtime:
        Optional :class:`ModelRuntime`; when given, the compressed fc
        weights are installed from the decoded-layer cache at
        :meth:`start` (decoding on demand if still cold).
    batch_size:
        Maximum requests folded into one forward pass.
    max_batch_delay:
        Seconds the oldest queued request may wait, since its arrival,
        for batch-mates already submitted (see :func:`serve_batches`).
    """

    def __init__(
        self,
        network,
        runtime: Optional[ModelRuntime] = None,
        *,
        batch_size: int = 64,
        max_batch_delay: float = 0.002,
    ) -> None:
        if int(batch_size) < 1:
            raise ValidationError("batch_size must be >= 1")
        if float(max_batch_delay) < 0:
            raise ValidationError("max_batch_delay must be >= 0")
        self._network = network
        self._runtime = runtime
        self._batch_size = int(batch_size)
        self._max_batch_delay = float(max_batch_delay)
        self._queue: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        self._worker: Optional[threading.Thread] = None
        self._running = False
        self._lock = make_lock("serve.server.state")
        self._latency_hist = Histogram()
        self._batches = 0
        self._batch_items = 0
        self._failures = 0
        self._inflight = 0
        self._submitted = 0  # this run's puts: the batching loop's ``sent``
        self._started_at = 0.0
        self._stopped_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Server":
        """Install weights from the runtime and start the batching loop.

        Weight installation runs *before* any server state changes, so a
        failed decode leaves the server cleanly stopped and start() can be
        retried.
        """
        with self._lock:
            if self._running:
                return self
        if self._runtime is not None:
            self._runtime.load_into(self._network)
        with self._lock:
            if self._running:  # lost a concurrent start() race; that's fine
                return self
            # A fresh queue per run: a previous stop() may have left its
            # shutdown sentinel unconsumed (the worker can exit via the
            # _running check instead), which would kill the new worker on
            # its first get().
            self._queue = queue.SimpleQueue()
            self._running = True
            # Stats cover one run ("since server start"): a restart resets
            # the counters along with the elapsed clock, or throughput
            # would divide old requests by the new run's elapsed time.
            self._latency_hist = Histogram()
            self._batches = 0
            self._batch_items = 0
            self._failures = 0
            self._inflight = 0
            self._submitted = 0
            self._started_at = time.perf_counter()
            self._stopped_at = None
            # The loop exits only by consuming the shutdown sentinel: stop()
            # enqueues it atomically with the _running flip, so every
            # accepted request is ahead of it and gets processed first.
            self._worker = threading.Thread(
                target=serve_batches,
                args=(
                    self._queue,
                    self._network,
                    self._batch_size,
                    self._max_batch_delay,
                    self._reply,
                    lambda: self._submitted,
                ),
                name="repro-serve",
                daemon=True,
            )
            self._worker.start()
        return self

    def stop(self) -> None:
        """Stop the loop after the queued work drains; freeze the clock.

        The shutdown sentinel is enqueued under the same lock submit()
        enqueues requests under, so every accepted request sits ahead of
        the sentinel and is processed before the worker exits — a future
        returned by submit() always resolves.
        """
        with self._lock:
            if not self._running:
                return
            self._running = False
            self._queue.put(None)
            worker, self._worker = self._worker, None
        if worker is not None:
            worker.join()
        self._stopped_at = time.perf_counter()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path ------------------------------------------------------
    def submit(self, x: np.ndarray, span: Optional[Span] = None) -> Future:
        """Enqueue one sample; the future resolves to its probability row.

        ``span`` is an optional live trace span (the gateway-side request
        root): when present the batching loop emits queue/batch/forward/
        decode child spans for this request.
        """
        future: Future = Future()
        arrived = time.perf_counter()
        request = (
            Pending(future, arrived, span),
            np.asarray(x, dtype=np.float32),
            span.context() if span is not None else None,
            arrived,
            time.time() if span is not None else 0.0,
        )
        # The running check and the put are one atomic step: stop() enqueues
        # its sentinel under the same lock, so a request can never land
        # behind the sentinel in a dead queue (its future would never
        # resolve).
        with self._lock:
            if not self._running:
                raise ValidationError("server is not running (call start())")
            self._inflight += 1
            self._submitted += 1
            self._queue.put(request)
        return future

    def submit_many(self, xs: Sequence[np.ndarray]) -> List[Future]:
        """Enqueue a sequence of samples, one future per sample.

        The samples enter the queue back to back, so the batching loop folds
        them into as few forward passes as ``batch_size`` allows — the bulk
        path benchmarks and the edge example use this to drive full batches.
        """
        return [self.submit(x) for x in xs]

    def infer(self, x: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous single-sample inference."""
        return self.submit(x).result(timeout=timeout)

    def classify(self, x: np.ndarray, timeout: Optional[float] = None) -> int:
        """Synchronous single-sample top-1 class."""
        return int(np.argmax(self.infer(x, timeout=timeout)))

    # -- batch replies -----------------------------------------------------
    def _reply(self, keys, outputs, error, spans, _forward_ns, _fetches) -> None:
        """:func:`serve_batches` callback: book the batch, resolve futures."""
        done = time.perf_counter()
        with self._lock:
            self._batches += 1
            self._batch_items += len(keys)
            if error is not None:
                self._failures += len(keys)
            for request in keys:
                self._latency_hist.observe(done - request.arrived)
            self._inflight -= len(keys)
        settle_batch(keys, outputs, error, spans)

    @property
    def inflight(self) -> int:
        """Accepted requests not yet resolved (queued + in the current batch).

        The load signal a multi-replica gateway's least-loaded shard policy
        reads; sampled without joining the worker, so it is advisory."""
        with self._lock:
            return self._inflight

    # -- statistics --------------------------------------------------------
    def stats(self) -> ServerStats:
        with self._lock:
            return ServerStats.from_run(
                self._latency_hist,
                batches=self._batches,
                batch_items=self._batch_items,
                failures=self._failures,
                started_at=self._started_at,
                stopped_at=self._stopped_at,
            )
