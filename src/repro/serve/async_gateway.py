"""Asyncio front door over the process-backed serving gateway.

:class:`AsyncGateway` hands callers awaitables instead of
``concurrent.futures`` handles, so one event loop can hold thousands of
outstanding requests without a thread per client.  Everything else is
the thread :class:`~repro.serve.gateway.Gateway`'s: admission control
(the per-model core in :class:`~repro.serve.gateway._Model`), shard
policies, the once-per-host :class:`~repro.serve.shm.SharedWeightStore`,
and the :class:`~repro.serve.worker.ProcessServer` pipe protocol.  This
module only adapts that stack to the loop:

* **loop binding** — the gateway binds to the loop :meth:`start` runs on;
  a submit from any other loop is turned away at admission.
* **result bridging** — replicas settle requests off the loop (a process
  replica on its receiver thread, a thread replica on its batching
  thread); each settled result reaches the awaiting caller through
  ``call_soon_threadsafe``.
* **deadlines** — ``await submit(model, x, deadline=0.2)`` raises
  :class:`~repro.utils.errors.DeadlineExceeded` when the budget runs out,
  and **cancelling** the awaiting coroutine raises ``CancelledError``.
  The budget counts from admission, so time spent dispatching the request
  inline is spent from it; a request whose budget is gone by the time
  ``submit`` would first await is abandoned at once.
  Both abandon the request in the admission core: a queued request leaves
  the queue at once (the queue-depth gauge drops, the next request can be
  admitted), while one already in service keeps its concurrency slot until
  the replica's discarded answer lands.  A deadline that fires after the
  answer already settled returns that answer, so the caller and the
  gateway's counters agree.  The ``gateway.request`` span finishes with
  the matching outcome.
* **graceful drain** — ``await stop()`` closes admission, then waits off
  the loop for the backlog to reach the replicas and for those to drain,
  exactly like the thread gateway.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future
from typing import List, Optional, Sequence

import numpy as np

from repro.serve.gateway import Gateway, _Model, _Request
from repro.utils.errors import DeadlineExceeded, ValidationError

__all__ = ["AsyncGateway"]


def _copy_outcome(waiter: asyncio.Future, source: Future) -> None:
    """Loop thread: move a settled request's result onto its waiter."""
    if waiter.done():  # the caller already left
        return
    error = source.exception()
    if error is None:
        waiter.set_result(source.result())
    else:
        waiter.set_exception(error)


class AsyncGateway(Gateway):
    """Event-loop front door sharing the thread gateway's whole backend.

    Same constructor and ``add_model`` as :class:`Gateway`; the lifecycle
    and request surface are coroutines::

        gateway = AsyncGateway(replica_backend="process")
        gateway.add_model("ranker", source=blob, replicas=4)
        async with gateway:
            y = await gateway.submit("ranker", x, deadline=0.25)

    The gateway binds to the event loop :meth:`start` runs on; every
    ``submit``/``stop`` must come from that loop.  The inherited blocking
    halves (replica boot, shared-segment decode, drain and worker
    shutdown) run in worker threads via ``asyncio.to_thread`` so the loop
    never blocks.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "AsyncGateway":
        entries = self._begin_start()
        if not entries:
            return self  # already running
        self._loop = asyncio.get_running_loop()
        # The slow half (shared-segment decode + worker spawns) runs off
        # the loop.
        await asyncio.to_thread(self._start_replica_servers, entries)
        self._mark_running(entries)
        return self

    async def stop(self) -> None:
        """Close admission, drain every admitted request, stop the fleet.

        Admission closes before the first await.  Queued requests keep
        their deadlines while the backlog drains, so expired callers are
        released rather than held hostage to a slow replica.
        """
        entries = self._close_admission()
        if entries:
            await asyncio.to_thread(self._drain, entries)

    async def close(self) -> None:
        """Stop (if running) and release every replica runtime."""
        await self.stop()
        await asyncio.to_thread(self._release_runtimes)

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def __enter__(self) -> "AsyncGateway":
        raise ValidationError("AsyncGateway is async: use 'async with'")

    def __exit__(self, *exc) -> None:  # pragma: no cover - __enter__ raises
        raise ValidationError("AsyncGateway is async: use 'async with'")

    # -- request path ------------------------------------------------------
    async def submit(
        self,
        model: str,
        x: np.ndarray,
        *,
        key: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """One sample through the gateway; the awaited output row.

        ``deadline`` is this request's whole budget in seconds (queue wait
        included).  Expiry raises :class:`DeadlineExceeded` and releases
        whatever the request still holds; cancelling the coroutine does
        the same with a ``cancelled`` outcome.  Admission failures
        (:class:`GatewayOverloaded`, :class:`ValidationError`) raise
        before the first await, exactly like the thread gateway's
        ``submit``.
        """
        self._check_deadline(deadline)
        entry, request = self._enqueue_on_loop(model, x, key)
        return await self._result(entry, request, deadline)

    async def submit_many(
        self,
        model: str,
        xs: Sequence[np.ndarray],
        *,
        keys: Optional[Sequence[Optional[str]]] = None,
        deadline: Optional[float] = None,
    ) -> List[np.ndarray]:
        """A batch of samples; resolves when every row is in.

        Admission is per sample; a mid-sequence rejection carries the
        already-admitted requests as tasks on ``exc.admitted`` so callers
        can await or cancel the partial batch instead of leaking it.
        ``deadline`` applies to each request individually.
        """
        if keys is not None and len(keys) != len(xs):
            raise ValidationError("keys must parallel xs")
        self._check_deadline(deadline)
        admitted: List[tuple] = []
        try:
            for i, x in enumerate(xs):
                admitted.append(
                    self._enqueue_on_loop(model, x, keys[i] if keys is not None else None)
                )
        except BaseException as exc:
            try:
                exc.admitted = tuple(
                    self._loop.create_task(self._result(*pair, deadline))
                    for pair in admitted
                )
            except AttributeError:  # exotic exception with __slots__
                pass
            raise
        return await asyncio.gather(
            *(self._result(*pair, deadline) for pair in admitted)
        )

    async def infer(
        self,
        model: str,
        x: np.ndarray,
        *,
        key: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """Alias of :meth:`submit` for surface parity with :class:`Gateway`."""
        return await self.submit(model, x, key=key, deadline=deadline)

    @staticmethod
    def _check_deadline(deadline: Optional[float]) -> None:
        if deadline is not None and float(deadline) <= 0.0:
            raise ValidationError("deadline must be positive seconds (or None)")

    def _enqueue_on_loop(self, model: str, x: np.ndarray, key: Optional[str]) -> tuple:
        if asyncio.get_running_loop() is not self._loop:
            raise ValidationError(
                "AsyncGateway is bound to the event loop it started on; "
                "submit from that loop"
            )
        return self._enqueue(model, x, key)

    async def _result(
        self, entry: _Model, request: _Request, deadline: Optional[float]
    ) -> np.ndarray:
        """Await one admitted request; a caller leaving abandons it.

        The deadline counts from admission: whatever ``_enqueue`` spent
        dispatching inline is already off the budget, and a request with
        nothing left is abandoned without awaiting.
        """
        waiter = self._loop.create_future()
        request.future.add_done_callback(
            lambda f: self._loop.call_soon_threadsafe(_copy_outcome, waiter, f)
        )
        try:
            if deadline is None:
                return await waiter
            budget = float(deadline) - (time.perf_counter() - request.enqueued)
            if budget > 0:
                return await asyncio.wait_for(waiter, timeout=budget)
            waiter.cancel()
            raise asyncio.TimeoutError
        except asyncio.TimeoutError:
            if not entry.abandon(request, "deadline_exceeded"):
                # It settled in the same beat: that outcome stands, and the
                # caller gets it, so both sides count the request alike.
                return await asyncio.wrap_future(request.future)
            raise DeadlineExceeded(
                f"request to model {entry.name!r} exceeded its "
                f"deadline of {float(deadline):.3f}s"
            ) from None
        except asyncio.CancelledError:
            entry.abandon(request, "cancelled")
            raise
