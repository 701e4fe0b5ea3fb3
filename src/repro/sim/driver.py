"""Replay a :class:`~repro.sim.workload.WorkloadTrace` against a gateway.

This module is the repo's only load generator: the scenario matrix,
``benchmarks/bench_serving.py`` and perfbench ``serve-closed`` all send
their requests through these drivers.  Two client disciplines, each
available for both front doors:

* **Open loop** — requests are submitted at their *scheduled* arrival
  times regardless of how the server is doing, and latency is measured
  from the scheduled arrival, not from the (possibly delayed) submit.
  That is the coordinated-omission-free discipline: when the server
  stalls, the backlog of scheduled arrivals keeps counting against it
  instead of silently pausing the load generator.
* **Closed loop** — a fixed pool of clients each issue their share of
  the trace in rounds of ``burst`` requests, waiting for every response
  of a round before sending the next.  Throughput is then
  concurrency-bound (classic benchmark style) and latency hides server
  stalls; useful for capacity numbers, wrong for tail-latency claims.

:func:`drive_gateway` is the one gateway lifecycle around a replay:
build the gateway for a front door, add the models, start, drive, close.
:func:`check_accounting` holds a replay's outcomes against the gateway's
own ``stats()``; ``bench_serving.py`` and every matrix cell run it.

Outcome taxonomy (disjoint; ``offered`` is their sum):

* ``completed`` — produced a result (possibly after its deadline);
* ``rejected`` — admission control fast-failed (``GatewayOverloaded``);
* ``expired`` — the async front door cancelled it at its deadline
  (:class:`~repro.utils.errors.DeadlineExceeded`);
* ``failures`` — anything else (validation, replica crash).

``deadline_misses`` counts ``expired`` plus completed-but-late requests,
so sync and async runs score deadlines on the same axis even though only
the async gateway enforces them in-flight.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

import numpy as np

from repro.obs.log import get_logger
from repro.sim.workload import WorkloadTrace
from repro.utils.errors import (
    DeadlineExceeded,
    GatewayOverloaded,
    ReproError,
    ValidationError,
)

_log = get_logger("sim.driver")

__all__ = [
    "DriveResult",
    "check_accounting",
    "drive_closed_loop",
    "drive_closed_loop_async",
    "drive_gateway",
    "drive_open_loop",
    "drive_open_loop_async",
]

_PERCENTILES = (50.0, 90.0, 99.0)

T = TypeVar("T")


@dataclass
class DriveResult:
    """Reduced outcomes of one trace replay."""

    mode: str
    offered: int
    completed: int
    rejected: int
    expired: int
    failures: int
    deadline_misses: int
    elapsed_s: float
    latencies_s: List[float] = field(default_factory=list)
    max_submit_lag_s: float = 0.0

    @property
    def rps(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def goodput_rps(self) -> float:
        on_time = self.completed - (self.deadline_misses - self.expired)
        return on_time / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        return self.deadline_misses / self.offered if self.offered else 0.0

    def latency_ms(self) -> Dict[str, float]:
        if not self.latencies_s:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
        arr = np.asarray(self.latencies_s, dtype=np.float64) * 1000.0
        p50, p90, p99 = (float(v) for v in np.percentile(arr, _PERCENTILES))
        return {
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "mean": float(arr.mean()),
            "max": float(arr.max()),
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "failures": self.failures,
            "deadline_misses": self.deadline_misses,
            "elapsed_s": self.elapsed_s,
            "rps": self.rps,
            "goodput_rps": self.goodput_rps,
            "rejection_rate": self.rejection_rate,
            "deadline_miss_rate": self.deadline_miss_rate,
            "latency_ms": self.latency_ms(),
            "max_submit_lag_s": self.max_submit_lag_s,
        }


def _check_inputs(trace: WorkloadTrace, inputs: Mapping[str, np.ndarray]) -> None:
    missing = sorted(set(trace.models) - set(inputs))
    if missing:
        raise ValidationError(f"no input sample for trace models: {missing}")


def _check_closed(
    trace: WorkloadTrace, inputs: Mapping[str, np.ndarray], clients: int, burst: int
) -> None:
    _check_inputs(trace, inputs)
    if clients < 1:
        raise ValidationError(f"clients must be >= 1, got {clients}")
    if burst < 1:
        raise ValidationError(f"burst must be >= 1, got {burst}")


def _reduce(
    mode: str,
    trace: WorkloadTrace,
    latencies: List[Tuple[float, Optional[float]]],
    counters: Mapping[str, int],
    elapsed: float,
    max_lag: float = 0.0,
) -> DriveResult:
    """One outcome accounting for every driver: ``latencies`` holds a
    ``(latency_s, deadline_s)`` pair per completed request."""
    late = sum(
        1 for latency, deadline in latencies if deadline is not None and latency > deadline
    )
    expired = counters.get("expired", 0)
    return DriveResult(
        mode=mode,
        offered=len(trace.requests),
        completed=len(latencies),
        rejected=counters["rejected"],
        expired=expired,
        failures=counters["failures"],
        deadline_misses=expired + late,
        elapsed_s=elapsed,
        latencies_s=[latency for latency, _ in latencies],
        max_submit_lag_s=max_lag,
    )


# ---------------------------------------------------------------------------
# sync gateway


def drive_open_loop(
    gateway: Any,
    trace: WorkloadTrace,
    inputs: Mapping[str, np.ndarray],
    *,
    time_scale: float = 1.0,
    timeout: float = 60.0,
) -> DriveResult:
    """Open-loop replay against the sync ``Gateway``.

    ``time_scale`` compresses (<1) or stretches (>1) the trace clock —
    a 10-second trace at ``time_scale=0.1`` replays in one second with
    10x the offered rate.
    """
    _check_inputs(trace, inputs)
    cond = threading.Condition()
    latencies: List[Tuple[float, Optional[float]]] = []  # (latency_s, deadline_s)
    failures = 0
    settled = 0

    def _done(fut: Any, scheduled: float, deadline: Optional[float]) -> None:
        nonlocal failures, settled
        finished = time.perf_counter()
        with cond:
            if fut.exception() is not None:
                failures += 1
            else:
                latencies.append((finished - scheduled, deadline))
            settled += 1
            cond.notify_all()

    start = time.perf_counter()
    rejected = 0
    max_lag = 0.0
    submitted = 0
    for req in trace.requests:
        target = start + req.arrival_s * time_scale
        now = time.perf_counter()
        if target > now:
            time.sleep(target - now)
        else:
            max_lag = max(max_lag, now - target)
        deadline = None if req.deadline_s is None else req.deadline_s * time_scale
        try:
            fut = gateway.submit(req.model, inputs[req.model], key=req.tenant)
        except GatewayOverloaded:
            rejected += 1
            continue
        submitted += 1
        fut.add_done_callback(
            lambda f, s=target, d=deadline: _done(f, s, d)
        )
    with cond:
        drained = cond.wait_for(lambda: settled >= submitted, timeout=timeout)
        if not drained:
            failures += submitted - settled  # stuck futures score as failures
        counters = {"rejected": rejected, "failures": failures}
        settled_latencies = list(latencies)
    elapsed = time.perf_counter() - start
    return _reduce("open", trace, settled_latencies, counters, elapsed, max_lag)


def drive_closed_loop(
    gateway: Any,
    trace: WorkloadTrace,
    inputs: Mapping[str, np.ndarray],
    *,
    clients: int = 4,
    burst: int = 1,
    time_scale: float = 1.0,
    timeout: float = 60.0,
) -> DriveResult:
    """Closed-loop replay: ``clients`` threads each drain a trace slice.

    Each client submits up to ``burst`` requests of its slice, then waits
    for every one of them before the next round, so about
    ``clients * burst`` requests are outstanding.
    """
    _check_closed(trace, inputs, clients, burst)
    lock = threading.Lock()
    latencies: List[Tuple[float, Optional[float]]] = []
    counters = {"rejected": 0, "failures": 0}
    barrier = threading.Barrier(clients + 1)

    def _client(slice_requests: Tuple[Any, ...]) -> None:
        barrier.wait()
        for first in range(0, len(slice_requests), burst):
            pending = []
            for req in slice_requests[first:first + burst]:
                deadline = None if req.deadline_s is None else req.deadline_s * time_scale
                sent = time.perf_counter()
                try:
                    pending.append(
                        (gateway.submit(req.model, inputs[req.model], key=req.tenant),
                         sent, deadline)
                    )
                except GatewayOverloaded:
                    with lock:
                        counters["rejected"] += 1
                except Exception:
                    _log.debug("closed-loop submit failed", exc_info=True)
                    with lock:
                        counters["failures"] += 1
            for fut, sent, deadline in pending:
                try:
                    fut.result(timeout=timeout)
                except Exception:
                    _log.debug("closed-loop request failed", exc_info=True)
                    with lock:
                        counters["failures"] += 1
                    continue
                with lock:
                    latencies.append((time.perf_counter() - sent, deadline))

    threads = [
        threading.Thread(
            target=_client, args=(trace.requests[i::clients],), daemon=True
        )
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    with lock:
        return _reduce("closed", trace, list(latencies), counters, elapsed)


# ---------------------------------------------------------------------------
# async gateway


async def drive_open_loop_async(
    gateway: Any,
    trace: WorkloadTrace,
    inputs: Mapping[str, np.ndarray],
    *,
    time_scale: float = 1.0,
) -> DriveResult:
    """Open-loop replay against the ``AsyncGateway`` (run on its loop).

    Deadlines are passed through and *enforced*: an expired request is
    cancelled by the front door and counted as ``expired`` (a deadline
    miss), not as a completion.
    """
    _check_inputs(trace, inputs)
    loop = asyncio.get_running_loop()
    latencies: List[Tuple[float, Optional[float]]] = []
    counters = {"rejected": 0, "expired": 0, "failures": 0}

    async def _one(req: Any, scheduled: float, deadline: Optional[float]) -> None:
        try:
            await gateway.submit(
                req.model, inputs[req.model], key=req.tenant, deadline=deadline
            )
        except DeadlineExceeded:
            counters["expired"] += 1
        except GatewayOverloaded:
            counters["rejected"] += 1
        except Exception:
            _log.debug("open-loop request failed", exc_info=True)
            counters["failures"] += 1
        else:
            latencies.append((loop.time() - scheduled, deadline))

    start = loop.time()
    max_lag = 0.0
    tasks = []
    for req in trace.requests:
        target = start + req.arrival_s * time_scale
        delay = target - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            max_lag = max(max_lag, -delay)
        deadline = None if req.deadline_s is None else req.deadline_s * time_scale
        tasks.append(asyncio.ensure_future(_one(req, target, deadline)))
    if tasks:
        await asyncio.gather(*tasks)
    return _reduce("open", trace, latencies, counters, loop.time() - start, max_lag)


async def drive_closed_loop_async(
    gateway: Any,
    trace: WorkloadTrace,
    inputs: Mapping[str, np.ndarray],
    *,
    clients: int = 4,
    burst: int = 1,
    time_scale: float = 1.0,
) -> DriveResult:
    """Closed-loop replay: ``clients`` coroutines each drain a slice,
    ``burst`` concurrent requests at a time (see :func:`drive_closed_loop`)."""
    _check_closed(trace, inputs, clients, burst)
    loop = asyncio.get_running_loop()
    latencies: List[Tuple[float, Optional[float]]] = []
    counters = {"rejected": 0, "expired": 0, "failures": 0}

    async def _one(req: Any) -> None:
        deadline = None if req.deadline_s is None else req.deadline_s * time_scale
        sent = loop.time()
        try:
            await gateway.submit(
                req.model, inputs[req.model], key=req.tenant, deadline=deadline
            )
        except DeadlineExceeded:
            counters["expired"] += 1
        except GatewayOverloaded:
            counters["rejected"] += 1
        except Exception:
            _log.debug("closed-loop request failed", exc_info=True)
            counters["failures"] += 1
        else:
            latencies.append((loop.time() - sent, deadline))

    async def _client(slice_requests: Tuple[Any, ...]) -> None:
        for first in range(0, len(slice_requests), burst):
            if burst == 1:
                await _one(slice_requests[first])
            else:
                await asyncio.gather(*map(_one, slice_requests[first:first + burst]))

    start = loop.time()
    await asyncio.gather(
        *(_client(trace.requests[i::clients]) for i in range(clients))
    )
    return _reduce("closed", trace, latencies, counters, loop.time() - start)


# ---------------------------------------------------------------------------
# one gateway lifecycle

_DRIVERS = {
    ("sync", "open"): drive_open_loop,
    ("sync", "closed"): drive_closed_loop,
    ("async", "open"): drive_open_loop_async,
    ("async", "closed"): drive_closed_loop_async,
}


def drive_gateway(
    models: Mapping[str, Mapping[str, Any]],
    trace: WorkloadTrace,
    inputs: Mapping[str, np.ndarray],
    *,
    observe: Callable[[Any], T],
    frontdoor: str = "sync",
    mode: str = "closed",
    metrics: Any = None,
    tracer: Any = None,
    **drive_options: Any,
) -> Tuple[DriveResult, T]:
    """Build a gateway, host ``models``, start it, replay ``trace``, close it.

    ``models`` maps each model name to its ``add_model`` keyword arguments
    (``source`` included).  ``frontdoor`` picks ``Gateway`` or
    ``AsyncGateway``, ``mode`` the open- or closed-loop driver, which gets
    ``drive_options`` (``clients``, ``burst``, ``time_scale``).
    ``observe(gateway)`` runs after the replay while the gateway is still
    running — its metrics collector only feeds the registry until
    ``stop()`` — and its value is returned with the :class:`DriveResult`.
    """
    drive = _DRIVERS.get((frontdoor, mode))
    if drive is None:
        raise ValidationError(
            f"no driver for frontdoor={frontdoor!r}, mode={mode!r}; "
            f"available: {sorted(_DRIVERS)}"
        )
    from repro.serve.async_gateway import AsyncGateway
    from repro.serve.gateway import Gateway

    if frontdoor == "async":

        async def _run() -> Tuple[DriveResult, T]:
            gateway = AsyncGateway(metrics=metrics, tracer=tracer)
            try:
                _host(gateway, models)
                await gateway.start()
                result = await drive(gateway, trace, inputs, **drive_options)
                return result, observe(gateway)
            finally:
                await gateway.close()

        return asyncio.run(_run())
    gateway = Gateway(metrics=metrics, tracer=tracer)
    try:
        _host(gateway, models)
        gateway.start()
        result = drive(gateway, trace, inputs, **drive_options)
        return result, observe(gateway)
    finally:
        gateway.close()


def check_accounting(label: str, result: DriveResult, stats: Any) -> None:
    """Every offered request resolved exactly once, and the gateway agrees.

    ``stats`` is the ``Gateway.stats()`` taken after the replay (from the
    ``observe`` hook of :func:`drive_gateway`).  Raises
    :class:`~repro.utils.errors.ReproError` unless the driver's outcomes
    sum to ``offered`` and each one matches the gateway's own count.
    """
    expected = {
        "submitted": result.offered - result.rejected,
        "completed": result.completed,
        "rejected": result.rejected,
        "failures": result.failures,
        "deadline_exceeded": result.expired,
    }
    counted = {key: getattr(stats, key) for key in expected}
    settled = result.completed + result.rejected + result.expired + result.failures
    if counted != expected or settled != result.offered:
        raise ReproError(
            f"{label} accounting broken: offered {result.offered}, driver "
            f"{expected}, Gateway.stats() {counted}"
        )


def _host(gateway: Any, models: Mapping[str, Mapping[str, Any]]) -> None:
    for name, options in models.items():
        gateway.add_model(name, **options)
