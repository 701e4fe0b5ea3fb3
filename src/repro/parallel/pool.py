"""Reusable process/thread task pool for the compression engine.

This module is the task-pool substrate every parallel path in the
repository shares: chunk encode/decode inside :class:`repro.sz.SZCompressor`,
layer fan-out inside :class:`repro.core.DeepSZEncoder` /
:class:`repro.core.DeepSZDecoder`, and the Algorithm 1 candidate fan-out in
:class:`repro.core.assess_parallel.AssessmentEngine`.

Worker-count resolution
-----------------------
``resolve_workers(None)`` honours the ``REPRO_WORKERS`` environment variable
and otherwise uses the full ``os.cpu_count()`` (the historical behaviour of
capping at four workers silently wasted big machines).  Passing an explicit
integer always wins.  ``resolve_workers(None)`` is therefore the right
default for command-line tools and benchmarks, while library entry points
default to ``workers=1`` so that single-threaded behaviour stays deterministic
unless the caller opts in.

Nested pools
------------
Tasks frequently want their own inner parallelism (a layer task that chunks
its array, for example).  Spawning a process pool from inside a pool worker
would oversubscribe the machine, so workers are marked via an environment
variable and :meth:`TaskPool.map` silently degrades to the serial loop when
it detects it is already running inside a pool worker.  Serial and parallel
execution produce identical results by construction — tasks must be pure
functions of their arguments.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Sequence, TypeVar

from repro.obs import metrics as _obs_metrics
from repro.utils.errors import ValidationError

__all__ = ["WORKERS_ENV", "resolve_workers", "in_pool_worker", "TaskPool"]

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Set in every pool worker process so nested pools degrade to serial loops.
_IN_WORKER_ENV = "_REPRO_IN_POOL_WORKER"

#: Thread-mode equivalent of the env marker: set in every worker thread.
_THREAD_MARKER = threading.local()

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count.

    * explicit ``workers`` (must be >= 1) wins;
    * else the ``REPRO_WORKERS`` environment variable, when set;
    * else ``os.cpu_count()`` — the full machine, no artificial cap.
    """
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        return workers
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValidationError(f"{WORKERS_ENV} must be >= 1, got {value}")
        return value
    return max(1, os.cpu_count() or 1)


def in_pool_worker() -> bool:
    """True when the current process (or thread) is a :class:`TaskPool` worker."""
    return os.environ.get(_IN_WORKER_ENV) == "1" or getattr(
        _THREAD_MARKER, "active", False
    )


def _mark_worker(initializer: Callable | None, initargs: tuple) -> None:
    """Pool initializer run in every worker: set the nesting marker, then chain."""
    os.environ[_IN_WORKER_ENV] = "1"
    if initializer is not None:
        initializer(*initargs)


class TaskPool:
    """Map pure functions over task lists on a process (or thread) pool.

    Parameters
    ----------
    workers:
        Worker count; ``None`` resolves through :func:`resolve_workers`
        (``REPRO_WORKERS`` env var, else all CPUs).
    mode:
        ``"process"`` (default) for CPU-bound Python work, ``"thread"`` for
        workloads dominated by GIL-releasing C calls (zlib/lzma/NumPy).
    """

    def __init__(self, workers: int | None = None, *, mode: str = "process") -> None:
        if mode not in ("process", "thread"):
            raise ValidationError(f"mode must be 'process' or 'thread', got {mode!r}")
        self.workers = resolve_workers(workers)
        self.mode = mode

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> List[R]:
        """Apply ``fn`` to every item, preserving order.

        Falls back to a serial in-process loop when only one worker is
        configured, when there is at most one task, or when already running
        inside a pool worker (nested parallelism).  The serial loop produces
        identical results because tasks are pure functions of their inputs.
        """
        tasks: Sequence[T] = list(items)
        if _obs_metrics.is_enabled():
            # Counted on the submitting side (pool workers may be separate
            # processes whose registries are throwaway).
            _obs_metrics.registry().counter(
                "repro_taskpool_tasks_total",
                "Tasks submitted through TaskPool.map, by pool mode.",
                labels=("mode",),
            ).labels(mode=self.mode).inc(len(tasks))
        if self.workers == 1 or len(tasks) <= 1 or in_pool_worker():
            if initializer is not None:
                initializer(*initargs)
            return [fn(task) for task in tasks]
        if self.mode == "thread":

            def run_marked(task: T) -> R:
                # Mark the worker thread so a task that opens its own pool
                # degrades to the serial loop instead of oversubscribing.
                _THREAD_MARKER.active = True
                return fn(task)

            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                if initializer is not None:
                    initializer(*initargs)
                return list(pool.map(run_marked, tasks))
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(tasks)),
            initializer=_mark_worker,
            initargs=(initializer, initargs),
        ) as pool:
            return list(pool.map(fn, tasks))
