"""Parallel execution substrate (the multi-GPU substitute).

:mod:`repro.parallel.pool` holds the reusable :class:`TaskPool` (process or
thread) plus worker-count resolution (``REPRO_WORKERS`` env var, else all
CPUs).  The SZ chunk engine, the DeepSZ encoder/decoder layer fan-out and
the Algorithm 1 assessment engine
(:class:`repro.core.assess_parallel.AssessmentEngine`) run on it.
"""

from repro.parallel.pool import TaskPool, in_pool_worker, resolve_workers

__all__ = ["TaskPool", "resolve_workers", "in_pool_worker"]
