"""Measurement harness for the serving runtime, plus the metrics dump.

:func:`serving_benchmark` (``python -m repro serve-bench`` and
``benchmarks/bench_serving.py``) measures one runtime:

* **cold full decode** — a fresh runtime decoding every layer up front (the
  v1 monolithic experience);
* **cold first layer** — time until the *first* layer is usable on a fresh
  runtime (what random access buys: you do not wait for siblings);
* **warm layer access** — mean per-access latency once the decoded-layer
  cache is hot (must be orders of magnitude below cold full decode);
* **layer-access throughput** at several thread counts against the warm
  cache (the cache is the serving hot path; this measures its contention).

Gateway load is not measured here: every gateway load comes from the
:mod:`repro.sim.driver` replay drivers, through the scenario matrix
(``python -m repro scenario-bench``) or ``benchmarks/bench_serving.py``.
:func:`dump_metrics` writes a metrics registry to a file for
``scenario-bench --metrics-out``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, Sequence, Union

import numpy as np

from repro.obs.metrics import MetricsRegistry, registry as metrics_registry
from repro.serve.runtime import DEFAULT_CACHE_BYTES, ModelRuntime

__all__ = [
    "serving_benchmark",
    "dump_metrics",
]

#: Published by :mod:`repro.obs.profile` to the process-wide registry only.
_DECODE_STAGE_SERIES = ("repro_decode_stage_total", "repro_decode_stage_seconds_total")


def dump_metrics(path: Union[str, Path], registry: MetricsRegistry) -> Path:
    """Write a private ``registry`` to ``path``, plus the decode-stage counters.

    Decode stages are counted in the process-wide registry only, so a
    private registry's dump (a scenario-matrix cell's) takes those series
    from it.  ``.prom`` suffix selects Prometheus text exposition; anything
    else gets the JSON form.  Returns the written path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    view = MetricsRegistry()
    view.register_collector(registry.samples)
    view.register_collector(
        lambda: [s for s in metrics_registry().samples() if s.name in _DECODE_STAGE_SERIES]
    )
    if path.suffix == ".prom":
        path.write_text(view.to_prometheus(), encoding="utf-8")
    else:
        path.write_text(
            json.dumps(view.to_json(), indent=2, sort_keys=True), encoding="utf-8"
        )
    return path


def _fresh_runtime(source, cache_bytes: int, sparse: bool) -> ModelRuntime:
    # bytes are re-wrapped per run; paths are re-opened (and re-mmapped),
    # so every "cold" measurement really starts from the container.
    return ModelRuntime(source, cache_bytes=cache_bytes, sparse=sparse)


def serving_benchmark(
    source: Union[str, bytes],
    *,
    concurrency: Sequence[int] = (1, 2, 4, 8),
    accesses_per_thread: int = 200,
    warm_repeats: int = 50,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    seed: int = 0,
    sparse: bool = False,
) -> Dict:
    """Benchmark cold/warm layer access and concurrent throughput.

    ``source`` is a ``.dsz`` archive path or its raw bytes.  ``sparse``
    serves layers in compressed-domain form (``decoded_bytes`` then reports
    the resident CSC footprint the cache is charged, not dense bytes).
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

    return {
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
