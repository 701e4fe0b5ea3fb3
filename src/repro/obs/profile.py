"""Decode-path profiling hooks: per-stage timings with near-zero idle cost.

The codec path has five stages worth timing independently — the planned
compiled-backend work needs a per-stage before/after baseline, not one
lump sum:

* ``lossless`` — the outer byte-codec pass (zlib/lzma/zstd);
* ``huffman``  — canonical Huffman decode of the quantization codes;
* ``predictor`` — Lorenzo prefix sum (and the per-block adaptive decode of
  streams written by earlier versions); direct streams skip it;
* ``dequantize`` — code → value mapping plus outlier reinsertion;
* ``build``    — dense materialisation or CSC operand construction.

Call sites wrap work in :func:`stage` (a context manager) or call
:func:`record_stage` directly.  Each record lands in two places:

* the **global registry** — ``repro_decode_stage_seconds_total{stage=...}``
  and ``repro_decode_stage_total{stage=...}`` counters, the per-host
  aggregate every exposition includes;
* the **active sink**, if one is installed on this thread
  (:func:`stage_sink`) — how :class:`~repro.serve.runtime.ModelRuntime`
  attributes stage time to the specific layer it is decoding, including
  decodes running on prefetch pool threads (the sink is installed inside
  the decode task itself).

When :func:`repro.obs.metrics.is_enabled` is off, every hook degrades to a
single flag check — the disabled path the overhead benchmark gates.

The **fetch log** (:func:`collect_fetches` / :func:`active_fetch_log`) is
the serving-side sibling: a traced batch installs a thread-local list and
the network's forward pass appends ``(layer, start_wall, end_wall)`` for
each decode-on-demand weight fetch, which the server turns into
``replica.decode`` spans.  Untraced requests see only a ``None`` check.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics as _metrics

__all__ = [
    "DECODE_STAGES",
    "active_fetch_log",
    "collect_fetches",
    "record_fetch",
    "record_stage",
    "stage",
    "stage_sink",
]

#: The decode stages instrumented across the codec path.
DECODE_STAGES = ("lossless", "huffman", "predictor", "dequantize", "build")

_TLS = threading.local()


def record_stage(stage_name: str, seconds: float) -> None:
    """Record ``seconds`` spent in one decode stage (registry + active sink)."""
    if not _metrics.is_enabled():
        return
    sink: Optional[Dict[str, float]] = getattr(_TLS, "stage_sink", None)
    if sink is not None:
        sink[stage_name] = sink.get(stage_name, 0.0) + seconds
    reg = _metrics.registry()
    reg.counter(
        "repro_decode_stage_seconds_total",
        "Cumulative seconds spent in each decode stage.",
        labels=("stage",),
    ).labels(stage=stage_name).inc(seconds)
    reg.counter(
        "repro_decode_stage_total",
        "Number of times each decode stage ran.",
        labels=("stage",),
    ).labels(stage=stage_name).inc()


@contextmanager
def stage(stage_name: str) -> Iterator[None]:
    """Time the enclosed block as one decode stage."""
    if not _metrics.is_enabled():
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        record_stage(stage_name, time.perf_counter() - start)


@contextmanager
def stage_sink() -> Iterator[Dict[str, float]]:
    """Collect this thread's stage records into a dict for the duration."""
    previous = getattr(_TLS, "stage_sink", None)
    sink: Dict[str, float] = {}
    _TLS.stage_sink = sink
    try:
        yield sink
    finally:
        _TLS.stage_sink = previous


# -- decode-on-demand fetch log (request tracing) ---------------------------

FetchRecord = Tuple[str, float, float]  # (layer, start_wall_s, end_wall_s)


def active_fetch_log() -> Optional[List[FetchRecord]]:
    """The thread's fetch log, or ``None`` when the request is untraced."""
    return getattr(_TLS, "fetch_log", None)


def record_fetch(layer: str, start_s: float, end_s: float) -> None:
    """Append one weight fetch to the active log (no-op when untraced)."""
    log = getattr(_TLS, "fetch_log", None)
    if log is not None:
        log.append((layer, start_s, end_s))


@contextmanager
def collect_fetches() -> Iterator[List[FetchRecord]]:
    """Install a fetch log on this thread for one (traced) forward pass."""
    previous = getattr(_TLS, "fetch_log", None)
    log: List[FetchRecord] = []
    _TLS.fetch_log = log
    try:
        yield log
    finally:
        _TLS.fetch_log = previous
