"""Observability for the serving stack: metrics, tracing, profiling, logging.

Dependency-free (stdlib + numpy).  See the submodules:

* :mod:`repro.obs.metrics` — registry, histograms, shared-memory blocks,
  Prometheus/JSON exposition;
* :mod:`repro.obs.trace` — sampled span trees that stitch across worker
  process boundaries;
* :mod:`repro.obs.profile` — per-stage decode timings and the serving
  fetch log;
* :mod:`repro.obs.log` — structured logging for previously-silent
  anomaly paths.
"""

from repro.obs.log import get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricSample,
    MetricsBlock,
    MetricsRegistry,
    is_enabled,
    log_buckets,
    parse_prometheus,
    registry,
    set_enabled,
)
from repro.obs.profile import (
    DECODE_STAGES,
    active_fetch_log,
    collect_fetches,
    record_fetch,
    record_stage,
    stage,
    stage_sink,
)
from repro.obs.trace import (
    SPAN_FIELDS,
    BufferExporter,
    JsonlSpanExporter,
    Span,
    Tracer,
    load_trace,
    span_dict,
    validate_span,
)

__all__ = [
    "DECODE_STAGES",
    "DEFAULT_LATENCY_BUCKETS",
    "SPAN_FIELDS",
    "BufferExporter",
    "Counter",
    "Histogram",
    "JsonlSpanExporter",
    "MetricSample",
    "MetricsBlock",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_fetch_log",
    "collect_fetches",
    "get_logger",
    "is_enabled",
    "load_trace",
    "log_buckets",
    "parse_prometheus",
    "record_fetch",
    "record_stage",
    "registry",
    "set_enabled",
    "span_dict",
    "stage",
    "stage_sink",
    "validate_span",
]
