"""Sampled request tracing with spans that survive process boundaries.

A trace is a tree of spans covering one gateway request: admission wait,
shard decision, replica queue, batch assembly, per-layer decode-on-demand,
forward pass.  Sampling happens once, at the gateway front door
(:meth:`Tracer.sample`); everything downstream only does tracing work for
requests that carry a span.

**Cross-process stitching.**  A worker process cannot share a ``Tracer``
with the gateway, so span *context* (``{"trace_id", "span_id"}``) rides the
request pipe and the worker ships finished span **dicts** back with the
response batch (:func:`span_dict`); the parent exports them through its own
tracer (:meth:`Tracer.export_dicts`).  Timestamps are wall-clock
``time.time()`` on both sides — the one clock processes share — so a
worker's spans nest correctly under the gateway-side root.

Exported spans are flat JSON objects with exactly :data:`SPAN_FIELDS`;
:class:`JsonlSpanExporter` writes one per line, which is what
``scenario-bench --trace-sample`` produces and CI's validator re-parses.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.obs import metrics as _metrics
from repro.obs.log import get_logger
from repro.utils.errors import ValidationError

__all__ = [
    "SPAN_FIELDS",
    "BufferExporter",
    "JsonlSpanExporter",
    "Span",
    "Tracer",
    "load_trace",
    "span_dict",
    "validate_span",
]

_log = get_logger("obs.trace")

#: Exactly the keys of every exported span dict — pinned by tests and CI.
SPAN_FIELDS = (
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "start_s",
    "end_s",
    "duration_s",
    "pid",
    "attrs",
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


def span_dict(
    name: str,
    *,
    trace_id: str,
    parent_id: Optional[str],
    start_s: float,
    end_s: float,
    attrs: Optional[dict] = None,
    span_id: Optional[str] = None,
) -> dict:
    """A finished span as a plain dict — what worker processes ship back."""
    return {
        "trace_id": trace_id,
        "span_id": span_id or _new_id(),
        "parent_id": parent_id,
        "name": name,
        "start_s": float(start_s),
        "end_s": float(end_s),
        "duration_s": max(0.0, float(end_s) - float(start_s)),
        "pid": os.getpid(),
        "attrs": dict(attrs or {}),
    }


def validate_span(record: dict) -> None:
    """Raise :class:`ValueError` unless ``record`` is schema-exact."""
    if not isinstance(record, dict):
        raise ValueError(f"span must be a dict, got {type(record).__name__}")
    if set(record) != set(SPAN_FIELDS):
        missing = set(SPAN_FIELDS) - set(record)
        extra = set(record) - set(SPAN_FIELDS)
        raise ValueError(f"span fields mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    if not isinstance(record["trace_id"], str) or not record["trace_id"]:
        raise ValueError("trace_id must be a non-empty string")
    if not isinstance(record["span_id"], str) or not record["span_id"]:
        raise ValueError("span_id must be a non-empty string")
    if record["parent_id"] is not None and not isinstance(record["parent_id"], str):
        raise ValueError("parent_id must be a string or null")
    if not isinstance(record["name"], str) or not record["name"]:
        raise ValueError("name must be a non-empty string")
    for key in ("start_s", "end_s", "duration_s"):
        if not isinstance(record[key], (int, float)):
            raise ValueError(f"{key} must be numeric")
    if record["duration_s"] < 0:
        raise ValueError("duration_s must be >= 0")
    if not isinstance(record["pid"], int):
        raise ValueError("pid must be an int")
    if not isinstance(record["attrs"], dict):
        raise ValueError("attrs must be a dict")


class Span:
    """One live span; finished spans export through the owning tracer.

    ``start_s``/``end_s`` are wall-clock seconds so spans from different
    processes order on a common axis.  ``finish()`` is idempotent.
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name", "start_s", "end_s", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        start_s: Optional[float] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id or _new_id()
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start_s = time.time() if start_s is None else float(start_s)
        self.end_s: Optional[float] = None
        self.attrs = dict(attrs or {})

    def child(
        self, name: str, *, start_s: Optional[float] = None, attrs: Optional[dict] = None
    ) -> "Span":
        return Span(
            self.tracer,
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            start_s=start_s,
            attrs=attrs,
        )

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def context(self) -> Dict[str, str]:
        """What crosses the worker pipe: ``{"trace_id", "span_id"}``."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def to_dict(self) -> dict:
        end = self.end_s if self.end_s is not None else time.time()
        return span_dict(
            self.name,
            trace_id=self.trace_id,
            parent_id=self.parent_id,
            start_s=self.start_s,
            end_s=end,
            attrs=self.attrs,
            span_id=self.span_id,
        )

    def finish(self, end_s: Optional[float] = None) -> None:
        if self.end_s is not None:
            return
        self.end_s = time.time() if end_s is None else float(end_s)
        self.tracer._export(self.to_dict())

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("status", "error")
        self.finish()


class Tracer:
    """Sampling decision + export fan-out; cheap when idle.

    With no exporter or a zero sample rate, :meth:`sample` is a couple of
    attribute reads — the serving hot path pays nothing for requests that
    are not traced.  The sampling RNG is seedable for deterministic tests.
    """

    def __init__(
        self, sample_rate: float = 0.0, exporter=None, *, seed: Optional[int] = None
    ) -> None:
        rate = float(sample_rate)
        if not 0.0 <= rate <= 1.0:
            raise ValidationError("sample_rate must be in [0, 1]")
        self._rate = rate
        self._exporter = exporter
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()

    @property
    def sample_rate(self) -> float:
        return self._rate

    @property
    def exporter(self):
        return self._exporter

    def sample(self) -> bool:
        """Decide once per request whether to build a span tree."""
        if self._exporter is None or self._rate <= 0.0 or not _metrics.is_enabled():
            return False
        if self._rate >= 1.0:
            return True
        with self._rng_lock:
            return self._rng.random() < self._rate

    def start_span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        start_s: Optional[float] = None,
        attrs: Optional[dict] = None,
    ) -> Span:
        return Span(
            self, name, trace_id=trace_id, parent_id=parent_id, start_s=start_s, attrs=attrs
        )

    def _export(self, record: dict) -> None:
        exporter = self._exporter
        if exporter is None:
            return
        try:
            exporter.export(record)
        except Exception:
            _log.warning("span export failed", exc_info=True)

    def export_dicts(self, records: Iterable[dict]) -> None:
        """Export pre-built span dicts (spans shipped back from workers)."""
        for record in records:
            self._export(record)

    def close(self) -> None:
        exporter = self._exporter
        if exporter is not None and hasattr(exporter, "close"):
            exporter.close()


class BufferExporter:
    """Collects spans in memory — the test and introspection exporter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: List[dict] = []

    def export(self, record: dict) -> None:
        with self._lock:
            self.spans.append(record)

    def by_trace(self) -> Dict[str, List[dict]]:
        with self._lock:
            spans = list(self.spans)
        out: Dict[str, List[dict]] = {}
        for span in spans:
            out.setdefault(span["trace_id"], []).append(span)
        return out

    def close(self) -> None:  # symmetry with file exporters
        pass


class JsonlSpanExporter:
    """One JSON object per line, flushed per span so tails are readable."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        # A dedicated I/O lock (never nested under state locks): it guards
        # exactly this append-only handle, so holding it across the write
        # is the point, not a lock-held-blocking hazard.
        self._io_lock = threading.Lock()
        self._handle = None
        self.exported = 0

    @property
    def path(self) -> Path:
        return self._path

    def export(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._io_lock:
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self._path.open("a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()
            self.exported += 1

    def close(self) -> None:
        with self._io_lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def load_trace(path: Union[str, Path]) -> List[dict]:
    """Parse a span JSONL file, validating every record against the schema."""
    spans: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
            try:
                validate_span(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            spans.append(record)
    return spans
