"""Dependency-free metrics: registry, histograms, and cross-process counters.

Three layers, matching how the serving stack is deployed:

* **In-process instruments** — :class:`Histogram` (the servers' latency
  store) and labelled :class:`Counter` families (decode-stage and
  task-pool counters) with Prometheus-style names, held by a
  :class:`MetricsRegistry`.  The registry is *pull-based*: hot paths
  update plain counters under a lock (or nothing at all), and exposition
  walks them only when someone asks.  Everything else — gauges and
  histograms included — comes from *collectors*, callables that return
  :class:`MetricSample` lists at scrape time; the gateway's collector
  renders ``Gateway.stats()``.
* **Cross-process primitive** — :class:`MetricsBlock`, a fixed array of
  int64 slots in one ``multiprocessing.shared_memory`` segment (single
  writer per slot), so ``ProcessServer`` workers publish counters the
  parent reads without a lock.  Blocks are named ``repro_obs_<pid>_<seq>``
  and tracked in an ``atexit`` registry, so the ``/dev/shm`` leak scan
  that guards the weight cache covers metric blocks too.
* **Exposition** — :meth:`MetricsRegistry.to_prometheus` (text format with
  cumulative ``_bucket``/``_sum``/``_count`` series) and
  :meth:`MetricsRegistry.to_json`, plus a strict :func:`parse_prometheus`
  used by CI to validate the exposition line format.

Latency histograms are fixed log-scale buckets (default 10 µs → ~5.6 min)
plus a bounded, deterministically seeded reservoir: percentiles are exact
while the sample count fits the reservoir and statistically faithful after,
with flat memory forever — the replacement for the unbounded per-request
latency lists the servers used to keep.

:func:`set_enabled` is a process-wide kill switch for the *optional*
instrumentation (decode-stage profiling, trace sampling, fetch timing).
Stats-bearing counters ignore it — disabling observability must never make
``stats()`` lie — which is exactly what the overhead benchmark A/Bs.
"""

from __future__ import annotations

import atexit
import bisect
import itertools
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.log import get_logger
from repro.utils.errors import ValidationError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "MetricSample",
    "MetricsBlock",
    "MetricsRegistry",
    "is_enabled",
    "log_buckets",
    "parse_prometheus",
    "registry",
    "set_enabled",
]

_log = get_logger("obs.metrics")

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

# -- enable switch ----------------------------------------------------------

_ENABLED = True


def set_enabled(enabled: bool) -> None:
    """Toggle the optional instrumentation (profiling hooks, sampling)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def is_enabled() -> bool:
    return _ENABLED


# -- histogram --------------------------------------------------------------


def log_buckets(start: float = 1e-5, factor: float = 2.0, count: int = 26) -> Tuple[float, ...]:
    """Log-scale bucket upper bounds: ``start * factor**i`` for ``count`` steps."""
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValidationError("log_buckets needs start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


#: Default latency buckets in seconds: 10 µs doubling up to ~5.6 minutes.
DEFAULT_LATENCY_BUCKETS = log_buckets()

_DEFAULT_RESERVOIR = 512


class Histogram:
    """Fixed-bucket histogram plus a bounded reservoir, thread-safe.

    Buckets use Prometheus ``le`` semantics (cumulative on exposition) with
    an implicit ``+Inf`` overflow slot.  Percentiles come from an
    Algorithm-R reservoir with a deterministic seed: exact while fewer than
    ``reservoir_size`` values were observed, an unbiased sample after.
    Memory is O(buckets + reservoir) no matter how long the server runs.
    """

    def __init__(
        self,
        buckets: Optional[Sequence[float]] = None,
        *,
        reservoir_size: int = _DEFAULT_RESERVOIR,
        seed: int = 0,
    ) -> None:
        chosen = buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS
        bounds = tuple(float(b) for b in chosen)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError("histogram buckets must be strictly increasing and non-empty")
        if int(reservoir_size) < 1:
            raise ValidationError("reservoir_size must be >= 1")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir_size = int(reservoir_size)
        self._samples: List[float] = []
        self._seen = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect.bisect_left(self._bounds, value)] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._seen += 1
            if len(self._samples) < self._reservoir_size:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self._seen)
                if slot < self._reservoir_size:
                    self._samples[slot] = value

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) estimated from the reservoir."""
        with self._lock:
            if not self._samples:
                return 0.0
            return float(np.percentile(np.asarray(self._samples), q))

    def percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0), *, scale: float = 1.0
    ) -> Dict[str, float]:
        """``{"p50": ..., ...}`` — empty dict when nothing was observed.

        ``scale`` converts units on the way out (e.g. 1e3 for s → ms).
        """
        with self._lock:
            if not self._samples:
                return {}
            values = np.percentile(np.asarray(self._samples) * scale, list(qs))
        return {f"p{int(q)}": float(v) for q, v in zip(qs, values)}

    def _state(self) -> tuple:
        with self._lock:
            return (
                list(self._counts),
                self._count,
                self._sum,
                self._min,
                self._max,
                list(self._samples),
                self._seen,
            )

    def copy(self) -> "Histogram":
        """A consistent snapshot (safe to read without racing writers)."""
        clone = Histogram(self._bounds, reservoir_size=self._reservoir_size)
        (
            clone._counts,
            clone._count,
            clone._sum,
            clone._min,
            clone._max,
            clone._samples,
            clone._seen,
        ) = self._state()
        return clone

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram (returns self).

        Bucket counts and moments add exactly; the merged reservoir keeps
        every sample while the combined set fits, else a size-bounded
        subsample — the same accuracy contract as a single histogram.
        """
        if other._bounds != self._bounds:
            raise ValidationError("cannot merge histograms with different buckets")
        counts, count, total, low, high, samples, seen = other._state()
        with self._lock:
            self._counts = [a + b for a, b in zip(self._counts, counts)]
            self._count += count
            self._sum += total
            self._min = min(self._min, low)
            self._max = max(self._max, high)
            self._seen += seen
            combined = self._samples + samples
            if len(combined) > self._reservoir_size:
                combined = self._rng.sample(combined, self._reservoir_size)
            self._samples = combined
        return self

    def to_dict(self) -> dict:
        counts, count, total, low, high, _, _ = self._state()
        buckets = []
        cumulative = 0
        for bound, n in zip(self._bounds, counts):
            cumulative += n
            buckets.append({"le": f"{bound:.9g}", "count": cumulative})
        buckets.append({"le": "+Inf", "count": count})
        return {
            "count": count,
            "sum": total,
            "min": low if count else None,
            "max": high if count else None,
            "buckets": buckets,
        }


# -- instruments and registry ----------------------------------------------


@dataclass
class MetricSample:
    """One exposition sample: a scalar, or a whole histogram series."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str = ""
    labels: Dict[str, str] = field(default_factory=dict)
    value: Optional[float] = None
    histogram: Optional[dict] = None


class Counter:
    """Monotonic float counter (one labelled child of a family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class CounterFamily:
    """A named counter with a fixed label set and one child per label value."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label) or label == "le":
                raise ValidationError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[tuple, Counter] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str) -> Counter:
        if set(labels) != set(self.label_names):
            raise ValidationError(
                f"metric {self.name} takes labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = Counter()
        return child

    def _solo(self) -> Counter:
        if self.label_names:
            raise ValidationError(f"metric {self.name} is labelled; call .labels() first")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    @property
    def value(self) -> float:
        return self._solo().value

    def samples(self) -> List[MetricSample]:
        with self._lock:
            items = sorted(self._children.items())
        return [
            MetricSample(
                name=self.name,
                kind=self.kind,
                help=self.help,
                labels=dict(zip(self.label_names, key)),
                value=child.value,
            )
            for key, child in items
        ]


class MetricsRegistry:
    """Named counters plus pull-time collectors, with exposition.

    :meth:`counter` gets or creates a family (re-registration with a
    different label set is an error).  Collectors are callables returning
    :class:`MetricSample` lists — gauges and histograms included — invoked
    only at scrape time: the mechanism by which the gateway publishes its
    per-model and per-replica state without adding a single hot-path
    write.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, CounterFamily] = {}
        self._collectors: List[Callable[[], Iterable[MetricSample]]] = []

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> CounterFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = CounterFamily(name, help, labels)
                return family
        if family.label_names != tuple(labels):
            raise ValidationError(f"metric {name!r} already registered with a different label set")
        return family

    # -- collectors --------------------------------------------------------
    def register_collector(self, collector: Callable[[], Iterable[MetricSample]]) -> None:
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(self, collector: Callable[[], Iterable[MetricSample]]) -> None:
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    # -- exposition --------------------------------------------------------
    def samples(self) -> List[MetricSample]:
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors)
        out: List[MetricSample] = []
        for family in families:
            out.extend(family.samples())
        for collector in collectors:
            try:
                out.extend(collector())
            except Exception:
                _log.warning("metrics collector %r failed", collector, exc_info=True)
        return out

    def to_json(self) -> dict:
        """JSON exposition: ``{"generated_unix", "metrics": {name: ...}}``."""
        metrics: Dict[str, dict] = {}
        for sample in self.samples():
            entry = metrics.setdefault(
                sample.name, {"kind": sample.kind, "help": sample.help, "samples": []}
            )
            item: dict = {"labels": dict(sample.labels)}
            if sample.histogram is not None:
                item["histogram"] = sample.histogram
            else:
                item["value"] = sample.value
            entry["samples"].append(item)
        return {"generated_unix": time.time(), "metrics": metrics}

    def to_prometheus(self) -> str:
        """Prometheus text exposition (histograms as ``_bucket/_sum/_count``)."""
        grouped: Dict[str, List[MetricSample]] = {}
        for sample in self.samples():
            grouped.setdefault(sample.name, []).append(sample)
        lines: List[str] = []
        for name, group in grouped.items():
            head = group[0]
            if head.help:
                lines.append(f"# HELP {name} {_escape_help(head.help)}")
            lines.append(f"# TYPE {name} {head.kind}")
            for sample in group:
                base = _format_labels(sample.labels)
                if sample.histogram is not None:
                    hist = sample.histogram
                    for bucket in hist["buckets"]:
                        labels = dict(sample.labels)
                        labels["le"] = bucket["le"]
                        lines.append(f"{name}_bucket{_format_labels(labels)} {bucket['count']}")
                    lines.append(f"{name}_sum{base} {_format_value(hist['sum'])}")
                    lines.append(f"{name}_count{base} {hist['count']}")
                else:
                    lines.append(f"{name}{base} {_format_value(sample.value)}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(value: str) -> str:
    # The text format allows raw text after HELP but newlines must be
    # escaped or they start a bogus new line.
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


_GLOBAL_LOCK = threading.Lock()
_GLOBAL: Optional[MetricsRegistry] = None


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
        return _GLOBAL


# -- prometheus line-format parser ------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+([^\s]+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_PROM_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def _unescape_label(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _parse_label_block(block: str, lineno: int) -> Dict[str, str]:
    body = block[1:-1]
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(body):
        match = _LABEL_PAIR_RE.match(body, pos)
        if match is None:
            raise ValueError(f"line {lineno}: malformed label block {block!r}")
        labels[match.group(1)] = _unescape_label(match.group(2))
        pos = match.end()
        if pos < len(body):
            if body[pos] != ",":
                raise ValueError(f"line {lineno}: malformed label block {block!r}")
            pos += 1
    return labels


def parse_prometheus(text: str) -> Dict[str, dict]:
    """Strictly parse Prometheus text exposition.

    Returns ``{series_name: {"type", "help", "samples": [(labels, value)]}}``
    where histogram series appear under their literal ``_bucket``/``_sum``/
    ``_count`` names with ``type``/``help`` attached to the base name entry.
    Raises :class:`ValueError` on any malformed line — this is the CI
    validator for our own exposition, so it refuses rather than skips.
    """
    series: Dict[str, dict] = {}

    def entry(name: str) -> dict:
        return series.setdefault(name, {"type": None, "help": None, "samples": []})

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(None, 1)
            if not parts or not _NAME_RE.match(parts[0]):
                raise ValueError(f"line {lineno}: malformed HELP line {line!r}")
            entry(parts[0])["help"] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2 or not _NAME_RE.match(parts[0]) or parts[1] not in _PROM_TYPES:
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}")
            entry(parts[0])["type"] = parts[1]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line {line!r}")
        name, label_block, raw_value = match.groups()
        labels = _parse_label_block(label_block, lineno) if label_block else {}
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value {raw_value!r}") from None
        entry(name)["samples"].append((labels, value))
    return series


# -- cross-process primitives ------------------------------------------------


_BLOCKS_LOCK = threading.Lock()
_LIVE_BLOCKS: "List[MetricsBlock]" = []
_BLOCK_SEQ = itertools.count(1)


def _unlink_blocks_at_exit() -> None:
    with _BLOCKS_LOCK:
        blocks = list(_LIVE_BLOCKS)
    for block in blocks:
        block.close()


atexit.register(_unlink_blocks_at_exit)


class MetricsBlock:
    """Named int64 metric slots in one shared-memory segment.

    The parent :meth:`create`\\ s the block and ships its :attr:`manifest`
    (segment name + slot order, a few dozen bytes) to the worker, which
    :meth:`attach`\\ es and becomes the **single writer**: aligned 8-byte
    stores are atomic on every platform CPython supports, so the parent
    reads live values without any cross-process lock.

    The creating process owns the segment: ``close()`` there unlinks it,
    and an ``atexit`` registry unlinks anything still live on unclean exit
    — the same discipline as the shared weight store, and required by the
    CI ``/dev/shm`` leak scan (segments are named ``repro_obs_*``).
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        slots: Sequence[str],
        *,
        owner: bool,
    ) -> None:
        self._segment = segment
        self._slots = tuple(slots)
        self._index = {name: i for i, name in enumerate(self._slots)}
        self._cells: Optional[np.ndarray] = np.ndarray(
            (len(self._slots),), dtype=np.int64, buffer=segment.buf
        )
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, slots: Sequence[str]) -> "MetricsBlock":
        slots = tuple(slots)
        if not slots or len(set(slots)) != len(slots):
            raise ValidationError("MetricsBlock needs a non-empty, unique slot list")
        while True:
            name = f"repro_obs_{os.getpid()}_{next(_BLOCK_SEQ)}"
            try:
                segment = shared_memory.SharedMemory(name=name, create=True, size=8 * len(slots))
                break
            except FileExistsError:  # pragma: no cover - stale leftover
                continue
        block = cls(segment, slots, owner=True)
        block.reset()
        with _BLOCKS_LOCK:
            _LIVE_BLOCKS.append(block)
        return block

    @classmethod
    def attach(cls, manifest: dict) -> "MetricsBlock":
        # Attaching re-registers the name with the (shared) resource
        # tracker, same idempotent-set semantics as the weight segments —
        # see repro.serve.shm.attach_segment for why nothing is unregistered.
        segment = shared_memory.SharedMemory(name=manifest["segment"])
        return cls(segment, manifest["slots"], owner=False)

    @property
    def manifest(self) -> dict:
        return {"segment": self._segment.name, "slots": list(self._slots)}

    def add(self, slot: str, amount: int = 1) -> None:
        self._cells[self._index[slot]] += int(amount)

    def set(self, slot: str, value: int) -> None:
        self._cells[self._index[slot]] = int(value)

    def value(self, slot: str) -> int:
        return int(self._cells[self._index[slot]])

    def values(self) -> Dict[str, int]:
        cells = self._cells
        return {name: int(cells[i]) for name, i in self._index.items()}

    def reset(self) -> None:
        self._cells[:] = 0

    def close(self) -> None:
        """Detach; the owning process also unlinks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._cells = None  # release the buffer view before closing the mmap
        try:
            self._segment.close()
        except BufferError:
            _log.debug("metrics block %s close blocked by a live view", self._segment.name)
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass
            with _BLOCKS_LOCK:
                if self in _LIVE_BLOCKS:
                    _LIVE_BLOCKS.remove(self)
