"""Shared pieces of the benchmark: environment pinning, result records,
the one-caller op loops, statistics, and span self times.

Nothing here imports numpy at module level, so :func:`pin_environment` can
run before the first numpy import in the process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence

#: The checkout root: the parent of this benchmark's directory.
ROOT = Path(__file__).resolve().parent.parent
#: Program sources the benchmark builds against (never an installed copy).
SRC = ROOT / "src"
#: Scratch output of a run (span dumps, a private model cache); gitignored.
OUT = ROOT / ".perfbench"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread, a private model cache, and ``src`` on the path.

    Must run before numpy is imported: the BLAS libraries read their thread
    counts once, at load.  Spawned worker processes inherit the environment.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    # Keep repro.nn.zoo (not used by any workload) away from ~/.cache.
    os.environ["REPRO_CACHE"] = str(OUT / "model-cache")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_program_origin() -> None:
    """Refuse to measure a ``repro`` that was not imported from ``SRC``."""
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported repro from {origin}, not from {SRC}")


# ---------------------------------------------------------------------------
# results


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


@dataclass
class Outcome:
    """What one measurement produced: op counts, checks and metrics."""

    attempted: int = 0
    failed: int = 0
    #: Whole-run checks that are not per op (accounting, leaks, invariants).
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": self.metrics,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# closed loop, one caller


def run_ops(workload, seconds: float) -> Outcome:
    """Back-to-back ``workload.op()`` calls for ``seconds``, each checked.

    Only the op is timed; its check runs between ops.  An op that raises
    counts as failed and its time is kept.
    """
    outcome = Outcome()
    times: List[float] = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            output = workload.op()
        except Exception:
            output = None
        times.append(time.perf_counter() - start)
        if output is None or not workload.check(output):
            outcome.failed += 1
    outcome.attempted = len(times)
    outcome.metrics["latency_ms.p50"] = metric(percentile(times, 50) * 1e3, "ms")
    return outcome


def run_traced_ops(workload, seconds: float):
    """Alternate untraced ops and traced ops for ``seconds``.

    Returns ``(outcome, layer numbers, spans)``: the throughput and tail
    latencies of the untraced ops, the tracing overhead, and the last
    traced op's counts.
    Alternating, rather than running the halves in sequence, keeps host
    speed drift out of the tracing-overhead figure.
    """
    from repro.obs.trace import BufferExporter, Tracer

    exporter = BufferExporter()
    tracer = Tracer(exporter=exporter)
    outcome = Outcome()
    plain: List[float] = []
    layers: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while outcome.attempted < 2 or time.perf_counter() < deadline:
        outcome.attempted += 1
        if outcome.attempted % 2:
            start = time.perf_counter()
            output = workload.op()
            plain.append(time.perf_counter() - start)
        else:
            output, counts = workload.traced_op(tracer)
            layers.update(counts)
        if not workload.check(output):
            outcome.failed += 1
    roots = self_times(exporter.spans)["<root>"]
    layers.update(
        {
            "throughput_per_s": len(plain) / sum(plain),
            "latency_ms.p90": percentile(plain, 90) * 1e3,
            "latency_ms.p99": percentile(plain, 99) * 1e3,
            "tracing_overhead_pct": (percentile(roots, 50) / percentile(plain, 50) - 1) * 100,
        }
    )
    return outcome, layers, exporter.spans


# ---------------------------------------------------------------------------
# statistics


def percentile(values: Sequence[float], q: float) -> float:
    import numpy as np

    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# span trees


def self_times(spans: Iterable[Mapping]) -> Dict[str, List[float]]:
    """Per trace: every span's self time, and the root's unattributed time.

    A span's self time is its duration minus the union of its children's
    intervals (each clipped to the span).  The root's share is reported
    under the key ``"<unattributed>"`` and is the root duration minus every
    descendant's self time, so within one trace the self times and the
    unattributed time add up to the root duration exactly.

    Returns ``{span name: [seconds per trace, ...]}`` plus ``"<root>"`` (the
    root duration per trace); a name absent from a trace contributes 0.
    """
    by_trace: Dict[str, List[Mapping]] = {}
    for record in spans:
        by_trace.setdefault(record["trace_id"], []).append(record)
    names = sorted({s["name"] for group in by_trace.values() for s in group})
    out: Dict[str, List[float]] = {name: [] for name in names}
    out["<root>"] = []
    out["<unattributed>"] = []
    for group in by_trace.values():
        ids = {s["span_id"] for s in group}
        roots = [s for s in group if s["parent_id"] not in ids]
        if len(roots) != 1:
            continue  # a partial tree (span lost or still open): skip it
        children: Dict[str, List[Mapping]] = {}
        for s in group:
            if s["parent_id"] in ids:
                children.setdefault(s["parent_id"], []).append(s)
        totals = {name: 0.0 for name in names}

        def visit(span: Mapping, lo: float, hi: float) -> None:
            start, end = max(span["start_s"], lo), min(span["end_s"], hi)
            if end <= start:
                start = end = lo
            kids = children.get(span["span_id"], [])
            covered, cursor = 0.0, start
            for kid in sorted(kids, key=lambda k: k["start_s"]):
                k_lo, k_hi = max(kid["start_s"], cursor), min(kid["end_s"], end)
                if k_hi > k_lo:
                    covered += k_hi - k_lo
                    cursor = k_hi
            totals[span["name"]] += (end - start) - covered
            for kid in kids:
                visit(kid, start, end)

        root = roots[0]
        duration = root["end_s"] - root["start_s"]
        visit(root, root["start_s"], root["end_s"])
        attributed = sum(v for name, v in totals.items() if name != root["name"])
        for name in names:
            if name != root["name"]:
                out[name].append(totals[name])
        out["<root>"].append(duration)
        out["<unattributed>"].append(duration - attributed)
    return out


def layer_breakdown(
    spans: Sequence[Mapping], names: Mapping[str, str], unattributed: str
) -> Dict[str, float]:
    """Mean self time (ms) per op for each span in ``names`` (span -> metric).

    Adds ``traced.op_ms`` (mean root duration) and ``unattributed`` (the
    mean of what no span covers); the metrics sum to ``traced.op_ms``.
    Raises when a span name outside ``names`` appears, so no time can hide.
    """
    selfs = self_times(spans)
    roots = selfs.pop("<root>")
    rest = selfs.pop("<unattributed>")
    out: Dict[str, float] = {}
    for span_name, values in selfs.items():
        if span_name in names:
            out[names[span_name]] = mean(values) * 1e3
        elif any(values):
            raise ValueError(f"span {span_name!r} has no per-layer metric")
    for metric_name in names.values():
        out.setdefault(metric_name, 0.0)
    out[unattributed] = mean(rest) * 1e3
    out["traced.op_ms"] = mean(roots) * 1e3
    return out


def dump_spans(spans: Sequence[Mapping], path: Path) -> None:
    """Write spans as JSON lines (the schema of ``repro.obs.trace``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# processes and shared memory


def stop_resource_tracker() -> None:
    """Stop multiprocessing's shared-memory tracker process and wait for it,
    so the run leaves no process of its own behind."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def shm_segments() -> List[str]:
    """This process's ``repro`` shared-memory segments still in /dev/shm."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    tag = f"_{os.getpid()}_"
    return sorted(n for n in names if n.startswith("repro_") and tag in n)
