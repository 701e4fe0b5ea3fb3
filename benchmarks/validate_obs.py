#!/usr/bin/env python
"""Validate observability artifacts a scenario-bench run produced.

Checks a Prometheus text dump (``--metrics``) with the strict line-format
parser and/or a trace JSONL (``--trace``) against the span schema, then
asserts the *content* a healthy serving run must have produced:

* every required gateway series is present, with at least one completed
  request counted;
* every trace is a single-rooted ``gateway.request`` tree whose parent
  pointers all resolve, covering admission -> shard -> queue -> batch ->
  forward -> decode;
* ``--expect-cache``: the run exercised the weight cache (thread-backend
  replicas publish per-model cache hit/miss counters);
* ``--expect-process-spans``: replica spans were recorded by worker
  *processes* — their pid differs from the gateway-side root's pid.

Exit code 0 on success; a failed check raises with a description.

Usage::

    PYTHONPATH=src python benchmarks/validate_obs.py \
        --metrics /tmp/obs.prom --trace /tmp/obs.jsonl --expect-cache
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.obs.metrics import parse_prometheus
from repro.obs.trace import load_trace, validate_span

#: Series every gateway run publishes regardless of backend.
REQUIRED_SERIES = (
    "repro_gateway_requests_total",
    "repro_gateway_queue_depth",
    "repro_gateway_latency_seconds_bucket",
    "repro_gateway_latency_seconds_count",
    "repro_gateway_latency_seconds_sum",
    "repro_replica_inflight",
    "repro_replica_dispatched_total",
    "repro_decode_stage_total",
    "repro_decode_stage_seconds_total",
)

GATEWAY_SPANS = ("gateway.request", "gateway.admission", "gateway.shard")
REPLICA_SPANS = ("replica.queue", "replica.batch", "replica.forward", "replica.decode")


def check_metrics(path: Path, *, expect_cache: bool, expect_process: bool) -> int:
    series = parse_prometheus(path.read_text())
    missing = [name for name in REQUIRED_SERIES if name not in series]
    if missing:
        raise SystemExit(f"{path}: missing required series: {missing}")
    completed = sum(
        value
        for labels, value in series["repro_gateway_requests_total"]["samples"]
        if labels.get("outcome") == "completed"
    )
    if completed <= 0:
        raise SystemExit(f"{path}: no completed requests counted")
    if expect_cache:
        for name in ("repro_cache_events_total", "repro_cache_resident_bytes"):
            if name not in series:
                raise SystemExit(f"{path}: missing cache series {name}")
        events = sum(
            value for _labels, value in series["repro_cache_events_total"]["samples"]
        )
        if events <= 0:
            raise SystemExit(f"{path}: cache series present but no events counted")
    if expect_process:
        for name in ("repro_worker_stage_total", "repro_worker_stage_seconds_total"):
            if name not in series:
                raise SystemExit(f"{path}: missing worker-stage series {name}")
        stages = {
            labels.get("stage")
            for labels, _value in series["repro_worker_stage_total"]["samples"]
        }
        if "forward" not in stages:
            raise SystemExit(f"{path}: worker-stage series lack 'forward': {stages}")
    print(f"{path}: {len(series)} series ok ({int(completed)} completed requests)")
    return len(series)


def check_trace(path: Path, *, expect_process: bool) -> int:
    records = load_trace(path)
    if not records:
        raise SystemExit(f"{path}: trace file contains no spans")
    traces: dict = {}
    for record in records:
        validate_span(record)
        traces.setdefault(record["trace_id"], []).append(record)
    stitched = 0
    for trace_id, spans in traces.items():
        roots = [s for s in spans if s["parent_id"] is None]
        if len(roots) != 1 or roots[0]["name"] != "gateway.request":
            raise SystemExit(
                f"{path}: trace {trace_id} must have exactly one gateway.request "
                f"root, got {[r['name'] for r in roots]}"
            )
        ids = {s["span_id"] for s in spans}
        dangling = [s["name"] for s in spans if s["parent_id"] not in ids | {None}]
        if dangling:
            raise SystemExit(f"{path}: trace {trace_id} has dangling parents: {dangling}")
        names = {s["name"] for s in spans}
        missing = [n for n in GATEWAY_SPANS + REPLICA_SPANS if n not in names]
        if missing:
            raise SystemExit(f"{path}: trace {trace_id} missing spans: {missing}")
        if expect_process:
            root_pid = roots[0]["pid"]
            worker_pids = {
                s["pid"] for s in spans if s["name"] in REPLICA_SPANS
            }
            if not worker_pids or root_pid in worker_pids:
                raise SystemExit(
                    f"{path}: trace {trace_id} replica spans should come from "
                    f"worker processes (root pid {root_pid}, replica pids "
                    f"{sorted(worker_pids)})"
                )
            stitched += 1
    suffix = f", {stitched} stitched across processes" if expect_process else ""
    print(f"{path}: {len(records)} spans in {len(traces)} full trees ok{suffix}")
    return len(traces)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics", type=Path, help="Prometheus text dump to validate")
    parser.add_argument("--trace", type=Path, help="span JSONL to validate")
    parser.add_argument(
        "--expect-cache", action="store_true",
        help="require per-model cache hit/miss series (thread-backend runs)",
    )
    parser.add_argument(
        "--expect-process-spans", action="store_true",
        help="require replica spans from worker processes (process-backend runs)",
    )
    args = parser.parse_args(argv)
    if not args.metrics and not args.trace:
        parser.error("nothing to validate: pass --metrics and/or --trace")
    if args.metrics:
        check_metrics(
            args.metrics,
            expect_cache=args.expect_cache,
            expect_process=args.expect_process_spans,
        )
    if args.trace:
        check_trace(args.trace, expect_process=args.expect_process_spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
