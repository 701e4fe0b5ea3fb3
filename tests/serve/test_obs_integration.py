"""Observability wired through the real serving stack.

Covers the span trees both replica backends emit, the Prometheus series
the gateway collector publishes while a run is live, the stats-JSON
schema downstream tooling parses, and the ``repro metrics`` CLI.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.obs.metrics import Histogram, MetricSample, MetricsRegistry, parse_prometheus
from repro.obs.trace import BufferExporter, Tracer, validate_span
from repro.serve import Gateway

_INPUT_DIM = 160  # fc6 of the session model is 96x160

_GATEWAY_SPANS = {"gateway.request", "gateway.admission", "gateway.shard"}
_REPLICA_SPANS = {"replica.queue", "replica.batch", "replica.forward", "replica.decode"}


def _run_traced(archive_blob, backend, requests=6):
    exporter = BufferExporter()
    gateway = Gateway(
        tracer=Tracer(1.0, exporter), replica_backend=backend,
        metrics=MetricsRegistry(),
    )
    gateway.add_model("m", archive_blob, replicas=1, max_queue_depth=64)
    x = np.ones(_INPUT_DIM, dtype=np.float32)
    with gateway:
        for future in [gateway.submit("m", x) for _ in range(requests)]:
            future.result(timeout=60)
    gateway.close()
    return exporter.by_trace()


def _check_trees(traces, requests):
    assert len(traces) == requests
    for spans in traces.values():
        for span in spans:
            validate_span(span)
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert set(by_name) == _GATEWAY_SPANS | _REPLICA_SPANS
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["gateway.request"]
        ids = {s["span_id"] for s in spans}
        assert all(s["parent_id"] in ids for s in spans if s["parent_id"] is not None)
        root = roots[0]
        # Admission, shard decision, and the replica queue/batch spans all
        # hang off the request root; forward nests in batch, decode in forward.
        for name in ("gateway.admission", "gateway.shard", "replica.queue", "replica.batch"):
            assert all(s["parent_id"] == root["span_id"] for s in by_name[name]), name
        (batch,) = by_name["replica.batch"]
        (forward,) = by_name["replica.forward"]
        assert forward["parent_id"] == batch["span_id"]
        decode_layers = []
        for span in by_name["replica.decode"]:
            assert span["parent_id"] == forward["span_id"]
            decode_layers.append(span["attrs"]["layer"])
        assert sorted(decode_layers) == sorted(set(decode_layers))
        assert root["start_s"] <= forward["start_s"] <= forward["end_s"] <= root["end_s"]
    return traces


class TestTraceStitching:
    def test_thread_backend_full_trees(self, archive_blob):
        traces = _check_trees(_run_traced(archive_blob, "thread"), 6)
        for spans in traces.values():
            assert {s["pid"] for s in spans} == {os.getpid()}

    def test_process_backend_stitches_worker_spans(self, archive_blob):
        traces = _check_trees(_run_traced(archive_blob, "process"), 6)
        for spans in traces.values():
            pids = {s["pid"] for s in spans}
            assert len(pids) == 2  # gateway + worker process
            for span in spans:
                if span["name"] in _REPLICA_SPANS:
                    assert span["pid"] != os.getpid()
                else:
                    assert span["pid"] == os.getpid()


class TestExposition:
    def test_registry_series_live_during_run(self, archive_blob):
        registry = MetricsRegistry()
        gateway = Gateway(metrics=registry)
        gateway.add_model("m", archive_blob, replicas=2, max_queue_depth=64)
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            for future in [gateway.submit("m", x) for _ in range(8)]:
                future.result(timeout=60)
            series = parse_prometheus(registry.to_prometheus())
            for name in (
                "repro_gateway_requests_total",
                "repro_gateway_queue_depth",
                "repro_gateway_latency_seconds_bucket",
                "repro_gateway_latency_seconds_count",
                "repro_replica_inflight",
                "repro_replica_dispatched_total",
                "repro_cache_events_total",
                "repro_cache_resident_bytes",
            ):
                assert name in series, name
            completed = [
                value
                for labels, value in series["repro_gateway_requests_total"]["samples"]
                if labels == {"model": "m", "outcome": "completed"}
            ]
            assert completed == [8.0]
            dispatched = sum(
                value
                for _labels, value in series["repro_replica_dispatched_total"]["samples"]
            )
            assert dispatched == 8.0
        gateway.close()
        # The collector deregisters with the run: a stopped gateway must not
        # leave stale series behind on a shared registry.
        assert "repro_gateway_requests_total" not in parse_prometheus(
            registry.to_prometheus()
        )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_exposition_agrees_with_stats(self, archive_blob, backend):
        """/metrics and Gateway.stats() report the same numbers per model."""
        registry = MetricsRegistry()
        gateway = Gateway(metrics=registry, replica_backend=backend)
        for name in ("a", "b"):
            gateway.add_model(name, archive_blob, replicas=2, max_queue_depth=64)
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            futures = [gateway.submit(name, x) for name in "aab" * 4]
            for future in futures:
                future.result(timeout=60)
            series = parse_prometheus(registry.to_prometheus())
            stats = gateway.stats()
        gateway.close()

        def per_model(family, name):
            return [
                (labels, value)
                for labels, value in series[family]["samples"]
                if labels["model"] == name
            ]

        outcome_fields = {
            "submitted": "submitted", "completed": "completed", "failed": "failures",
            "rejected": "rejected", "deadline_exceeded": "deadline_exceeded",
            "cancelled": "cancelled",
        }
        assert stats.completed == len(futures)
        for name, model in stats.models.items():
            outcomes = {
                labels["outcome"]: value
                for labels, value in per_model("repro_gateway_requests_total", name)
            }
            assert outcomes == {
                label: float(getattr(model, field))
                for label, field in outcome_fields.items()
            }
            dispatched = per_model("repro_replica_dispatched_total", name)
            assert sum(value for _, value in dispatched) == sum(
                r.dispatched for r in model.replicas
            )
            (resident,) = per_model("repro_cache_resident_bytes", name)
            assert resident[1] == model.cache_bytes
            # Thread replicas hold private decoded caches; process replicas
            # alias the shared segment and hold none.
            assert (model.cache_bytes > 0) == (backend == "thread")
            (count,) = per_model("repro_gateway_latency_seconds_count", name)
            settled = (
                model.completed + model.failures + model.deadline_exceeded
                + model.cancelled
            )
            assert count[1] == settled == model.submitted

    def test_process_backend_worker_stage_series(self, archive_blob):
        registry = MetricsRegistry()
        gateway = Gateway(metrics=registry, replica_backend="process")
        gateway.add_model("m", archive_blob, replicas=1, max_queue_depth=64)
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            for future in [gateway.submit("m", x) for _ in range(4)]:
                future.result(timeout=60)
            series = parse_prometheus(registry.to_prometheus())
        gateway.close()
        stages = {
            labels["stage"]
            for labels, _value in series["repro_worker_stage_total"]["samples"]
        }
        assert stages == {"forward", "fetch"}
        forward_s = [
            value
            for labels, value in series["repro_worker_stage_seconds_total"]["samples"]
            if labels.get("stage") == "forward"
        ]
        assert forward_s and forward_s[0] > 0.0


class TestStatsSchema:
    def test_stats_json_schema_is_stable(self, archive_blob):
        """Downstream tooling (bench artifacts, compare_baselines) parses
        these exact keys; additions must be deliberate."""
        gateway = Gateway(metrics=MetricsRegistry())
        gateway.add_model("m", archive_blob, replicas=1, max_queue_depth=64)
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            for future in [gateway.submit("m", x) for _ in range(3)]:
                future.result(timeout=60)
            payload = gateway.stats().as_dict()
        gateway.close()
        json.dumps(payload)  # JSON-ready end to end
        assert set(payload) == {
            "elapsed_seconds", "submitted", "completed", "failures", "rejected",
            "deadline_exceeded", "cancelled",
            "cache_bytes", "shared_bytes", "latencies_ms", "models",
            "throughput_rps", "rejection_rate",
        }
        model = payload["models"]["m"]
        assert set(model) == {
            "name", "policy", "backend", "shared_bytes", "submitted", "completed",
            "failures", "rejected", "deadline_exceeded", "cancelled",
            "queue_depth", "max_queue_depth",
            "max_concurrency", "elapsed_seconds", "latencies_ms", "replicas",
            "throughput_rps", "rejection_rate", "cache_bytes",
        }
        assert set(model["latencies_ms"]) == {"p50", "p90", "p99"}
        (replica,) = model["replicas"]
        assert set(replica) == {
            "id", "dispatched", "inflight", "cache_bytes", "decodes", "server",
        }
        assert set(replica["server"]) == {
            "requests", "batches", "failures", "elapsed_seconds", "latencies_ms",
            "mean_batch_size", "throughput_rps",
        }


class TestMetricsCli:
    def test_renders_prometheus_file(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total", "demo", labels=("model",)).labels(
            model="m"
        ).inc(5)
        path = tmp_path / "metrics.prom"
        path.write_text(registry.to_prometheus())
        assert cli_main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_demo_total" in out
        assert "model=m" in out or 'model="m"' in out

    def test_renders_json_file(self, tmp_path, capsys):
        registry = MetricsRegistry()
        hist = Histogram()
        hist.observe(0.01)
        registry.register_collector(lambda: [
            MetricSample(name="repro_depth", kind="gauge", help="queue depth", value=3.0),
            MetricSample(
                name="repro_wait_seconds", kind="histogram", help="wait",
                histogram=hist.to_dict(),
            ),
        ])
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(registry.to_json()))
        assert cli_main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_depth" in out
        assert "repro_wait_seconds" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert cli_main(["metrics", str(tmp_path / "nope.prom")]) == 1
        capsys.readouterr()

    def test_bench_trace_flags_validated(self, capsys):
        # Sampled spans need somewhere to go.
        assert cli_main(["scenario-bench", "--trace-sample", "0.5"]) == 1
        assert "--trace-out" in capsys.readouterr().err
