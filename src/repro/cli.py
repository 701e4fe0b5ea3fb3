"""``python -m repro`` — command-line front end for the archive + serving stack.

Subcommands
-----------
``compress``
    Encode a model into a random-access ``.dsz`` archive.  Either a
    synthetic layer spec (``--synthetic "fc6=256x512:0.1,..."`` — fast,
    deterministic, used by CI) or a zoo model (``--model alexnet-mini`` —
    trains/loads the cached mini network and runs the full DeepSZ
    pipeline).  ``--store DIR`` additionally puts the archive into a
    content-addressed :class:`~repro.store.ModelStore` and prints the
    digest.
``inspect``
    Print the archive manifest: per-layer shapes, codecs, segment sizes
    and compression ratios, without decoding anything.
``verify``
    CRC-check every segment and decode every layer; exit non-zero on the
    first integrity or decode failure.
``serve-bench``
    Run the serving benchmark (cold full decode vs lazy first layer vs
    warm cache access, plus concurrent layer-access throughput) and print
    the numbers, optionally as JSON.  ``--sparse`` serves layers in
    compressed-domain form (CSC matmuls straight from the two-array
    decode, with cache entries charged their true sparse footprint).
``scenario-bench``
    The one gateway load benchmark: replay seeded workload traces against
    every cell of a scenario x policy x backend x front door x replicas x
    queue-depth grid and write a ``BENCH_scenarios.json`` artifact.
    ``--trace-sample``/``--trace-out`` export request spans and
    ``--metrics-out`` dumps the metrics registry.
``metrics``
    Render a metrics dump produced by ``scenario-bench --metrics-out`` (or
    any :meth:`~repro.obs.metrics.MetricsRegistry` exposition written to a
    file): one-shot by default, ``--watch SECONDS`` to re-render as the
    file is rewritten.  Prometheus text (``.prom``) and JSON dumps are both
    understood.
``assess``
    Run Step 2 (error-bound assessment, Algorithm 1) on a zoo model with
    the parallel activation-reuse engine and print the per-layer
    assessment points plus the Algorithm 2 error-bound plan.  ``--cache``
    persists candidate results so repeated runs are incremental;
    ``--workers 0`` uses every core.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis import format_bytes, render_table
from repro.core.encoder import DeepSZEncoder
from repro.pruning.magnitude import prune_weights
from repro.pruning.sparse_format import SparseLayer, encode_sparse
from repro.store import ModelArchive, ModelStore
from repro.utils.errors import ReproError, ValidationError

__all__ = ["main", "build_parser", "parse_synthetic_spec", "synthetic_sparse_layers"]


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------

_DEFAULT_SPEC = "fc6=256x512:0.1,fc7=128x256:0.1,fc8=64x128:0.25"


def parse_synthetic_spec(spec: str) -> List[tuple[str, tuple[int, int], float]]:
    """Parse ``name=ROWSxCOLS:density,...`` into (name, shape, density)."""
    layers: List[tuple[str, tuple[int, int], float]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            name, rest = part.split("=", 1)
            dims, density = rest.split(":", 1)
            rows, cols = dims.lower().split("x", 1)
            layers.append((name.strip(), (int(rows), int(cols)), float(density)))
        except ValueError:
            raise ValidationError(
                f"bad synthetic layer spec {part!r}; expected name=ROWSxCOLS:density"
            ) from None
    if not layers:
        raise ValidationError("synthetic spec contains no layers")
    for name, shape, density in layers:
        if shape[0] < 1 or shape[1] < 1 or not (0.0 < density <= 1.0):
            raise ValidationError(f"bad synthetic layer {name!r}: {shape}, {density}")
    return layers


def synthetic_sparse_layers(
    spec: str, *, seed: int = 0
) -> Dict[str, SparseLayer]:
    """Deterministic pruned layers matching a synthetic spec."""
    rng = np.random.default_rng(seed)
    layers: Dict[str, SparseLayer] = {}
    for name, shape, density in parse_synthetic_spec(spec):
        weights = (rng.standard_normal(shape) * 0.05).astype(np.float32)
        pruned, _ = prune_weights(weights, density)
        layers[name] = encode_sparse(pruned)
    return layers


def _cmd_compress(args: argparse.Namespace) -> int:
    if args.model is not None:
        from repro.core import DeepSZ, DeepSZConfig
        from repro.nn import zoo

        pruned, _, test = zoo.pruned_model(args.model)
        config = DeepSZConfig(
            expected_accuracy_loss=args.accuracy_loss,
            chunk_size=args.chunk_size,
            workers=args.workers,
            assessment_samples=args.assessment_samples,
            sparse_inference=args.sparse_inference,
        )
        result = DeepSZ(config).compress(pruned, test.images, test.labels)
        model = result.model
    else:
        if args.sparse_inference:
            raise ValidationError(
                "--sparse-inference requires --model (the zoo pipeline "
                "measures compressed accuracy; synthetic layers have none)"
            )
        sparse = synthetic_sparse_layers(args.synthetic, seed=args.seed)
        encoder = DeepSZEncoder(chunk_size=args.chunk_size, workers=args.workers)
        model = encoder.encode(
            "synthetic", sparse, {name: args.error_bound for name in sparse}
        )
    written = model.save(args.out)
    print(f"wrote {args.out}: {format_bytes(written)}, {len(model.layers)} layers")
    if args.store is not None:
        store = ModelStore(args.store)
        digest = store.put_file(args.out)
        print(f"stored as sha256:{digest}")
    return 0


# ---------------------------------------------------------------------------
# inspect / verify
# ---------------------------------------------------------------------------


def _cmd_inspect(args: argparse.Namespace) -> int:
    with ModelArchive.open(args.archive) as archive:
        manifest = archive.manifest
        if args.json:
            from repro.store.archive import manifest_to_dict

            payload = manifest_to_dict(manifest)
            payload["archive_version"] = archive.version
            payload["archive_bytes"] = archive.size
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        rows = []
        for name, entry in manifest.layers.items():
            dense = entry.shape[0] * entry.shape[1] * 4
            rows.append(
                [
                    name,
                    f"{entry.shape[0]}x{entry.shape[1]}",
                    entry.nnz,
                    f"{entry.error_bound:.0e}",
                    entry.data_codec,
                    entry.index_backend,
                    format_bytes(entry.segments["sz"].length),
                    format_bytes(entry.segments["index"].length),
                    f"{dense / entry.compressed_bytes:.1f}x"
                    if entry.compressed_bytes
                    else "inf",
                ]
            )
        title = (
            f"{args.archive} — network {manifest.network!r}, "
            f"format v{archive.version}, {format_bytes(archive.size)}"
        )
        print(
            render_table(
                ["layer", "shape", "nnz", "eb", "data", "index", "sz bytes",
                 "idx bytes", "ratio"],
                rows,
                title=title,
            )
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.decoder import decode_compressed_layer

    with ModelArchive.open(args.archive) as archive:
        failures = 0
        for name in archive.layer_names:
            entry = archive.manifest.layers[name]
            try:
                if args.checksums_only:
                    # CRC-check this layer's segments only, so one corrupt
                    # layer still lets the report cover every other layer.
                    unverifiable = [
                        kind
                        for kind, seg in entry.segments.items()
                        if seg.crc32 is None
                    ]
                    for kind in entry.segments:
                        archive.segment(name, kind, verify=True)
                    status = (
                        f"no checksum (v1-era: {', '.join(unverifiable)})"
                        if unverifiable
                        else "crc ok"
                    )
                else:
                    layer = archive.read_layer(name, verify=True)
                    dense = decode_compressed_layer(layer)
                    status = f"ok ({dense.shape[0]}x{dense.shape[1]} decoded)"
            except ReproError as exc:
                status = f"FAILED: {exc}"
                failures += 1
            print(f"  {name:<12} {status}")
        if failures:
            print(f"verification FAILED for {failures} layer(s)")
            return 1
        print(f"all {len(archive.layer_names)} layers verified")
    return 0


# ---------------------------------------------------------------------------
# serve-bench
# ---------------------------------------------------------------------------


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.bench import serving_benchmark

    concurrency = [int(c) for c in args.concurrency.split(",") if c.strip()]
    results = serving_benchmark(
        args.archive,
        concurrency=concurrency,
        accesses_per_thread=args.requests,
        warm_repeats=args.warm_repeats,
        cache_bytes=args.cache_mb * 1024 * 1024,
        sparse=args.sparse,
    )
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
        return 0
    mode = "sparse (compressed-domain)" if results["sparse"] else "dense"
    print(f"archive: {format_bytes(results['archive_bytes'])}, "
          f"{results['layers']} layers, {mode} resident "
          f"{format_bytes(results['decoded_bytes'])}")
    print(f"cold full decode     : {results['cold_full_decode_s'] * 1e3:9.2f} ms")
    print(f"cold first layer     : {results['cold_first_layer_s'] * 1e3:9.2f} ms")
    print(f"warm layer access    : {results['warm_layer_access_s'] * 1e6:9.2f} us")
    print(f"warm vs cold speedup : {results['warm_vs_cold_speedup']:9.0f}x")
    for workers, rate in results["throughput_accesses_per_s"].items():
        print(f"throughput @{workers:>2} threads: {rate:12.0f} accesses/s")
    return 0


# ---------------------------------------------------------------------------
# scenario-bench
# ---------------------------------------------------------------------------


def _csv(text: str) -> list:
    return [part.strip() for part in str(text).split(",") if part.strip()]


def _cmd_scenario_bench(args: argparse.Namespace) -> int:
    from repro.obs.trace import JsonlSpanExporter, Tracer
    from repro.sim.matrix import (
        DEFAULT_SPEC,
        MatrixConfig,
        load_config,
        matrix_artifact,
        normalize_policy,
        run_matrix,
    )
    from repro.sim.workload import SCENARIOS, list_scenarios

    if args.list_scenarios:
        rows = [
            [
                name,
                SCENARIOS[name].summary,
                SCENARIOS[name].stresses,
            ]
            for name in list_scenarios()
        ]
        print(render_table(["scenario", "summary", "stresses"], rows,
                           title="scenario catalog (docs/scenarios.md)"))
        return 0

    if args.config:
        config = load_config(args.config)
    else:
        deadline_ms = None if args.deadline_ms <= 0 else float(args.deadline_ms)
        config = MatrixConfig(
            scenarios=tuple(_csv(args.scenario)),
            policies=tuple(normalize_policy(p) for p in _csv(args.policy)),
            backends=tuple(_csv(args.backend)),
            frontdoors=tuple(_csv(args.frontdoor)),
            replicas=tuple(int(r) for r in _csv(args.replicas)),
            queue_depths=tuple(int(q) for q in _csv(args.queue_depth)),
            models=args.models,
            tenants=args.tenants,
            duration_s=args.duration,
            rate_rps=args.rate,
            deadline_ms=deadline_ms,
            seed=args.seed,
            time_scale=args.time_scale,
            mode=args.mode,
            clients=args.clients,
            synthetic=args.synthetic or DEFAULT_SPEC,
        )
        config.validate()
    tracer = None
    if args.trace_sample:
        if not args.trace_out:
            raise ValidationError("--trace-sample needs --trace-out")
        tracer = Tracer(
            args.trace_sample, JsonlSpanExporter(args.trace_out), seed=config.seed
        )

    if args.dump_trace:
        from repro.sim.matrix import _render_traces

        payload = {
            name: json.loads(trace.to_json())
            for name, trace in _render_traces(config).items()
        }
        Path(args.dump_trace).write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
        print(f"wrote {args.dump_trace}")
        if args.trace_only:
            return 0

    progress = None if args.json else (lambda label: print(f"  cell {label}", flush=True))
    if progress is not None:
        print(
            f"scenario matrix: {config.cell_count()} cells "
            f"({len(config.scenarios)} scenario(s) x {len(config.policies)} "
            f"policy(ies) x {len(config.backends)} backend(s) x "
            f"{len(config.frontdoors)} frontdoor(s))",
            flush=True,
        )
    try:
        result = run_matrix(
            config, progress=progress, tracer=tracer, metrics_path=args.metrics_out
        )
    finally:
        if tracer is not None:
            tracer.close()
    artifact = matrix_artifact(result, mode=args.bench_mode)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=2, sort_keys=True), encoding="utf-8")

    if args.json:
        print(json.dumps(artifact, indent=2, sort_keys=True))
        return 0

    rows = []
    for cell in result["cells"]:
        cache = cell["cache_hit_rate"]["overall"]
        rows.append(
            [
                cell["scenario"],
                cell["policy"],
                cell["backend"],
                cell["frontdoor"],
                str(cell["replicas"]),
                str(cell["queue_depth"]),
                f"{cell['rps']:,.0f} req/s",
                f"{cell['goodput_rps']:,.0f} req/s",
                f"{cell['latency_ms']['p99']:.1f} ms",
                f"{cell['rejection_rate']:.1%}",
                f"{cell['deadline_miss_rate']:.1%}",
                "n/a" if cache is None else f"{cache:.0%}",
            ]
        )
    print(
        render_table(
            ["scenario", "policy", "backend", "door", "rep", "q",
             "rps", "goodput", "p99", "rej", "miss", "cache"],
            rows,
            title=(
                f"scenario x policy matrix: seed {config.seed}, "
                f"{config.duration_s:.1f}s @ {config.rate_rps:.0f} rps nominal, "
                f"{config.models} models / {config.tenants} tenants"
            ),
        )
    )
    for name, info in sorted(result["traces"].items()):
        print(
            f"trace {name}: {info['requests']} requests "
            f"({info['offered_rps']:,.0f} rps offered), sha256 {info['sha256'][:12]}"
        )
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# serve-http
# ---------------------------------------------------------------------------


def _cmd_serve_http(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import AsyncGateway, HttpFrontDoor
    from repro.store import archive_bytes

    sources: Dict[str, bytes] = {}
    if args.archive:
        for spec in args.archive:
            name, _, path = spec.partition("=")
            if not path:
                raise ValidationError(
                    f"bad --archive {spec!r}; expected name=path.dsz"
                )
            from pathlib import Path

            sources[name] = Path(path).read_bytes()
    else:
        encoder = DeepSZEncoder(workers=args.workers)
        for index in range(args.models):
            name = f"model-{index}"
            layers = synthetic_sparse_layers(args.synthetic, seed=args.seed + index)
            model = encoder.encode(
                name, layers, {n: args.error_bound for n in layers}
            )
            sources[name] = archive_bytes(model)

    async def _serve() -> int:
        gateway = AsyncGateway(replica_backend=args.backend)
        for name, blob in sources.items():
            gateway.add_model(
                name,
                blob,
                replicas=args.replicas,
                policy=args.policy,
                max_queue_depth=args.queue_depth,
                batch_size=args.batch_size,
            )
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stopping.set)
            except NotImplementedError:  # non-Unix event loop
                signal.signal(signum, lambda *_: stopping.set())
        await gateway.start()
        try:
            front = HttpFrontDoor(gateway, host=args.host, port=args.port)
            await front.start()
            host, port = front.address
            print(
                f"serving {len(sources)} model(s) on http://{host}:{port} "
                f"({args.backend} backend, {args.replicas} replica(s)/model); "
                "endpoints: POST /v1/infer/<model>, GET /metrics, GET /healthz",
                flush=True,
            )
            await stopping.wait()
            print("draining...", flush=True)
            # Acceptor first (no new connections), then the gateway drain
            # (every admitted request settles before the fleet stops).
            await front.stop()
        finally:
            await gateway.stop()
        print("stopped", flush=True)
        return 0

    return asyncio.run(_serve())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _metrics_rows(path, fmt: str) -> List[List[str]]:
    """Table rows (name, kind, labels, value) from a metrics dump file."""
    from pathlib import Path as _Path

    from repro.obs.metrics import parse_prometheus

    path = _Path(path)
    text = path.read_text(encoding="utf-8")
    if fmt == "auto":
        fmt = "prom" if path.suffix == ".prom" else "json"
    rows: List[List[str]] = []
    if fmt == "json":
        payload = json.loads(text)
        for name, family in sorted(payload.get("metrics", {}).items()):
            for sample in family.get("samples", []):
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(sample.get("labels", {}).items())
                )
                hist = sample.get("histogram")
                if hist is not None:
                    value = f"count={hist['count']} sum={hist['sum']:.6g}"
                else:
                    value = f"{sample['value']:.6g}"
                rows.append([name, family.get("kind", "?"), labels, value])
    else:
        for name, series in sorted(parse_prometheus(text).items()):
            for labels, value in series["samples"]:
                label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                rows.append([name, series["type"] or "?", label_text, f"{value:.6g}"])
    return rows


def _cmd_metrics(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path as _Path

    def render_once() -> int:
        path = _Path(args.path)
        if not path.exists():
            print(f"(waiting for {path} to appear)")
            return 1
        rows = _metrics_rows(path, args.format)
        print(render_table(["metric", "kind", "labels", "value"], rows,
                           title=str(path)))
        return 0

    if args.watch is None:
        missing = render_once()
        if missing:
            print(f"error: no metrics dump at {args.path}", file=sys.stderr)
        return missing
    try:
        while True:
            print(f"--- {time.strftime('%H:%M:%S')} ---")
            render_once()
            time.sleep(max(0.1, float(args.watch)))
    except KeyboardInterrupt:
        return 0


# ---------------------------------------------------------------------------
# assess
# ---------------------------------------------------------------------------


def _cmd_assess(args: argparse.Namespace) -> int:
    import time

    from repro.core.assessment import AssessmentConfig, assess_network
    from repro.core.optimizer import OptimizerConfig, optimize_error_bounds
    from repro.core.pipeline import assessment_subset
    from repro.nn import zoo
    from repro.store import AssessmentCache

    pruned, _, test = zoo.pruned_model(args.model)
    images, labels = assessment_subset(test.images, test.labels, args.samples, args.seed)
    config = AssessmentConfig(
        expected_accuracy_loss=args.expected_loss,
        max_fine_tests=args.max_fine_tests,
    )
    cache = AssessmentCache(args.cache) if args.cache is not None else None
    started = time.perf_counter()
    result = assess_network(
        pruned.network,
        pruned.sparse_layers,
        images,
        labels,
        config=config,
        workers=args.workers or None,
        cache=cache,
    )
    elapsed = time.perf_counter() - started
    plan = optimize_error_bounds(
        result.candidates(),
        OptimizerConfig(expected_accuracy_loss=args.expected_loss),
    )

    if args.json:
        payload = {
            "network": result.network,
            "baseline_accuracy": result.baseline_accuracy,
            "tests_performed": result.tests_performed,
            "evaluations": result.evaluations,
            "cache_hits": result.cache_hits,
            "elapsed_s": elapsed,
            "samples": int(len(images)),
            "layers": {
                name: {
                    "points": [
                        {
                            "error_bound": p.error_bound,
                            "accuracy": p.accuracy,
                            "degradation": p.degradation,
                            "compressed_bytes": p.compressed_bytes,
                        }
                        for p in assessment.points
                    ],
                    "feasible_range": list(assessment.feasible_range),
                }
                for name, assessment in result.layers.items()
            },
            "plan": {
                "error_bounds": dict(plan.error_bounds),
                "predicted_loss": plan.predicted_loss,
                "total_compressed_bytes": plan.total_compressed_bytes,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    rows = []
    for name, assessment in result.layers.items():
        lo, hi = assessment.feasible_range
        chosen = plan.error_bounds[name]
        chosen_point = assessment.point_for(chosen)
        rows.append(
            [
                name,
                len(assessment.points),
                f"{min(assessment.tested_bounds):.0e}..{max(assessment.tested_bounds):.0e}",
                f"{lo:.0e}..{hi:.0e}",
                f"{chosen:.0e}",
                f"{chosen_point.degradation * 100:+.2f}%",
                format_bytes(chosen_point.compressed_bytes),
            ]
        )
    print(
        render_table(
            ["layer", "points", "tested", "feasible", "chosen eb", "degr.", "bytes"],
            rows,
            title=(
                f"{result.network}: baseline {result.baseline_accuracy * 100:.2f}% "
                f"on {len(images)} samples"
            ),
        )
    )
    cache_note = f", {result.cache_hits} cache hits" if cache is not None else ""
    print(
        f"{result.tests_performed} assessment points "
        f"({result.evaluations} evaluations{cache_note}) in {elapsed:.2f}s; "
        f"plan predicts {plan.predicted_loss * 100:.2f}% loss, "
        f"{format_bytes(plan.total_compressed_bytes)} compressed"
    )
    return 0


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.engine import run_cli

    return run_cli(
        args.paths,
        fmt=args.format,
        baseline_path=args.baseline,
        write_baseline=args.write_baseline,
    )


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DeepSZ model archive + serving tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="encode a model into a .dsz archive")
    p.add_argument("--out", required=True, help="output .dsz archive path")
    p.add_argument("--model", default=None,
                   help="zoo model name (runs the full DeepSZ pipeline)")
    p.add_argument("--synthetic", default=_DEFAULT_SPEC,
                   help="synthetic layer spec name=ROWSxCOLS:density,...")
    p.add_argument("--error-bound", type=float, default=1e-3,
                   help="absolute error bound for synthetic layers")
    p.add_argument("--accuracy-loss", type=float, default=0.01,
                   help="expected accuracy loss (zoo pipeline mode)")
    p.add_argument("--assessment-samples", type=int, default=300,
                   help="assessment sample cap (zoo pipeline mode)")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="chunked v2 SZ container chunk size (elements)")
    p.add_argument("--workers", type=int, default=1, help="encode pool workers")
    p.add_argument("--sparse-inference", action="store_true",
                   help="verify the compressed model through the sparse "
                        "(compressed-domain) forward pass (zoo pipeline mode)")
    p.add_argument("--seed", type=int, default=0, help="synthetic weight seed")
    p.add_argument("--store", default=None,
                   help="also put the archive into this content-addressed store")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("inspect", help="print an archive's manifest")
    p.add_argument("archive")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("verify", help="checksum + decode every layer")
    p.add_argument("archive")
    p.add_argument("--checksums-only", action="store_true",
                   help="CRC-check segments without decoding")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("serve-bench", help="benchmark the serving runtime")
    p.add_argument("archive")
    p.add_argument("--requests", type=int, default=200,
                   help="layer accesses per thread in the throughput phase")
    p.add_argument("--warm-repeats", type=int, default=50,
                   help="warm passes over all layers")
    p.add_argument("--concurrency", default="1,2,4,8",
                   help="comma-separated thread counts")
    p.add_argument("--cache-mb", type=int, default=256,
                   help="decoded-layer cache budget (MiB)")
    p.add_argument("--sparse", action="store_true",
                   help="serve layers in compressed-domain (sparse) form")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_serve_bench)

    p = sub.add_parser(
        "scenario-bench",
        help="run a scenario x policy workload-simulation matrix",
        description=(
            "Replay deterministic workload traces (see docs/scenarios.md) "
            "against every (scenario, policy, backend, frontdoor, replicas, "
            "queue-depth) grid cell and write one stable-schema "
            "BENCH_scenarios.json artifact (see docs/benchmarking.md)."
        ),
    )
    p.add_argument("--config", default=None,
                   help=".toml/.json matrix config (overrides the grid flags)")
    p.add_argument("--scenario", default="steady,burst", metavar="LIST",
                   help="comma-separated scenario names (see --list-scenarios)")
    p.add_argument("--policy", default="round-robin,least-loaded", metavar="LIST",
                   help="comma-separated shard policies (underscores accepted)")
    p.add_argument("--backend", default="thread", metavar="LIST",
                   help="comma-separated replica backends (thread,process)")
    p.add_argument("--frontdoor", default="sync", metavar="LIST",
                   help="comma-separated front doors (sync,async)")
    p.add_argument("--replicas", default="1", metavar="LIST",
                   help="comma-separated replica counts per model")
    p.add_argument("--queue-depth", default="64", metavar="LIST",
                   help="comma-separated admission queue depths")
    p.add_argument("--models", type=int, default=3,
                   help="synthetic model-zoo size (Zipf popularity over it)")
    p.add_argument("--tenants", type=int, default=8,
                   help="tenant population (tenant id doubles as shard key)")
    p.add_argument("--duration", type=float, default=1.0,
                   help="trace duration in seconds")
    p.add_argument("--rate", type=float, default=150.0,
                   help="nominal arrival rate (requests/second)")
    p.add_argument("--deadline-ms", type=float, default=50.0,
                   help="per-request deadline in ms (<= 0 disables deadlines)")
    p.add_argument("--seed", type=int, default=0,
                   help="trace + zoo seed (identical seed = identical trace)")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="replay clock multiplier (<1 compresses the trace)")
    p.add_argument("--mode", default="open", choices=["open", "closed"],
                   help="open loop (scheduled arrivals, coordinated-omission-"
                        "free) or closed loop (fixed client pool)")
    p.add_argument("--clients", type=int, default=4,
                   help="closed-loop client count")
    p.add_argument("--synthetic", default=None,
                   help="synthetic layer spec for each zoo model")
    p.add_argument("--out", default="BENCH_scenarios.json",
                   help="artifact output path")
    p.add_argument("--bench-mode", default="full", choices=["full", "smoke"],
                   help="mode tag recorded in the artifact")
    p.add_argument("--dump-trace", default=None, metavar="PATH",
                   help="also write the rendered per-scenario traces as JSON")
    p.add_argument("--trace-only", action="store_true",
                   help="with --dump-trace: stop after writing the traces")
    p.add_argument("--list-scenarios", action="store_true",
                   help="print the scenario catalog and exit")
    p.add_argument("--trace-sample", type=float, default=0.0,
                   help="trace this fraction of every cell's requests "
                        "(span JSONL; 1.0 = every request)")
    p.add_argument("--trace-out", default=None,
                   help="span JSONL output path (required with --trace-sample)")
    p.add_argument("--metrics-out", default=None,
                   help="dump each cell's metrics registry here after its "
                        "replay; the last cell's stays (.prom = Prometheus "
                        "text, else JSON)")
    p.add_argument("--json", action="store_true", help="emit the artifact JSON")
    p.set_defaults(func=_cmd_scenario_bench)

    p = sub.add_parser(
        "serve-http",
        help="serve models over HTTP via the asyncio gateway front door",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8080,
                   help="bind port (0 = ephemeral, printed at startup)")
    p.add_argument("--archive", action="append", default=None,
                   metavar="NAME=PATH",
                   help="host an existing .dsz archive under NAME "
                        "(repeatable; default: synthetic models)")
    p.add_argument("--models", type=int, default=1,
                   help="number of synthetic models when no --archive is given")
    p.add_argument("--synthetic", default=_DEFAULT_SPEC,
                   help="synthetic layer spec name=ROWSxCOLS:density,...")
    p.add_argument("--error-bound", type=float, default=1e-3,
                   help="absolute error bound for the synthetic layers")
    p.add_argument("--replicas", type=int, default=1,
                   help="replicas per model")
    p.add_argument("--backend", default="process",
                   choices=["thread", "process"],
                   help="replica backend (process = GIL-free workers over "
                        "the shared-memory weight cache)")
    p.add_argument("--policy", default="round-robin",
                   choices=["round-robin", "least-loaded", "consistent-hash"],
                   help="shard policy for every model")
    p.add_argument("--queue-depth", type=int, default=256,
                   help="admission queue depth per model")
    p.add_argument("--batch-size", type=int, default=16,
                   help="replica server dynamic-batching size")
    p.add_argument("--workers", type=int, default=1, help="encode pool workers")
    p.add_argument("--seed", type=int, default=0, help="synthetic weight seed")
    p.set_defaults(func=_cmd_serve_http)

    p = sub.add_parser(
        "metrics", help="render a metrics dump (one-shot or --watch)"
    )
    p.add_argument("path", help="metrics dump file (.prom or .json)")
    p.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                   help="re-render every SECONDS until interrupted")
    p.add_argument("--format", default="auto", choices=["auto", "prom", "json"],
                   help="dump format (auto = by file suffix)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "assess", help="run the Step 2 error-bound assessment on a zoo model"
    )
    p.add_argument("--model", default="lenet-300-100",
                   help="zoo model name (trained/pruned on first use, then cached)")
    p.add_argument("--workers", type=int, default=0,
                   help="assessment pool threads (0 = all cores / REPRO_WORKERS)")
    p.add_argument("--samples", type=int, default=None,
                   help="seeded-shuffled test-sample cap for the sweep")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the sample-subset draw")
    p.add_argument("--expected-loss", type=float, default=0.01,
                   help="expected accuracy loss driving the fine scans")
    p.add_argument("--max-fine-tests", type=int, default=24,
                   help="safety cap on each layer's fine scan")
    p.add_argument("--cache", default=None,
                   help="persist candidate results under this directory")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser(
        "lint", help="run the project-native static analysis rules"
    )
    from repro.lint.engine import add_cli_arguments

    add_cli_arguments(p)
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
