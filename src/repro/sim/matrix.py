"""Config-driven scenario×policy benchmark matrix over the gateways.

One *cell* = one (scenario, policy, backend, frontdoor, replicas,
queue-depth) combination.  Every cell of a scenario replays the **same
rendered trace** (identical seed ⇒ identical request sequence, and the
cell records the trace digest to prove it), so a column-to-column
difference measures the policy, not sampling noise.

Each cell drives a fresh gateway wired to a private
:class:`~repro.obs.metrics.MetricsRegistry`, so per-model cache hit
rates come straight off the serving metrics instead of a side channel.
Every cell also runs :func:`~repro.sim.driver.check_accounting`: the
driver's outcomes must sum to the offered load and match
``Gateway.stats()``, or the cell fails with ``ReproError``.

The output feeds three consumers with one schema:

* ``python -m repro scenario-bench`` (interactive + JSON),
* ``benchmarks/bench_scenarios.py`` → ``benchmarks/run_all.py`` →
  ``BENCH_scenarios.json`` artifacts,
* ``benchmarks/compare_baselines.py`` regression gating via
  :func:`flatten_metrics` (flat, append-only metric keys).

See ``docs/benchmarking.md`` for the artifact schema and gating rules,
``docs/scenarios.md`` for the scenario catalog.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.sim.driver import check_accounting, drive_gateway
from repro.sim.workload import WorkloadTrace, generate_trace, get_scenario
from repro.utils.errors import ValidationError

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "DEFAULT_SPEC",
    "MATRIX_SCHEMA_VERSION",
    "MatrixConfig",
    "flatten_metrics",
    "load_config",
    "matrix_artifact",
    "run_matrix",
]

#: Schema of the raw matrix result (``run_matrix`` return value).
MATRIX_SCHEMA_VERSION = 1

#: Must match ``benchmarks/run_all.py`` ``SCHEMA_VERSION`` — the BENCH
#: artifact envelope this module emits via :func:`matrix_artifact` is the
#: same shape the unified runner writes for every other suite.
ARTIFACT_SCHEMA_VERSION = 3

#: Chained synthetic MLP (layer k's in-features == layer k-1's
#: out-features) — small enough that a cell boots in milliseconds, big
#: enough that decode and cache effects register.
DEFAULT_SPEC = "fc6=96x128:0.1,fc7=48x96:0.15,fc8=16x48:0.25"

_FRONTDOORS = ("sync", "async")
_MODES = ("open", "closed")


@dataclass
class MatrixConfig:
    """The full grid plus the shared workload and serving knobs."""

    scenarios: Tuple[str, ...] = ("steady", "burst")
    policies: Tuple[str, ...] = ("round-robin", "least-loaded")
    backends: Tuple[str, ...] = ("thread",)
    frontdoors: Tuple[str, ...] = ("sync",)
    replicas: Tuple[int, ...] = (1,)
    queue_depths: Tuple[int, ...] = (64,)
    models: int = 3
    tenants: int = 8
    duration_s: float = 1.0
    rate_rps: float = 150.0
    deadline_ms: Optional[float] = 50.0
    seed: int = 0
    time_scale: float = 1.0
    mode: str = "open"
    clients: int = 4
    synthetic: str = DEFAULT_SPEC
    batch_size: int = 8
    max_batch_delay: float = 0.002
    scenario_params: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def validate(self) -> None:
        from repro.serve.gateway import REPLICA_BACKENDS

        if not self.scenarios:
            raise ValidationError("matrix needs at least one scenario")
        if not self.policies:
            raise ValidationError("matrix needs at least one policy")
        for name in self.scenarios:
            get_scenario(name)  # raises with the available list
        for backend in self.backends:
            if backend not in REPLICA_BACKENDS:
                raise ValidationError(
                    f"unknown backend {backend!r}; available: {list(REPLICA_BACKENDS)}"
                )
        for frontdoor in self.frontdoors:
            if frontdoor not in _FRONTDOORS:
                raise ValidationError(
                    f"unknown frontdoor {frontdoor!r}; available: {list(_FRONTDOORS)}"
                )
        if self.mode not in _MODES:
            raise ValidationError(
                f"unknown mode {self.mode!r}; available: {list(_MODES)}"
            )
        if self.models < 1:
            raise ValidationError("matrix needs at least one model")
        if self.tenants < 1:
            raise ValidationError("matrix needs at least one tenant")
        if self.clients < 1:
            raise ValidationError("clients must be >= 1")
        # 0 is legal: every arrival at t=0, the all-at-once flood.
        if not math.isfinite(self.time_scale) or self.time_scale < 0:
            raise ValidationError("time_scale must be a finite number >= 0")
        for value, name in ((self.replicas, "replicas"), (self.queue_depths, "queue_depths")):
            if not value or any(v < 1 for v in value):
                raise ValidationError(f"{name} must be a non-empty list of positive ints")
        for name in self.scenario_params:
            get_scenario(name)

    def cell_count(self) -> int:
        return (
            len(self.scenarios)
            * len(self.policies)
            * len(self.backends)
            * len(self.frontdoors)
            * len(self.replicas)
            * len(self.queue_depths)
        )


def normalize_policy(name: str) -> str:
    """Accept ``least_loaded`` as a spelling of ``least-loaded`` etc."""
    return name.strip().replace("_", "-")


# ---------------------------------------------------------------------------
# config files

_MATRIX_KEYS = {
    "scenarios",
    "policies",
    "backends",
    "frontdoors",
    "replicas",
    "queue_depths",
}
_WORKLOAD_KEYS = {
    "models",
    "tenants",
    "duration_s",
    "rate_rps",
    "deadline_ms",
    "seed",
    "time_scale",
    "mode",
    "clients",
    "scenario_params",
}
_SERVING_KEYS = {"synthetic", "batch_size", "max_batch_delay"}


def _load_raw_config(path: str) -> Dict[str, Any]:
    if path.endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError:
            raise ValidationError(
                "TOML configs need Python >= 3.11 (stdlib tomllib); "
                "use a .json config on this interpreter"
            ) from None
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_config(path: str) -> MatrixConfig:
    """Load a matrix config from ``.json`` or ``.toml``.

    Sections: ``[matrix]`` (the grid axes), ``[workload]`` (trace knobs,
    including per-scenario ``scenario_params``), ``[serving]`` (the
    synthetic zoo + batching).  Unknown sections or keys are errors —
    a typo silently shrinking a grid would invalidate a comparison.
    """
    raw = _load_raw_config(path)
    known_sections = {"matrix", "workload", "serving"}
    unknown = sorted(set(raw) - known_sections)
    if unknown:
        raise ValidationError(
            f"unknown config sections {unknown}; available: {sorted(known_sections)}"
        )
    kwargs: Dict[str, Any] = {}
    for section, allowed in (
        ("matrix", _MATRIX_KEYS),
        ("workload", _WORKLOAD_KEYS),
        ("serving", _SERVING_KEYS),
    ):
        body = raw.get(section, {})
        bad = sorted(set(body) - allowed)
        if bad:
            raise ValidationError(
                f"unknown keys {bad} in [{section}]; available: {sorted(allowed)}"
            )
        kwargs.update(body)
    for axis in ("scenarios", "backends", "frontdoors"):
        if axis in kwargs:
            kwargs[axis] = tuple(str(v) for v in kwargs[axis])
    if "policies" in kwargs:
        kwargs["policies"] = tuple(normalize_policy(str(v)) for v in kwargs["policies"])
    for axis in ("replicas", "queue_depths"):
        if axis in kwargs:
            kwargs[axis] = tuple(int(v) for v in kwargs[axis])
    config = MatrixConfig(**kwargs)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# running the matrix


def _build_zoo(config: MatrixConfig) -> Tuple[Dict[str, bytes], Dict[str, np.ndarray]]:
    """N synthetic archives ("m0".."mN-1") plus one input sample each."""
    from repro.cli import synthetic_sparse_layers
    from repro.core.encoder import DeepSZEncoder
    from repro.store import archive_bytes, archive_input_dim

    sources: Dict[str, bytes] = {}
    inputs: Dict[str, np.ndarray] = {}
    for index in range(config.models):
        name = f"m{index}"
        layers = synthetic_sparse_layers(config.synthetic, seed=config.seed + index)
        model = DeepSZEncoder().encode(
            f"sim-{name}", layers, {layer: 1e-3 for layer in layers}
        )
        blob = archive_bytes(model)
        sources[name] = blob
        dim = archive_input_dim(blob)
        rng = np.random.default_rng(config.seed + 1000 + index)
        inputs[name] = rng.standard_normal(dim).astype(np.float32)
    return sources, inputs


def _render_traces(config: MatrixConfig) -> Dict[str, WorkloadTrace]:
    model_names = [f"m{i}" for i in range(config.models)]
    tenant_names = [f"tenant-{i:02d}" for i in range(config.tenants)]
    deadline_s = None if config.deadline_ms is None else config.deadline_ms / 1000.0
    traces = {}
    for scenario in config.scenarios:
        traces[scenario] = generate_trace(
            scenario,
            models=model_names,
            tenants=tenant_names,
            duration_s=config.duration_s,
            rate_rps=config.rate_rps,
            seed=config.seed,
            deadline_s=deadline_s,
            params=config.scenario_params.get(scenario),
        )
    return traces


def _cache_hit_rates(gateway: Any) -> Dict[str, Any]:
    """Per-model cache hit rate off the gateway registry's
    ``repro_cache_events_total`` samples.

    Process-backed replicas decode in worker processes (no gateway-side
    runtime), so the family may be absent or all-zero there; the overall
    rate is then ``None`` rather than a misleading 0.0.
    """
    events: Dict[str, Dict[str, float]] = {}
    for sample in gateway.registry.samples():
        if sample.name != "repro_cache_events_total" or sample.value is None:
            continue
        model = sample.labels.get("model", "")
        event = sample.labels.get("event", "")
        events.setdefault(model, {})[event] = events.setdefault(model, {}).get(
            event, 0.0
        ) + float(sample.value)
    per_model: Dict[str, Optional[float]] = {}
    total_hits = total_lookups = 0.0
    for model, counts in sorted(events.items()):
        hits = counts.get("hits", 0.0)
        lookups = hits + counts.get("misses", 0.0)
        per_model[model] = hits / lookups if lookups else None
        total_hits += hits
        total_lookups += lookups
    overall = total_hits / total_lookups if total_lookups else None
    return {"overall": overall, "per_model": per_model}


def run_matrix(
    config: MatrixConfig,
    *,
    progress: Any = None,
    tracer: Any = None,
    metrics_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run every cell of the grid; returns the raw matrix result dict.

    ``tracer`` is handed to every cell's gateway, so one span file covers
    the grid.  With ``metrics_path`` each cell dumps its registry there
    after its replay (:func:`~repro.serve.bench.dump_metrics`); the file
    ends with the last cell's.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.bench import dump_metrics

    config.validate()
    sources, inputs = _build_zoo(config)
    traces = _render_traces(config)
    closed_options = {"clients": config.clients} if config.mode == "closed" else {}
    digests = {name: trace.digest() for name, trace in traces.items()}
    cells: List[Dict[str, Any]] = []

    def observe(gateway: Any) -> Tuple[Any, Dict[str, Any]]:
        observed = gateway.stats(), _cache_hit_rates(gateway)
        if metrics_path is not None:
            dump_metrics(metrics_path, gateway.registry)
        return observed

    for scenario, policy, backend, frontdoor, replicas, queue_depth in itertools.product(
        config.scenarios,
        config.policies,
        config.backends,
        config.frontdoors,
        config.replicas,
        config.queue_depths,
    ):
        if progress is not None:
            progress(
                f"{scenario} × {policy} × {backend} × "
                f"{frontdoor} × r{replicas} × q{queue_depth}"
            )
        models = {
            name: dict(
                source=blob,
                replicas=replicas,
                policy=policy,
                replica_backend=backend,
                max_queue_depth=queue_depth,
                batch_size=config.batch_size,
                max_batch_delay=config.max_batch_delay,
            )
            for name, blob in sources.items()
        }
        result, (stats, cache) = drive_gateway(
            models,
            traces[scenario],
            inputs,
            frontdoor=frontdoor,
            mode=config.mode,
            metrics=MetricsRegistry(),
            tracer=tracer,
            observe=observe,
            time_scale=config.time_scale,
            **closed_options,
        )
        check_accounting(
            f"cell {scenario}/{policy}/{backend}/{frontdoor}/r{replicas}/q{queue_depth}",
            result,
            stats,
        )
        cells.append({
            "scenario": scenario,
            "policy": policy,
            "backend": backend,
            "frontdoor": frontdoor,
            "replicas": replicas,
            "queue_depth": queue_depth,
            "trace_sha256": digests[scenario],
            "cache_hit_rate": cache,
            **result.as_dict(),
        })
    return {
        "schema_version": MATRIX_SCHEMA_VERSION,
        "grid": {
            "scenarios": list(config.scenarios),
            "policies": list(config.policies),
            "backends": list(config.backends),
            "frontdoors": list(config.frontdoors),
            "replicas": list(config.replicas),
            "queue_depths": list(config.queue_depths),
        },
        "workload": {
            "models": config.models,
            "tenants": config.tenants,
            "duration_s": config.duration_s,
            "rate_rps": config.rate_rps,
            "deadline_ms": config.deadline_ms,
            "seed": config.seed,
            "time_scale": config.time_scale,
            "mode": config.mode,
        },
        "traces": {
            name: {
                "requests": len(trace.requests),
                "offered_rps": trace.offered_rps,
                "sha256": digests[name],
            }
            for name, trace in traces.items()
        },
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# BENCH artifact


def _slug(text: str) -> str:
    return text.replace("-", "_").replace(".", "_")


def cell_key(cell: Mapping[str, Any]) -> str:
    """The stable metric-key prefix for one cell (append-only namespace)."""
    return (
        f"{_slug(cell['scenario'])}_{_slug(cell['policy'])}_{_slug(cell['backend'])}"
        f"_{cell['frontdoor']}_r{cell['replicas']}_q{cell['queue_depth']}"
    )


def flatten_metrics(
    result: Mapping[str, Any],
) -> Tuple[Dict[str, float], List[str], Dict[str, str]]:
    """Flat ``metrics`` + ``gate`` + ``directions`` for the BENCH artifact.

    Per cell: ``<key>_rps``, ``<key>_goodput_rps``, ``<key>_p99_ms``,
    ``<key>_rejection_rate``, ``<key>_deadline_miss_rate``.  Gated:
    ``cells_completed`` plus every steady-scenario rps (open-loop steady
    throughput is offered-rate-bound, so it is stable across hosts —
    tail latencies and miss rates stay informational).
    """
    metrics: Dict[str, float] = {}
    gate: List[str] = []
    directions: Dict[str, str] = {}
    completed_cells = 0
    for cell in result["cells"]:
        key = cell_key(cell)
        metrics[f"{key}_rps"] = float(cell["rps"])
        metrics[f"{key}_goodput_rps"] = float(cell["goodput_rps"])
        metrics[f"{key}_p99_ms"] = float(cell["latency_ms"]["p99"])
        metrics[f"{key}_rejection_rate"] = float(cell["rejection_rate"])
        metrics[f"{key}_deadline_miss_rate"] = float(cell["deadline_miss_rate"])
        if cell["completed"] > 0:
            completed_cells += 1
        if cell["scenario"] == "steady":
            gate.append(f"{key}_rps")
            directions[f"{key}_rps"] = "higher"
    metrics["cells_completed"] = float(completed_cells)
    gate.insert(0, "cells_completed")
    directions["cells_completed"] = "higher"
    return metrics, gate, directions


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # honours cgroup/affinity limits
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def matrix_artifact(result: Mapping[str, Any], *, mode: str = "full") -> Dict[str, Any]:
    """The stable-schema ``BENCH_scenarios.json`` payload."""
    metrics, gate, directions = flatten_metrics(result)
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "suite": "scenarios",
        "mode": mode,
        "host_cores": _usable_cores(),
        "metrics": metrics,
        "gate": gate,
        "directions": directions,
        "grid": result["grid"],
        "workload": result["workload"],
        "traces": result["traces"],
        "cells": result["cells"],
    }
