"""Workload ``serve-closed``: two closed-loop clients on one process gateway.

The gateway hosts one model on one process replica: the chained synthetic
MLP ``g6=512x768:0.1,g7=256x512:0.1,g8=64x256:0.25`` encoded at bound
1e-3, served with batch_size 16 and max_batch_delay 2 ms.  Its weights are
decoded into shared memory during set-up, so no decode runs while
measuring.  The load comes from ``repro.sim``: seeded ``steady`` traces
replayed by ``drive_closed_loop`` with 2 clients, in chunks of
``CLOSED_CHUNK`` requests until the run's time is up.

The driver talks to a :class:`CheckedGateway`, a ``submit`` proxy that
checks every response against the model's reference output.  After a
measurement the driver's outcome counts must agree with
``Gateway.stats()``, and after ``close()`` no shared-memory segment of this
process may be left in /dev/shm.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import Outcome, metric, percentile, self_times, shm_segments
from repro.cli import synthetic_sparse_layers
from repro.core.decoder import DeepSZDecoder
from repro.core.encoder import DeepSZEncoder
from repro.obs import metrics as obs_metrics
from repro.obs.trace import BufferExporter, Tracer
from repro.serve.gateway import Gateway
from repro.sim import drive_closed_loop, generate_trace
from repro.store import archive_bytes
from wl_coldstart import reference_forward

SPEC = "g6=512x768:0.1,g7=256x512:0.1,g8=64x256:0.25"
ERROR_BOUND = 1e-3
MODEL = "m0"
TENANTS = tuple(f"tenant-{i:02d}" for i in range(8))
BATCH_SIZE = 16
MAX_BATCH_DELAY_S = 0.002
CLIENTS = 2
#: Requests per trace chunk (about one second of work).
CLOSED_CHUNK = 600
WARMUP_REQUESTS = 192
#: Responses are checked against a reference computed over a one-row batch.
TOLERANCE = 1e-6

#: span name -> per-layer metric (mean self time per request, ms)
LAYERS = {
    name: f"{name}_ms.mean"
    for name in (
        "gateway.admission",
        "gateway.shard",
        "replica.queue",
        "replica.batch",
        "replica.forward",
        "replica.decode",
    )
}
UNATTRIBUTED = "serve.unattributed_ms.mean"
#: spans whose duration p50 is reported as ``<span>_ms.p50``
P50_SPANS = (
    "gateway.request",
    "gateway.admission",
    "gateway.shard",
    "replica.queue",
    "replica.batch",
    "replica.forward",
)


class CheckedGateway:
    """``submit`` proxy: every response is checked against its model's
    reference output, so the ``repro.sim`` driver runs unchanged."""

    def __init__(self, gateway: Gateway, references: Dict[str, np.ndarray]) -> None:
        self._gateway = gateway
        self.references = references
        self._cond = threading.Condition()
        self.admitted = 0
        self.settled = 0
        self.wrong = 0
        self.submit_s: List[float] = []

    def submit(self, model: str, x: np.ndarray, *, key: Optional[str] = None):
        start = time.perf_counter()
        future = self._gateway.submit(model, x, key=key)
        self.submit_s.append(time.perf_counter() - start)
        with self._cond:
            self.admitted += 1
        future.add_done_callback(lambda f, m=model: self._check(m, f))
        return future

    def _check(self, model: str, future) -> None:
        # A request that raised is the driver's failure; only answers are
        # judged here.
        wrong = False
        if future.exception() is None:
            got = np.asarray(future.result())
            reference = self.references[model]
            wrong = got.shape != reference.shape or not (
                np.max(np.abs(got - reference)) <= TOLERANCE
            )
        with self._cond:
            self.settled += 1
            self.wrong += int(wrong)
            self._cond.notify_all()

    def wait_settled(self, timeout: float = 60.0) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self.settled >= self.admitted, timeout)


def _counts(gateway: Gateway) -> Dict[str, float]:
    stats = gateway.stats()
    server = stats.models[MODEL].replicas[0].server
    return {
        "submitted": stats.submitted,
        "completed": stats.completed,
        "rejected": stats.rejected,
        "failures": stats.failures,
        "batches": server.batches,
        "batch_items": server.mean_batch_size * server.batches,
    }


class ServeWorkload:
    name = "serve-closed"
    layers = LAYERS
    unattributed = UNATTRIBUTED

    def __init__(self, seed: int, traced: bool = False) -> None:
        self.seed = int(seed)
        self.traced = traced
        self.setup_split: Dict[str, float] = {}
        self.gateway: Optional[Gateway] = None
        self.problems: List[str] = []

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        layers = synthetic_sparse_layers(SPEC, seed=self.seed)
        self.sparse_layers = layers
        model = DeepSZEncoder().encode(
            "serve-mlp", layers, {name: ERROR_BOUND for name in layers}
        )
        blob = archive_bytes(model)
        self.compression_ratio = model.dense_bytes / model.compressed_bytes
        first = next(iter(layers.values()))
        rng = np.random.default_rng(self.seed + 1)
        self.x = rng.standard_normal(first.shape[1]).astype(np.float32)
        decoded = DeepSZDecoder().decode(model).weights
        reference = reference_forward([decoded[name] for name in layers], self.x)[0]
        self.exporter = BufferExporter()
        tracer = Tracer(sample_rate=1.0, exporter=self.exporter) if self.traced else None
        gateway = Gateway(tracer=tracer)
        self.gateway = gateway
        gateway.add_model(
            MODEL,
            blob,
            replicas=1,
            replica_backend="process",
            batch_size=BATCH_SIZE,
            max_batch_delay=MAX_BATCH_DELAY_S,
        )
        gateway.start()
        self.proxy = CheckedGateway(gateway, {MODEL: reference})
        # Warm-up in full batches (the gateway queue holds 64 requests).
        for _ in range(WARMUP_REQUESTS // BATCH_SIZE):
            futures = [self.proxy.submit(MODEL, self.x) for _ in range(BATCH_SIZE)]
            for future in futures:
                future.result(timeout=60)
        if not self.proxy.wait_settled() or self.proxy.wrong:
            raise RuntimeError(f"{self.name}: warm-up responses fail their checks")

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for name, layer in self.sparse_layers.items():
            h.update(name.encode())
            h.update(layer.data.tobytes())
            h.update(layer.index.tobytes())
        h.update(self.x.tobytes())
        h.update(self._trace(0).digest().encode())
        return h.hexdigest()

    def close(self) -> None:
        if self.gateway is None:
            return
        self.gateway.close()
        # Drop every handle on the gateway, so its multiprocessing objects
        # are finalized before the run stops the resource tracker.
        self.gateway = self.proxy = None
        leaked = shm_segments()
        if leaked:
            self.problems.append(f"shared memory left after close(): {leaked}")

    # -- load --------------------------------------------------------------
    def _trace(self, chunk: int):
        # A closed loop ignores arrival times: a one-second trace at
        # CLOSED_CHUNK rps is simply about CLOSED_CHUNK requests.
        return generate_trace(
            "steady",
            models=[MODEL],
            tenants=TENANTS,
            duration_s=1.0,
            rate_rps=float(CLOSED_CHUNK),
            seed=self.seed * 1000 + chunk,
        )

    def _run(self, seconds: float, alternate: bool):
        """Drive trace chunks for ``seconds``.

        With ``alternate``, tracing is switched off and on for alternate
        chunks (untraced first).  Returns the outcome, ``(traced?,
        DriveResult)`` per chunk, ``(traced?, submit seconds)`` per chunk,
        and the change in the gateway's counters.  The driver's outcome
        counts are checked against those counters.
        """
        outcome = Outcome()
        self.proxy.wrong = 0
        before = _counts(self.gateway)
        results, submits = [], []
        inputs = {MODEL: self.x}
        deadline = time.perf_counter() + seconds
        while len(results) < (2 if alternate else 1) or time.perf_counter() < deadline:
            on = alternate and len(results) % 2 == 1
            if alternate:
                # Tracer.sample() is off while instrumentation is disabled.
                obs_metrics.set_enabled(on)
            first = len(self.proxy.submit_s)
            trace = self._trace(len(results))
            results.append((on, drive_closed_loop(self.proxy, trace, inputs, clients=CLIENTS)))
            submits.append((on, self.proxy.submit_s[first:]))
        obs_metrics.set_enabled(True)
        if not self.proxy.wait_settled():
            self.problems.append("responses still unchecked after the run")
        after = _counts(self.gateway)
        change = {k: after[k] - before[k] for k in after}
        offered = sum(r.offered for _, r in results)
        completed = sum(r.completed for _, r in results)
        rejected = sum(r.rejected for _, r in results)
        failures = sum(r.failures for _, r in results)
        if offered != completed + rejected + failures:
            self.problems.append(
                f"driver: offered {offered} != completed {completed} + rejected "
                f"{rejected} + failures {failures}"
            )
        expected = {
            "submitted": offered - rejected,
            "completed": completed,
            "rejected": rejected,
            "failures": failures,
        }
        if any(change[k] != v for k, v in expected.items()):
            self.problems.append(f"Gateway.stats() {change} disagrees with the driver {expected}")
        outcome.attempted = offered
        outcome.failed = failures + self.proxy.wrong
        return outcome, results, submits, change

    def measure(self, seconds: float) -> Outcome:
        outcome, results, _, _ = self._run(seconds, alternate=False)
        latencies = [t for _, r in results for t in r.latencies_s]
        outcome.metrics["latency_ms.p50"] = metric(percentile(latencies, 50) * 1e3, "ms")
        return outcome

    def trace(self, seconds: float) -> Tuple[Outcome, Dict[str, float], List[dict]]:
        """Alternate untraced and traced chunks; per-layer numbers."""
        start = len(self.exporter.spans)
        outcome, results, submits, change = self._run(seconds, alternate=True)
        spans = list(self.exporter.spans[start:])
        traced = [t for on, r in results if on for t in r.latencies_s]
        plain = [t for on, r in results if not on for t in r.latencies_s]
        offered = sum(r.offered for _, r in results)
        batches, items = change["batches"], change["batch_items"]
        layers: Dict[str, float] = {
            "throughput_per_s": sum(r.completed for on, r in results if not on)
            / sum(r.elapsed_s for on, r in results if not on),
            "latency_ms.p90": percentile(plain, 90) * 1e3,
            "latency_ms.p99": percentile(plain, 99) * 1e3,
            "tracing_overhead_pct": (percentile(traced, 50) / percentile(plain, 50) - 1) * 100,
            "serve.gateway.submit_us.p50": percentile(
                [t for on, chunk in submits if on for t in chunk], 50
            ) * 1e6,
            "serve.worker.batches": float(batches),
            "serve.worker.mean_batch_size": items / batches if batches else 0.0,
            "serve.gateway.rejected_share": (
                sum(r.rejected for _, r in results) / offered if offered else 0.0
            ),
            "serve.unattributed_ms.p50": percentile(self_times(spans)["<unattributed>"], 50) * 1e3,
        }
        for name in P50_SPANS:
            layers[f"{name}_ms.p50"] = percentile(
                [s["duration_s"] for s in spans if s["name"] == name], 50
            ) * 1e3
        return outcome, layers, spans
