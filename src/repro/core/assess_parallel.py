"""Parallel, cache-reusing error-bound assessment engine.

Step 2 dominates DeepSZ's end-to-end time: every candidate ``(layer, error
bound)`` pays one encode (whose reconstruction stands in for a decode) *and*
a test-set forward pass, and the historical implementation ran them strictly
serially while mutating the shared network (``set_weights`` / restore),
which blocked any fan-out.  This module replaces that with an engine built
on three ideas:

**Purity.**  A candidate evaluation is a pure function of (layer content,
error bound, codec config, test set): the reconstructed weights are
substituted *functionally* through :meth:`Network.forward_from`, never
written into the network, so any number of candidates can run concurrently
against one shared network object.

**Activation reuse.**  All layers upstream of the perturbed one are
untouched by a candidate, so their activations are identical across that
layer's whole sweep.  One batched :meth:`Network.forward_collect` pass
checkpoints the inputs of every assessed layer; each candidate then only
recomputes the perturbed layer and everything downstream.  For the deeper
fc-layers this skips the overwhelming majority of the forward FLOPs.

**Speculation + persistence.**  Algorithm 1's scans are sequential by
definition (each step decides whether to continue), so the engine keeps the
pool busy by speculating: the coarse scan evaluates every layer's full
decade schedule at once, and the fine scans run per-layer lookahead windows
concurrently across layers.  Results beyond a layer's stopping point are
*trimmed from the result* — the recorded points, test counts, and downstream
optimizer plans are bit-identical to the serial Algorithm 1 for every worker
count — but they are still persisted to the optional
:class:`~repro.store.AssessmentCache`, keyed by content SHAs, so repeated
runs (and even over-speculated candidates) make future assessments
incremental.  The expensive shared setup (per-layer index lossless fits,
the checkpoint forward pass) is computed lazily on the first cache *miss*,
so a fully cached run touches neither.  The index fits it did compute ride
out on :attr:`AssessmentResult.index_fits` for Step 4 to reuse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assessment import (
    AssessmentConfig,
    AssessmentPoint,
    AssessmentResult,
    LayerAssessment,
    accuracy_with_substitution,
    assess_layer,
    bound_key,
    checkpoint_activations,
    index_fit,
    reconstruct_candidate,
    _fine_bounds,
)
from repro.nn.layers import Dense
from repro.nn.network import Network
from repro.parallel.pool import TaskPool
from repro.pruning.sparse_format import SparseLayer

__all__ = ["AssessmentEngine", "EngineStats"]

#: Checkpoints beyond this total budget fall back to per-candidate
#: recomputation (still pure, just without the reuse speedup).
DEFAULT_CHECKPOINT_BUDGET = 1 << 30


@dataclass
class EngineStats:
    """Observability counters for one engine run."""

    evaluations: int = 0  #: candidate evaluations actually computed
    cache_hits: int = 0  #: candidates served from the persistent cache
    speculative_wasted: int = 0  #: computed results trimmed from the output
    checkpointed_layers: int = 0  #: layers whose activations were reused

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _LayerContext:
    """Per-layer immutable state shared by all of the layer's candidates."""

    name: str
    sparse: SparseLayer
    is_dense: bool
    cache_key_base: Optional[Dict[str, object]]


@dataclass
class _FineScan:
    """Mutable fine-scan cursor of one layer.

    ``evaluated`` maps a canonical bound key to ``(exact_bound, result)``:
    the *bitwise* bound the result was computed at is kept alongside so a
    result is only ever reused for the exact same float (see
    :meth:`AssessmentEngine._sweep_speculative`).
    """

    schedule: List[float]
    position: int = 0
    evaluated: Dict[str, Tuple[float, Tuple[float, int, bool]]] = field(
        default_factory=dict
    )


class AssessmentEngine:
    """Run Algorithm 1 for a whole network with parallel pure candidates.

    Parameters
    ----------
    config:
        The assessment parameters (bounds, criteria, codec settings).
    workers:
        Thread count for the candidate fan-out.  ``1`` (the default) runs
        the exact serial Algorithm 1 order with no speculation; ``None``
        resolves through ``REPRO_WORKERS`` / ``os.cpu_count()``.  Threads
        (not processes) are the right pool mode here: the hot work is
        BLAS matmuls and lossless codecs, both of which release the GIL,
        and threads share the checkpointed activations for free.
    reuse_activations:
        Checkpoint each assessed layer's input activations once and resume
        candidates from there.  Disable to recompute the upstream forward
        pass per candidate (same results, more FLOPs).
    cache:
        Optional :class:`~repro.store.AssessmentCache`; hits skip the
        evaluation entirely and misses are back-filled.
    checkpoint_budget_bytes:
        Cap on the total size of retained activation checkpoints; layers
        that would exceed it fall back to recomputation.
    """

    def __init__(
        self,
        config: AssessmentConfig | None = None,
        *,
        workers: int | None = 1,
        reuse_activations: bool = True,
        cache=None,
        checkpoint_budget_bytes: int = DEFAULT_CHECKPOINT_BUDGET,
    ) -> None:
        self.config = config or AssessmentConfig()
        self.pool = TaskPool(workers, mode="thread")
        self.workers = self.pool.workers
        self.reuse_activations = bool(reuse_activations)
        self.cache = cache
        self.checkpoint_budget_bytes = int(checkpoint_budget_bytes)
        self.stats = EngineStats()
        self._test_images: Optional[np.ndarray] = None
        self._test_labels: Optional[np.ndarray] = None
        # Lazily built shared state (first cache miss pays for it, a fully
        # cached run never does); guarded for the thread fan-out.
        self._index_fits: Dict[str, Tuple[str, bytes]] = {}
        self._index_lock = threading.Lock()
        self._checkpoints: Optional[Dict[str, np.ndarray]] = None
        self._checkpoint_lock = threading.Lock()
        self._contexts: Dict[str, _LayerContext] = {}

    # -- lazy shared state -------------------------------------------------
    def _layer_index_bytes(self, ctx: _LayerContext) -> int:
        """The layer's lossless index size, fitted at most ~once.

        Error-bound-independent, so candidates share it; the fit itself is
        kept for Step 4.  Computed outside the lock (a rare duplicate
        computation is pure and benign, while holding the lock would
        serialise unrelated layers' lzma/bz2 fits).
        """
        with self._index_lock:
            fit = self._index_fits.get(ctx.name)
        if fit is None:
            fit = index_fit(ctx.sparse, self.config)
            with self._index_lock:
                fit = self._index_fits.setdefault(ctx.name, fit)
        return len(fit[1])

    def _layer_checkpoint(
        self, network: Network, ctx: _LayerContext
    ) -> Optional[np.ndarray]:
        """The layer's checkpointed input activations (or None: recompute).

        All assessed layers are captured in one batched forward pass, built
        on the first candidate that actually needs it.  The lock is held
        across the build so concurrent first-misses wait instead of each
        paying for the full pass.
        """
        if not self.reuse_activations:
            return None
        with self._checkpoint_lock:
            if self._checkpoints is None:
                self._checkpoints = self._collect_checkpoints(network)
                self.stats.checkpointed_layers = len(self._checkpoints)
            return self._checkpoints.get(ctx.name)

    def _collect_checkpoints(self, network: Network) -> Dict[str, np.ndarray]:
        """One batched forward pass capturing every assessed layer's inputs.

        Batch boundaries match :meth:`Network.evaluate` so resumed forwards
        are bit-identical to full ones.  Layers whose checkpoint would blow
        the byte budget are skipped (their candidates recompute instead).
        """
        test_images = self._test_images
        batch_size = self.config.eval_batch_size
        dense_names = [c.name for c in self._contexts.values() if c.is_dense]
        if not dense_names or not len(test_images):
            return {}
        kept: List[str] = []
        budget = self.checkpoint_budget_bytes
        for name in dense_names:
            bytes_needed = len(test_images) * network[name].in_features * 4
            if bytes_needed <= budget:
                kept.append(name)
                budget -= bytes_needed
        if not kept:
            return {}
        chunks: Dict[str, List[np.ndarray]] = {name: [] for name in kept}
        for start in range(0, len(test_images), batch_size):
            _, captured = network.forward_collect(
                test_images[start : start + batch_size], kept
            )
            for name in kept:
                chunks[name].append(captured[name])
        return {name: np.concatenate(parts, axis=0) for name, parts in chunks.items()}

    # -- candidate evaluation (pure; runs on pool threads) -----------------
    def _cache_key(self, ctx: _LayerContext, eb: float) -> Optional[Dict[str, object]]:
        if ctx.cache_key_base is None:
            return None
        key = dict(ctx.cache_key_base)
        key["error_bound"] = bound_key(eb)
        return key

    def _evaluate(
        self, network: Network, ctx: _LayerContext, eb: float
    ) -> Tuple[float, int, bool]:
        """Evaluate one candidate; returns (accuracy, size, was_cache_hit).

        Pure with respect to all shared state: the network is read-only, the
        checkpoints are read-only once built, and the cache handles its own
        locking.
        """
        key = self._cache_key(ctx, eb)
        if key is not None and self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached[0], cached[1], True
        config = self.config
        dense, payload_bytes = reconstruct_candidate(ctx.sparse, eb, config)
        size = payload_bytes + self._layer_index_bytes(ctx)
        if ctx.is_dense:
            activations = self._layer_checkpoint(network, ctx)
            if activations is None:
                activations = checkpoint_activations(
                    network, ctx.name, self._test_images, batch_size=config.eval_batch_size
                )
            accuracy = accuracy_with_substitution(
                network,
                ctx.name,
                dense,
                activations,
                self._test_labels,
                batch_size=config.eval_batch_size,
            )
        else:
            # Clone-on-write fallback for non-Dense layers: still pure with
            # respect to the shared network, just without reuse.
            clone = network.clone()
            clone.set_weights(ctx.name, dense)
            accuracy = clone.accuracy(
                self._test_images, self._test_labels, batch_size=config.eval_batch_size
            )
        if key is not None and self.cache is not None:
            self.cache.put(key, accuracy, size)
        return accuracy, size, False

    # -- setup -------------------------------------------------------------
    def _build_contexts(
        self,
        network: Network,
        sparse_layers: Dict[str, SparseLayer],
        test_images: np.ndarray,
        test_labels: np.ndarray,
    ) -> Dict[str, _LayerContext]:
        config = self.config
        names = list(sparse_layers)
        for name in names:
            network[name]  # raises KeyError early for unknown layers

        cache_base: Dict[str, Dict[str, object]] = {}
        if self.cache is not None:
            from repro.store.assess_cache import sha256_array, test_set_digest

            test_sha = test_set_digest(test_images, test_labels)
            for name in names:
                sparse = sparse_layers[name]
                cache_base[name] = {
                    "v": 1,
                    "data_sha": sha256_array(sparse.data),
                    "index_sha": sha256_array(sparse.index),
                    "shape": list(sparse.shape),
                    "codec": config.data_codec,
                    "chunk_size": config.chunk_size,
                    "capacity": config.capacity,
                    "lossless": config.lossless,
                    "index_lossless": list(config.index_lossless_candidates),
                    "test_set": test_sha,
                    "eval_batch_size": config.eval_batch_size,
                }

        return {
            name: _LayerContext(
                name=name,
                sparse=sparse_layers[name],
                is_dense=isinstance(network[name], Dense),
                cache_key_base=cache_base.get(name),
            )
            for name in names
        }

    # -- the sweep ---------------------------------------------------------
    def run(
        self,
        network: Network,
        sparse_layers: Dict[str, SparseLayer],
        test_images: np.ndarray,
        test_labels: np.ndarray,
    ) -> AssessmentResult:
        """Run Algorithm 1 for every layer; see the module docstring."""
        config = self.config
        self.stats = EngineStats()
        self._test_images = test_images
        self._test_labels = test_labels
        self._index_fits = {}
        self._checkpoints = None
        try:
            baseline = network.accuracy(
                test_images, test_labels, batch_size=config.eval_batch_size
            )
            self._contexts = self._build_contexts(
                network, sparse_layers, test_images, test_labels
            )
            if not sparse_layers:
                recorded: Dict[str, Dict[str, AssessmentPoint]] = {}
            elif self.workers == 1:
                recorded = self._sweep_serial(network, baseline)
            else:
                recorded = self._sweep_speculative(network, baseline)
        finally:
            self._test_images = None
            self._test_labels = None
            self._checkpoints = None
            self._contexts = {}

        layers: Dict[str, LayerAssessment] = {}
        total_tests = 0
        for name in sparse_layers:
            assessment = LayerAssessment(layer=name, baseline_accuracy=baseline)
            assessment._expected_loss = (  # type: ignore[attr-defined]
                config.expected_accuracy_loss
            )
            assessment.points = sorted(
                recorded[name].values(), key=lambda p: p.error_bound
            )
            layers[name] = assessment
            total_tests += len(assessment.points)
        return AssessmentResult(
            network=network.name,
            baseline_accuracy=baseline,
            layers=layers,
            tests_performed=total_tests,
            evaluations=self.stats.evaluations,
            cache_hits=self.stats.cache_hits,
            index_fits=dict(self._index_fits),
        )

    def _point(
        self, name: str, eb: float, accuracy: float, size: int, baseline: float
    ) -> AssessmentPoint:
        return AssessmentPoint(
            layer=name,
            error_bound=eb,
            accuracy=accuracy,
            degradation=baseline - accuracy,
            compressed_bytes=size,
        )

    def _note(self, hit: bool) -> None:
        if hit:
            self.stats.cache_hits += 1
        else:
            self.stats.evaluations += 1

    def _sweep_serial(
        self, network: Network, baseline: float
    ) -> Dict[str, Dict[str, AssessmentPoint]]:
        """Exact Algorithm 1: delegate to :func:`assess_layer` per layer.

        The control flow (coarse break, fine schedule, canonical-key dedup,
        stop on expected loss) lives in one place — only the evaluator is
        swapped for the engine's pure, cached, checkpoint-resuming one.
        """
        recorded: Dict[str, Dict[str, AssessmentPoint]] = {}
        for name, ctx in self._contexts.items():

            def evaluator(net, layer_name, sparse_layer, eb, images, labels,
                          *, config=None, _ctx=ctx):
                accuracy, size, hit = self._evaluate(net, _ctx, eb)
                self._note(hit)
                return accuracy, size

            assessment, _ = assess_layer(
                network,
                name,
                ctx.sparse,
                self._test_images,
                self._test_labels,
                baseline_accuracy=baseline,
                config=self.config,
                evaluator=evaluator,
            )
            recorded[name] = {
                bound_key(p.error_bound): p for p in assessment.points
            }
        return recorded

    def _sweep_speculative(
        self, network: Network, baseline: float
    ) -> Dict[str, Dict[str, AssessmentPoint]]:
        """Speculative sweep; records exactly the serial point set.

        The coarse scan fans every layer's whole decade schedule out at
        once; the results past each layer's distortion point are trimmed
        from the record but seeded into the fine scan's result map, so a
        fine schedule that climbs back to a trimmed coarse bound reuses the
        computation instead of repeating it.  The fine scans then run
        concurrently across layers, each submitting a lookahead window of
        its next bounds per wave.
        """
        config = self.config
        contexts = self._contexts
        names = list(contexts)

        # -- coarse: all layers x all decades, one wave --------------------
        coarse_tasks = [(name, beta) for name in names for beta in config.coarse_bounds]
        coarse_results = self.pool.map(
            lambda task: self._evaluate(network, contexts[task[0]], task[1]),
            coarse_tasks,
        )
        by_layer: Dict[str, List[Tuple[float, Tuple[float, int, bool]]]] = {
            name: [] for name in names
        }
        for (name, beta), result in zip(coarse_tasks, coarse_results):
            self._note(result[2])
            by_layer[name].append((beta, result))

        recorded: Dict[str, Dict[str, AssessmentPoint]] = {name: {} for name in names}
        scans: Dict[str, _FineScan] = {}
        for name in names:
            fine_start: float | None = None
            consumed = 0
            for beta, (accuracy, size, _) in by_layer[name]:
                consumed += 1
                recorded[name][bound_key(beta)] = self._point(
                    name, beta, accuracy, size, baseline
                )
                if baseline - accuracy > config.distortion_criterion:
                    fine_start = beta / 10.0
                    break
            extras = by_layer[name][consumed:]
            if fine_start is not None:
                scan = _FineScan(
                    schedule=_fine_bounds(fine_start, config.max_fine_tests)
                )
                # Trimmed coarse results stay usable: the fine schedule may
                # climb back up to these bounds.  The exact coarse float is
                # kept with each result — reuse demands bit-equality, since
                # a near-equal bound can compress differently.
                scan.evaluated.update(
                    {bound_key(beta): (beta, result) for beta, result in extras}
                )
                scans[name] = scan
            else:
                # No break means nothing was trimmed (extras is empty).
                self.stats.speculative_wasted += len(extras)

        # -- fine: concurrent per-layer scans with lookahead waves ---------
        active = dict(scans)
        while active:
            # Split the pool across the still-active layers; each layer
            # speculates on its next `lookahead` un-evaluated bounds.
            lookahead = max(1, -(-self.workers // len(active)))
            wave: List[Tuple[str, float]] = []
            for name, scan in active.items():
                pending = 0
                for eb in scan.schedule[scan.position :]:
                    key = bound_key(eb)
                    if key in recorded[name]:
                        continue
                    hit = scan.evaluated.get(key)
                    if hit is not None and hit[0] == eb:
                        continue  # reusable: computed at this exact float
                    wave.append((name, eb))
                    pending += 1
                    if pending >= lookahead:
                        break
            results = self.pool.map(
                lambda task: self._evaluate(network, contexts[task[0]], task[1]),
                wave,
            )
            for (name, eb), result in zip(wave, results):
                self._note(result[2])
                scan = active[name]
                key = bound_key(eb)
                if key in scan.evaluated:
                    # A seeded coarse result at a near-but-not-bit-equal
                    # bound: superseded by the exact evaluation.
                    self.stats.speculative_wasted += 1
                scan.evaluated[key] = (eb, result)
            for name in list(active):
                scan = active[name]
                done = False
                # Advance the cursor over every bound whose result is known
                # at the exact schedule float.
                while scan.position < len(scan.schedule):
                    eb = scan.schedule[scan.position]
                    key = bound_key(eb)
                    known = scan.evaluated.get(key)
                    if key in recorded[name]:
                        point = recorded[name][key]
                    elif known is not None and known[0] == eb:
                        accuracy, size, _ = known[1]
                        point = self._point(name, eb, accuracy, size, baseline)
                        recorded[name][key] = point
                    else:
                        break
                    scan.position += 1
                    if point.degradation > config.expected_accuracy_loss:
                        done = True
                        break
                if done or scan.position >= len(scan.schedule):
                    leftovers = sum(
                        1 for k in scan.evaluated if k not in recorded[name]
                    )
                    self.stats.speculative_wasted += leftovers
                    del active[name]
        return recorded
