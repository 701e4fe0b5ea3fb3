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
pool busy by speculating.  It drives one :class:`LayerScan` per layer in
waves: each wave asks every unfinished scan for ``ceil(workers / active)``
bounds ahead of its cursor, evaluates the whole wave with one ``pool.map``
and tells the results back.  A scan records a result only when its cursor
reaches it, so results beyond a layer's stopping point are *trimmed from
the result* — the recorded points, test counts, and downstream optimizer
plans are bit-identical to the serial Algorithm 1 for every worker count,
and one worker speculates on nothing — but they are still persisted to the
optional :class:`~repro.store.AssessmentCache`, keyed by content SHAs, so
repeated runs (and even over-speculated candidates) make future assessments
incremental.  The expensive shared setup (per-layer index lossless fits,
the checkpoint forward pass) is computed lazily on the first cache *miss*,
so a fully cached run touches neither.  The index fits it did compute ride
out on :attr:`AssessmentResult.index_fits` for Step 4 to reuse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.assessment import (
    AssessmentConfig,
    AssessmentResult,
    LayerAssessment,
    LayerScan,
    bound_key,
    index_fit,
    reconstruct_candidate,
    _candidate_accuracy,
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
    speculative_wasted: int = 0  #: told results trimmed from the output
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


class AssessmentEngine:
    """Run Algorithm 1 for a whole network with parallel pure candidates.

    Parameters
    ----------
    config:
        The assessment parameters (bounds, criteria, codec settings).
    workers:
        Thread count for the candidate fan-out.  ``1`` (the default)
        evaluates exactly the serial Algorithm 1 candidates with no
        speculation; ``None`` resolves through ``REPRO_WORKERS`` /
        ``os.cpu_count()``.  Threads (not processes) are the right pool
        mode here: the hot work is BLAS matmuls and lossless codecs, both
        of which release the GIL, and threads share the checkpointed
        activations for free.
    cache:
        Optional :class:`~repro.store.AssessmentCache`; hits skip the
        evaluation entirely and misses are back-filled.
    checkpoint_budget_bytes:
        Cap on the total size of retained activation checkpoints; layers
        that would exceed it fall back to recomputing the upstream forward
        pass per candidate (same results, more FLOPs).
    """

    def __init__(
        self,
        config: AssessmentConfig | None = None,
        *,
        workers: int | None = 1,
        cache=None,
        checkpoint_budget_bytes: int = DEFAULT_CHECKPOINT_BUDGET,
    ) -> None:
        self.config = config or AssessmentConfig()
        self.pool = TaskPool(workers, mode="thread")
        self.workers = self.pool.workers
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
        dense, payload_bytes = reconstruct_candidate(ctx.sparse, eb, self.config)
        size = payload_bytes + self._layer_index_bytes(ctx)
        accuracy = _candidate_accuracy(
            network,
            ctx.name,
            dense,
            self._test_images,
            self._test_labels,
            self.config,
            self._layer_checkpoint(network, ctx) if ctx.is_dense else None,
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
            scans = self._sweep(network, baseline)
        finally:
            self._test_images = None
            self._test_labels = None
            self._checkpoints = None
            self._contexts = {}

        layers = {
            name: LayerAssessment(
                name, baseline, scan.points, config.expected_accuracy_loss
            )
            for name, scan in scans.items()
        }
        self.stats.speculative_wasted = sum(
            scan.told - len(scan.points) for scan in scans.values()
        )
        return AssessmentResult(
            network=network.name,
            baseline_accuracy=baseline,
            layers=layers,
            tests_performed=sum(len(a.points) for a in layers.values()),
            evaluations=self.stats.evaluations,
            cache_hits=self.stats.cache_hits,
            index_fits=dict(self._index_fits),
        )

    def _sweep(self, network: Network, baseline: float) -> Dict[str, LayerScan]:
        """Every layer's :class:`LayerScan`, driven in waves to completion.

        Each wave asks every unfinished scan for its share of the pool,
        ``ceil(workers / active)`` bounds, evaluates them all with one
        ``pool.map`` and tells the results.  With one worker that is one
        bound per layer per wave: the serial candidates, no speculation.
        """
        scans = {
            name: LayerScan(name, baseline, self.config) for name in self._contexts
        }
        active = list(scans.values())
        while active:
            share = max(1, -(-self.workers // len(active)))
            wave = [(scan, eb) for scan in active for eb in scan.ask(share)]
            results = self.pool.map(
                lambda task: self._evaluate(
                    network, self._contexts[task[0].layer], task[1]
                ),
                wave,
            )
            for (scan, eb), (accuracy, size, hit) in zip(wave, results):
                if hit:
                    self.stats.cache_hits += 1
                else:
                    self.stats.evaluations += 1
                scan.tell(eb, accuracy, size)
            active = [scan for scan in active if not scan.done]
        return scans
