"""The end-to-end DeepSZ pipeline (Figure 1).

:class:`DeepSZ` chains the four steps — pruning (optional, if the caller has
not already pruned), error-bound assessment, error-bound optimization, and
compressed-model generation — and returns a :class:`DeepSZResult` with
everything the paper's tables report: per-layer sizes (original, two-array,
DeepSZ-compressed), chosen error bounds, top-1/top-5 accuracy before and
after compression, and encode/decode timing breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.assessment import AssessmentConfig, AssessmentResult, assess_network
from repro.core.decoder import DeepSZDecoder
from repro.core.encoder import CompressedModel, DeepSZEncoder
from repro.core.optimizer import (
    OptimizerConfig,
    OptimizationPlan,
    optimize_error_bounds,
    optimize_for_size_budget,
)
from repro.nn.network import Network
from repro.pruning.magnitude import PrunedNetwork, PruningConfig, prune_network
from repro.store.assess_cache import AssessmentCache
from repro.utils.errors import ValidationError
from repro.utils.rng import make_rng
from repro.utils.timing import Timer, TimingBreakdown
from repro.utils.validation import check_positive

__all__ = ["DeepSZConfig", "LayerReport", "DeepSZResult", "DeepSZ", "assessment_subset"]


def assessment_subset(
    test_images: np.ndarray,
    test_labels: np.ndarray,
    samples: int | None,
    seed: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """A seeded shuffled subset of the test set for Step 2.

    A head slice (``test_images[:n]``) is class-biased on ordered datasets —
    measured degradations would then reflect only the leading classes and
    silently skew the optimizer's plan.  A seeded permutation keeps the draw
    representative *and* reproducible (same seed, same subset, same
    assessment points).
    """
    if samples is None or samples >= len(test_images):
        return test_images, test_labels
    order = make_rng(seed).permutation(len(test_images))[:samples]
    return test_images[order], test_labels[order]


@dataclass(frozen=True)
class DeepSZConfig:
    """User-facing configuration of the whole pipeline.

    ``mode`` selects between the paper's two operating modes:

    * ``"expected-accuracy"`` (default): compress as much as possible while
      keeping the predicted accuracy loss within ``expected_accuracy_loss``;
    * ``"expected-ratio"``: reach at least ``target_ratio`` (relative to the
      dense fc-layer size) while losing as little accuracy as possible.
    """

    expected_accuracy_loss: float = 0.004
    mode: str = "expected-accuracy"
    target_ratio: float | None = None
    distortion_criterion: float = 0.001
    coarse_bounds: Sequence[float] = (1e-3, 1e-2, 1e-1)
    capacity: int = 65536
    sz_lossless: str = "zlib"
    index_lossless_candidates: Sequence[str] = ("zlib", "lzma", "bz2")
    optimizer_resolution: int = 100
    eval_batch_size: int = 256
    topk: Sequence[int] = (1, 5)
    assessment_samples: int | None = None  #: cap on test samples used by Step 2
    assessment_seed: int | None = None  #: seed of the Step 2 subset draw (None = library default)
    assessment_cache: str | None = None  #: directory of a persistent candidate-result cache
    data_codec: str = "sz"  #: registry name of the error-bounded data codec
    chunk_size: int | None = None  #: v2 chunked container chunk size (elements)
    workers: int = 1  #: pool workers for the assessment and encode/decode fan-outs
    #: Reconstruct the compressed model for sparse (compressed-domain)
    #: inference: the verification decode stops at the two-array form and the
    #: reported compressed accuracy is measured through CSC matmuls — the
    #: execution mode a sparse-serving edge node actually runs.
    sparse_inference: bool = False

    def __post_init__(self) -> None:
        check_positive(self.expected_accuracy_loss, "expected_accuracy_loss")
        if self.mode not in ("expected-accuracy", "expected-ratio"):
            raise ValidationError("mode must be 'expected-accuracy' or 'expected-ratio'")
        if self.mode == "expected-ratio":
            if self.target_ratio is None or self.target_ratio <= 1.0:
                raise ValidationError("expected-ratio mode needs target_ratio > 1")
        if self.assessment_samples is not None and self.assessment_samples < 1:
            raise ValidationError("assessment_samples must be positive (or None)")
        if int(self.workers) < 1:
            raise ValidationError("workers must be >= 1")
        # Validate the codec selection now: Step 4 would otherwise be the
        # first to notice, after the expensive Step 2 assessment has run.
        from repro.codecs import resolve_error_bounded_codec

        resolve_error_bounded_codec(self.data_codec, chunk_size=self.chunk_size)

    def assessment_config(self) -> AssessmentConfig:
        return AssessmentConfig(
            expected_accuracy_loss=self.expected_accuracy_loss,
            distortion_criterion=self.distortion_criterion,
            coarse_bounds=tuple(self.coarse_bounds),
            capacity=self.capacity,
            lossless=self.sz_lossless,
            index_lossless_candidates=tuple(self.index_lossless_candidates),
            eval_batch_size=self.eval_batch_size,
            data_codec=self.data_codec,
            chunk_size=self.chunk_size,
        )


@dataclass(frozen=True)
class LayerReport:
    """Per-layer statistics as reported in Tables 2a–2d."""

    layer: str
    original_bytes: int
    pruning_ratio: float  #: fraction of weights kept
    csr_bytes: int  #: two-array (40-bit/entry) size
    compressed_bytes: int  #: DeepSZ size (SZ data + lossless index)
    error_bound: float

    @property
    def csr_ratio(self) -> float:
        return self.original_bytes / self.csr_bytes if self.csr_bytes else float("inf")

    @property
    def deepsz_ratio(self) -> float:
        return (
            self.original_bytes / self.compressed_bytes if self.compressed_bytes else float("inf")
        )


@dataclass
class DeepSZResult:
    """Everything the evaluation section reports for one network."""

    network: str
    assessment: AssessmentResult
    plan: OptimizationPlan
    model: CompressedModel
    layer_reports: Dict[str, LayerReport]
    baseline_accuracy: Dict[int, float]
    compressed_accuracy: Dict[int, float]
    encoding_seconds: float
    decoding_timing: TimingBreakdown
    assessment_tests: int

    @property
    def original_fc_bytes(self) -> int:
        return int(sum(r.original_bytes for r in self.layer_reports.values()))

    @property
    def csr_fc_bytes(self) -> int:
        return int(sum(r.csr_bytes for r in self.layer_reports.values()))

    @property
    def compressed_fc_bytes(self) -> int:
        return int(sum(r.compressed_bytes for r in self.layer_reports.values()))

    @property
    def pruning_ratio_overall(self) -> float:
        """Weighted fraction of weights kept across the compressed fc-layers."""
        total = sum(r.original_bytes for r in self.layer_reports.values())
        if not total:
            return 0.0
        return float(
            sum(r.pruning_ratio * r.original_bytes for r in self.layer_reports.values()) / total
        )

    @property
    def csr_compression_ratio(self) -> float:
        return self.original_fc_bytes / self.csr_fc_bytes if self.csr_fc_bytes else float("inf")

    @property
    def compression_ratio(self) -> float:
        compressed = self.compressed_fc_bytes
        return self.original_fc_bytes / compressed if compressed else float("inf")

    def save_archive(self, path) -> int:
        """Write the compressed model as a random-access ``.dsz`` archive
        (the deployment artifact: per-layer random access + checksums);
        returns the bytes written."""
        return self.model.save(path)

    @property
    def top1_loss(self) -> float:
        return self.baseline_accuracy.get(1, 0.0) - self.compressed_accuracy.get(1, 0.0)

    @property
    def top5_loss(self) -> float:
        if 5 not in self.baseline_accuracy:
            return 0.0
        return self.baseline_accuracy[5] - self.compressed_accuracy.get(5, 0.0)


class DeepSZ:
    """The DeepSZ framework: prune -> assess -> optimize -> encode."""

    def __init__(self, config: DeepSZConfig | None = None) -> None:
        self.config = config or DeepSZConfig()

    def prune(
        self,
        network: Network,
        pruning_ratios: Mapping[str, float],
        *,
        train_images: Optional[np.ndarray] = None,
        train_labels: Optional[np.ndarray] = None,
        retrain: bool = True,
    ) -> PrunedNetwork:
        """Step 1 convenience wrapper around :func:`repro.pruning.prune_network`."""
        config = PruningConfig(ratios=dict(pruning_ratios), retrain=retrain)
        return prune_network(
            network, config, train_images=train_images, train_labels=train_labels
        )

    def compress(
        self,
        pruned: PrunedNetwork,
        test_images: np.ndarray,
        test_labels: np.ndarray,
    ) -> DeepSZResult:
        """Steps 2–4 on an already pruned network."""
        cfg = self.config
        network = pruned.network
        sparse_layers = pruned.sparse_layers
        if not sparse_layers:
            raise ValidationError("the pruned network has no sparse fc-layers to compress")

        encode_timer = Timer().start()

        # Step 2: error bound assessment (Algorithm 1).  The assessment may
        # run on a capped subset of the test set (assessment_samples); the
        # final accuracies reported below always use the full test set.
        assess_images, assess_labels = assessment_subset(
            test_images, test_labels, cfg.assessment_samples, cfg.assessment_seed
        )
        cache = (
            AssessmentCache(cfg.assessment_cache)
            if cfg.assessment_cache is not None
            else None
        )
        assessment = assess_network(
            network,
            sparse_layers,
            assess_images,
            assess_labels,
            config=cfg.assessment_config(),
            workers=cfg.workers,
            cache=cache,
        )

        # Step 3: error bound configuration (Algorithm 2).
        candidates = assessment.candidates()
        if cfg.mode == "expected-accuracy":
            plan = optimize_error_bounds(
                candidates,
                OptimizerConfig(
                    expected_accuracy_loss=cfg.expected_accuracy_loss,
                    resolution=cfg.optimizer_resolution,
                ),
            )
        else:
            dense_bytes = sum(s.dense_bytes for s in sparse_layers.values())
            budget = int(dense_bytes / float(cfg.target_ratio))
            plan = optimize_for_size_budget(candidates, budget)

        # Step 4: compressed model generation.
        encoder = DeepSZEncoder(
            capacity=cfg.capacity,
            sz_lossless=cfg.sz_lossless,
            index_lossless_candidates=cfg.index_lossless_candidates,
            data_codec=cfg.data_codec,
            chunk_size=cfg.chunk_size,
            workers=cfg.workers,
        )
        # Step 2 fitted the index arrays with the same candidates; a layer
        # it did not fit (all its candidates were cache hits) is fitted here.
        model = encoder.encode(
            network.name,
            sparse_layers,
            plan.error_bounds,
            expected_accuracy_loss=cfg.expected_accuracy_loss,
            index_fits=assessment.index_fits,
        )
        encoding_seconds = encode_timer.stop()

        # Decode once to measure the decode-path timing and the actual
        # accuracy of the compressed model.  In sparse-inference mode the
        # decode stops at the two-array form and the accuracy below is
        # measured through the compressed-domain (CSC matmul) forward pass.
        decoder = DeepSZDecoder(workers=cfg.workers)
        reconstructed = network.clone()
        decoded = decoder.apply(model, reconstructed, sparse=cfg.sparse_inference)

        baseline_acc = network.evaluate(
            test_images, test_labels, batch_size=cfg.eval_batch_size, topk=cfg.topk
        )
        compressed_acc = reconstructed.evaluate(
            test_images, test_labels, batch_size=cfg.eval_batch_size, topk=cfg.topk
        )

        layer_reports = {
            name: LayerReport(
                layer=name,
                original_bytes=sparse_layers[name].dense_bytes,
                pruning_ratio=sparse_layers[name].density,
                csr_bytes=sparse_layers[name].packed_bytes,
                compressed_bytes=model.layers[name].compressed_bytes,
                error_bound=plan.error_bounds[name],
            )
            for name in sparse_layers
        }

        return DeepSZResult(
            network=network.name,
            assessment=assessment,
            plan=plan,
            model=model,
            layer_reports=layer_reports,
            baseline_accuracy=baseline_acc,
            compressed_accuracy=compressed_acc,
            encoding_seconds=encoding_seconds,
            decoding_timing=decoded.timing,
            assessment_tests=assessment.tests_performed,
        )

    def run(
        self,
        network: Network,
        pruning_ratios: Mapping[str, float],
        train_images: np.ndarray,
        train_labels: np.ndarray,
        test_images: np.ndarray,
        test_labels: np.ndarray,
        *,
        retrain: bool = True,
    ) -> DeepSZResult:
        """All four steps starting from a trained (dense) network."""
        pruned = self.prune(
            network,
            pruning_ratios,
            train_images=train_images,
            train_labels=train_labels,
            retrain=retrain,
        )
        return self.compress(pruned, test_images, test_labels)
