"""The additive accuracy-loss model (Equation 1) and its experimental probe.

The paper argues (Section 3.4) that, because the compression error injected in
each fc-layer is small relative to the weights and ReLU is piecewise linear,
the errors of different layers perturb the network output independently, so
the overall accuracy loss is approximately the *sum* of the per-layer losses
as long as the total stays below ~2%.  Algorithm 2 relies on that additivity.

:func:`predict_total_loss` implements Equation 1.  :func:`linearity_probe`
reproduces the Figure 6 experiment: sample random per-layer error-bound
combinations, compare the predicted (summed) loss against the actually
measured loss of the jointly reconstructed network, and report the fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.assessment import AssessmentConfig, AssessmentResult, reconstruct_candidate
from repro.nn.network import Network
from repro.pruning.sparse_format import SparseLayer
from repro.utils.errors import ValidationError
from repro.utils.rng import make_rng

__all__ = ["predict_total_loss", "LinearityProbeResult", "linearity_probe"]


def predict_total_loss(
    assessment: AssessmentResult, error_bounds: Mapping[str, float]
) -> float:
    """Equation 1: predicted overall accuracy loss for a per-layer bound choice.

    The prediction is the sum of the measured per-layer degradations at the
    chosen error bounds (negative degradations — accuracy improvements — are
    summed as-is, mirroring the paper).
    """
    total = 0.0
    for layer, eb in error_bounds.items():
        if layer not in assessment.layers:
            raise ValidationError(f"layer {layer!r} is not part of the assessment")
        total += assessment.layers[layer].point_for(eb).degradation
    return float(total)


@dataclass(frozen=True)
class LinearityProbeResult:
    """Outcome of the Figure 6 linearity experiment."""

    expected_losses: np.ndarray  #: per-sample predicted loss (sum of layer deltas)
    actual_losses: np.ndarray  #: per-sample measured loss of the joint reconstruction
    max_deviation: float
    correlation: float

    @property
    def mean_absolute_deviation(self) -> float:
        return float(np.mean(np.abs(self.expected_losses - self.actual_losses)))


def linearity_probe(
    network: Network,
    sparse_layers: Dict[str, SparseLayer],
    test_images: np.ndarray,
    test_labels: np.ndarray,
    *,
    error_bound_grid: Sequence[float] = (2e-3, 5e-3, 1e-2, 2e-2, 3e-2, 5e-2),
    samples: int = 12,
    capacity: int = 65536,
    seed: int | None = None,
    batch_size: int = 256,
) -> LinearityProbeResult:
    """Measure how additive the per-layer accuracy losses are (Figure 6).

    For each sampled combination of per-layer error bounds the probe measures

    * the per-layer degradation (one layer reconstructed at a time), and
    * the joint degradation (all layers reconstructed simultaneously),

    then compares their sum with the joint measurement.
    """
    if samples < 1:
        raise ValidationError("samples must be positive")
    rng = make_rng(seed)
    layer_names = list(sparse_layers)
    baseline = network.accuracy(test_images, test_labels, batch_size=batch_size)
    config = AssessmentConfig(capacity=capacity)
    work = network.clone()  # the caller's network is never touched

    # Cache per-(layer, eb) reconstructions and degradations.
    dense_cache: Dict[tuple[str, float], np.ndarray] = {}
    delta_cache: Dict[tuple[str, float], float] = {}

    def reconstruction(layer: str, eb: float) -> np.ndarray:
        key = (layer, eb)
        if key not in dense_cache:
            dense_cache[key], _ = reconstruct_candidate(sparse_layers[layer], eb, config)
        return dense_cache[key]

    def loss_with(choice: Mapping[str, float]) -> float:
        for layer in layer_names:
            eb = choice.get(layer)
            work.set_weights(
                layer,
                network.get_weights(layer) if eb is None else reconstruction(layer, eb),
            )
        return baseline - work.accuracy(test_images, test_labels, batch_size=batch_size)

    def layer_delta(layer: str, eb: float) -> float:
        key = (layer, eb)
        if key not in delta_cache:
            delta_cache[key] = loss_with({layer: eb})
        return delta_cache[key]

    expected: List[float] = []
    actual: List[float] = []
    grid = list(error_bound_grid)
    for _ in range(samples):
        combo = {layer: float(rng.choice(grid)) for layer in layer_names}
        expected.append(sum(layer_delta(layer, eb) for layer, eb in combo.items()))
        actual.append(loss_with(combo))

    expected_arr = np.asarray(expected)
    actual_arr = np.asarray(actual)
    if expected_arr.size > 1 and np.std(expected_arr) > 0 and np.std(actual_arr) > 0:
        correlation = float(np.corrcoef(expected_arr, actual_arr)[0, 1])
    else:
        correlation = 1.0
    return LinearityProbeResult(
        expected_losses=expected_arr,
        actual_losses=actual_arr,
        max_deviation=float(np.max(np.abs(expected_arr - actual_arr))) if samples else 0.0,
        correlation=correlation,
    )
