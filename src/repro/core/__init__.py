"""DeepSZ: the paper's primary contribution.

The framework has four steps (Figure 1):

1. **Network pruning** (:mod:`repro.pruning`) — magnitude pruning plus masked
   retraining, producing the two-array sparse layers.
2. **Error bound assessment** (:mod:`repro.core.assessment`, Algorithm 1) —
   for each fc-layer, sweep SZ error bounds, measure the inference-accuracy
   degradation with *only that layer* reconstructed from lossy data, and
   identify the feasible error-bound range.
3. **Optimization of the error-bound configuration**
   (:mod:`repro.core.optimizer`, Algorithm 2) — a knapsack-style dynamic
   program that picks one error bound per layer to minimise the total
   compressed size subject to the user's expected accuracy loss (or, in
   expected-ratio mode, to maximise accuracy subject to a size budget),
   relying on the additivity of per-layer degradations
   (:mod:`repro.core.accuracy_model`, Equation 1).
4. **Generation of the compressed model** (:mod:`repro.core.encoder`) — SZ on
   every data array at its chosen bound, best-fit lossless coding of every
   index array, packed into a single self-describing container;
   :mod:`repro.core.decoder` reverses it and reports the Figure 7b timing
   breakdown.

:class:`repro.core.DeepSZ` (in :mod:`repro.core.pipeline`) chains the four
steps behind one call.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use (see repro._lazy).
_EXPORTS = {
    "AssessmentConfig": ".assessment",
    "AssessmentPoint": ".assessment",
    "LayerAssessment": ".assessment",
    "AssessmentResult": ".assessment",
    "AssessmentEngine": ".assess_parallel",
    "EngineStats": ".assess_parallel",
    "assess_layer": ".assessment",
    "assess_network": ".assessment",
    "bound_key": ".assessment",
    "evaluate_candidate": ".assessment",
    "predict_total_loss": ".accuracy_model",
    "linearity_probe": ".accuracy_model",
    "LinearityProbeResult": ".accuracy_model",
    "OptimizerConfig": ".optimizer",
    "OptimizationPlan": ".optimizer",
    "optimize_error_bounds": ".optimizer",
    "optimize_for_size_budget": ".optimizer",
    "CompressedLayer": ".encoder",
    "CompressedModel": ".encoder",
    "DeepSZEncoder": ".encoder",
    "DeepSZDecoder": ".decoder",
    "DecodedModel": ".decoder",
    "DeepSZ": ".pipeline",
    "DeepSZConfig": ".pipeline",
    "DeepSZResult": ".pipeline",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
