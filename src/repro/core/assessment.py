"""Error bound assessment (Step 2, Algorithm 1).

For every fc-layer the assessment compresses the layer's pruned *data array*
with SZ at a series of error bounds, rebuilds the dense weight matrix from the
reconstructed values (all other layers untouched), runs the forward pass on
the test set and records the accuracy degradation and the compressed size.
One candidate costs one encode: the codec hands back the payload together
with the values a decode would produce (:meth:`Codec.compress_and_reconstruct`),
so no payload is decoded during the sweep.  The sweep follows Algorithm 1:

* a coarse scan over ``{1e-3, 1e-2, 1e-1}`` finds the decade in which the
  degradation first exceeds the distortion criterion (0.1% absolute);
* a fine scan then starts one decade below that point and walks upwards in
  steps of the current decade (8e-3, 9e-3, 1e-2, 2e-2, ...), stopping at the
  first bound whose degradation exceeds the user's expected accuracy loss.

The collected ``(error bound, degradation, size)`` triples for each layer are
the input of the Algorithm 2 optimizer.

:class:`LayerScan` is that control flow for one layer, written once as an
ask/tell loop: :func:`assess_layer` drives it one bound at a time, and the
:class:`~repro.core.assess_parallel.AssessmentEngine` drives every layer's
scan in waves, asking each for several bounds ahead.  Either way the scan
records exactly the points the one-at-a-time loop records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.codecs import best_fit_lossless, get_codec
from repro.nn.layers import Dense
from repro.nn.network import Network, topk_counts
from repro.pruning.sparse_format import SparseLayer, decode_sparse
from repro.utils.errors import ValidationError
from repro.utils.validation import check_positive

__all__ = [
    "AssessmentConfig",
    "AssessmentPoint",
    "LayerAssessment",
    "AssessmentResult",
    "LayerScan",
    "bound_key",
    "evaluate_candidate",
    "assess_layer",
    "assess_network",
]


def bound_key(error_bound: float) -> str:
    """Canonical dictionary key for an error bound.

    Algorithm 1's schedules only ever produce bounds of the form
    ``step * 10^decade`` with ``step`` in 1..9 (anchored at a coarse bound),
    but historically the fine schedule *accumulated* floating-point sums, so
    two logically equal bounds could differ in the last ulp: an exact-float
    dedup in the scan would then evaluate both, while the
    ``np.isclose`` lookup in :meth:`LayerAssessment.point_for` could match
    either.  This key snaps a bound to its decade/step grid point when it is
    within 1e-9 relative of one, and otherwise falls back to the shortest
    round-trip ``repr`` — one canonical representation for both paths.
    """
    eb = float(error_bound)
    if eb > 0.0 and math.isfinite(eb):
        decade = math.floor(math.log10(eb))
        # log10 rounding can land one decade off near powers of ten; probe
        # the neighbours too.
        for d in (decade - 1, decade, decade + 1):
            try:
                base = 10.0**d
                step = round(eb / base)
            except (OverflowError, ZeroDivisionError):
                # 10**d under/overflowed (subnormal or huge bounds): no grid
                # point exists at this decade.
                continue
            if 1 <= step <= 9 and math.isclose(step * base, eb, rel_tol=1e-9, abs_tol=0.0):
                return f"{step}e{d}"
    return repr(eb)


@dataclass(frozen=True)
class AssessmentConfig:
    """Parameters of the error-bound assessment."""

    expected_accuracy_loss: float = 0.004
    distortion_criterion: float = 0.001  #: the paper's 0.1% absolute criterion
    coarse_bounds: Sequence[float] = (1e-3, 1e-2, 1e-1)
    max_fine_tests: int = 24  #: safety cap on the fine scan length per layer
    capacity: int = 65536
    lossless: str = "zlib"
    index_lossless_candidates: Sequence[str] = ("zlib", "lzma", "bz2")
    eval_batch_size: int = 256
    data_codec: str = "sz"  #: registry name of the error-bounded data codec
    chunk_size: int | None = None  #: must match the encoder so Step 2's
    #: measured sizes use the same container format Step 4 will emit

    def __post_init__(self) -> None:
        check_positive(self.expected_accuracy_loss, "expected_accuracy_loss")
        check_positive(self.distortion_criterion, "distortion_criterion")
        if not self.coarse_bounds or list(self.coarse_bounds) != sorted(self.coarse_bounds):
            raise ValidationError("coarse_bounds must be a non-empty ascending sequence")
        if self.max_fine_tests < 1:
            raise ValidationError("max_fine_tests must be positive")


@dataclass(frozen=True)
class AssessmentPoint:
    """One tested (layer, error bound) combination."""

    layer: str
    error_bound: float
    accuracy: float
    degradation: float  #: baseline accuracy - accuracy (may be negative)
    compressed_bytes: int  #: SZ data array + lossless index array + container


@dataclass
class LayerAssessment:
    """All assessment points of one fc-layer."""

    layer: str
    baseline_accuracy: float
    points: List[AssessmentPoint] = field(default_factory=list)
    #: The expected accuracy loss the sweep stopped on (``inf`` for a
    #: hand-built assessment: every point counts as feasible).
    expected_loss: float = math.inf

    def point_for(self, error_bound: float) -> AssessmentPoint:
        key = bound_key(error_bound)
        for point in self.points:
            if bound_key(point.error_bound) == key:
                return point
        raise KeyError(f"no assessment point at error bound {error_bound} for {self.layer}")

    @property
    def tested_bounds(self) -> List[float]:
        return [p.error_bound for p in self.points]

    @property
    def feasible_range(self) -> tuple[float, float]:
        """(start, end) of the feasible error-bound range.

        The start is the smallest tested bound; the end is the largest tested
        bound whose degradation stays within the expected accuracy loss used
        during the sweep (falling back to the smallest bound if none does).
        """
        if not self.points:
            raise ValidationError(f"layer {self.layer} has no assessment points")
        ordered = sorted(self.points, key=lambda p: p.error_bound)
        start = ordered[0].error_bound
        end = start
        for point in ordered:
            if point.degradation <= self.expected_loss:
                end = point.error_bound
        return (start, end)


@dataclass
class AssessmentResult:
    """Assessment of every fc-layer of a network."""

    network: str
    baseline_accuracy: float
    layers: Dict[str, LayerAssessment]
    tests_performed: int = 0
    #: Candidate evaluations actually computed (>= tests_performed when the
    #: parallel engine speculated past a stopping point, < when the CAS
    #: cache served repeated runs).
    evaluations: int = 0
    #: Candidate results served from a persistent AssessmentCache.
    cache_hits: int = 0
    #: Best-fit lossless ``(backend, blob)`` of each layer's index array,
    #: for the layers whose fit the assessment computed.  Step 4 reuses
    #: them instead of fitting again (:meth:`DeepSZEncoder.encode`).
    index_fits: Dict[str, tuple[str, bytes]] = field(default_factory=dict)

    def candidates(self) -> Dict[str, List[AssessmentPoint]]:
        """Per-layer candidate lists for the optimizer."""
        return {name: list(assessment.points) for name, assessment in self.layers.items()}


def reconstruct_candidate(
    sparse_layer: SparseLayer, error_bound: float, config: AssessmentConfig
) -> tuple[np.ndarray, int]:
    """Encode one layer's data array at ``error_bound``.

    Returns the reconstructed dense weight matrix and the size in bytes of
    the compressed data array (the error-bound-dependent half of a
    candidate's compressed size).  The reconstruction is the one a decode
    of the payload would give, taken from the same encode.
    """
    codec = get_codec(config.data_codec)
    payload, reconstructed = codec.compress_and_reconstruct(
        sparse_layer.data,
        error_bound=error_bound,
        capacity=config.capacity,
        lossless=config.lossless,
        chunk_size=config.chunk_size,
    )
    return decode_sparse(sparse_layer, data=reconstructed), len(payload)


def index_fit(sparse_layer: SparseLayer, config: AssessmentConfig) -> tuple[str, bytes]:
    """Best-fit lossless ``(backend, blob)`` of the layer's index array.

    Independent of the error bound, so the assessment engine computes it
    once per layer instead of once per candidate, and Step 4 reuses it.
    """
    return best_fit_lossless(
        sparse_layer.index.tobytes(), config.index_lossless_candidates
    )


def accuracy_with_substitution(
    network: Network,
    layer_name: str,
    weights: np.ndarray,
    activations: np.ndarray,
    test_labels: np.ndarray,
    *,
    batch_size: int,
) -> float:
    """Top-1 accuracy with ``weights`` substituted into one layer, resuming
    from checkpointed ``activations`` (the inputs of that layer).

    Purely functional: the network is never mutated, so any number of these
    can run concurrently against one shared network object.  Batching matches
    :meth:`Network.evaluate` exactly, which keeps the result bit-identical to
    a full forward pass with the weights swapped in.
    """
    labels = np.asarray(test_labels)
    total = len(labels)
    if total == 0:
        return 0.0
    hits = 0
    for start in range(0, total, batch_size):
        probs = network.forward_from(
            layer_name,
            activations[start : start + batch_size],
            weight_override=weights,
        )
        hits += topk_counts(probs, labels[start : start + batch_size], (1,))[1]
    return hits / total


def evaluate_candidate(
    network: Network,
    layer_name: str,
    sparse_layer: SparseLayer,
    error_bound: float,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    *,
    config: AssessmentConfig | None = None,
    activations: np.ndarray | None = None,
) -> tuple[float, int]:
    """Accuracy and compressed size with one layer reconstructed at ``error_bound``.

    This is the unit of work Algorithm 1 repeats, in its self-contained
    form: compress the layer's data array with SZ (keeping the values a
    decode would give), fit the index array's lossless backend, rebuild the
    dense weights through the index array, and run the forward pass with
    those weights substituted *functionally* — the network is never
    mutated, so candidates are pure tasks that can run concurrently.

    ``activations`` optionally supplies the checkpointed inputs of
    ``layer_name`` (see :meth:`Network.forward_to`); without it the
    checkpoint is recomputed from ``test_images``, which costs one upstream
    forward pass per call.
    """
    config = config or AssessmentConfig()
    dense, payload_bytes = reconstruct_candidate(sparse_layer, error_bound, config)
    compressed_bytes = payload_bytes + len(index_fit(sparse_layer, config)[1])
    accuracy = _candidate_accuracy(
        network, layer_name, dense, test_images, test_labels, config, activations
    )
    return accuracy, compressed_bytes


def _candidate_accuracy(
    network: Network,
    layer_name: str,
    weights: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    config: AssessmentConfig,
    activations: np.ndarray | None,
) -> float:
    """Top-1 accuracy with ``weights`` substituted into ``layer_name``.

    Dense layers resume from ``activations`` (recomputed from
    ``test_images`` when None).  Other weight layers (the historical
    set_weights path supported them) evaluate a clone with the weights
    written in: still pure with respect to the shared network, just
    without the functional resume.
    """
    batch_size = config.eval_batch_size
    if not isinstance(network[layer_name], Dense):
        clone = network.clone()
        clone.set_weights(layer_name, weights)
        return clone.accuracy(test_images, test_labels, batch_size=batch_size)
    if activations is None:
        activations = checkpoint_activations(
            network, layer_name, test_images, batch_size=batch_size
        )
    return accuracy_with_substitution(
        network, layer_name, weights, activations, test_labels, batch_size=batch_size
    )


def checkpoint_activations(
    network: Network,
    layer_name: str,
    test_images: np.ndarray,
    *,
    batch_size: int,
) -> np.ndarray:
    """The inputs of ``layer_name`` over a whole test set, batched exactly
    like :meth:`Network.evaluate` so downstream results stay bit-identical."""
    chunks = [
        network.forward_to(layer_name, test_images[start : start + batch_size])
        for start in range(0, len(test_images), batch_size)
    ]
    if not chunks:
        return np.zeros((0, 0), dtype=np.float32)
    return np.concatenate(chunks, axis=0)


def _fine_bounds(start: float, max_tests: int) -> List[float]:
    """The fine-scan schedule: start, 2*start, ... 9*start, 10*start, 20*start, ...

    Mirrors Algorithm 1's ``eb += base; base *= 10 when eb == 10 * base``,
    but computes every bound multiplicatively (``step * base``) instead of
    accumulating ``eb += base``: the additive form drifts in floating point,
    which made near-equal bounds platform-dependent and could roll the
    decade over one step early or late at the ``eb >= 10 * base - 1e-15``
    guard.  ``step`` cycles 1..9 and ``base`` is ``start`` scaled by exact
    powers of ten, so each bound is a single rounding away from its real
    value and the schedule is reproducible everywhere.
    """
    bounds: List[float] = []
    step = 1
    decade = 0
    while len(bounds) < max_tests:
        bounds.append(step * (start * 10.0**decade))
        step += 1
        if step == 10:
            step = 1
            decade += 1
    return bounds


class LayerScan:
    """Algorithm 1 for one layer, as an ask/tell loop.

    The scan walks a schedule with a cursor: first the coarse bounds, and
    after the first coarse bound whose degradation exceeds the distortion
    criterion, the fine schedule from one decade below it; it is done after
    the first fine bound whose degradation exceeds the expected loss (or at
    the end of a schedule).  :meth:`ask` names bounds the cursor still
    needs, :meth:`tell` stores a result and moves the cursor over every
    consecutive bound whose result is known.

    A result is *recorded* as a point only when the cursor reaches it, so
    results told past a stop (speculation) are trimmed and :attr:`points`
    equal the one-at-a-time scan's for any ask size.  A recorded point is
    reused by :func:`bound_key`; a told but unrecorded result is reused only
    at the bitwise-same float, since a near-equal bound can compress
    differently.
    """

    def __init__(
        self, layer: str, baseline_accuracy: float, config: AssessmentConfig
    ) -> None:
        self.layer = layer
        self.baseline_accuracy = baseline_accuracy
        self.config = config
        self.schedule: List[float] = list(config.coarse_bounds)
        self.position = 0
        self.fine = False
        self.done = False
        self.told = 0  #: results told, recorded or not
        self._results: Dict[str, tuple[float, float, int]] = {}
        self._recorded: Dict[str, AssessmentPoint] = {}

    @property
    def points(self) -> List[AssessmentPoint]:
        return sorted(self._recorded.values(), key=lambda p: p.error_bound)

    def _known(self, eb: float) -> bool:
        key = bound_key(eb)
        return key in self._recorded or self._results.get(key, (None,))[0] == eb

    def ask(self, k: int) -> List[float]:
        """The next ``<= k`` unknown bounds the scan needs if it does not
        stop first; in the coarse phase, only coarse bounds."""
        asked: Dict[str, float] = {}
        for eb in [] if self.done else self.schedule[self.position :]:
            if len(asked) == k:
                break
            key = bound_key(eb)
            if key not in asked and not self._known(eb):
                asked[key] = eb
        return list(asked.values())

    def tell(self, error_bound: float, accuracy: float, size: int) -> None:
        self.told += 1
        self._results[bound_key(error_bound)] = (error_bound, accuracy, size)
        config = self.config
        while not self.done and self.position < len(self.schedule):
            eb = self.schedule[self.position]
            if not self._known(eb):
                return
            key = bound_key(eb)
            if key not in self._recorded:
                _, acc, nbytes = self._results[key]
                self._recorded[key] = AssessmentPoint(
                    self.layer, eb, acc, self.baseline_accuracy - acc, nbytes
                )
            degradation = self._recorded[key].degradation
            self.position += 1
            if not self.fine and degradation > config.distortion_criterion:
                # Coarse break: fine scan from one decade below this point.
                self.schedule = _fine_bounds(eb / 10.0, config.max_fine_tests)
                self.position, self.fine = 0, True
            elif self.fine and degradation > config.expected_accuracy_loss:
                self.done = True
        self.done = True


def assess_layer(
    network: Network,
    layer_name: str,
    sparse_layer: SparseLayer,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    *,
    baseline_accuracy: float,
    config: AssessmentConfig | None = None,
    evaluator: Callable[..., tuple[float, int]] | None = None,
) -> tuple[LayerAssessment, int]:
    """Run Algorithm 1 for a single fc-layer, one candidate at a time.

    Returns the layer assessment and the number of accuracy tests performed.
    ``evaluator`` can override :func:`evaluate_candidate` (used by the
    benchmarks' serial baseline and by tests).
    """
    config = config or AssessmentConfig()
    evaluator = evaluator or evaluate_candidate
    scan = LayerScan(layer_name, baseline_accuracy, config)
    while not scan.done:
        for eb in scan.ask(1):
            scan.tell(eb, *evaluator(
                network, layer_name, sparse_layer, eb, test_images, test_labels,
                config=config,
            ))
    assessment = LayerAssessment(
        layer_name, baseline_accuracy, scan.points, config.expected_accuracy_loss
    )
    return assessment, scan.told


def assess_network(
    network: Network,
    sparse_layers: Dict[str, SparseLayer],
    test_images: np.ndarray,
    test_labels: np.ndarray,
    *,
    config: AssessmentConfig | None = None,
    evaluator: Callable[..., tuple[float, int]] | None = None,
    workers: int | None = 1,
    cache=None,
) -> AssessmentResult:
    """Run Algorithm 1 for every pruned fc-layer of a network.

    Without a custom ``evaluator`` this delegates to the
    :class:`~repro.core.assess_parallel.AssessmentEngine`: candidates are
    pure tasks fanned out over ``workers`` threads (``None`` resolves via
    ``REPRO_WORKERS`` / CPU count), each resuming from checkpointed
    activations of the perturbed layer, with optional persistent caching of
    results (``cache``, an :class:`~repro.store.AssessmentCache`).  The
    engine returns bit-identical points, test counts, and downstream
    optimizer plans for every worker count.

    Passing ``evaluator`` runs :func:`assess_layer` layer by layer instead —
    the serial baseline the benchmarks compare against and the hook tests
    use to fake evaluations.
    """
    config = config or AssessmentConfig()
    if evaluator is None:
        from repro.core.assess_parallel import AssessmentEngine

        engine = AssessmentEngine(config, workers=workers, cache=cache)
        return engine.run(network, sparse_layers, test_images, test_labels)

    baseline = network.accuracy(test_images, test_labels, batch_size=config.eval_batch_size)
    layers: Dict[str, LayerAssessment] = {}
    total_tests = 0
    for name, sparse_layer in sparse_layers.items():
        assessment, tests = assess_layer(
            network,
            name,
            sparse_layer,
            test_images,
            test_labels,
            baseline_accuracy=baseline,
            config=config,
            evaluator=evaluator,
        )
        layers[name] = assessment
        total_tests += tests
    return AssessmentResult(
        network=network.name,
        baseline_accuracy=baseline,
        layers=layers,
        tests_performed=total_tests,
        evaluations=total_tests,
    )
