"""Sequential network container.

A :class:`Network` is the object DeepSZ operates on: it exposes the forward
pass, top-k accuracy evaluation, and — crucially for the error-bound
assessment — named access to the fc-layer weight matrices so that a single
layer can be swapped for its decompressed reconstruction while all other
layers stay untouched.

For the assessment engine the container additionally supports *functional*
partial execution: :meth:`Network.forward_to` / :meth:`Network.forward_collect`
checkpoint the activations entering a named layer, and
:meth:`Network.forward_from` resumes the forward pass from such a checkpoint,
optionally substituting the weight matrix of the resumed layer without
mutating the network.  Together they let a candidate ``(layer, error bound)``
evaluation recompute only the layers *downstream* of the perturbed one.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence

import numpy as np

from repro.nn.layers import Dense, Layer, Softmax
from repro.nn.sparse import SparseWeight
from repro.utils.errors import ValidationError

if TYPE_CHECKING:
    from scipy import sparse as sp

__all__ = ["Network", "topk_counts"]


def topk_counts(
    probs: np.ndarray, labels: np.ndarray, topk: Sequence[int]
) -> Dict[int, int]:
    """Per-k hit counts of a batch of class probabilities.

    Shared by :meth:`Network.evaluate` and the assessment engine so that both
    paths count hits with bit-identical tie-breaking (``np.argpartition``
    order is deterministic but unspecified; using one implementation keeps
    full-forward and checkpoint-resumed evaluations exactly comparable).
    """
    labels = np.asarray(labels)
    counts = {int(k): 0 for k in topk}
    if probs.shape[0] == 0:
        return counts
    max_k = max(counts)
    # top-k indices per row (unordered within the top set, which is all
    # top-k accuracy needs).
    k_eff = min(max_k, probs.shape[1])
    top = np.argpartition(-probs, kth=k_eff - 1, axis=1)[:, :k_eff]
    ranked = np.take_along_axis(
        top, np.argsort(-np.take_along_axis(probs, top, axis=1), axis=1), axis=1
    )
    for k in counts:
        hits = (ranked[:, : min(k, k_eff)] == labels[:, None]).any(axis=1)
        counts[k] = int(hits.sum())
    return counts


class Network:
    """A feed-forward network as an ordered list of named layers."""

    def __init__(self, layers: Sequence[Layer], name: str = "network") -> None:
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate layer names in network: {names}")
        self.name = name
        self.layers: List[Layer] = list(layers)

    # -- structure --------------------------------------------------------
    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __getitem__(self, name: str) -> Layer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r} in network {self.name!r}")

    def layer_names(self) -> List[str]:
        return [layer.name for layer in self.layers]

    def fc_layers(self) -> List[Dense]:
        """The fully connected layers, in forward order (what DeepSZ compresses)."""
        return [layer for layer in self.layers if isinstance(layer, Dense)]

    def fc_layer_names(self) -> List[str]:
        return [layer.name for layer in self.fc_layers()]

    def parameter_count(self) -> int:
        return int(sum(layer.parameter_count() for layer in self.layers))

    def parameter_bytes(self) -> int:
        return int(sum(layer.parameter_bytes() for layer in self.layers))

    def fc_parameter_bytes(self) -> int:
        return int(sum(layer.parameter_bytes() for layer in self.fc_layers()))

    def sparse_fc_layers(self) -> List[Dense]:
        """The fc layers currently running in compressed-domain (sparse) mode."""
        return [layer for layer in self.fc_layers() if layer.is_sparse]

    # -- weights ----------------------------------------------------------
    def get_weights(self, layer_name: str) -> np.ndarray:
        """Return the weight matrix of a named layer.

        Dense-mode layers return a reference to the resident matrix; a
        sparse-mode fc layer returns a *materialised* dense copy of its
        compressed weights.
        """
        layer = self[layer_name]
        if isinstance(layer, Dense) and layer.is_sparse:
            return layer.dense_weights()
        if "weight" not in layer.params:
            raise ValidationError(f"layer {layer_name!r} has no weights")
        return layer.params["weight"]

    def set_weights(self, layer_name: str, weights: np.ndarray) -> None:
        """Replace the weight matrix of a named layer (shape must match).

        On a :class:`~repro.nn.layers.Dense` layer this installs dense
        weights — leaving sparse mode if it was active.
        """
        layer = self[layer_name]
        if isinstance(layer, Dense):
            layer.set_dense_weights(weights)
            return
        current = layer.params.get("weight")
        if current is None:
            raise ValidationError(f"layer {layer_name!r} has no weights")
        weights = np.asarray(weights, dtype=np.float32)
        if weights.shape != current.shape:
            raise ValidationError(
                f"weight shape mismatch for {layer_name!r}: "
                f"expected {current.shape}, got {weights.shape}"
            )
        layer.params["weight"] = weights.copy()

    def set_sparse_weights(self, layer_name: str, weight) -> None:
        """Switch a named fc layer to compressed-domain (sparse) execution.

        ``weight`` may be a :class:`~repro.nn.sparse.SparseWeight`, a SciPy
        sparse matrix, or a two-array :class:`~repro.pruning.SparseLayer`.
        """
        layer = self[layer_name]
        if not isinstance(layer, Dense):
            raise ValidationError(
                f"sparse weights require a Dense layer, got "
                f"{type(layer).__name__} for {layer_name!r}"
            )
        layer.set_sparse_weights(weight)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """All parameters as a flat ``{layer.param: array}`` mapping (copies).

        Sparse-mode fc layers export their weight *densified*, so a state
        dict round-trips regardless of execution mode.
        """
        out: Dict[str, np.ndarray] = {}
        for layer in self.layers:
            if isinstance(layer, Dense) and layer.is_sparse:
                out[f"{layer.name}.weight"] = layer.dense_weights()
            for key, value in layer.params.items():
                out[f"{layer.name}.{key}"] = value.copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters produced by :meth:`state_dict`.

        Loading the ``weight`` of a sparse-mode fc layer installs it as
        dense weights (the layer leaves sparse mode).
        """
        for layer in self.layers:
            keys = set(layer.params)
            if isinstance(layer, Dense) and layer.is_sparse:
                keys.add("weight")
            for key in sorted(keys):
                full = f"{layer.name}.{key}"
                if full not in state:
                    raise ValidationError(f"state dict is missing parameter {full!r}")
                value = np.asarray(state[full], dtype=np.float32)
                if key == "weight" and isinstance(layer, Dense) and layer.is_sparse:
                    layer.set_dense_weights(value)
                    continue
                if value.shape != layer.params[key].shape:
                    raise ValidationError(
                        f"shape mismatch for {full!r}: expected "
                        f"{layer.params[key].shape}, got {value.shape}"
                    )
                layer.params[key] = value.copy()

    def clone(self) -> "Network":
        """Deep copy (used to build reconstructed networks without touching the original)."""
        return copy.deepcopy(self)

    # -- execution --------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=np.float32)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def layer_index(self, layer_name: str) -> int:
        """Position of a named layer in forward order."""
        for i, layer in enumerate(self.layers):
            if layer.name == layer_name:
                return i
        raise KeyError(f"no layer named {layer_name!r} in network {self.name!r}")

    def forward_to(self, layer_name: str, x: np.ndarray) -> np.ndarray:
        """Activations *entering* ``layer_name`` (the checkpoint the
        assessment engine reuses across that layer's candidates)."""
        stop = self.layer_index(layer_name)
        out = np.asarray(x, dtype=np.float32)
        for layer in self.layers[:stop]:
            out = layer.forward(out, training=False)
        return out

    def forward_collect(
        self, x: np.ndarray, capture: Iterable[str]
    ) -> tuple[np.ndarray, Dict[str, np.ndarray]]:
        """One forward pass that checkpoints the inputs of several layers.

        Returns ``(output, {layer_name: input_activations})``.  A single pass
        is enough to seed the activation-reuse cache for every assessed layer
        at once, instead of one truncated pass per layer.
        """
        wanted = set(capture)
        unknown = wanted - set(self.layer_names())
        if unknown:
            raise ValidationError(f"cannot capture unknown layers: {sorted(unknown)}")
        checkpoints: Dict[str, np.ndarray] = {}
        out = np.asarray(x, dtype=np.float32)
        for layer in self.layers:
            if layer.name in wanted:
                checkpoints[layer.name] = out
            out = layer.forward(out, training=False)
        return out, checkpoints

    def forward_from(
        self,
        layer_name: str,
        activations: np.ndarray,
        *,
        weight_override: "np.ndarray | SparseWeight | sp.spmatrix | None" = None,
    ) -> np.ndarray:
        """Resume the forward pass from the input of ``layer_name``.

        ``weight_override`` substitutes the weight matrix of the resumed
        layer *functionally* — the network is never mutated, so concurrent
        candidate evaluations can share one network object.  Only
        :class:`~repro.nn.layers.Dense` layers support an override (they are
        the layers DeepSZ compresses).  The override may be a dense matrix
        or a sparse one (:class:`~repro.nn.sparse.SparseWeight`, SciPy
        sparse, or a two-array SparseLayer), independent of the resumed
        layer's own weight mode.
        """
        start = self.layer_index(layer_name)
        out = np.asarray(activations, dtype=np.float32)
        first = self.layers[start]
        if weight_override is not None:
            if not isinstance(first, Dense):
                raise ValidationError(
                    f"weight_override requires a Dense layer, got "
                    f"{type(first).__name__} for {layer_name!r}"
                )
            expected = (first.out_features, first.in_features)
            sparse_override = False
            if not isinstance(weight_override, np.ndarray):
                from scipy import sparse as sp

                sparse_override = (
                    isinstance(weight_override, SparseWeight)
                    or sp.issparse(weight_override)
                    # Duck-typed SparseLayer (all three attributes, so plain
                    # sequences with an .index *method* stay on the dense path).
                    or (
                        hasattr(weight_override, "index")
                        and hasattr(weight_override, "data")
                        and hasattr(weight_override, "shape")
                    )
                )
            if sparse_override:
                sparse = SparseWeight.coerce(weight_override)
                if sparse.shape != expected:
                    raise ValidationError(
                        f"weight_override shape mismatch for {layer_name!r}: "
                        f"expected {expected}, got {sparse.shape}"
                    )
                # Same arithmetic as the sparse Dense.forward path.
                out = sparse.matmul(out) + first.params["bias"]
            else:
                weight = np.asarray(weight_override, dtype=np.float32)
                if weight.shape != expected:
                    raise ValidationError(
                        f"weight_override shape mismatch for {layer_name!r}: "
                        f"expected {expected}, got {weight.shape}"
                    )
                # Same arithmetic as Dense.forward, without touching its params.
                out = out @ weight.T + first.params["bias"]
        else:
            out = first.forward(out, training=False)
        for layer in self.layers[start + 1 :]:
            out = layer.forward(out, training=False)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def logits(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass that stops before a trailing Softmax layer (for the loss)."""
        out = np.asarray(x, dtype=np.float32)
        for layer in self.layers:
            if isinstance(layer, Softmax):
                continue
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Predicted class labels for a batch of inputs."""
        preds = []
        for start in range(0, len(x), batch_size):
            probs = self.forward(x[start : start + batch_size], training=False)
            preds.append(np.argmax(probs, axis=1))
        return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)

    def evaluate(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 256,
        topk: Iterable[int] = (1,),
    ) -> Dict[int, float]:
        """Top-k accuracies on a labelled dataset.

        Returns a mapping ``{k: accuracy}`` with accuracies in [0, 1].
        """
        labels = np.asarray(labels)
        if len(x) != len(labels):
            raise ValidationError("inputs and labels must have the same length")
        topk = sorted(set(int(k) for k in topk))
        if not topk or topk[0] < 1:
            raise ValidationError("topk must contain positive integers")
        correct = {k: 0 for k in topk}
        total = len(labels)
        if total == 0:
            return {k: 0.0 for k in topk}
        for start in range(0, total, batch_size):
            probs = self.forward(x[start : start + batch_size], training=False)
            counts = topk_counts(probs, labels[start : start + batch_size], topk)
            for k in topk:
                correct[k] += counts[k]
        return {k: correct[k] / total for k in topk}

    def accuracy(self, x: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        """Top-1 accuracy in [0, 1]."""
        return self.evaluate(x, labels, batch_size=batch_size, topk=(1,))[1]
