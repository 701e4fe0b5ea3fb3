"""Decoding of a DeepSZ compressed model (the Figure 7b path).

Every layer decodes in the same three steps, and the decoder reports a
wall-clock breakdown of each across the model (this is the data behind the
paper's Figure 7b):

1. **lossless** — decompress the index array with its recorded back end
   (resolved through the codec registry);
2. **sz** — decompress the data array with its recorded data codec;
3. **csr** — rebuild the weight matrix from the (index, data) pair: a dense
   float32 matrix by default, or a matmul-ready
   :class:`~repro.nn.sparse.SparseWeight` on the ``sparse=True``
   compressed-domain fast path (which never materialises the dense form).

:func:`decode_compressed_layer` chains the three steps for one layer; it is
the primitive behind the lazy :class:`repro.serve.ModelRuntime`.
:class:`DeepSZDecoder` runs the same steps phase by phase over every layer,
so each phase is timed as a whole.  Layers are independent, so phase 2 fans
out on a :class:`repro.parallel.pool.TaskPool` when the decoder is built with
``workers > 1``; chunked v2 data payloads additionally decode their chunks
concurrently.  ``workers=1`` reproduces the serial result exactly.

:meth:`DeepSZDecoder.apply` loads the reconstructed weights into a network so
it can serve inference immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.codecs import Codec, get_codec
from repro.core.encoder import CompressedLayer, CompressedModel
from repro.obs import profile
from repro.nn.network import Network
from repro.nn.sparse import SparseWeight
from repro.parallel.pool import TaskPool
from repro.pruning.sparse_format import SparseLayer, decode_sparse
from repro.utils.errors import ConfigurationError, DecompressionError, ValidationError
from repro.utils.timing import TimingBreakdown

__all__ = [
    "DecodedModel",
    "DeepSZDecoder",
    "decode_compressed_layer",
]


@dataclass
class DecodedModel:
    """Reconstructed fc-layer weights plus the decode timing breakdown.

    ``weights`` maps layer names to dense ``np.ndarray`` matrices on the
    default decode path, or to :class:`repro.nn.sparse.SparseWeight`
    instances when decoded with ``sparse=True`` (``sparse`` records which).
    """

    network: str
    weights: Dict[str, np.ndarray]
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)
    sparse: bool = False

    @property
    def total_seconds(self) -> float:
        return self.timing.total


def _codec_for_layer(name: str, codec_name: str) -> Codec:
    """Resolve a layer's recorded codec, mapping unknown names to the decode
    error contract (corrupt/tampered blobs raise :class:`DecompressionError`,
    never a configuration error)."""
    try:
        return get_codec(codec_name)
    except ConfigurationError as exc:
        raise DecompressionError(
            f"layer {name!r} references unknown codec {codec_name!r}: {exc}"
        ) from exc


def _check_entries(layer: CompressedLayer, kind: str, array: np.ndarray) -> None:
    if array.size != layer.entry_count:
        raise DecompressionError(
            f"{kind} array for {layer.name!r} has {array.size} entries, "
            f"expected {layer.entry_count}"
        )


def _decode_index(layer: CompressedLayer) -> np.ndarray:
    """Step 1: the lossless index array of one layer."""
    raw = _codec_for_layer(layer.name, layer.index_backend).decompress(
        layer.index_payload
    )
    index = np.frombuffer(raw, dtype=np.uint8)
    _check_entries(layer, "index", index)
    return index


def _decode_data(args: tuple[CompressedLayer, Codec, int]) -> np.ndarray:
    """Step 2 (and the pool task): the data array of one layer.

    The codec instance travels with the task (pickled by class reference)
    instead of being re-resolved by name in the worker, so runtime-
    registered codecs keep working under the spawn/forkserver start
    methods, whose workers only know the built-in registry entries.
    """
    layer, codec, chunk_workers = args
    data = codec.decompress(layer.sz_payload, workers=chunk_workers)
    _check_entries(layer, "data", data)
    return data


def _build(
    layer: CompressedLayer, index: np.ndarray, data: np.ndarray, sparse: bool
) -> "np.ndarray | SparseWeight":
    """Step 3: the dense matrix, or the CSC operand when ``sparse``."""
    two_array = SparseLayer(
        data=np.asarray(data, dtype=np.float32),
        index=index,
        shape=layer.shape,
        nnz=layer.nnz,
    )
    with profile.stage("build"):
        if sparse:
            return SparseWeight.from_sparse_layer(two_array)
        return decode_sparse(two_array)


def decode_compressed_layer(
    layer: CompressedLayer, *, sparse: bool = False
) -> "np.ndarray | SparseWeight":
    """Decode one :class:`~repro.core.encoder.CompressedLayer`: lossless
    index decode, data codec decode, then the dense rebuild — or, with
    ``sparse=True``, the O(entries) CSC build of a
    :class:`~repro.nn.sparse.SparseWeight` that skips the O(rows * cols)
    dense matrix."""
    index = _decode_index(layer)
    data = _decode_data((layer, _codec_for_layer(layer.name, layer.data_codec), 1))
    return _build(layer, index, data, sparse)


class DeepSZDecoder:
    """Decode a :class:`CompressedModel` back into dense fc-layer weights.

    ``workers`` parallelises the per-layer data decompression (and, for
    chunked v2 payloads, the per-chunk work); the reconstruction is
    identical for every worker count.
    """

    def __init__(self, *, workers: int = 1) -> None:
        self.workers = int(workers)
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    @staticmethod
    def _materialise(model) -> CompressedModel:
        """Accept a :class:`CompressedModel`, a ``.dsz``
        :class:`~repro.store.archive.ModelArchive`, or an archive path —
        the full-decode path reads every layer anyway, so an archive is
        simply materialised (lazy per-layer serving lives in
        :class:`repro.serve.ModelRuntime`)."""
        if isinstance(model, CompressedModel):
            return model
        from pathlib import Path

        from repro.store.archive import ModelArchive

        if isinstance(model, ModelArchive):
            return model.load_model()
        if isinstance(model, (str, Path, bytes)):
            return CompressedModel.load(model)
        raise ValidationError(
            f"cannot decode a {type(model).__name__}; expected a "
            "CompressedModel, ModelArchive, archive path, or blob"
        )

    def decode(self, model: CompressedModel, *, sparse: bool = False) -> DecodedModel:
        """Reconstruct every layer; phases are timed separately (Figure 7b).

        ``sparse=True`` takes the compressed-domain fast path: the "csr"
        phase builds matmul-ready :class:`~repro.nn.sparse.SparseWeight`
        matrices (O(entries)) instead of materialising dense ones
        (O(rows * cols)), and the result's ``weights`` hold those.
        """
        model = self._materialise(model)
        layers = list(model.layers.values())
        timing = TimingBreakdown()
        with timing.phase("lossless"):
            indices = [_decode_index(layer) for layer in layers]
        with timing.phase("sz"):
            tasks = [
                (layer, _codec_for_layer(layer.name, layer.data_codec), self.workers)
                for layer in layers
            ]
            data = TaskPool(self.workers).map(_decode_data, tasks)
        with timing.phase("csr"):
            weights = {
                name: _build(layer, index, values, sparse)
                for name, layer, index, values in zip(model.layers, layers, indices, data)
            }
        return DecodedModel(
            network=model.network, weights=weights, timing=timing, sparse=sparse
        )

    def apply(
        self, model: CompressedModel, network: Network, *, sparse: bool = False
    ) -> DecodedModel:
        """Decode and load the reconstructed weights into ``network``.

        ``sparse=True`` installs compressed-domain weights
        (:meth:`Network.set_sparse_weights`), switching the target fc layers
        to sparse execution.
        """
        decoded = self.decode(model, sparse=sparse)
        for name, weight in decoded.weights.items():
            if sparse:
                network.set_sparse_weights(name, weight)
            else:
                network.set_weights(name, weight)
        return decoded
