"""Generation of the compressed model (Step 4).

The encoder takes the pruned sparse layers and the per-layer error bounds
chosen by the optimizer, compresses every data array with the selected
error-bounded codec (SZ by default, resolved through the codec registry) and
every index array with the best-fit lossless codec.  The result is saved
as one self-describing ``.dsz`` archive (:mod:`repro.store.archive`; the
"bitstream" of Figure 1) that also carries everything the decoder needs to
rebuild dense weight matrices: layer shapes, entry counts, the data codec,
and the lossless back end that won the selection.

Layers are independent, so :meth:`DeepSZEncoder.encode` fans them out on a
:class:`repro.parallel.pool.TaskPool` when ``workers > 1``; additionally the
SZ codec's chunked v2 container parallelises *within* a layer when
``chunk_size`` is set (nested pools degrade gracefully — a layer task that
runs inside a pool worker encodes its chunks serially).  ``workers=1``
produces byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Sequence, Union

import numpy as np

from repro.codecs import best_fit_lossless, get_codec, resolve_error_bounded_codec
from repro.parallel.pool import TaskPool
from repro.pruning.sparse_format import SparseLayer
from repro.sz.lossless import INDEX_LOSSLESS_CANDIDATES
from repro.utils.errors import ValidationError
from repro.utils.timing import TimingBreakdown

__all__ = ["CompressedLayer", "CompressedModel", "DeepSZEncoder"]

_DEFAULT_DATA_CODEC = "sz"


@dataclass(frozen=True)
class CompressedLayer:
    """One fc-layer inside a compressed model."""

    name: str
    error_bound: float
    shape: tuple[int, int]
    nnz: int
    entry_count: int
    sz_payload: bytes
    index_payload: bytes
    index_backend: str
    data_codec: str = _DEFAULT_DATA_CODEC

    @property
    def compressed_bytes(self) -> int:
        return len(self.sz_payload) + len(self.index_payload)

    @property
    def dense_bytes(self) -> int:
        return int(np.prod(self.shape)) * 4

    @property
    def ratio(self) -> float:
        total = self.compressed_bytes
        return self.dense_bytes / total if total else float("inf")

    @property
    def bits_per_nonzero(self) -> float:
        """Encoded bits per surviving weight (the paper's 2.0–3.3 bits range)."""
        return 8.0 * self.compressed_bytes / self.nnz if self.nnz else 0.0


@dataclass
class CompressedModel:
    """A fully encoded network: per-layer streams plus container metadata."""

    network: str
    layers: Dict[str, CompressedLayer]
    expected_accuracy_loss: float
    encoding_time: TimingBreakdown = field(default_factory=TimingBreakdown)

    @property
    def compressed_bytes(self) -> int:
        return int(sum(layer.compressed_bytes for layer in self.layers.values()))

    @property
    def dense_bytes(self) -> int:
        return int(sum(layer.dense_bytes for layer in self.layers.values()))

    @property
    def compression_ratio(self) -> float:
        total = self.compressed_bytes
        return self.dense_bytes / total if total else float("inf")

    def error_bounds(self) -> Dict[str, float]:
        return {name: layer.error_bound for name, layer in self.layers.items()}

    # -- serialization: the random-access .dsz archive (see repro.store) ----
    def save(self, path: Union[str, Path]) -> int:
        """Write a ``.dsz`` archive to ``path``; returns bytes written."""
        from repro.store.archive import write_archive

        return write_archive(self, path)

    @classmethod
    def load(cls, source: Union[str, Path, bytes]) -> "CompressedModel":
        """Load a model from a ``.dsz`` archive path/bytes *or* a v1
        monolithic blob (both routed through the archive compat reader, so
        segment checksums are verified when present)."""
        from repro.store.archive import ModelArchive

        if isinstance(source, (str, Path)):
            with ModelArchive.open(source) as archive:
                return archive.load_model()
        with ModelArchive.from_bytes(source) as archive:
            return archive.load_model()


def _encode_layer_task(
    args: tuple[str, SparseLayer, float, dict, tuple[str, bytes] | None],
) -> tuple[CompressedLayer, float]:
    """Pool task: compress one layer; returns (layer, encode seconds).

    A given index fit ``(backend, blob)`` is used as is; without one the
    index array gets its best-fit lossless selection here.

    The task carries the codec *instance* (stateless, pickled by class
    reference) rather than resolving the registry name in the worker:
    under the spawn/forkserver start methods a worker's registry holds
    only the built-ins, so runtime-registered codecs would not resolve.
    """
    import time

    name, sparse_layer, error_bound, params, index_fit = args
    start = time.perf_counter()
    codec = params["codec"]
    payload = codec.compress(
        sparse_layer.data,
        error_bound=float(error_bound),
        capacity=params["capacity"],
        lossless=params["sz_lossless"],
        chunk_size=params["chunk_size"],
        workers=params["chunk_workers"],
    )
    backend_name, index_blob = index_fit or best_fit_lossless(
        sparse_layer.index.tobytes(), params["index_codecs"]
    )
    layer = CompressedLayer(
        name=name,
        error_bound=float(error_bound),
        shape=sparse_layer.shape,
        nnz=sparse_layer.nnz,
        entry_count=sparse_layer.entry_count,
        sz_payload=payload,
        index_payload=index_blob,
        index_backend=backend_name,
        data_codec=params["data_codec"],
    )
    return layer, time.perf_counter() - start


class DeepSZEncoder:
    """Step 4: produce the compressed model from sparse layers + error bounds.

    Parameters
    ----------
    capacity / sz_lossless / index_lossless_candidates:
        Forwarded to the data codec and the index best-fit selection.
    data_codec:
        Registry name of the error-bounded codec applied to the data arrays
        (``"sz"`` by default; any codec with ``info.error_bounded`` works).
    chunk_size:
        When set (and the codec supports chunking), each data array is split
        into independently compressed chunks of this many elements, enabling
        intra-layer parallelism and the v2 container format.
    workers:
        Fan layers (and, via the chunked container, chunks) out on this many
        pool workers.  ``1`` (the default) is fully serial and produces
        byte-identical payloads.
    """

    def __init__(
        self,
        *,
        capacity: int = 65536,
        sz_lossless: str = "zlib",
        index_lossless_candidates: Sequence[str] = INDEX_LOSSLESS_CANDIDATES,
        data_codec: str = _DEFAULT_DATA_CODEC,
        chunk_size: int | None = None,
        workers: int = 1,
    ) -> None:
        self._codec = resolve_error_bounded_codec(data_codec, chunk_size=chunk_size)
        self.capacity = int(capacity)
        self.sz_lossless = sz_lossless
        self.index_lossless_candidates = tuple(index_lossless_candidates)
        # Resolve the candidate codecs now: unknown names fail fast, and the
        # instances travel to pool workers (whose registries only hold
        # built-ins under spawn start methods) instead of being re-resolved
        # by name there.
        self._index_codecs = tuple(
            get_codec(name) for name in self.index_lossless_candidates
        )
        self.data_codec = data_codec
        self.chunk_size = chunk_size
        self.workers = int(workers)
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def _codec_params(self) -> dict:
        return {
            "codec": self._codec,
            "data_codec": self.data_codec,
            "capacity": self.capacity,
            "sz_lossless": self.sz_lossless,
            "index_codecs": self._index_codecs,
            "chunk_size": self.chunk_size,
            "chunk_workers": self.workers,
        }

    def encode(
        self,
        network_name: str,
        sparse_layers: Mapping[str, SparseLayer],
        error_bounds: Mapping[str, float],
        *,
        expected_accuracy_loss: float = 0.0,
        index_fits: Mapping[str, tuple[str, bytes]] | None = None,
    ) -> CompressedModel:
        """Compress every layer with its chosen error bound.

        ``index_fits`` maps layer names to an index best-fit ``(backend,
        blob)`` already computed over this encoder's candidates — Step 2's
        :attr:`AssessmentResult.index_fits` — so those layers skip the fit;
        the other layers are fitted here.

        With ``workers > 1`` the layers are encoded concurrently; the
        recorded per-layer timings are then the workers' own encode times
        (which overlap in wall-clock).
        """
        missing = set(sparse_layers) - set(error_bounds)
        if missing:
            raise ValidationError(f"no error bound chosen for layers: {sorted(missing)}")
        params = self._codec_params()
        fits = index_fits or {}
        tasks = [
            (name, sparse_layer, float(error_bounds[name]), params, fits.get(name))
            for name, sparse_layer in sparse_layers.items()
        ]
        results = TaskPool(self.workers).map(_encode_layer_task, tasks)
        timing = TimingBreakdown()
        layers: Dict[str, CompressedLayer] = {}
        for layer, seconds in results:
            layers[layer.name] = layer
            timing.add(f"encode:{layer.name}", seconds)
        return CompressedModel(
            network=network_name,
            layers=layers,
            expected_accuracy_loss=float(expected_accuracy_loss),
            encoding_time=timing,
        )
