"""On-demand model serving runtime over a ``.dsz`` archive.

A :class:`ModelRuntime` is the edge/serving-node counterpart of the cloud
encoder: it memory-maps an archive (or wraps an in-memory blob) and decodes
layers *lazily*, each first touch reading only that layer's segments and
running the index + data codecs + CSR rebuild for that layer alone.  Decoded
dense matrices go through a byte-bounded, thread-safe LRU cache
(:class:`repro.serve.cache.LRUCache`) with single-flight misses, so a
serving node with less RAM than the decoded model still serves every layer,
and repeat access is a dictionary hit.

``prefetch`` fans the first-touch decodes out on the PR-1
:class:`repro.parallel.pool.TaskPool` (thread mode: the heavy lifting is
GIL-releasing zlib/NumPy work), which is how a node hides decode latency
behind the network transfer of the *next* archive.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

import numpy as np

from repro.core.decoder import decode_compressed_layer
from repro.lint.lockcheck import make_lock
from repro.core.encoder import CompressedModel
from repro.nn.sparse import SparseWeight
from repro.obs import profile
from repro.parallel.pool import TaskPool
from repro.serve.cache import CacheStats, LRUCache
from repro.store.archive import ModelArchive, archive_bytes
from repro.utils.errors import ValidationError

__all__ = [
    "RuntimeStats",
    "ModelRuntime",
    "DEFAULT_CACHE_BYTES",
    "decode_compressed_layer",
]

#: Default decoded-layer cache budget (enough for every mini-zoo model).
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


@dataclass
class RuntimeStats:
    """Serving-side counters: cache behaviour plus per-layer decode cost.

    ``stage_seconds`` breaks the decode time down by codec stage
    (:data:`repro.obs.profile.DECODE_STAGES`) — populated whenever the
    observability instrumentation is enabled, empty otherwise.
    """

    cache: CacheStats
    decodes: int = 0
    decode_seconds: Dict[str, float] = field(default_factory=dict)
    bytes_read: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_decode_seconds(self) -> float:
        return float(sum(self.decode_seconds.values()))

    def as_dict(self) -> dict:
        return {
            "cache": self.cache.as_dict(),
            "decodes": self.decodes,
            "decode_seconds": dict(self.decode_seconds),
            "total_decode_seconds": self.total_decode_seconds,
            "bytes_read": self.bytes_read,
            "stage_seconds": dict(self.stage_seconds),
        }


class ModelRuntime:
    """Lazy, cached, thread-safe access to a compressed model's layers.

    Parameters
    ----------
    source:
        A path to a ``.dsz`` archive (opened with mmap), raw archive bytes
        (v2 or v1 compat), an open :class:`ModelArchive`, or a
        :class:`CompressedModel` (wrapped in an in-memory archive).
    cache_bytes:
        Budget of the decoded-layer LRU cache.
    verify:
        CRC-check segment bytes on every (cold) read.  Warm hits never
        re-read or re-verify.
    sparse:
        Serve layers in compressed-domain form: decoding stops at the
        two-array :class:`~repro.pruning.SparseLayer` and :meth:`layer`
        returns a matmul-ready :class:`~repro.nn.sparse.SparseWeight`
        instead of a dense matrix.  Cache entries are charged their actual
        CSC footprint (data + indices + indptr), so at the paper's ~10%
        density the same byte budget holds ~5x more models.
    """

    def __init__(
        self,
        source: Union[str, Path, bytes, bytearray, memoryview, ModelArchive, CompressedModel],
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        verify: bool = True,
        sparse: bool = False,
    ) -> None:
        self._owns_archive = True
        if isinstance(source, ModelArchive):
            self._archive = source
            self._owns_archive = False
        elif isinstance(source, CompressedModel):
            self._archive = ModelArchive.from_bytes(archive_bytes(source))
        elif isinstance(source, (bytes, bytearray, memoryview)):
            self._archive = ModelArchive.from_bytes(source)
        elif isinstance(source, (str, Path)):
            self._archive = ModelArchive.open(source)
        else:
            raise ValidationError(
                f"unsupported runtime source type: {type(source).__name__}"
            )
        self._verify = bool(verify)
        self._sparse = bool(sparse)
        self._cache: LRUCache[str, np.ndarray] = LRUCache(cache_bytes)
        self._stats_lock = make_lock("serve.runtime.stats")
        self._decodes = 0
        self._decode_seconds: Dict[str, float] = {}
        self._stage_seconds: Dict[str, float] = {}
        self._bytes_read = 0
        self._closed = False

    # -- introspection -----------------------------------------------------
    @property
    def archive(self) -> ModelArchive:
        return self._archive

    @property
    def network(self) -> str:
        return self._archive.manifest.network

    @property
    def sparse(self) -> bool:
        """Whether layers are served in compressed-domain (sparse) form."""
        return self._sparse

    @property
    def layer_names(self) -> list[str]:
        return self._archive.layer_names

    def layer_shape(self, name: str) -> tuple[int, int]:
        """A layer's dense (rows, cols) shape, straight from the manifest.

        Shape questions must not cost a decode; serving networks
        (:class:`~repro.serve.gateway.ArchiveMLP`) and the shared-memory
        builder validate topologies through this instead of reaching into
        the archive, so a :class:`~repro.serve.shm.SharedRuntime` can
        answer the same question without any archive at all.
        """
        self._archive_check(name)
        shape = self._archive.manifest.layers[name].shape
        return (int(shape[0]), int(shape[1]))

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by the decoded-layer cache (dense ``nbytes``
        or true CSC footprint in sparse mode) — what a serving gateway
        reports as this replica's memory cost."""
        return int(self._cache.current_bytes)

    def stats(self) -> RuntimeStats:
        with self._stats_lock:
            return RuntimeStats(
                cache=self._cache.stats(),
                decodes=self._decodes,
                decode_seconds=dict(self._decode_seconds),
                bytes_read=self._bytes_read,
                stage_seconds=dict(self._stage_seconds),
            )

    # -- decoding ----------------------------------------------------------
    def layer(self, name: str) -> "np.ndarray | SparseWeight":
        """The weight matrix of one layer (decoded on first touch).

        A dense ndarray normally, or a
        :class:`~repro.nn.sparse.SparseWeight` when the runtime serves in
        sparse mode.  The returned object is the cached one with its arrays
        marked read-only — callers that need to mutate must copy
        (``Network.set_weights`` already does).
        """
        return self._cache.get_or_create(name, lambda: self._decode(name))

    def _decode(self, name: str) -> "tuple[np.ndarray | SparseWeight, int]":
        # The stage sink is installed *here* — inside the task — so decodes
        # running on prefetch pool threads attribute their codec stages to
        # this runtime exactly like request-path decodes do.
        start = time.perf_counter()
        with profile.stage_sink() as stages:
            compressed = self._archive.read_layer(name, verify=self._verify)
            value = decode_compressed_layer(compressed, sparse=self._sparse)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # a SparseWeight freezes its own arrays
        elapsed = time.perf_counter() - start
        with self._stats_lock:
            self._decodes += 1
            self._decode_seconds[name] = (
                self._decode_seconds.get(name, 0.0) + elapsed
            )
            self._bytes_read += compressed.compressed_bytes
            for stage_name, seconds in stages.items():
                self._stage_seconds[stage_name] = (
                    self._stage_seconds.get(stage_name, 0.0) + seconds
                )
        # A SparseWeight's nbytes is its CSC footprint, not the dense size.
        return value, int(value.nbytes)

    def prefetch(
        self, names: Optional[Iterable[str]] = None, *, workers: Optional[int] = None
    ) -> list[str]:
        """Warm the cache for ``names`` (default: every layer) concurrently.

        Returns the prefetched names.  ``workers=None`` resolves through
        ``REPRO_WORKERS`` / CPU count; decodes fan out on a thread pool
        (zlib/NumPy release the GIL) and single-flight caching keeps each
        layer decoded at most once even if requests race the prefetch.
        """
        targets = list(names) if names is not None else self.layer_names
        for name in targets:
            self._archive_check(name)
        TaskPool(workers, mode="thread").map(self.layer, targets)
        return targets

    def _archive_check(self, name: str) -> None:
        if name not in self._archive.manifest.layers:
            raise ValidationError(
                f"archive has no layer {name!r}; available: {self.layer_names}"
            )

    def decode_all(self) -> "Dict[str, np.ndarray | SparseWeight]":
        """Every layer's weights (through the cache)."""
        return {name: self.layer(name) for name in self.layer_names}

    def load_into(self, network) -> None:
        """Install every decoded layer into a :class:`repro.nn.Network`.

        In sparse mode the target fc layers switch to compressed-domain
        execution (:meth:`Network.set_sparse_weights`) and share the cached
        CSC arrays instead of copying a dense matrix.
        """
        for name in self.layer_names:
            if self._sparse:
                network.set_sparse_weights(name, self.layer(name))
            else:
                network.set_weights(name, self.layer(name))

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._cache.clear()
            if self._owns_archive:
                self._archive.close()

    def __enter__(self) -> "ModelRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ModelRuntime network={self.network!r} layers={len(self.layer_names)} "
            f"cache={self._cache.current_bytes}/{self._cache.max_bytes}B>"
        )
