"""Shared-memory weight cache: decode once per host, serve from every process.

Thread-backed replica pools contend on one interpreter: gateway
admission, batching servers, and the Python-level forward passes all
serialize on the GIL, so gateway throughput *falls* as replicas are added.  The fix is
process-backed replicas — but naively, each worker process would mmap the
archive and re-decode every layer, multiplying both startup cost and
resident memory by the pool size.

This module keeps the decode at once per (model, host):

* :class:`SharedWeightStore` — a refcounted, digest-keyed registry.  The
  first ``acquire()`` for an archive decodes every layer (dense matrices, or
  CSC operands in sparse mode) through a throwaway
  :class:`~repro.serve.runtime.ModelRuntime` and packs the arrays into **one
  ``multiprocessing.shared_memory`` segment**, described by a small
  JSON-able *layout manifest* (per-layer dtype/shape/offset).  Subsequent
  acquires for the same bytes bump a refcount and return the same segment.
  ``release()`` unlinks at refcount zero, and an ``atexit`` hook unlinks
  anything still live if the owner exits uncleanly — segments are named
  ``repro_<digest>_<pid>_<seq>`` so a leak scan of ``/dev/shm`` can find
  them.
* :class:`SharedModelWeights` — the handle: segment + manifest + byte
  accounting.  Only the *creating* process ever unlinks; workers attach.
* :class:`SharedRuntime` — the worker-side counterpart.  Reconstructs
  **zero-copy read-only numpy views** over the segment from the manifest
  (dense: one ``ndarray`` per layer; sparse: a
  :class:`~repro.nn.sparse.SparseWeight` wrapping ``data``/``indices``/
  ``indptr`` views via :meth:`SparseWeight.from_csc_arrays`).  No archive
  read, no codec pass, no per-worker copy: attaching is an ``shm_open`` +
  pointer math.  It exposes the same serving surface a replica network
  needs (``layer`` / ``layer_names`` / ``layer_shape`` / ``load_into``), so
  :class:`~repro.serve.gateway.ArchiveMLP` runs over it unchanged.

Worker processes share the creator's resource-tracker process (spawn and
fork both forward the tracker fd), so attachments re-register the same
name idempotently and the creator's registration survives worker churn —
even a SIGKILLed owner leaves cleanup to the stdlib tracker rather than
leaking the segment (see :func:`attach_segment`).
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import threading
import time
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.lint.lockcheck import make_lock
from repro.nn.sparse import SparseWeight
from repro.obs.log import get_logger
from repro.utils.errors import ValidationError

__all__ = [
    "SharedModelWeights",
    "SharedRuntime",
    "SharedWeightStore",
    "shared_weight_store",
]

_log = get_logger("serve.shm")

#: Segment offsets are aligned so every view starts on a cache line.
_ALIGN = 64

_SEGMENT_PREFIX = "repro_"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment (worker-side open).

    Python < 3.13 registers *attachments* with the resource tracker exactly
    like created segments.  That is benign — and load-bearing — here:
    worker processes share the gateway's tracker process (both spawn and
    fork forward the tracker fd), whose registry is a *set* of names, so a
    worker's attach re-adds the same name the creator registered
    (idempotent) and nothing must be unregistered on the worker side.
    Explicitly unregistering — the widely-cited leak-warning workaround —
    would be wrong with a shared tracker: it strips the creator's
    registration too, killing the SIGKILL safety net and making the
    creator's eventual ``unlink()`` trip a tracker KeyError.
    """
    return shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# layout manifest <-> numpy views
# ---------------------------------------------------------------------------


def _array_spec(array: np.ndarray, offset: int) -> dict:
    return {
        "dtype": str(array.dtype),
        "shape": [int(d) for d in array.shape],
        "offset": int(offset),
        "nbytes": int(array.nbytes),
    }


def _view(segment: shared_memory.SharedMemory, spec: dict) -> np.ndarray:
    array = np.ndarray(
        tuple(spec["shape"]),
        dtype=np.dtype(spec["dtype"]),
        buffer=segment.buf,
        offset=int(spec["offset"]),
    )
    array.flags.writeable = False
    return array


class SharedModelWeights:
    """One model's decoded weights in a shared-memory segment.

    Owned by the :class:`SharedWeightStore` that built it; everyone else
    (workers, stats readers) treats it as an immutable descriptor.  The
    ``manifest`` is a plain JSON-able dict — it is what crosses the process
    boundary, not this object.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        manifest: dict,
        *,
        key: tuple,
        decodes: int,
        decode_seconds: float,
    ) -> None:
        self._segment = segment
        self.manifest = manifest
        self.key = key
        self.decodes = decodes
        self.decode_seconds = decode_seconds
        self.refcount = 0  # guarded by the owning store's lock

    @property
    def segment_name(self) -> str:
        return self._segment.name

    @property
    def total_bytes(self) -> int:
        return int(self.manifest["total_bytes"])

    @property
    def sparse(self) -> bool:
        return bool(self.manifest["sparse"])

    @property
    def layer_names(self) -> List[str]:
        return list(self.manifest["order"])

    def unlink(self) -> None:
        """Close and unlink the segment (idempotent; creator only)."""
        try:
            self._segment.close()
        except BufferError:
            # A live view pins the mapping; unlink proceeds anyway and the
            # mapping dies with the process.  Logged because a *persistent*
            # pin here means some reader outlived its replica.
            _log.debug("segment %s close blocked by a live view", self._segment.name)
        try:
            self._segment.unlink()
        except FileNotFoundError:
            _log.debug("segment %s already unlinked", self._segment.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SharedModelWeights {self.segment_name} "
            f"{len(self.layer_names)} layers {self.total_bytes}B "
            f"refs={self.refcount}>"
        )


class SharedWeightStore:
    """Refcounted per-host registry of shared-memory weight segments.

    ``acquire(source, sparse=...)`` decodes the archive **once** per
    distinct ``(content digest, sparse)`` key and returns the shared
    segment; further acquires are refcount bumps.  ``release()`` unlinks at
    zero.  A process-wide singleton (:func:`shared_weight_store`) makes
    "once per host" hold across every gateway in the serving process, and
    an ``atexit`` hook unlinks whatever is still registered when the
    process exits.
    """

    def __init__(self) -> None:
        self._lock = make_lock("serve.shm.store")
        self._entries: Dict[tuple, SharedModelWeights] = {}
        # Per-key single-flight markers: the thread that installs the Event
        # builds (decode + segment create) *outside* the lock; racers wait
        # on the Event instead of on the store lock, so an unrelated model's
        # acquire never queues behind a multi-second decode.
        self._building: Dict[tuple, threading.Event] = {}
        self._seq = itertools.count(1)
        atexit.register(self.shutdown)

    # -- lifecycle ---------------------------------------------------------
    def acquire(
        self,
        source: Union[bytes, bytearray, memoryview, str, Path],
        *,
        sparse: bool = False,
    ) -> SharedModelWeights:
        """The shared segment for ``source`` (decoded now if first touch)."""
        if isinstance(source, (str, Path)):
            source = Path(source).read_bytes()
        blob = bytes(source)
        key = (hashlib.sha256(blob).hexdigest(), bool(sparse))
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    entry.refcount += 1
                    return entry
                pending = self._building.get(key)
                if pending is None:
                    self._building[key] = threading.Event()
                    break
            # Another thread is decoding this exact model: wait on its
            # single-flight event (not the store lock) and re-check.
            pending.wait()
        try:
            entry = self._build(blob, key)
        except BaseException:
            with self._lock:
                event = self._building.pop(key)
            event.set()  # wake racers; the next one retries the build
            raise
        with self._lock:
            self._entries[key] = entry
            entry.refcount += 1
            event = self._building.pop(key)
        event.set()
        return entry

    def release(self, weights: SharedModelWeights) -> None:
        """Drop one reference; unlink the segment when nobody holds it."""
        with self._lock:
            entry = self._entries.get(weights.key)
            if entry is not weights:  # already unlinked (or foreign handle)
                return
            entry.refcount -= 1
            if entry.refcount > 0:
                return
            del self._entries[weights.key]
        weights.unlink()

    def shutdown(self) -> None:
        """Unlink every live segment (crash-exit safety net)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        if entries:
            # Reaching exit with live segments means some gateway skipped
            # its release() — worth a warning, not silence.
            _log.warning(
                "unlinking %d shared weight segment(s) still live at shutdown: %s",
                len(entries),
                [entry.segment_name for entry in entries],
            )
        for entry in entries:
            entry.unlink()

    def active_segments(self) -> List[str]:
        """Names of currently live segments (tests and leak scans)."""
        with self._lock:
            return [entry.segment_name for entry in self._entries.values()]

    # -- building ----------------------------------------------------------
    def _build(self, blob: bytes, key: tuple) -> SharedModelWeights:
        from repro.serve.runtime import ModelRuntime

        digest, sparse = key
        start = time.perf_counter()
        with ModelRuntime(blob, cache_bytes=2**62, verify=True, sparse=sparse) as runtime:
            order = runtime.layer_names
            decoded = {name: runtime.layer(name) for name in order}
            network = runtime.network
            shapes = {name: runtime.layer_shape(name) for name in order}
            decodes = runtime.stats().decodes

            layers: Dict[str, dict] = {}
            offset = 0
            for name in order:
                value = decoded[name]
                if sparse:
                    arrays = {}
                    for part in ("data", "indices", "indptr"):
                        array = getattr(value.matrix, part)
                        offset = _aligned(offset)
                        arrays[part] = _array_spec(array, offset)
                        offset += array.nbytes
                    layers[name] = {
                        "kind": "csc",
                        "shape": [int(d) for d in shapes[name]],
                        "arrays": arrays,
                    }
                else:
                    offset = _aligned(offset)
                    layers[name] = {"kind": "dense", **_array_spec(value, offset)}
                    offset += value.nbytes

            segment = self._create_segment(digest, max(offset, 1))
            try:
                for name in order:
                    value = decoded[name]
                    spec = layers[name]
                    if sparse:
                        for part, array_spec in spec["arrays"].items():
                            target = np.ndarray(
                                tuple(array_spec["shape"]),
                                dtype=np.dtype(array_spec["dtype"]),
                                buffer=segment.buf,
                                offset=array_spec["offset"],
                            )
                            np.copyto(target, getattr(value.matrix, part))
                    else:
                        target = np.ndarray(
                            tuple(spec["shape"]),
                            dtype=np.dtype(spec["dtype"]),
                            buffer=segment.buf,
                            offset=spec["offset"],
                        )
                        np.copyto(target, value)
            except BaseException:
                segment.close()
                segment.unlink()
                raise

        manifest = {
            "segment": segment.name,
            "digest": digest,
            "network": network,
            "sparse": bool(sparse),
            "total_bytes": int(offset),
            "order": list(order),
            "layers": layers,
        }
        return SharedModelWeights(
            segment,
            manifest,
            key=key,
            decodes=decodes,
            decode_seconds=time.perf_counter() - start,
        )

    def _create_segment(self, digest: str, size: int) -> shared_memory.SharedMemory:
        # Explicit repro_* names (instead of the stdlib's psm_*) so leak
        # scans of /dev/shm can attribute segments; pid + sequence keeps
        # them unique, and a stale same-named leftover is retried past.
        # itertools.count is atomic under the GIL, so concurrent builders of
        # *different* models (builds run outside the store lock) never share
        # a sequence number.
        while True:
            name = f"{_SEGMENT_PREFIX}{digest[:8]}_{os.getpid()}_{next(self._seq)}"
            try:
                return shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - stale leftover
                continue


_STORE_LOCK = make_lock("serve.shm.singleton")
_STORE: Optional[SharedWeightStore] = None


def shared_weight_store() -> SharedWeightStore:
    """The process-wide store — "once per host" across every gateway."""
    global _STORE
    with _STORE_LOCK:
        if _STORE is None:
            _STORE = SharedWeightStore()
        return _STORE


# ---------------------------------------------------------------------------
# worker-side reconstruction
# ---------------------------------------------------------------------------


class SharedRuntime:
    """Zero-copy serving views over a shared-memory weight segment.

    Built from a layout manifest (a small dict — the only thing shipped to
    a worker process), it attaches the segment and materialises one
    read-only view per layer: a dense ndarray, or a
    :class:`~repro.nn.sparse.SparseWeight` whose CSC arrays alias the
    segment.  It deliberately mirrors the slice of the
    :class:`~repro.serve.runtime.ModelRuntime` surface the serving
    networks consume — :meth:`layer`, :attr:`layer_names`,
    :meth:`layer_shape`, :meth:`load_into` — so
    :class:`~repro.serve.gateway.ArchiveMLP` and ``network_factory``
    installs work identically in a worker.  ``resident_bytes`` is 0: the
    bytes belong to the host-wide segment, counted once by the gateway.
    """

    def __init__(self, manifest: dict) -> None:
        self.manifest = manifest
        self._segment = attach_segment(manifest["segment"])
        self._sparse = bool(manifest["sparse"])
        self._order: List[str] = list(manifest["order"])
        self._layers: Dict[str, "np.ndarray | SparseWeight"] = {}
        for name in self._order:
            spec = manifest["layers"][name]
            if spec["kind"] == "csc":
                self._layers[name] = SparseWeight.from_csc_arrays(
                    _view(self._segment, spec["arrays"]["data"]),
                    _view(self._segment, spec["arrays"]["indices"]),
                    _view(self._segment, spec["arrays"]["indptr"]),
                    shape=tuple(spec["shape"]),
                )
            else:
                self._layers[name] = _view(self._segment, spec)

    # -- runtime surface ---------------------------------------------------
    @property
    def network(self) -> str:
        return str(self.manifest.get("network", "?"))

    @property
    def sparse(self) -> bool:
        return self._sparse

    @property
    def layer_names(self) -> List[str]:
        return list(self._order)

    def layer_shape(self, name: str) -> tuple[int, int]:
        spec = self.manifest["layers"].get(name)
        if spec is None:
            raise ValidationError(
                f"segment has no layer {name!r}; available: {self._order}"
            )
        return (int(spec["shape"][0]), int(spec["shape"][1]))

    def layer(self, name: str) -> "np.ndarray | SparseWeight":
        try:
            return self._layers[name]
        except KeyError:
            raise ValidationError(
                f"segment has no layer {name!r}; available: {self._order}"
            ) from None

    @property
    def resident_bytes(self) -> int:
        """0 — the views alias the host-wide segment; nothing is private."""
        return 0

    @property
    def shared_bytes(self) -> int:
        return int(self.manifest["total_bytes"])

    def load_into(self, network) -> None:
        """Install the shared views into a ``network_factory`` network.

        Sparse layers share the CSC arrays outright; dense installs follow
        ``Network.set_weights`` semantics (the layer copies, because a
        trainable layer must own writable weights).
        """
        for name in self._order:
            if self._sparse:
                network.set_sparse_weights(name, self.layer(name))
            else:
                network.set_weights(name, self.layer(name))

    def close(self) -> None:
        """Detach from the segment (never unlinks — the owner does that)."""
        self._layers.clear()
        try:
            self._segment.close()
        except BufferError:
            # A caller still holds a weight view; the mapping is released at
            # process exit instead.  Visible under REPRO_LOG for leak hunts.
            _log.debug(
                "shared runtime detach from %s blocked by a live view",
                self.manifest["segment"],
            )

    def __enter__(self) -> "SharedRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SharedRuntime segment={self.manifest['segment']!r} "
            f"layers={len(self._order)} {'sparse' if self._sparse else 'dense'}>"
        )
