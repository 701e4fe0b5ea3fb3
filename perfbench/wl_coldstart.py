"""Workload ``cold-start``: back-to-back model pushes, one caller.

The fc stack is AlexNet fc6/fc7/fc8 at 0.15 scale, chained as (out, in) =
(614, 1382), (614, 614), (150, 614), pruned to density 0.1 and encoded at
error bound 1e-3.  Set-up builds two archives of it from the seed: one
from the default encoder (v1 SZ streams) and one chunked (v2,
``chunk_size=16384``), so a change to one container's decode shows on one
half of the op and not on the other.

One op runs ``ModelRuntime(bytes)`` and ``ArchiveMLP(runtime).forward(x)``
on each archive: archive bytes to first output.  Every output is checked
against a reference computed once in set-up from a full ``DeepSZDecoder``
decode of the same archive.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np

from repro.cli import synthetic_sparse_layers
from repro.core.decoder import DeepSZDecoder
from repro.core.encoder import DeepSZEncoder
from repro.obs.profile import DECODE_STAGES
from repro.obs.trace import Tracer
from repro.serve.gateway import ArchiveMLP
from repro.serve.runtime import ModelRuntime
from repro.store import ModelArchive, archive_bytes

SPEC = "fc6=614x1382:0.1,fc7=614x614:0.1,fc8=150x614:0.1"
ERROR_BOUND = 1e-3
CHUNK_SIZE = 16384
TOLERANCE = 1e-6
CONTAINERS = ("v1", "v2")

#: span name -> per-layer metric (mean self time per op, ms)
LAYERS = {
    "store.archive.open": "store.archive.open_ms",
    "serve.runtime.decode": "serve.runtime.decode_ms",
    "nn.forward": "nn.forward_ms",
    **{
        f"sz.decode.{stage}.{c}": f"sz.decode.{stage}_ms.{c}"
        for stage in DECODE_STAGES
        for c in CONTAINERS
    },
}
UNATTRIBUTED = "cold-start.unattributed_ms"


def reference_forward(weights: List[np.ndarray], x: np.ndarray) -> np.ndarray:
    """The MLP ``ArchiveMLP`` runs, over fully decoded dense weights."""
    h = np.asarray(x, dtype=np.float32)[None, :]
    for i, w in enumerate(weights):
        h = h @ w.T
        if i != len(weights) - 1:
            np.maximum(h, 0.0, out=h)
    return h


class ColdStartWorkload:
    name = "cold-start"
    layers = LAYERS
    unattributed = UNATTRIBUTED

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.setup_split: Dict[str, float] = {}

    def setup(self) -> None:
        layers = synthetic_sparse_layers(SPEC, seed=self.seed)
        bounds = {name: ERROR_BOUND for name in layers}
        self.sparse_layers = layers
        self.blobs: Dict[str, bytes] = {}
        self.references: Dict[str, np.ndarray] = {}
        rng = np.random.default_rng(self.seed + 1)
        first = next(iter(layers.values()))
        self.x = rng.standard_normal(first.shape[1]).astype(np.float32)
        dense = compressed = 0
        for container, chunk_size in zip(CONTAINERS, (None, CHUNK_SIZE)):
            model = DeepSZEncoder(chunk_size=chunk_size).encode(
                f"alexnet-fc-0.15-{container}", layers, bounds
            )
            blob = archive_bytes(model)
            decoded = DeepSZDecoder().decode(blob).weights
            self.blobs[container] = blob
            self.references[container] = reference_forward(
                [decoded[name] for name in layers], self.x
            )
            dense += model.dense_bytes
            compressed += model.compressed_bytes
        self.compression_ratio = dense / compressed
        # Warm-up: one checked op (first-call imports and caches).
        if not self.check(self.op()):
            raise RuntimeError("cold-start: the warm-up op fails its checks")

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for name, layer in self.sparse_layers.items():
            h.update(name.encode())
            h.update(layer.data.tobytes())
            h.update(layer.index.tobytes())
        h.update(self.x.tobytes())
        return h.hexdigest()

    def op(self) -> Dict[str, np.ndarray]:
        outputs = {}
        for container, blob in self.blobs.items():
            runtime = ModelRuntime(blob)
            try:
                outputs[container] = ArchiveMLP(runtime).forward(self.x)
            finally:
                runtime.close()
        return outputs

    def check(self, outputs: Dict[str, np.ndarray]) -> bool:
        for container, reference in self.references.items():
            got = outputs.get(container)
            if got is None or got.shape != reference.shape:
                return False
            if not np.max(np.abs(got - reference)) <= TOLERANCE:
                return False
        return True

    def traced_op(self, tracer: Tracer) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
        """The op with open, decode (split into codec stages) and forward
        under spans.  Decoding every layer before the forward pass does the
        same work as the lazy decode inside it, but in a span of its own."""
        root = tracer.start_span("cold-start.op")
        outputs = {}
        bytes_read = 0
        for container, blob in self.blobs.items():
            with root.child("store.archive.open"):
                archive = ModelArchive.from_bytes(blob)
            try:
                decode = root.child("serve.runtime.decode")
                runtime = ModelRuntime(archive)
                runtime.decode_all()
                decode.finish()
                stats = runtime.stats()
                bytes_read += stats.bytes_read
                # Stage times are counters, not intervals: lay them end to
                # end from the decode span's start so they nest under it.
                cursor = decode.start_s
                for stage in DECODE_STAGES:
                    seconds = stats.stage_seconds.get(stage, 0.0)
                    decode.child(f"sz.decode.{stage}.{container}", start_s=cursor).finish(
                        cursor + seconds
                    )
                    cursor += seconds
                with root.child("nn.forward"):
                    outputs[container] = ArchiveMLP(runtime).forward(self.x)
                runtime.close()
            finally:
                archive.close()
        root.finish()
        return outputs, {"serve.runtime.bytes_read": float(bytes_read)}

    def close(self) -> None:
        pass
