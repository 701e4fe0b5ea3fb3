"""Workload ``compress``: back-to-back DeepSZ compressions, one caller.

Set-up trains and prunes LeNet-300-100 with a fixed recipe, so every seed
compresses the same network and the work per op does not depend on the
seed.  The seed permutes the 1200-sample test set the op assesses against;
accuracy is order-invariant, so the chosen bounds and the archive must not
change with it either.

One op is ``DeepSZ(...).compress(pruned, test)`` followed by
``archive_bytes(result.model)``.  Every op is checked: the archive
round-trips through ``ModelArchive``, every decoded weight lies within its
layer's chosen error bound, and the archive is byte-identical to the one
the warm-up op produced.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Tuple

import numpy as np

from repro.core import DeepSZ, DeepSZConfig
from repro.core.assessment import assess_network
from repro.core.decoder import DeepSZDecoder
from repro.core.encoder import DeepSZEncoder
from repro.core.optimizer import OptimizerConfig, optimize_error_bounds
from repro.data import mnist_like, train_test_split
from repro.nn import SGDConfig, SGDTrainer, models
from repro.nn.specs import PAPER_PRUNING_RATIOS
from repro.obs.trace import Tracer
from repro.pruning import PruningConfig, prune_network
from repro.pruning.sparse_format import decode_sparse
from repro.store import ModelArchive, archive_bytes

EXPECTED_ACCURACY_LOSS = 0.01

#: span name -> per-layer metric (mean self time per op, ms)
LAYERS = {
    "core.assessment": "core.assessment.ms",
    "core.optimizer": "core.optimizer.ms",
    "core.encoder": "core.encoder.ms",
    "store.archive.write": "store.archive.write_ms",
    "core.decoder": "core.decoder.ms",
    "nn.evaluate": "nn.evaluate.ms",
}
UNATTRIBUTED = "compress.unattributed_ms"


def _config() -> DeepSZConfig:
    return DeepSZConfig(expected_accuracy_loss=EXPECTED_ACCURACY_LOSS, workers=1)


class CompressWorkload:
    name = "compress"
    layers = LAYERS
    unattributed = UNATTRIBUTED

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.setup_split: Dict[str, float] = {}

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        # The recipe of benchmarks/bench_assessment.py::_workload().
        ds = mnist_like(samples_per_class=400, seed=7)
        train, test = train_test_split(ds, test_fraction=0.3, seed=8)
        net = models.lenet_300_100(seed=21)
        start = time.perf_counter()
        SGDTrainer(
            SGDConfig(epochs=4, learning_rate=0.03, weight_decay=1e-3, seed=22)
        ).train(net, train.images, train.labels)
        self.setup_split["nn.train_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.pruned = prune_network(
            net,
            PruningConfig(
                ratios=PAPER_PRUNING_RATIOS["LeNet-300-100"],
                retrain=True,
                retrain_config=SGDConfig(
                    epochs=2, learning_rate=0.02, weight_decay=1e-4, seed=23
                ),
            ),
            train_images=train.images,
            train_labels=train.labels,
        )
        self.setup_split["pruning.prune_s"] = time.perf_counter() - start
        order = np.random.default_rng(self.seed).permutation(len(test.images))
        self.images = np.ascontiguousarray(test.images[order])
        self.labels = np.ascontiguousarray(test.labels[order])
        # Exact pruned weights: what every decoded weight is checked against.
        self.reference = {
            name: decode_sparse(layer) for name, layer in self.pruned.sparse_layers.items()
        }
        # Warm-up op; its archive is the one every later op must reproduce.
        self.expected_digest = None
        result = DeepSZ(_config()).compress(self.pruned, self.images, self.labels)
        blob = archive_bytes(result.model)
        if not self.check(blob):
            raise RuntimeError("compress: the warm-up archive fails its checks")
        self.expected_digest = hashlib.sha256(blob).hexdigest()
        self.compression_ratio = float(result.compression_ratio)
        self.accuracy_loss = float(result.top1_loss)

    def input_digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.images.tobytes())
        h.update(self.labels.tobytes())
        for name, layer in sorted(self.pruned.sparse_layers.items()):
            h.update(name.encode())
            h.update(layer.data.tobytes())
            h.update(layer.index.tobytes())
        return h.hexdigest()

    # -- the op ------------------------------------------------------------
    def op(self) -> bytes:
        result = DeepSZ(_config()).compress(self.pruned, self.images, self.labels)
        return archive_bytes(result.model)

    def check(self, blob: bytes) -> bool:
        """Round trip, per-layer error bound, and determinism of one archive."""
        if self.expected_digest is not None:
            if hashlib.sha256(blob).hexdigest() != self.expected_digest:
                return False
        with ModelArchive.from_bytes(blob) as archive:
            model = archive.load_model()
        if set(model.layers) != set(self.reference):
            return False
        weights = DeepSZDecoder().decode(model).weights
        for name, exact in self.reference.items():
            bound = model.layers[name].error_bound
            scale = float(np.max(np.abs(exact))) if exact.size else 0.0
            # The codec holds the bound in float64; the float32 cast of the
            # reconstruction may add half an ULP of the value.
            tolerance = bound * (1 + 1e-5) + np.finfo(np.float32).eps * scale
            error = np.max(np.abs(weights[name].astype(np.float64) - exact))
            if not error <= tolerance:
                return False
        return True

    def traced_op(self, tracer: Tracer) -> Tuple[bytes, Dict[str, float]]:
        """The public steps ``DeepSZ.compress`` makes, in its order, each
        under a span; returns the archive and the op's counts."""
        cfg = _config()
        network, sparse = self.pruned.network, self.pruned.sparse_layers
        root = tracer.start_span("compress.op")
        with root.child("core.assessment"):
            assessment = assess_network(
                network, sparse, self.images, self.labels,
                config=cfg.assessment_config(), workers=cfg.workers,
            )
        with root.child("core.optimizer"):
            plan = optimize_error_bounds(
                assessment.candidates(),
                OptimizerConfig(
                    expected_accuracy_loss=cfg.expected_accuracy_loss,
                    resolution=cfg.optimizer_resolution,
                ),
            )
        with root.child("core.encoder"):
            model = DeepSZEncoder(
                capacity=cfg.capacity,
                sz_lossless=cfg.sz_lossless,
                index_lossless_candidates=cfg.index_lossless_candidates,
                data_codec=cfg.data_codec,
                chunk_size=cfg.chunk_size,
                workers=cfg.workers,
            ).encode(
                network.name, sparse, plan.error_bounds,
                expected_accuracy_loss=cfg.expected_accuracy_loss,
            )
        reconstructed = network.clone()
        with root.child("core.decoder"):
            DeepSZDecoder(workers=cfg.workers).apply(model, reconstructed)
        with root.child("nn.evaluate"):
            kwargs = dict(batch_size=cfg.eval_batch_size, topk=cfg.topk)
            baseline = network.evaluate(self.images, self.labels, **kwargs)
            compressed = reconstructed.evaluate(self.images, self.labels, **kwargs)
        with root.child("store.archive.write"):
            blob = archive_bytes(model)
        root.finish()
        counts = {
            "core.assessment.trials": float(assessment.tests_performed),
            "core.assessment.evaluations": float(assessment.evaluations),
            "core.assessment.useful_ratio": assessment.tests_performed / assessment.evaluations,
            "compress.accuracy_loss": float(baseline[1] - compressed[1]),
        }
        return blob, counts

    def close(self) -> None:
        pass
