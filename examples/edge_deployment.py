#!/usr/bin/env python
"""Edge-deployment scenario: ship an ImageNet-class model over a slow link.

The paper's motivating use case (Section 1): models are trained in the cloud
and distributed to bandwidth-limited edge devices (2G links, ~1 Mbit/s), so a
hundreds-of-megabytes VGG-16 is impractical to push.  This example plays that
scenario out on the AlexNet-mini / synthetic-ImageNet stand-in:

* the "cloud" trains, prunes, DeepSZ-encodes the model, and writes the
  random-access ``.dsz`` archive (what actually travels: per-layer segments
  plus the footer-indexed manifest, so the reported transfer time includes
  the manifest overhead);
* the compressed archive is "transmitted" (we report transfer time at 2G
  and 4G rates for both the dense model and the archive);
* the "edge device" opens the archive through a lazy
  :class:`repro.serve.ModelRuntime`: the first fc layer is usable after one
  segment read + decode (time-to-first-layer), inference is possible as
  soon as the fc layers it needs are decoded (time-to-first-inference), and
  warm requests hit the decoded-layer cache — contrast with the v1
  experience of decoding the whole monolithic blob up front;
* finally the device switches to **sparse compressed-domain serving**
  (``ModelRuntime(..., sparse=True)``): decoding stops at the two-array
  form, the fc layers run CSC matmuls directly on the pruned weights, and
  the resident cache footprint drops ~6x — more models per byte of edge
  RAM, and faster batches at the ~10% paper density;
* a **region gateway** then fronts a small fleet: the archive goes into a
  content-addressed :class:`repro.store.ModelStore`, and a
  :class:`repro.serve.Gateway` hosts dense and sparse variants of the
  model behind replica pools — requests shard by policy (least-loaded for
  the dense pool, consistent-hash so a device's stream sticks to one warm
  replica for the sparse pool).  The gateway admits 1-D feature vectors,
  so devices send flattened images and each replica's network restores
  the image shape before its conv stack.  A deliberately tiny admission queue
  shows overload degrading into fast-fail ``GatewayOverloaded`` rejections
  instead of a latency collapse.

Run with::

    python examples/edge_deployment.py
"""

from __future__ import annotations

import tempfile
import time

from repro.analysis import format_bytes
from repro.core import DeepSZ, DeepSZConfig
from repro.core.decoder import DeepSZDecoder
import numpy as np

from repro.nn import Network, models, zoo
from repro.nn.layers import Layer
from repro.serve import Gateway, ModelRuntime, Server
from repro.store import ModelArchive, ModelStore, archive_bytes
from repro.utils.errors import GatewayOverloaded


def transfer_seconds(num_bytes: int, bits_per_second: float) -> float:
    return 8.0 * num_bytes / bits_per_second


class Unflatten(Layer):
    """Reshape a batch of flat feature vectors back to ``shape`` per sample."""

    def __init__(self, name: str, shape: tuple) -> None:
        super().__init__(name)
        self.shape = tuple(shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return x.reshape((x.shape[0], *self.shape))


def main() -> None:
    # ----------------------------------------------------------- cloud side
    print("== cloud: train + prune + DeepSZ-encode (cached after first run) ==")
    pruned, train, test = zoo.pruned_model("alexnet-mini")
    deepsz = DeepSZ(
        DeepSZConfig(expected_accuracy_loss=0.01, topk=(1, 5), assessment_samples=300)
    )
    result = deepsz.compress(pruned, test.images, test.labels)
    archive_blob = archive_bytes(result.model)

    dense_bytes = result.original_fc_bytes
    print(f"fc-layer storage: dense {format_bytes(dense_bytes)} -> "
          f".dsz archive {format_bytes(len(archive_blob))} "
          f"({dense_bytes / len(archive_blob):.1f}x, manifest overhead included)")
    print(f"error bounds: { {k: f'{v:.0e}' for k, v in result.plan.error_bounds.items()} }")

    # ------------------------------------------------------------- the link
    print("\n== transfer over bandwidth-limited links ==")
    for link, rate in [("2G (1 Mbit/s)", 1e6), ("4G (20 Mbit/s)", 20e6)]:
        dense_t = transfer_seconds(dense_bytes, rate)
        comp_t = transfer_seconds(len(archive_blob), rate)
        print(f"  {link:<16} dense {dense_t:8.1f} s   archive {comp_t:6.1f} s   "
              f"({dense_t / comp_t:.0f}x faster)")

    # ------------------------------------------------------------ edge side
    print("\n== edge device: lazy decode through the serving runtime ==")
    edge_net = models.alexnet_mini(num_classes=test.num_classes, seed=123)
    # Conv layers are small and ship uncompressed (they are ~4% of storage);
    # copy them over, then serve the fc-layers from the archive.
    for layer in pruned.network.layers:
        if layer.params and layer.name not in result.model.layers:
            edge_net[layer.name].params = {k: v.copy() for k, v in layer.params.items()}

    # Baseline: the v1 experience — decode everything before anything runs.
    start = time.perf_counter()
    full = DeepSZDecoder().decode(ModelArchive.from_bytes(archive_blob))
    full_decode_s = time.perf_counter() - start

    # Lazy: decode layers on demand; the first layer is usable without
    # reading (or checksumming) any sibling segment.
    runtime = ModelRuntime(archive_blob)
    fc_names = runtime.layer_names
    start = time.perf_counter()
    runtime.layer(fc_names[0])
    first_layer_s = time.perf_counter() - start
    runtime.load_into(edge_net)
    first_inference = edge_net.forward(test.images[:1])
    ttfi_s = time.perf_counter() - start
    assert first_inference.shape[0] == 1

    print(f"full decode before serving : {full_decode_s * 1e3:7.1f} ms "
          f"({ {k: f'{v * 1e3:.0f} ms' for k, v in full.timing.phases.items()} })")
    print(f"time to first layer (lazy) : {first_layer_s * 1e3:7.1f} ms "
          f"({fc_names[0]!r} only)")
    print(f"time to first inference    : {ttfi_s * 1e3:7.1f} ms")
    stats = runtime.stats()
    print(f"runtime: {stats.decodes} layer decodes, "
          f"cache hit rate {stats.cache.hit_rate:.0%} "
          f"({format_bytes(stats.cache.current_bytes)} cached)")

    # -------------------------------------------------- serve some traffic
    print("\n== edge device: batched serving ==")
    with Server(edge_net, runtime, batch_size=64, max_batch_delay=0.002) as server:
        futures = [server.submit(image) for image in test.images[:256]]
        for future in futures:
            future.result()
        server_stats = server.stats()
    print(f"served {server_stats.requests} requests in "
          f"{server_stats.elapsed_seconds:.2f} s "
          f"({server_stats.throughput_rps:.0f} req/s, "
          f"mean batch {server_stats.mean_batch_size:.1f}, "
          f"latency p50/p99 {server_stats.latencies_ms.get('p50', 0):.1f}/"
          f"{server_stats.latencies_ms.get('p99', 0):.1f} ms)")

    # ------------------------------------- sparse compressed-domain serving
    print("\n== edge device: sparse compressed-domain serving ==")
    sparse_runtime = ModelRuntime(archive_blob, sparse=True)
    sparse_net = edge_net.clone()
    start = time.perf_counter()
    sparse_runtime.load_into(sparse_net)
    sparse_load_s = time.perf_counter() - start
    dense_resident = runtime.stats().cache.current_bytes
    sparse_resident = sparse_runtime.stats().cache.current_bytes
    print(f"resident fc weights        : dense {format_bytes(dense_resident)} -> "
          f"sparse {format_bytes(sparse_resident)} "
          f"({dense_resident / sparse_resident:.1f}x less edge RAM)")
    print(f"sparse decode + install    : {sparse_load_s * 1e3:7.1f} ms "
          f"(stops at the two-array form, no densify)")
    probs_dense = edge_net.forward(test.images[:64])
    probs_sparse = sparse_net.forward(test.images[:64])
    print(f"dense vs sparse outputs    : max |diff| "
          f"{float(abs(probs_dense - probs_sparse).max()):.1e}")
    with Server(sparse_net, sparse_runtime, batch_size=64, max_batch_delay=0.002) as server:
        for future in server.submit_many(list(test.images[:256])):
            future.result()
        sparse_stats = server.stats()
    print(f"served {sparse_stats.requests} requests in "
          f"{sparse_stats.elapsed_seconds:.2f} s "
          f"({sparse_stats.throughput_rps:.0f} req/s vs dense "
          f"{server_stats.throughput_rps:.0f} req/s, "
          f"mean batch {sparse_stats.mean_batch_size:.1f})")

    evaluation = edge_net.evaluate(test.images, test.labels, topk=(1, 5))
    sparse_eval = sparse_net.evaluate(test.images, test.labels, topk=(1, 5))
    baseline = result.baseline_accuracy
    print(f"\naccuracy on the edge: top-1 {evaluation[1]:.2%} (cloud baseline {baseline[1]:.2%}), "
          f"top-5 {evaluation[5]:.2%} (baseline {baseline.get(5, 0):.2%})")
    print(f"sparse-serving accuracy: top-1 {sparse_eval[1]:.2%}, top-5 {sparse_eval[5]:.2%} "
          f"(identical execution to within float32 rounding)")

    # ----------------------------------- region gateway: a multi-model fleet
    print("\n== region gateway: dense + sparse pools behind one front door ==")
    with tempfile.TemporaryDirectory(prefix="edge-store-") as store_dir:
        store = ModelStore(store_dir)
        digest = store.put_bytes(archive_blob, network="alexnet-mini")
        print(f"archive stored as sha256:{digest[:16]}…")

        # Devices send flattened images (the gateway admits 1-D samples);
        # each replica's network restores the image shape up front.
        flat_images = test.images.reshape(len(test.images), -1)

        def image_network() -> Network:
            return Network(
                [Unflatten("unflatten", test.images.shape[1:]), *edge_net.clone().layers]
            )

        gateway = Gateway(store=store)
        # Both pools resolve the same content digest from the store; each
        # replica gets its own runtime (independent decoded-layer cache)
        # and its own clone of the edge network.
        gateway.add_model(
            "alexnet-dense", digest=digest[:12], replicas=2,
            network_factory=image_network, policy="least-loaded",
            max_queue_depth=512, batch_size=64,
        )
        gateway.add_model(
            "alexnet-sparse", digest=digest[:12], replicas=2, sparse=True,
            network_factory=image_network, policy="consistent-hash",
            max_queue_depth=512, batch_size=64,
        )
        with gateway:
            futures = []
            for i, image in enumerate(flat_images[:256]):
                model = "alexnet-dense" if i % 2 == 0 else "alexnet-sparse"
                # The shard key is the requesting device: consistent-hash
                # keeps each device on one replica's warm cache.
                futures.append(gateway.submit(model, image, key=f"device-{i % 32}"))
            for future in futures:
                future.result()
            fleet = gateway.stats()
        for name, model_stats in fleet.models.items():
            spread = "/".join(str(r.dispatched) for r in model_stats.replicas)
            print(f"  {name:<14} {model_stats.throughput_rps:6.0f} req/s, "
                  f"p99 {model_stats.latencies_ms.get('p99', 0.0):5.1f} ms, "
                  f"replica spread {spread}, "
                  f"resident {format_bytes(model_stats.cache_bytes)}")
        print(f"fleet: {fleet.completed} served, {fleet.failures} failures, "
              f"resident weights {format_bytes(fleet.cache_bytes)} across "
              f"{sum(len(m.replicas) for m in fleet.models.values())} replicas")

        # Overload: a tiny admission queue sheds a burst instead of queueing
        # it — rejected requests fail in microseconds with a 429-style
        # error, admitted ones keep their latency.
        gateway.add_model(
            "alexnet-burst", digest=digest[:12], replicas=1,
            network_factory=image_network, max_queue_depth=8,
            max_concurrency=1, batch_size=8,
        )
        rejected = 0
        with gateway:
            burst = [None] * 96
            for i, image in enumerate(flat_images[:96]):
                try:
                    burst[i] = gateway.submit("alexnet-burst", image)
                except GatewayOverloaded:
                    rejected += 1
            for future in burst:
                if future is not None:
                    future.result()
            burst_stats = gateway.stats().models["alexnet-burst"]
        print(f"overload burst: 96 offered -> {burst_stats.submitted} admitted, "
              f"{rejected} fast-fail rejected "
              f"({burst_stats.rejection_rate:.0%}), admitted p99 "
              f"{burst_stats.latencies_ms.get('p99', 0.0):.1f} ms")
        gateway.close()


if __name__ == "__main__":
    main()
