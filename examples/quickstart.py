#!/usr/bin/env python
"""Quickstart: compress LeNet-300-100 with DeepSZ in a few lines.

This is the smallest end-to-end tour of the public API:

1. build a synthetic MNIST-like dataset and train LeNet-300-100;
2. prune the fc-layers (magnitude threshold + masked retraining);
3. run DeepSZ (error-bound assessment -> optimization -> encoding);
4. decode the compressed model into a fresh network and check its accuracy.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import format_bytes
from repro.core import DeepSZ, DeepSZConfig
from repro.core.decoder import DeepSZDecoder
from repro.core.encoder import CompressedModel
from repro.data import mnist_like, train_test_split
from repro.nn import SGDConfig, SGDTrainer, models
from repro.store import archive_bytes


def main() -> None:
    # ------------------------------------------------------------------ data
    dataset = mnist_like(samples_per_class=300, seed=1)
    train, test = train_test_split(dataset, test_fraction=0.3, seed=2)
    print(f"dataset: {len(train)} training / {len(test)} test images, "
          f"{dataset.num_classes} classes")

    # ----------------------------------------------------------------- train
    network = models.lenet_300_100(seed=3)
    trainer = SGDTrainer(SGDConfig(epochs=8, learning_rate=0.03, weight_decay=1e-3, seed=4))
    trainer.train(network, train.images, train.labels)
    dense_accuracy = network.accuracy(test.images, test.labels)
    print(f"trained LeNet-300-100: top-1 accuracy {dense_accuracy:.2%}, "
          f"fc-layer storage {format_bytes(network.fc_parameter_bytes())}")

    # ------------------------------------------------------- DeepSZ pipeline
    deepsz = DeepSZ(DeepSZConfig(expected_accuracy_loss=0.01, topk=(1,)))
    result = deepsz.run(
        network,
        pruning_ratios={"ip1": 0.08, "ip2": 0.09, "ip3": 0.26},
        train_images=train.images,
        train_labels=train.labels,
        test_images=test.images,
        test_labels=test.labels,
    )

    print("\nchosen error bounds per fc-layer:")
    for layer, report in result.layer_reports.items():
        print(f"  {layer}: error bound {report.error_bound:.0e}, "
              f"{format_bytes(report.original_bytes)} -> {format_bytes(report.compressed_bytes)} "
              f"({report.deepsz_ratio:.1f}x)")
    print(f"\noverall: pruning alone {result.csr_compression_ratio:.1f}x, "
          f"DeepSZ {result.compression_ratio:.1f}x")
    print(f"accuracy: baseline {result.baseline_accuracy[1]:.2%} -> "
          f"compressed {result.compressed_accuracy[1]:.2%} "
          f"(loss {result.top1_loss:.2%})")

    # --------------------------------------------------- ship, decode, serve
    blob = archive_bytes(result.model)
    print(f"\n.dsz archive of the compressed model: {format_bytes(len(blob))}")

    edge_network = models.lenet_300_100(seed=999)  # fresh, untrained weights
    DeepSZDecoder().apply(CompressedModel.load(blob), edge_network)
    edge_accuracy = edge_network.accuracy(test.images, test.labels)
    print(f"decoded on the 'edge device': top-1 accuracy {edge_accuracy:.2%} "
          f"(decode time {result.decoding_timing.total * 1e3:.1f} ms)")


if __name__ == "__main__":
    main()
