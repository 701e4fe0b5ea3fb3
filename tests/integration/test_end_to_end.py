"""Integration tests: the full DeepSZ story on a real (small) trained network."""

import numpy as np
import pytest

from repro.baselines import (
    DeepCompressionConfig,
    DeepCompressionEncoder,
    WeightlessConfig,
    WeightlessEncoder,
)
from repro.core import DeepSZ, DeepSZConfig
from repro.core.decoder import DeepSZDecoder
from repro.core.encoder import CompressedModel
from repro.nn import models
from repro.nn.serialize import network_to_bytes
from repro.store import archive_bytes


@pytest.fixture(scope="module")
def deepsz_result(pruned_lenet300, small_dataset):
    _, test = small_dataset
    deepsz = DeepSZ(DeepSZConfig(expected_accuracy_loss=0.01, topk=(1, 5)))
    return deepsz.compress(pruned_lenet300, test.images, test.labels)


class TestCompressedModelServesInference:
    def test_decode_into_fresh_network_and_predict(self, deepsz_result, small_dataset):
        """A user ships the container, rebuilds the net elsewhere, and runs inference."""
        _, test = small_dataset
        blob = archive_bytes(deepsz_result.model)

        # "Edge device": fresh architecture, weights only from the container.
        edge_net = models.lenet_300_100(seed=999)
        model = CompressedModel.load(blob)
        DeepSZDecoder().apply(model, edge_net)
        # Conv-free LeNet-300-100 has every parameter in fc-layers, so the
        # decoded network must essentially match the compressed accuracy.
        acc = edge_net.accuracy(test.images, test.labels)
        assert acc >= deepsz_result.compressed_accuracy[1] - 0.05

    def test_container_smaller_than_dense_and_csr(self, deepsz_result, pruned_lenet300):
        blob = archive_bytes(deepsz_result.model)
        assert len(blob) < pruned_lenet300.packed_fc_bytes
        assert len(blob) < pruned_lenet300.dense_fc_bytes
        # The serialized container is close to the sum of per-layer streams.
        assert len(blob) <= deepsz_result.compressed_fc_bytes * 1.2 + 4096

    def test_compression_ratio_band(self, deepsz_result):
        """LeNet-300-100 lands in the tens; the paper reports 55.8x at paper scale."""
        assert 15 <= deepsz_result.compression_ratio <= 90

    def test_accuracy_within_expected_loss(self, deepsz_result):
        assert deepsz_result.top1_loss <= 0.02


class TestThreeWayComparison:
    """DeepSZ vs Deep Compression vs Weightless on the same pruned network."""

    def test_deepsz_beats_deep_compression_on_ratio(self, deepsz_result, pruned_lenet300):
        dc = DeepCompressionEncoder(DeepCompressionConfig(bits=5))
        dc_results = dc.encode_network(pruned_lenet300.sparse_layers)
        dc_bytes = sum(r.compressed_bytes for r in dc_results.values())
        assert deepsz_result.compressed_fc_bytes < dc_bytes

    def test_weightless_compresses_only_one_layer(self, pruned_lenet300):
        wl = WeightlessEncoder(WeightlessConfig(seed=1))
        target = wl.pick_target_layer(pruned_lenet300.sparse_layers)
        assert target == "ip1"  # the largest fc-layer of LeNet-300-100
        result = wl.encode_layer(target, pruned_lenet300.sparse_layers[target])
        assert result.ratio > 1.0

    def test_decoding_weightless_is_slower_than_deepsz(self, deepsz_result, pruned_lenet300):
        """Figure 7b ordering: Bloomier decode >> SZ decode on the same layer."""
        import time

        wl = WeightlessEncoder(WeightlessConfig(seed=2))
        target = wl.pick_target_layer(pruned_lenet300.sparse_layers)
        payload = wl.encode_layer(target, pruned_lenet300.sparse_layers[target]).payload

        start = time.perf_counter()
        wl.decode_layer(payload)
        weightless_time = time.perf_counter() - start

        deepsz_time = deepsz_result.decoding_timing.total
        assert weightless_time > deepsz_time * 0.5  # robust ordering check


class TestNoRetrainingNeeded:
    def test_deepsz_accuracy_without_any_retraining(self, deepsz_result, pruned_lenet300, small_dataset):
        """The headline claim: decode-and-run accuracy stays near the baseline

        without any fine-tuning, unlike quantization at matched bit width
        (Table 5)."""
        _, test = small_dataset
        # Deep Compression at the bit width DeepSZ's *data arrays* effectively
        # use (the index arrays cost both methods the same), as in Table 5.
        largest = max(
            deepsz_result.model.layers.values(), key=lambda layer: layer.nnz
        )
        data_bits = 8.0 * len(largest.sz_payload) / largest.nnz
        bits = int(np.clip(round(data_bits), 2, 6))
        dc = DeepCompressionEncoder(DeepCompressionConfig(bits=bits))
        dc_results = dc.encode_network(pruned_lenet300.sparse_layers)
        weights, _ = dc.decode_network(dc_results)
        quantized_net = pruned_lenet300.network.clone()
        for name, dense in weights.items():
            quantized_net.set_weights(name, dense)
        dc_acc = quantized_net.accuracy(test.images, test.labels)
        baseline = deepsz_result.baseline_accuracy[1]
        deepsz_loss = baseline - deepsz_result.compressed_accuracy[1]
        dc_loss = baseline - dc_acc
        # DeepSZ's loss never exceeds matched-rate codebook quantization by
        # more than measurement noise (a few samples of the small test set);
        # usually it is clearly smaller.
        assert deepsz_loss <= dc_loss + 0.015
