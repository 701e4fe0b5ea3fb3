"""Tests for the compressed-model encoder/decoder (Step 4)."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.core.decoder import DeepSZDecoder
from repro.core.encoder import CompressedModel, DeepSZEncoder
from repro.pruning import decode_sparse, encode_sparse, prune_weights
from repro.store import archive_bytes
from repro.utils.errors import DecompressionError, ValidationError

GOLDEN_V1 = Path(__file__).resolve().parent.parent / "golden" / "golden_model_v1.bin"


@pytest.fixture()
def sparse_layers(rng):
    layers = {}
    for name, shape, density in [("fc6", (128, 256), 0.09), ("fc7", (64, 128), 0.09), ("fc8", (16, 64), 0.25)]:
        w = rng.normal(0, 0.03, shape).astype(np.float32)
        pruned, _ = prune_weights(w, density)
        layers[name] = encode_sparse(pruned)
    return layers


@pytest.fixture()
def error_bounds():
    return {"fc6": 7e-3, "fc7": 7e-3, "fc8": 5e-3}


class TestEncoder:
    def test_encode_all_layers(self, sparse_layers, error_bounds):
        model = DeepSZEncoder().encode("test-net", sparse_layers, error_bounds)
        assert set(model.layers) == set(sparse_layers)
        assert model.network == "test-net"
        assert model.compressed_bytes == sum(l.compressed_bytes for l in model.layers.values())
        assert model.compression_ratio > 1.0
        assert model.error_bounds() == error_bounds

    def test_missing_error_bound_raises(self, sparse_layers):
        with pytest.raises(ValidationError):
            DeepSZEncoder().encode("x", sparse_layers, {"fc6": 1e-3})

    def test_layer_metadata(self, sparse_layers, error_bounds):
        model = DeepSZEncoder().encode("x", sparse_layers, error_bounds)
        layer = model.layers["fc6"]
        assert layer.shape == (128, 256)
        assert layer.nnz == sparse_layers["fc6"].nnz
        assert layer.dense_bytes == 128 * 256 * 4
        assert layer.bits_per_nonzero > 0
        assert layer.index_backend in ("zlib", "lzma", "bz2", "store")

    def test_deepsz_beats_csr(self, sparse_layers, error_bounds):
        """The whole point: SZ on the data array + lossless index beats 40-bit CSR."""
        model = DeepSZEncoder().encode("x", sparse_layers, error_bounds)
        for name, layer in model.layers.items():
            assert layer.compressed_bytes < sparse_layers[name].packed_bytes

    def test_encoding_time_recorded(self, sparse_layers, error_bounds):
        model = DeepSZEncoder().encode("x", sparse_layers, error_bounds)
        assert model.encoding_time.total > 0
        assert set(model.encoding_time.phases) == {f"encode:{n}" for n in sparse_layers}


class TestModelSerialization:
    def test_to_from_bytes_roundtrip(self, sparse_layers, error_bounds):
        model = DeepSZEncoder().encode("net", sparse_layers, error_bounds, expected_accuracy_loss=0.004)
        restored = CompressedModel.load(archive_bytes(model))
        assert restored.network == "net"
        assert restored.expected_accuracy_loss == pytest.approx(0.004)
        assert set(restored.layers) == set(model.layers)
        for name in model.layers:
            assert restored.layers[name].sz_payload == model.layers[name].sz_payload
            assert restored.layers[name].error_bound == model.layers[name].error_bound

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(DecompressionError):
            CompressedModel.load(b"not a model")

    def test_decoded_weights_identical_after_serialization(self, sparse_layers, error_bounds):
        model = DeepSZEncoder().encode("net", sparse_layers, error_bounds)
        restored = CompressedModel.load(archive_bytes(model))
        d1 = DeepSZDecoder().decode(model)
        d2 = DeepSZDecoder().decode(restored)
        for name in d1.weights:
            assert np.array_equal(d1.weights[name], d2.weights[name])


class TestDecoder:
    def test_error_bound_respected_per_layer(self, sparse_layers, error_bounds):
        model = DeepSZEncoder().encode("net", sparse_layers, error_bounds)
        decoded = DeepSZDecoder().decode(model)
        for name, sparse in sparse_layers.items():
            original = decode_sparse(sparse)
            recon = decoded.weights[name]
            assert recon.shape == original.shape
            # Stored (non-zero) entries obey the layer's error bound.
            nz = original != 0
            assert np.max(np.abs(recon[nz] - original[nz])) <= error_bounds[name] * (1 + 1e-5)
            # Pruned weights stay within the bound of zero.
            assert np.max(np.abs(recon[~nz])) <= error_bounds[name] * (1 + 1e-5)

    def test_timing_breakdown_has_three_phases(self, sparse_layers, error_bounds):
        model = DeepSZEncoder().encode("net", sparse_layers, error_bounds)
        decoded = DeepSZDecoder().decode(model)
        assert set(decoded.timing.phases) == {"lossless", "sz", "csr"}
        assert decoded.total_seconds > 0

    def test_apply_loads_weights_into_network(self, pruned_lenet300):
        pruned = pruned_lenet300
        bounds = {name: 1e-3 for name in pruned.sparse_layers}
        model = DeepSZEncoder().encode("LeNet-300-100", pruned.sparse_layers, bounds)
        target = pruned.network.clone()
        DeepSZDecoder().apply(model, target)
        for name in pruned.sparse_layers:
            original = pruned.network.get_weights(name)
            loaded = target.get_weights(name)
            assert np.max(np.abs(loaded - original)) <= 1e-3 * (1 + 1e-5)
            assert not np.array_equal(loaded, original)  # lossy, not identical


class TestCodecRegistryIntegration:
    """The encoder/decoder resolve data codecs through the registry."""

    def test_layer_records_data_codec(self, sparse_layers, error_bounds):
        model = DeepSZEncoder().encode("x", sparse_layers, error_bounds)
        assert all(layer.data_codec == "sz" for layer in model.layers.values())
        restored = CompressedModel.load(archive_bytes(model))
        assert all(layer.data_codec == "sz" for layer in restored.layers.values())

    def test_zfp_data_codec_round_trip(self, sparse_layers, error_bounds):
        model = DeepSZEncoder(data_codec="zfp").encode("x", sparse_layers, error_bounds)
        assert all(layer.data_codec == "zfp" for layer in model.layers.values())
        decoded = DeepSZDecoder().decode(model)
        for name, sl in sparse_layers.items():
            dense = decode_sparse(sl)
            mask = dense != 0
            err = np.abs(decoded.weights[name][mask] - dense[mask]).max()
            assert err <= error_bounds[name] + 1e-9

    def test_non_error_bounded_codec_rejected(self, sparse_layers):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DeepSZEncoder(data_codec="zlib")

    def test_chunking_requires_chunk_capable_codec(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DeepSZEncoder(data_codec="zfp", chunk_size=1000)

    def test_unknown_data_codec_rejected(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DeepSZEncoder(data_codec="does-not-exist")


class TestParallelEncodeDecode:
    """Layer fan-out with the workers knob: identical bytes and weights."""

    def test_worker_count_does_not_change_payloads(self, sparse_layers, error_bounds):
        serial = DeepSZEncoder(chunk_size=2048, workers=1).encode(
            "x", sparse_layers, error_bounds
        )
        parallel = DeepSZEncoder(chunk_size=2048, workers=2).encode(
            "x", sparse_layers, error_bounds
        )
        for name in sparse_layers:
            assert serial.layers[name].sz_payload == parallel.layers[name].sz_payload
            assert serial.layers[name].index_payload == parallel.layers[name].index_payload

    def test_parallel_decode_matches_serial(self, sparse_layers, error_bounds):
        model = DeepSZEncoder(chunk_size=2048).encode("x", sparse_layers, error_bounds)
        d1 = DeepSZDecoder(workers=1).decode(model)
        d2 = DeepSZDecoder(workers=2).decode(model)
        for name in sparse_layers:
            np.testing.assert_array_equal(d1.weights[name], d2.weights[name])

    def test_invalid_workers(self):
        with pytest.raises(ValidationError):
            DeepSZEncoder(workers=0)
        with pytest.raises(ValidationError):
            DeepSZDecoder(workers=0)

    def test_encoding_time_phases_present_with_workers(self, sparse_layers, error_bounds):
        model = DeepSZEncoder(workers=2).encode("x", sparse_layers, error_bounds)
        assert set(model.encoding_time.as_dict()) == {
            f"encode:{name}" for name in sparse_layers
        }


class TestGoldenModelBlob:
    """A compressed-model blob from the pre-registry era still decodes."""

    def test_golden_model_decodes_bit_exactly(self):
        model = CompressedModel.load(GOLDEN_V1.read_bytes())
        assert model.network == "golden-net"
        layer = model.layers["fc1"]
        assert layer.data_codec == "sz"  # defaulted for pre-registry blobs
        decoded = DeepSZDecoder().decode(model)
        weights = decoded.weights["fc1"]
        assert weights.shape == (64, 48)
        # Re-encoding the reconstructed weights at the same bound reproduces
        # the golden index bytes and, bit for bit, the decoded weights
        # (quantized values re-quantize to the same codes).  The golden SZ
        # payload holds a per-block adaptive stream; a fresh encode makes the
        # per-stream choice, so its bytes differ.
        pruned = weights  # already pruned: zeros where weights were dropped
        sl = encode_sparse(pruned)
        fresh = DeepSZEncoder().encode("golden-net", {"fc1": sl}, {"fc1": 2e-3})
        assert fresh.layers["fc1"].index_payload == layer.index_payload
        np.testing.assert_array_equal(
            DeepSZDecoder().decode(fresh).weights["fc1"].view(np.uint32),
            weights.view(np.uint32),
        )


class TestV1PayloadChecksums:
    """v1 blobs carry per-payload CRC32s: corruption fails with the layer named."""

    def test_corrupted_sz_payload_names_layer(self, v1_crc_blob):
        blob = bytearray(v1_crc_blob)
        # Flip a byte inside fc6's sz payload: the sections follow the JSON
        # header in insertion order, so fc6/sz is the first payload.
        header_len = int.from_bytes(blob[:8], "little")
        blob[8 + header_len + 4] ^= 0xFF
        with pytest.raises(DecompressionError, match="'fc6' sz segment"):
            CompressedModel.load(bytes(blob))

    def test_truncated_blob_is_a_clean_decompression_error(self, v1_crc_blob):
        with pytest.raises(DecompressionError):
            CompressedModel.load(v1_crc_blob[: len(v1_crc_blob) - len(v1_crc_blob) // 4])

    def test_pre_checksum_blobs_still_load(self):
        """The golden pre-checksum blob has no crc32 metadata and must load."""
        blob = GOLDEN_V1.read_bytes()
        header_len = int.from_bytes(blob[:8], "little")
        assert b"crc32" not in blob[8 : 8 + header_len]  # really pre-checksum
        model = CompressedModel.load(blob)
        assert model.network == "golden-net"


class TestDecodeErrorContract:
    def test_unknown_data_codec_in_blob_raises_decompression_error(
        self, sparse_layers, error_bounds
    ):
        model = DeepSZEncoder().encode("x", sparse_layers, error_bounds)
        # A foreign or bit-rotted codec name must fail with the decode
        # error type, not a configuration error.
        model.layers["fc7"] = dataclasses.replace(model.layers["fc7"], data_codec="xx")
        with pytest.raises(DecompressionError, match="unknown codec"):
            DeepSZDecoder().decode(model)


class TestChunkSizeValidation:
    def test_invalid_chunk_size_fails_at_construction(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DeepSZEncoder(chunk_size=0)
        with pytest.raises(ConfigurationError):
            DeepSZEncoder(chunk_size=-5)

    def test_unknown_index_candidate_fails_at_construction(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DeepSZEncoder(index_lossless_candidates=("zlib", "no-such"))
