"""Robustness tests for the chunked SZ v2 container.

Covers the satellite checklist: empty arrays, single-chunk payloads,
chunk-boundary sizes, all-outlier chunks, v1 backward-compatible decode
(including golden payloads produced by the pre-chunking code), and
truncated-payload error paths.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.sz.compressor import SZCompressor, compress, decompress
from repro.sz.config import SZConfig
from repro.utils.bytesio import read_named_sections, write_named_sections
from repro.utils.errors import ConfigurationError, DecompressionError

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: golden_sz_v1_<name>.bin -> the (predictor, lossless) it was encoded with
GOLDEN_CONFIGS = {
    "adaptive": ("adaptive", "zlib"),
    "lorenzo": ("lorenzo", "zlib"),
    "none": ("none", "zlib"),
    "best": ("adaptive", "best"),
}


def _bound_tolerance(data, eb):
    """Bound + half-ULP slack: the codecs guarantee the bound in double
    precision; the float32 cast of the output can add half a ULP of the
    value itself (same convention as tests/properties/test_codec_properties)."""
    import numpy as _np

    scale = float(_np.max(_np.abs(data))) if data.size else 0.0
    return eb * (1 + 1e-5) + _np.finfo(_np.float32).eps * scale


def golden_input() -> np.ndarray:
    """The array the golden v1 payloads were generated from (seeded RNG)."""
    rng = np.random.default_rng(1234)
    data = (rng.standard_normal(2000) * 0.05).astype(np.float32)
    data[::97] *= 50.0
    return data


@pytest.fixture
def payload_data():
    rng = np.random.default_rng(99)
    return (rng.standard_normal(10_000) * 0.2).astype(np.float32)


class TestChunkedRoundTrip:
    @pytest.mark.parametrize("size", [0, 1, 2, 999, 1000, 1001, 2000, 5003])
    def test_boundary_sizes(self, size):
        rng = np.random.default_rng(size)
        data = (rng.standard_normal(size) * 0.1).astype(np.float32)
        cfg = SZConfig(error_bound=1e-3, chunk_size=1000)
        res = SZCompressor(cfg).compress(data)
        out = SZCompressor().decompress(res.payload)
        assert out.size == size
        if size:
            assert np.abs(out - data).max() <= _bound_tolerance(data, 1e-3)
        # num_chunks mirrors the container meta exactly: 0 for an empty array.
        assert res.num_chunks == -(-size // 1000)

    def test_empty_array(self):
        res = SZCompressor(SZConfig(chunk_size=64)).compress(np.zeros(0, np.float32))
        out = SZCompressor().decompress(res.payload)
        assert out.size == 0 and out.dtype == np.float32

    def test_single_chunk_still_v2_container(self, payload_data):
        res = SZCompressor(SZConfig(error_bound=1e-3, chunk_size=1 << 20)).compress(
            payload_data
        )
        meta, _ = read_named_sections(res.payload)
        assert meta["magic"] == "repro-sz-v2"
        assert meta["num_chunks"] == 1
        out = SZCompressor().decompress(res.payload)
        assert np.abs(out - payload_data).max() <= _bound_tolerance(payload_data, 1e-3)

    def test_all_outlier_chunks(self):
        # Tiny capacity forces every value through the unpredictable path.
        rng = np.random.default_rng(3)
        data = (rng.standard_normal(500) * 100).astype(np.float32)
        cfg = SZConfig(error_bound=1e-6, capacity=4, chunk_size=100, predictor="none")
        res = SZCompressor(cfg).compress(data)
        assert res.outlier_count == data.size
        out = SZCompressor().decompress(res.payload)
        np.testing.assert_array_equal(out, data)  # outliers are stored exactly

    def test_rel_mode_uses_global_range(self):
        # A REL bound must resolve against the whole array, not per chunk:
        # chunk 0 (tiny values) and chunk 1 (huge values) share one bound.
        data = np.concatenate(
            [np.linspace(0, 1e-3, 500), np.linspace(0, 100.0, 500)]
        ).astype(np.float32)
        cfg = SZConfig(error_bound=1e-4, mode="rel", chunk_size=500)
        res = SZCompressor(cfg).compress(data)
        v1 = SZCompressor(SZConfig(error_bound=1e-4, mode="rel")).compress(data)
        assert res.absolute_bound == pytest.approx(v1.absolute_bound)
        out = SZCompressor().decompress(res.payload)
        assert np.abs(out - data).max() <= _bound_tolerance(data, res.absolute_bound)

    def test_chunked_matches_v1_reconstruction(self, payload_data):
        v1 = SZCompressor(SZConfig(error_bound=1e-3)).compress(payload_data)
        v2 = SZCompressor(SZConfig(error_bound=1e-3, chunk_size=1024)).compress(
            payload_data
        )
        np.testing.assert_array_equal(
            SZCompressor().decompress(v1.payload),
            SZCompressor().decompress(v2.payload),
        )

    def test_parallel_payload_identity(self, payload_data):
        cfg = SZConfig(error_bound=1e-3, chunk_size=997)
        serial = SZCompressor(cfg).compress(payload_data, workers=1)
        parallel = SZCompressor(cfg).compress(payload_data, workers=3)
        assert serial.payload == parallel.payload
        np.testing.assert_array_equal(
            decompress(serial.payload, workers=1),
            decompress(serial.payload, workers=3),
        )

    def test_best_fit_lossless_per_chunk(self, payload_data):
        cfg = SZConfig(error_bound=1e-3, chunk_size=2500, lossless="best")
        res = SZCompressor(cfg).compress(payload_data)
        out = SZCompressor().decompress(res.payload)
        assert np.abs(out - payload_data).max() <= _bound_tolerance(payload_data, 1e-3)

    def test_convenience_wrappers(self, payload_data):
        res = compress(payload_data, error_bound=1e-3, chunk_size=3000, workers=2)
        assert res.num_chunks == 4
        out = decompress(res.payload, workers=2)
        assert np.abs(out - payload_data).max() <= _bound_tolerance(payload_data, 1e-3)

    def test_chunk_size_validation(self):
        with pytest.raises(ConfigurationError):
            SZConfig(chunk_size=0)
        with pytest.raises(ConfigurationError):
            SZConfig(chunk_size=-5)

    def test_unknown_lossless_fails_at_config_time(self):
        with pytest.raises(ConfigurationError):
            SZConfig(lossless="no-such-backend")


class TestV1BackwardCompat:
    @pytest.mark.parametrize("predictor", ["adaptive", "lorenzo", "none", "best"])
    def test_golden_seed_payloads_decode(self, predictor):
        """Payloads produced by the pre-chunking code decode within bound."""
        blob = (GOLDEN_DIR / f"golden_sz_v1_{predictor}.bin").read_bytes()
        data = golden_input()
        out = SZCompressor().decompress(blob)
        assert out.size == data.size
        assert np.abs(out - data).max() <= _bound_tolerance(data, 1e-3)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_golden_payload_bit_exact_vs_fresh_encode(self, name):
        """The current v1 path still emits the seed era's exact bytes for the
        fixed predictors: the end-to-end guard of the Huffman code lengths
        and bit packer.  The golden ``adaptive``/``best`` blobs hold the old
        per-block streams; a fresh adaptive encode makes the per-stream
        choice, which on this input is direct quantization, so it equals
        the fresh ``none`` encode with the same lossless stage."""
        blob = (GOLDEN_DIR / f"golden_sz_v1_{name}.bin").read_bytes()
        predictor, lossless = GOLDEN_CONFIGS[name]
        cfg = SZConfig(error_bound=1e-3, predictor=predictor, lossless=lossless)
        fresh = SZCompressor(cfg).compress(golden_input())
        if predictor == "adaptive":
            none_cfg = SZConfig(error_bound=1e-3, predictor="none", lossless=lossless)
            assert fresh.payload == SZCompressor(none_cfg).compress(golden_input()).payload
        else:
            assert fresh.payload == blob
        np.testing.assert_array_equal(
            SZCompressor().decompress(blob),
            SZCompressor().decompress(fresh.payload),
        )

    def test_default_config_still_emits_v1(self, payload_data):
        res = SZCompressor(SZConfig(error_bound=1e-3)).compress(payload_data)
        meta, _ = read_named_sections(res.payload)
        assert meta["magic"] == "repro-sz-v1"
        assert res.num_chunks == 1


class TestTruncationAndCorruption:
    def _chunked_payload(self):
        rng = np.random.default_rng(11)
        data = (rng.standard_normal(4000) * 0.1).astype(np.float32)
        return SZCompressor(SZConfig(error_bound=1e-3, chunk_size=1000)).compress(data)

    @pytest.mark.parametrize("keep", [1, 7, 64, 200])
    def test_truncated_payload_raises(self, keep):
        payload = self._chunked_payload().payload
        assert keep < len(payload)
        with pytest.raises(DecompressionError):
            SZCompressor().decompress(payload[:keep])

    def test_truncated_tail_raises(self):
        payload = self._chunked_payload().payload
        with pytest.raises(DecompressionError):
            SZCompressor().decompress(payload[:-10])

    def test_bad_magic_raises(self):
        blob = write_named_sections({"body": b""}, meta={"magic": "not-sz"})
        with pytest.raises(DecompressionError, match="bad magic"):
            SZCompressor().decompress(blob)

    def test_missing_chunk_raises(self):
        payload = self._chunked_payload().payload
        meta, sections = read_named_sections(payload)
        del sections["chunk/2"]
        with pytest.raises(DecompressionError, match="chunk"):
            SZCompressor().decompress(write_named_sections(sections, meta=meta))

    def test_corrupt_chunk_index_raises(self):
        payload = self._chunked_payload().payload
        meta, sections = read_named_sections(payload)
        meta["chunk_counts"] = meta["chunk_counts"][:-1]
        with pytest.raises(DecompressionError, match="chunk index"):
            SZCompressor().decompress(write_named_sections(sections, meta=meta))

    def test_chunk_count_mismatch_raises(self):
        payload = self._chunked_payload().payload
        meta, sections = read_named_sections(payload)
        counts = list(meta["chunk_counts"])
        counts[0] += 5
        counts[1] -= 5
        meta["chunk_counts"] = counts
        with pytest.raises(DecompressionError):
            SZCompressor().decompress(write_named_sections(sections, meta=meta))

    def test_garbage_bytes_raise(self):
        with pytest.raises(DecompressionError):
            SZCompressor().decompress(b"\x00\x01\x02garbage")


class TestDecodeLeavesNothingRunning:
    def test_no_process_or_thread_outlives_decode(self, payload_data):
        import multiprocessing
        import threading

        from repro.core.encoder import DeepSZEncoder
        from repro.pruning import encode_sparse, prune_weights
        from repro.serve.runtime import ModelRuntime
        from repro.store import archive_bytes

        threads_before = threading.active_count()
        payload = SZCompressor(SZConfig(error_bound=1e-3, chunk_size=1024)).compress(
            payload_data
        ).payload
        assert read_named_sections(payload)[0]["magic"] == "repro-sz-v2"
        SZCompressor().decompress(payload)

        rng = np.random.default_rng(3)
        layers = {}
        for name, shape in [("fc6", (48, 80)), ("fc7", (16, 48))]:
            pruned, _ = prune_weights(rng.standard_normal(shape).astype(np.float32), 0.2)
            layers[name] = encode_sparse(pruned)
        model = DeepSZEncoder(chunk_size=256).encode(
            "leak-check", layers, {name: 1e-3 for name in layers}
        )
        with ModelRuntime(archive_bytes(model)) as runtime:
            assert set(runtime.decode_all()) == set(layers)

        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads_before
