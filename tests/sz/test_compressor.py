"""Tests for the end-to-end SZ compressor."""

import numpy as np
import pytest

from repro.sz import (
    ErrorMode,
    PredictorKind,
    SZCompressor,
    SZConfig,
    compress,
    decompress,
)
from repro.analysis.metrics import psnr
from repro.utils.errors import ConfigurationError, DecompressionError, ValidationError


class TestConfig:
    def test_defaults(self):
        cfg = SZConfig()
        assert cfg.mode is ErrorMode.ABS
        assert cfg.predictor is PredictorKind.ADAPTIVE

    def test_string_enums_coerced(self):
        cfg = SZConfig(mode="rel", predictor="none")
        assert cfg.mode is ErrorMode.REL
        assert cfg.predictor is PredictorKind.NONE

    def test_with_error_bound(self):
        cfg = SZConfig(error_bound=1e-3)
        assert cfg.with_error_bound(1e-2).error_bound == 1e-2
        assert cfg.error_bound == 1e-3

    def test_invalid_error_bound(self):
        with pytest.raises(ValidationError):
            SZConfig(error_bound=0)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            SZConfig(capacity=3)
        with pytest.raises(ConfigurationError):
            SZConfig(capacity=101)

    def test_absolute_bound_resolution_rel(self):
        data = np.array([0.0, 2.0], dtype=np.float32)
        cfg = SZConfig(error_bound=0.01, mode=ErrorMode.REL)
        assert cfg.absolute_bound(data) == pytest.approx(0.02)

    def test_absolute_bound_resolution_psnr(self):
        data = np.array([-1.0, 1.0], dtype=np.float32)
        cfg = SZConfig(error_bound=60.0, mode=ErrorMode.PSNR)
        bound = cfg.absolute_bound(data)
        assert 0 < bound < 0.01


class TestRoundtrip:
    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_error_bound_respected(self, weight_array, eb):
        result = compress(weight_array, eb)
        recon = decompress(result.payload)
        assert recon.shape == weight_array.shape
        assert recon.dtype == np.float32
        err = np.max(np.abs(recon.astype(np.float64) - weight_array.astype(np.float64)))
        assert err <= eb * (1 + 1e-5)

    def test_empty_array(self):
        result = compress(np.zeros(0, dtype=np.float32), 1e-3)
        assert decompress(result.payload).size == 0

    def test_single_value(self):
        result = compress(np.array([0.123], dtype=np.float32), 1e-3)
        recon = decompress(result.payload)
        assert abs(float(recon[0]) - 0.123) <= 1e-3

    def test_constant_array(self):
        data = np.full(1000, 0.05, dtype=np.float32)
        recon = decompress(compress(data, 1e-3).payload)
        assert np.max(np.abs(recon - data)) <= 1e-3

    def test_2d_input_flattened(self, rng):
        data = rng.normal(0, 0.02, (50, 40)).astype(np.float32)
        result = compress(data, 1e-3)
        assert decompress(result.payload).shape == (2000,)

    def test_outlier_heavy_data(self, rng):
        data = rng.normal(0, 0.01, 5000).astype(np.float32)
        data[::100] = rng.normal(0, 100.0, 50).astype(np.float32)
        cfg = SZConfig(error_bound=1e-3, capacity=256)
        comp = SZCompressor(cfg)
        result = comp.compress(data)
        assert result.outlier_count > 0
        recon = comp.decompress(result.payload)
        assert np.max(np.abs(recon.astype(np.float64) - data)) <= 1e-3 * (1 + 1e-5)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            compress(np.array([np.nan, 1.0], dtype=np.float32), 1e-3)


class TestModes:
    def test_relative_mode_scales_with_range(self, rng):
        data = (rng.normal(0, 1.0, 10_000) * 5).astype(np.float32)
        cfg = SZConfig(error_bound=1e-3, mode=ErrorMode.REL)
        result = SZCompressor(cfg).compress(data)
        value_range = float(data.max() - data.min())
        assert result.absolute_bound == pytest.approx(1e-3 * value_range, rel=1e-6)

    def test_psnr_mode_achieves_target(self, weight_array):
        target = 70.0
        cfg = SZConfig(error_bound=target, mode=ErrorMode.PSNR)
        comp = SZCompressor(cfg)
        result = comp.compress(weight_array)
        recon = comp.decompress(result.payload)
        achieved = psnr(weight_array, recon)
        assert achieved >= target - 1.0  # uniform-noise model is slightly conservative

    def test_no_prediction_mode_roundtrip(self, weight_array):
        cfg = SZConfig(error_bound=1e-3, predictor=PredictorKind.NONE)
        comp = SZCompressor(cfg)
        recon = comp.decompress(comp.compress(weight_array).payload)
        assert np.max(np.abs(recon - weight_array)) <= 1e-3 * (1 + 1e-5)

    def test_best_lossless_selection(self, weight_array):
        cfg = SZConfig(error_bound=1e-2, lossless="best")
        result = SZCompressor(cfg).compress(weight_array)
        assert result.lossless_backend in ("store", "zlib", "lzma", "bz2")
        assert np.max(np.abs(SZCompressor().decompress(result.payload) - weight_array)) <= 1e-2 * (
            1 + 1e-5
        )


class TestRatioBehaviour:
    def test_larger_bound_gives_larger_ratio(self, weight_array):
        r_small = compress(weight_array, 1e-4).ratio
        r_mid = compress(weight_array, 1e-3).ratio
        r_large = compress(weight_array, 1e-2).ratio
        assert r_large > r_mid > r_small > 1.0

    def test_result_metadata(self, weight_array):
        result = compress(weight_array, 1e-3)
        assert result.original_bytes == weight_array.size * 4
        assert result.compressed_bytes == len(result.payload)
        assert result.bits_per_value == pytest.approx(
            8 * result.compressed_bytes / weight_array.size
        )

    def test_beats_lossless_only(self, weight_array):
        import zlib

        lossless_ratio = weight_array.nbytes / len(zlib.compress(weight_array.tobytes()))
        assert compress(weight_array, 1e-3).ratio > lossless_ratio


class TestCorruption:
    def test_bad_magic_raises(self, weight_array):
        with pytest.raises(DecompressionError):
            decompress(b"garbage that is definitely not an SZ stream")

    def test_truncated_payload_raises(self, weight_array):
        payload = compress(weight_array, 1e-3).payload
        with pytest.raises(DecompressionError):
            decompress(payload[: len(payload) // 3])

    def test_unknown_predictor_in_stream_header_raises(self, weight_array):
        from repro.utils.bytesio import read_named_sections, write_named_sections

        payload = compress(weight_array[:1000], 1e-3, lossless="store").payload
        outer_meta, outer = read_named_sections(payload)
        meta, sections = read_named_sections(outer["body"])
        meta["predictor"] = "cubic"
        outer["body"] = write_named_sections(sections, meta=meta)
        with pytest.raises(DecompressionError, match="predictor"):
            decompress(write_named_sections(outer, meta=outer_meta))

    @staticmethod
    def _with_inner_header(payload: bytes, edit) -> bytes:
        """``payload`` (a v1 ``store`` payload) with ``edit(meta)`` applied to
        its inner stream header."""
        from repro.utils.bytesio import read_named_sections, write_named_sections

        outer_meta, outer = read_named_sections(payload)
        meta, sections = read_named_sections(outer["body"])
        edit(meta)
        outer["body"] = write_named_sections(sections, meta=meta)
        return write_named_sections(outer, meta=outer_meta)

    def test_stream_header_without_count_raises(self, weight_array):
        payload = compress(weight_array[:1000], 1e-3, lossless="store").payload
        broken = self._with_inner_header(payload, lambda meta: meta.pop("count"))
        with pytest.raises(DecompressionError, match="'count' is missing"):
            decompress(broken)

    def test_adaptive_label_without_block_sections_raises(self, weight_array):
        payload = compress(weight_array[:1000], 1e-3, lossless="store").payload
        broken = self._with_inner_header(
            payload, lambda meta: meta.update(predictor="adaptive")
        )
        with pytest.raises(DecompressionError, match="'num_blocks' is missing"):
            decompress(broken)
