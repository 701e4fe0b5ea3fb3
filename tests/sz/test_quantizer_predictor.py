"""Tests for the SZ quantizer and Lorenzo predictor."""

import numpy as np
import pytest

from repro.sz.predictor import lorenzo_decode, lorenzo_encode
from repro.sz.quantizer import LinearQuantizer
from repro.utils.errors import CompressionError, ValidationError


class TestLorenzo:
    def test_roundtrip(self, rng):
        codes = rng.integers(-1000, 1000, size=10_000).astype(np.int64)
        assert np.array_equal(lorenzo_decode(lorenzo_encode(codes)), codes)

    def test_empty(self):
        assert lorenzo_encode(np.zeros(0, dtype=np.int64)).size == 0
        assert lorenzo_decode(np.zeros(0, dtype=np.int64)).size == 0

    def test_first_element_is_kept(self):
        out = lorenzo_encode(np.array([7, 9, 9, 4]))
        assert out.tolist() == [7, 2, 0, -5]

    def test_constant_input_gives_zero_residuals(self):
        out = lorenzo_encode(np.full(100, 3, dtype=np.int64))
        assert out[0] == 3
        assert not out[1:].any()

    def test_smooth_data_shrinks_residual_range(self, rng):
        codes = np.cumsum(rng.integers(-2, 3, size=1000)).astype(np.int64)
        residuals = lorenzo_encode(codes)
        assert np.abs(residuals[1:]).max() <= 2

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            lorenzo_encode(np.zeros((3, 3), dtype=np.int64))


class TestLinearQuantizer:
    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_error_bound_respected(self, rng, eb):
        data = rng.normal(0, 0.05, 10_000)
        q = LinearQuantizer(eb)
        result = q.quantize(data)
        recon = q.dequantize(result.codes, result.outlier_mask, result.outliers)
        assert np.max(np.abs(recon.astype(np.float64) - data)) <= eb * (1 + 1e-5)

    def test_outliers_reconstructed_exactly(self):
        data = np.array([0.0, 0.001, 500.0, -0.002, -750.0], dtype=np.float64)
        q = LinearQuantizer(1e-3, capacity=1024)
        result = q.quantize(data)
        assert result.outlier_count == 2
        recon = q.dequantize(result.codes, result.outlier_mask, result.outliers)
        assert recon[2] == np.float32(500.0)
        assert recon[4] == np.float32(-750.0)

    def test_no_outliers_within_capacity(self, rng):
        data = rng.uniform(-0.3, 0.3, 1000)
        result = LinearQuantizer(1e-3, capacity=65536).quantize(data)
        assert result.outlier_count == 0

    def test_empty_input(self):
        q = LinearQuantizer(1e-3)
        result = q.quantize(np.zeros(0))
        assert result.codes.size == 0
        assert q.dequantize(result.codes).size == 0

    def test_zero_is_preserved_exactly(self):
        q = LinearQuantizer(1e-2)
        result = q.quantize(np.zeros(10))
        recon = q.dequantize(result.codes)
        assert not recon.any()

    def test_invalid_error_bound(self):
        with pytest.raises(ValidationError):
            LinearQuantizer(0.0)
        with pytest.raises(ValidationError):
            LinearQuantizer(-1e-3)

    def test_invalid_capacity(self):
        with pytest.raises(ValidationError):
            LinearQuantizer(1e-3, capacity=3)
        with pytest.raises(ValidationError):
            LinearQuantizer(1e-3, capacity=7)

    def test_overflow_guard(self):
        q = LinearQuantizer(1e-300)
        # The guard fires on the overflowed codes, so numpy's overflow
        # warning is part of the contract.
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(CompressionError):
                q.quantize(np.array([1e30]))

    def test_mask_population_mismatch_raises(self):
        q = LinearQuantizer(1e-3)
        with pytest.raises(ValidationError):
            q.dequantize(
                np.zeros(4, dtype=np.int64),
                np.array([True, False, False, False]),
                np.zeros(2, dtype=np.float32),
            )

    def test_reconstruction_error_helper(self, rng):
        data = rng.normal(0, 0.1, 100)
        q = LinearQuantizer(1e-2)
        r = q.quantize(data)
        recon = q.dequantize(r.codes, r.outlier_mask, r.outliers)
        assert q.reconstruction_error(data, recon) <= 1e-2 * (1 + 1e-5)
        with pytest.raises(ValidationError):
            q.reconstruction_error(data, recon[:-1])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            LinearQuantizer(1e-3).quantize(np.zeros((2, 2)))
