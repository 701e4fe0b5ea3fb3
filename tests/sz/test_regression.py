"""Tests for the adaptive (Lorenzo vs regression) predictor."""

import numpy as np
import pytest

from repro.sz import SZCompressor, SZConfig, compress
from repro.sz.regression import (
    MODE_DIRECT,
    MODE_LORENZO,
    MODE_REGRESSION,
    AdaptivePrediction,
    _regression_predict,
    adaptive_decode,
    adaptive_encode,
)
from repro.utils.errors import DecompressionError, ValidationError


class TestAdaptiveEncodeDecode:
    def test_roundtrip_random_codes(self, rng):
        codes = rng.integers(-500, 500, size=5000).astype(np.int64)
        assert np.array_equal(adaptive_decode(adaptive_encode(codes)), codes)

    def test_roundtrip_linear_trend(self):
        codes = (np.arange(3000) * 3 + 17).astype(np.int64)
        prediction = adaptive_encode(codes)
        assert np.array_equal(adaptive_decode(prediction), codes)
        # A perfectly linear signal is never won by the direct (no-prediction)
        # mode; regression and Lorenzo split it.
        assert prediction.mode_fractions["direct"] < 0.1

    def test_noise_codes_prefer_direct_mode(self, rng):
        codes = np.rint(rng.normal(0, 3, size=8192)).astype(np.int64)
        prediction = adaptive_encode(codes)
        assert prediction.mode_fractions["direct"] > 0.8

    def test_quadratic_codes_prefer_regression_mode(self):
        # Strong curvature: Lorenzo diffs keep growing, a per-block linear fit
        # tracks it much better, and direct coding is hopeless.
        codes = ((np.arange(8192) ** 2) // 50).astype(np.int64)
        prediction = adaptive_encode(codes, block_size=64)
        assert prediction.mode_fractions["regression"] > 0.5

    def test_roundtrip_noise_like_weights(self, rng):
        codes = np.rint(rng.normal(0, 2, size=4096)).astype(np.int64)
        prediction = adaptive_encode(codes)
        assert np.array_equal(adaptive_decode(prediction), codes)

    def test_roundtrip_partial_last_block(self, rng):
        codes = rng.integers(-5, 5, size=1000).astype(np.int64)  # not a multiple of 256
        assert np.array_equal(adaptive_decode(adaptive_encode(codes)), codes)

    def test_roundtrip_shorter_than_one_block(self, rng):
        codes = rng.integers(-5, 5, size=17).astype(np.int64)
        assert np.array_equal(adaptive_decode(adaptive_encode(codes)), codes)

    def test_empty(self):
        prediction = adaptive_encode(np.zeros(0, dtype=np.int64))
        assert prediction.count == 0
        assert adaptive_decode(prediction).size == 0

    def test_custom_block_size(self, rng):
        codes = rng.integers(-100, 100, size=2000).astype(np.int64)
        prediction = adaptive_encode(codes, block_size=64)
        assert prediction.block_size == 64
        assert prediction.num_blocks == (2000 + 63) // 64
        assert np.array_equal(adaptive_decode(prediction), codes)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            adaptive_encode(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValidationError):
            adaptive_encode(np.zeros(10, dtype=np.int64), block_size=2)

    def test_corrupt_prediction_rejected(self, rng):
        codes = rng.integers(-5, 5, size=600).astype(np.int64)
        prediction = adaptive_encode(codes)
        broken = AdaptivePrediction(
            residuals=prediction.residuals[:-1],
            modes=prediction.modes,
            coefficients=prediction.coefficients,
            block_size=prediction.block_size,
            count=prediction.count,
        )
        with pytest.raises(DecompressionError):
            adaptive_decode(broken)

    def test_mismatched_coefficients_rejected(self, rng):
        codes = (np.arange(600) * 5).astype(np.int64)
        prediction = adaptive_encode(codes)
        if prediction.coefficients.shape[0] == 0:
            pytest.skip("no regression blocks chosen for this input")
        broken = AdaptivePrediction(
            residuals=prediction.residuals,
            modes=prediction.modes,
            coefficients=prediction.coefficients[:-1],
            block_size=prediction.block_size,
            count=prediction.count,
        )
        with pytest.raises(DecompressionError):
            adaptive_decode(broken)

    def test_unknown_mode_rejected(self, rng):
        codes = rng.integers(-5, 5, size=600).astype(np.int64)
        prediction = adaptive_encode(codes)
        bad_modes = prediction.modes.copy()
        bad_modes[0] = 7
        broken = AdaptivePrediction(
            residuals=prediction.residuals,
            modes=bad_modes,
            coefficients=prediction.coefficients,
            block_size=prediction.block_size,
            count=prediction.count,
        )
        with pytest.raises(DecompressionError):
            adaptive_decode(broken)


def _block_loop_decode(prediction: AdaptivePrediction) -> np.ndarray:
    """Oracle: decode one block after another, carrying the last code."""
    n, bs = prediction.count, prediction.block_size
    nblocks = prediction.modes.size
    blocks = np.zeros(nblocks * bs, dtype=np.int64)
    blocks[:n] = prediction.residuals
    blocks = blocks.reshape(nblocks, bs)
    preds = _regression_predict(prediction.coefficients, bs)
    out = np.empty_like(blocks)
    prev_last = np.int64(0)
    reg_idx = 0
    for b, mode in enumerate(prediction.modes.tolist()):
        if mode == MODE_LORENZO:
            out[b] = np.cumsum(blocks[b]) + prev_last
        elif mode == MODE_REGRESSION:
            out[b] = blocks[b] + preds[reg_idx]
            reg_idx += 1
        else:
            out[b] = blocks[b]
        prev_last = out[b, -1]
    return out.reshape(-1)[:n]


L, R, D = MODE_LORENZO, MODE_REGRESSION, MODE_DIRECT


class TestAdaptiveDecodeMatchesBlockLoop:
    """The loop-free decoder against a per-block loop, per mode sequence."""

    @pytest.mark.parametrize(
        "modes, tail",
        [
            ([L, L, R, L, D, L, L], 0),  # Lorenzo first
            ([R, L, L, D, L, L, L], 0),  # Lorenzo runs after regression / direct
            ([D, D, D, D], 0),  # all direct
            ([L, L, L, L, L], 0),  # all Lorenzo: one chain from zero
            ([D, L, R, L], 37),  # partial last block (Lorenzo)
            ([L, R, D, R], 5),  # partial last block (regression)
            ([L], 40),  # a single partial block
        ],
    )
    def test_mode_sequences(self, modes, tail):
        bs = 64
        rng = np.random.default_rng(len(modes) * 1000 + tail)
        n = len(modes) * bs - tail
        modes = np.asarray(modes, dtype=np.uint8)
        nreg = int((modes == MODE_REGRESSION).sum())
        prediction = AdaptivePrediction(
            residuals=rng.integers(-1000, 1000, size=n).astype(np.int64),
            modes=modes,
            coefficients=rng.normal(0, 50, size=(nreg, 2)).astype(np.float32),
            block_size=bs,
            count=n,
        )
        np.testing.assert_array_equal(
            adaptive_decode(prediction), _block_loop_decode(prediction)
        )

    def test_random_mode_sequences(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            bs = int(rng.integers(4, 40))
            nblocks = int(rng.integers(1, 60))
            n = nblocks * bs - int(rng.integers(0, bs))
            modes = rng.integers(0, 3, size=nblocks).astype(np.uint8)
            nreg = int((modes == MODE_REGRESSION).sum())
            prediction = AdaptivePrediction(
                residuals=rng.integers(-(1 << 40), 1 << 40, size=n).astype(np.int64),
                modes=modes,
                coefficients=rng.normal(0, 1e4, size=(nreg, 2)).astype(np.float32),
                block_size=bs,
                count=n,
            )
            np.testing.assert_array_equal(
                adaptive_decode(prediction), _block_loop_decode(prediction)
            )


class TestAdaptiveInsideSZ:
    @pytest.mark.parametrize("eb", [1e-2, 1e-3])
    def test_error_bound_respected(self, weight_array, eb):
        comp = SZCompressor(SZConfig(error_bound=eb, predictor="adaptive"))
        recon = comp.decompress(comp.compress(weight_array).payload)
        assert np.max(np.abs(recon.astype(np.float64) - weight_array)) <= eb * (1 + 1e-5)

    def test_adaptive_tracks_best_fixed_predictor_on_smooth_data(self):
        """On strongly trended data the adaptive predictor tracks plain Lorenzo."""
        t = np.linspace(0, 8 * np.pi, 50_000)
        smooth = (np.sin(t) * 0.2 + t * 0.01).astype(np.float32)
        lorenzo = compress(smooth, 1e-4, predictor="lorenzo").compressed_bytes
        none = compress(smooth, 1e-4, predictor="none").compressed_bytes
        adaptive = compress(smooth, 1e-4, predictor="adaptive").compressed_bytes
        # The per-block choice stays within ~25% of the best fixed predictor
        # (the shared Huffman table makes mixing block types slightly
        # sub-optimal) while being an order of magnitude ahead of the worst.
        assert adaptive <= min(lorenzo, none) * 1.25
        assert adaptive <= max(lorenzo, none) * 0.5

    def test_adaptive_tracks_best_fixed_predictor_on_weights(self, weight_array):
        """On noise-like weights the adaptive choice matches direct quantization."""
        lorenzo = compress(weight_array, 1e-3, predictor="lorenzo").compressed_bytes
        none = compress(weight_array, 1e-3, predictor="none").compressed_bytes
        adaptive = compress(weight_array, 1e-3, predictor="adaptive").compressed_bytes
        assert adaptive <= min(lorenzo, none) * 1.05

    def test_payload_roundtrips_through_default_decompressor(self, weight_array):
        from repro.sz import decompress

        payload = compress(weight_array, 1e-3, predictor="adaptive").payload
        recon = decompress(payload)
        assert recon.shape == weight_array.shape
