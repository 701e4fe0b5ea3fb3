"""Tests for the adaptive predictor: the per-stream best fit the writer makes,
and the reader of per-block (Lorenzo / regression / direct) streams."""

from dataclasses import replace

import numpy as np
import pytest

from repro.nn.models import synthesize_fc_weights
from repro.nn.specs import PAPER_PRUNING_RATIOS
from repro.pruning import encode_sparse, prune_weights
from repro.sz import SZCompressor, SZConfig, compress, decompress
from repro.sz.lossless import get_backend
from repro.sz.regression import (
    MODE_DIRECT,
    MODE_LORENZO,
    MODE_REGRESSION,
    AdaptivePrediction,
    _regression_predict,
    adaptive_decode,
)
from repro.utils.errors import DecompressionError
from repro.utils.bytesio import read_named_sections


def _stream(modes, block_size=64, tail=0) -> AdaptivePrediction:
    """A hand-built per-block stream with random residuals and coefficients."""
    rng = np.random.default_rng(len(modes) * 1000 + tail)
    modes = np.asarray(modes, dtype=np.uint8)
    n = modes.size * block_size - tail
    nreg = int((modes == MODE_REGRESSION).sum())
    return AdaptivePrediction(
        residuals=rng.integers(-1000, 1000, size=n).astype(np.int64),
        modes=modes,
        coefficients=rng.normal(0, 50, size=(nreg, 2)).astype(np.float32),
        block_size=block_size,
        count=n,
    )


def _legacy_stream(codes, modes, block_size=256) -> AdaptivePrediction:
    """``codes`` in the per-block layout earlier writers produced, one mode per
    block; regression blocks store a float32 least-squares line."""
    codes = np.asarray(codes, dtype=np.int64)
    modes = np.asarray(modes, dtype=np.uint8)
    assert modes.size == -(-codes.size // block_size)
    residuals = codes.copy()
    coefficients = []
    prev_last = 0
    for b, mode in enumerate(modes.tolist()):
        block = codes[b * block_size : (b + 1) * block_size]
        out = residuals[b * block_size : b * block_size + block.size]
        if mode == MODE_LORENZO:
            out[:] = np.diff(block, prepend=prev_last)
        elif mode == MODE_REGRESSION:
            slope, intercept = (0, block[0])
            if block.size > 1:
                slope, intercept = np.polyfit(np.arange(block.size), block, 1)
            ab = np.array([[intercept, slope]], dtype=np.float32)
            coefficients.append(ab[0])
            out -= _regression_predict(ab, block_size)[0, : block.size]
        prev_last = block[-1]
    return AdaptivePrediction(
        residuals=residuals,
        modes=modes,
        coefficients=np.asarray(coefficients, dtype=np.float32).reshape(-1, 2),
        block_size=block_size,
        count=codes.size,
    )


def _random_modes(rng, count, block_size=256) -> np.ndarray:
    return rng.integers(0, 3, size=-(-count // block_size)).astype(np.uint8)


def _roundtrips(codes, modes, block_size=256) -> bool:
    return np.array_equal(adaptive_decode(_legacy_stream(codes, modes, block_size)), codes)


def _stream_kind(payload: bytes) -> str:
    """The predictor a v1 SZ payload's inner stream header records."""
    outer, sections = read_named_sections(payload)
    raw = get_backend(outer["lossless"]).decompress(sections["body"])
    return read_named_sections(raw)[0]["predictor"]


L, R, D = MODE_LORENZO, MODE_REGRESSION, MODE_DIRECT


class TestAdaptiveEncodeDecode:
    """The writer's per-stream choice on integer codes, and the reader of
    per-block streams (written by earlier versions) round-tripping them."""

    def test_roundtrip_random_codes(self, rng):
        codes = rng.integers(-500, 500, size=5000).astype(np.int64)
        assert _roundtrips(codes, _random_modes(rng, codes.size))

    def test_roundtrip_linear_trend(self, rng):
        codes = (np.arange(3000) * 3 + 17).astype(np.int64)
        nblocks = -(-codes.size // 256)
        for modes in ([L] * nblocks, [R] * nblocks, [D] * nblocks, _random_modes(rng, codes.size)):
            assert _roundtrips(codes, modes)
        # A linear trend is never written as direct codes: its Lorenzo
        # residuals are one constant.
        data = (codes * 2e-3).astype(np.float32)
        assert _stream_kind(compress(data, 1e-3).payload) == "lorenzo"

    def test_noise_codes_prefer_direct_mode(self, rng):
        data = (np.rint(rng.normal(0, 3, size=8192)) * 2e-3).astype(np.float32)
        assert _stream_kind(compress(data, 1e-3).payload) == "none"

    def test_roundtrip_noise_like_weights(self, rng):
        codes = np.rint(rng.normal(0, 2, size=4096)).astype(np.int64)
        assert _roundtrips(codes, _random_modes(rng, codes.size))

    def test_roundtrip_partial_last_block(self, rng):
        codes = rng.integers(-5, 5, size=1000).astype(np.int64)  # not a multiple of 256
        for last in (L, R, D):
            modes = _random_modes(rng, codes.size)
            modes[-1] = last
            assert _roundtrips(codes, modes)

    def test_roundtrip_shorter_than_one_block(self, rng):
        codes = rng.integers(-5, 5, size=17).astype(np.int64)
        for mode in (L, R, D):
            assert _roundtrips(codes, [mode])

    def test_empty(self):
        assert adaptive_decode(_stream([])).size == 0
        assert decompress(compress(np.zeros(0, dtype=np.float32), 1e-3).payload).size == 0

    def test_custom_block_size(self, rng):
        codes = rng.integers(-100, 100, size=2000).astype(np.int64)
        prediction = _legacy_stream(codes, _random_modes(rng, codes.size, 64), block_size=64)
        assert prediction.modes.size == (2000 + 63) // 64
        assert np.array_equal(adaptive_decode(prediction), codes)

    def test_invalid_inputs(self):
        for block_size in (0, -3):
            prediction = replace(_stream([L, L], block_size=4), block_size=block_size)
            with pytest.raises(DecompressionError, match="block size"):
                adaptive_decode(prediction)

    def test_corrupt_prediction_rejected(self):
        good = _stream([L, D, L], tail=10)
        with pytest.raises(DecompressionError):
            adaptive_decode(replace(good, residuals=good.residuals[:-1]))

    def test_mismatched_coefficients_rejected(self):
        good = _stream([R, L, R])
        with pytest.raises(DecompressionError):
            adaptive_decode(replace(good, coefficients=good.coefficients[:-1]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(DecompressionError):
            adaptive_decode(_stream([7, L, D]))

    def test_mode_count_mismatch_rejected(self):
        good = _stream([L, D])
        with pytest.raises(DecompressionError):
            adaptive_decode(replace(good, modes=good.modes[:1]))


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
        prediction = _stream(modes, tail=tail)
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
        # The per-stream choice compares Huffman sizes, before the lossless
        # stage, so it may miss the best final size by the lossless stage's
        # noise, never by the gap between the two predictors.
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


def _pruned_fc_data() -> np.ndarray:
    """An AlexNet-fc6-like data array: synthetic weights, pruned, nonzeros only."""
    weights = synthesize_fc_weights("AlexNet", "fc6", seed=77, scale=0.05)
    pruned, _ = prune_weights(weights, PAPER_PRUNING_RATIOS["AlexNet"]["fc6"])
    return encode_sparse(pruned).data


class TestPerStreamChoice:
    """The default payload is the smaller of the two fixed predictors' payloads."""

    @pytest.mark.parametrize(
        "make, eb, winner",
        [
            (_pruned_fc_data, 1e-2, "none"),
            (_pruned_fc_data, 1e-3, "none"),
            (lambda: np.linspace(-1.0, 1.0, 20_000, dtype=np.float32), 1e-4, "lorenzo"),
        ],
        ids=["pruned-fc-1e-2", "pruned-fc-1e-3", "ramp"],
    )
    def test_default_payload_is_the_smaller_fixed_one(self, make, eb, winner):
        data = make()
        payloads = {
            predictor: SZCompressor(SZConfig(error_bound=eb, predictor=predictor))
            .compress(data)
            .payload
            for predictor in ("lorenzo", "none")
        }
        default = SZCompressor(SZConfig(error_bound=eb)).compress(data).payload
        assert min(payloads, key=lambda k: len(payloads[k])) == winner
        assert default == payloads[winner]

