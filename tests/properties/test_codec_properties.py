"""Property-based tests (hypothesis) for the compression substrates."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codecs import available_codecs, get_codec
from repro.sz import SZCompressor, SZConfig, compress, decompress
from repro.sz.huffman import HuffmanCodec
from repro.sz.predictor import lorenzo_decode, lorenzo_encode
from repro.sz.quantizer import LinearQuantizer
from repro.zfp import ZFPCompressor, ZFPConfig

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def bound_tolerance(data: np.ndarray, eb: float) -> float:
    """Error-bound tolerance for float32 outputs.

    The codecs guarantee the bound in double precision; the final cast of the
    reconstruction to float32 can add up to half a ULP of the value itself,
    which matters only for hypothesis-crafted exact-half-point inputs.
    """
    scale = float(np.max(np.abs(data))) if data.size else 0.0
    return eb * (1 + 1e-5) + np.finfo(np.float32).eps * scale


float_arrays = hnp.arrays(
    dtype=np.float32,
    shape=st.integers(0, 400),
    elements=st.floats(
        min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False, width=32
    ),
)

error_bounds = st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4])


class TestHuffmanProperties:
    @SETTINGS
    @given(
        data=hnp.arrays(
            dtype=np.int64, shape=st.integers(0, 500), elements=st.integers(-(2**20), 2**20)
        )
    )
    def test_roundtrip_any_int_array(self, data):
        codec = HuffmanCodec()
        assert np.array_equal(codec.decode(codec.encode(data)), data)


class TestLorenzoProperties:
    @SETTINGS
    @given(
        codes=hnp.arrays(
            dtype=np.int64, shape=st.integers(0, 500), elements=st.integers(-(2**40), 2**40)
        )
    )
    def test_encode_decode_inverse(self, codes):
        assert np.array_equal(lorenzo_decode(lorenzo_encode(codes)), codes)


class TestQuantizerProperties:
    @SETTINGS
    @given(data=float_arrays, eb=error_bounds)
    def test_error_bound_always_respected(self, data, eb):
        q = LinearQuantizer(eb, capacity=65536)
        r = q.quantize(data.astype(np.float64))
        recon = q.dequantize(r.codes, r.outlier_mask, r.outliers)
        if data.size:
            assert np.max(np.abs(recon.astype(np.float64) - data)) <= bound_tolerance(data, eb)


class TestSZProperties:
    @SETTINGS
    @given(data=float_arrays, eb=error_bounds)
    def test_roundtrip_error_bound(self, data, eb):
        result = compress(data, eb)
        recon = decompress(result.payload)
        assert recon.shape == data.shape
        if data.size:
            assert np.max(np.abs(recon.astype(np.float64) - data)) <= bound_tolerance(data, eb)

    @SETTINGS
    @given(data=float_arrays)
    def test_payload_is_self_describing(self, data):
        result = compress(data, 1e-3)
        # Decompress through a compressor with a *different* configuration:
        # everything needed must live in the payload.
        other = SZCompressor(SZConfig(error_bound=0.5, capacity=256, predictor="none"))
        recon = other.decompress(result.payload)
        assert recon.shape == data.shape

    @SETTINGS
    @given(
        data=hnp.arrays(
            dtype=np.float32,
            shape=st.integers(1, 300),
            elements=st.floats(
                min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False, width=32
            ),
        )
    )
    def test_wide_range_data_with_small_capacity(self, data):
        """Outlier handling must keep the bound even when most codes overflow."""
        comp = SZCompressor(SZConfig(error_bound=1e-3, capacity=64))
        recon = comp.decompress(comp.compress(data).payload)
        assert np.max(np.abs(recon.astype(np.float64) - data)) <= bound_tolerance(data, 1e-3)


class TestZFPProperties:
    @SETTINGS
    @given(data=float_arrays, tol=error_bounds)
    def test_fixed_accuracy_roundtrip(self, data, tol):
        comp = ZFPCompressor(ZFPConfig(tolerance=tol))
        recon = comp.decompress(comp.compress(data).payload)
        assert recon.shape == data.shape
        if data.size:
            assert np.max(np.abs(recon.astype(np.float64) - data)) <= bound_tolerance(data, tol)

    @SETTINGS
    @given(data=float_arrays)
    def test_transform_mode_roundtrip(self, data):
        comp = ZFPCompressor(ZFPConfig(tolerance=1e-2, use_transform=True, block_size=16))
        recon = comp.decompress(comp.compress(data).payload)
        if data.size:
            assert np.max(np.abs(recon.astype(np.float64) - data)) <= bound_tolerance(data, 1e-2)


class TestRegisteredErrorBoundedCodecs:
    """Every codec registered as error-bounded: ``compress_and_reconstruct``
    is one ``compress`` plus its ``decompress``, and holds the bound."""

    @pytest.mark.parametrize("name", available_codecs(error_bounded=True))
    @SETTINGS
    @given(
        data=float_arrays,
        eb=error_bounds,
        predictor=st.sampled_from(["lorenzo", "adaptive"]),
        chunk_size=st.sampled_from([None, 64]),
        capacity=st.sampled_from([64, 65536]),
    )
    @example(  # wide values at a small capacity: most codes are outliers
        data=np.linspace(-10, 10, 300, dtype=np.float32),
        eb=1e-4,
        predictor="adaptive",
        chunk_size=64,
        capacity=64,
    )
    def test_reconstruction_is_the_decode(
        self, name, data, eb, predictor, chunk_size, capacity
    ):
        codec = get_codec(name)
        options = dict(error_bound=eb, predictor=predictor, capacity=capacity)
        if codec.info.chunked:
            options["chunk_size"] = chunk_size
        payload, recon = codec.compress_and_reconstruct(data, **options)
        assert payload == codec.compress(data, **options)
        decoded = codec.decompress(payload)
        assert recon.dtype == decoded.dtype == np.float32
        np.testing.assert_array_equal(recon.view(np.uint32), decoded.view(np.uint32))
        if data.size:
            assert np.max(np.abs(recon.astype(np.float64) - data)) <= bound_tolerance(data, eb)
