"""Property-based round-trip tests for the chunked SZ v2 container."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz.compressor import SZCompressor
from repro.sz.config import SZConfig
from repro.sz.lossless import get_backend
from repro.utils.bytesio import read_named_sections

_settings = settings(max_examples=40, deadline=None)


def _bound_tolerance(data, eb):
    """Bound + half-ULP slack: the codecs guarantee the bound in double
    precision; the float32 cast of the output can add half a ULP of the
    value itself (same convention as tests/properties/test_codec_properties)."""
    import numpy as _np

    scale = float(_np.max(_np.abs(data))) if data.size else 0.0
    return eb * (1 + 1e-5) + _np.finfo(_np.float32).eps * scale


@st.composite
def float_arrays(draw):
    size = draw(st.integers(min_value=0, max_value=700))
    scale = draw(st.sampled_from([1e-3, 0.1, 10.0]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(size) * scale).astype(np.float32)


@st.composite
def ramps(draw):
    """Smooth data, where Lorenzo residuals beat the direct codes."""
    size = draw(st.integers(min_value=0, max_value=700))
    slope = draw(st.sampled_from([1e-4, 1e-3, -5e-3]))
    return (np.arange(size) * slope + draw(st.floats(-1.0, 1.0))).astype(np.float32)


@_settings
@given(
    data=float_arrays(),
    chunk_size=st.integers(min_value=1, max_value=400),
    error_bound=st.sampled_from([1e-4, 1e-3, 1e-2]),
    predictor=st.sampled_from(["lorenzo", "adaptive", "none"]),
)
def test_chunked_round_trip_within_bound(data, chunk_size, error_bound, predictor):
    cfg = SZConfig(
        error_bound=error_bound,
        predictor=predictor,
        chunk_size=chunk_size,
        lossless="zlib",
    )
    res = SZCompressor(cfg).compress(data)
    out = SZCompressor().decompress(res.payload)
    assert out.size == data.size
    assert out.dtype == np.float32
    if data.size:
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= (
            _bound_tolerance(data, error_bound)
        )


@_settings
@given(data=float_arrays(), chunk_size=st.integers(min_value=1, max_value=400))
def test_chunked_reconstruction_equals_v1(data, chunk_size):
    """Chunking changes the container, never the reconstructed values."""
    v1 = SZCompressor(SZConfig(error_bound=1e-3)).compress(data)
    v2 = SZCompressor(SZConfig(error_bound=1e-3, chunk_size=chunk_size)).compress(data)
    np.testing.assert_array_equal(
        SZCompressor().decompress(v1.payload),
        SZCompressor().decompress(v2.payload),
    )


def _huffman_bits(raw_payload: bytes) -> int:
    """An inner stream's exact Huffman size: the packed bits plus the
    serialized table (one ``<i8`` symbol and one length byte each)."""
    _, sections = read_named_sections(raw_payload)
    meta, table = read_named_sections(sections["huffman"])
    return int(meta["nbits"]) + 8 * (len(table["table_symbols"]) + len(table["table_lengths"]))


@_settings
@given(
    data=st.one_of(float_arrays(), ramps()),
    chunk_size=st.integers(min_value=1, max_value=400),
)
def test_adaptive_chunks_choose_the_smaller_stream(data, chunk_size):
    """In a v2 payload every chunk makes the per-stream choice for itself:
    each adaptive chunk is byte-identical to the ``none`` or the ``lorenzo``
    chunk, whichever Huffman-codes smaller (direct on a tie)."""
    payloads = {
        predictor: read_named_sections(
            SZCompressor(
                SZConfig(error_bound=1e-3, predictor=predictor, chunk_size=chunk_size)
            )
            .compress(data)
            .payload
        )[1]
        for predictor in ("adaptive", "none", "lorenzo")
    }
    zlib = get_backend("zlib")
    for name, chunk in payloads["adaptive"].items():
        candidates = [payloads[kind][name] for kind in ("none", "lorenzo")]
        sizes = [_huffman_bits(zlib.decompress(blob)) for blob in candidates]
        winner = candidates[int(np.argmin(sizes))]
        assert chunk == winner
