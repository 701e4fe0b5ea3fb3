"""Tests for the lossless back-end registry and best-fit selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz.huffman import HuffmanCodec
from repro.sz.lossless import (
    INDEX_LOSSLESS_CANDIDATES,
    LosslessBackend,
    available_backends,
    best_fit_backend,
    get_backend,
    register_backend,
)
from repro.utils.errors import ConfigurationError, DecompressionError


class TestRegistry:
    def test_standard_backends_registered(self):
        names = available_backends()
        for expected in ("store", "zlib", "lzma", "bz2"):
            assert expected in names

    def test_aliases_resolve(self):
        assert get_backend("gzip").name == "zlib"
        assert get_backend("zstd-like").name == "lzma"
        assert get_backend("blosc-like").name == "bz2"

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            get_backend("nope")

    def test_register_custom_backend(self):
        register_backend(LosslessBackend("identity-test", lambda b: b, lambda b: b))
        try:
            assert get_backend("identity-test").compress(b"abc") == b"abc"
        finally:
            # Remove so other tests see the standard registry.
            from repro.sz import lossless

            lossless._REGISTRY.pop("identity-test", None)


class TestBackends:
    @pytest.mark.parametrize("name", ["store", "zlib", "lzma", "bz2", "huffman"])
    def test_roundtrip(self, name, rng):
        backend = get_backend(name)
        payload = rng.integers(0, 8, size=20_000, dtype=np.uint8).tobytes()
        assert backend.decompress(backend.compress(payload)) == payload

    @pytest.mark.parametrize("name", ["zlib", "lzma", "bz2"])
    def test_compresses_redundant_data(self, name):
        backend = get_backend(name)
        payload = b"\x01\x02\x03\x04" * 10_000
        assert len(backend.compress(payload)) < len(payload) / 10

    @pytest.mark.parametrize("name", ["zlib", "lzma", "bz2", "huffman"])
    def test_corrupt_stream_raises(self, name):
        backend = get_backend(name)
        with pytest.raises(DecompressionError):
            backend.decompress(b"this is not a valid stream")

    def test_ratio_helper(self):
        backend = get_backend("zlib")
        assert backend.ratio(b"a" * 10_000) > 10
        assert backend.ratio(b"") == 1.0


def _index_like(rng, n):
    """Position deltas of a ~10%-dense layer: small, skewed byte values."""
    return np.minimum(rng.geometric(0.1, size=n), 255).astype(np.uint8).tobytes()


class TestHuffmanBackend:
    """The canonical Huffman codec as a byte backend."""

    backend = get_backend("huffman")

    def _round_trip(self, payload: bytes) -> bytes:
        blob = self.backend.compress(payload)
        assert self.backend.decompress(blob) == payload
        return blob

    def test_all_byte_values(self, rng):
        self._round_trip(bytes(range(256)))
        self._round_trip(rng.permutation(np.repeat(np.arange(256), 7)).astype(np.uint8).tobytes())

    def test_empty(self):
        self._round_trip(b"")

    @pytest.mark.parametrize("value", [0, 1, 255])
    def test_single_symbol(self, value):
        self._round_trip(bytes([value]) * 1000)
        self._round_trip(bytes([value]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20_000))
    def test_random_index_arrays(self, seed, n):
        self._round_trip(_index_like(np.random.default_rng(seed), n))

    def test_stream_of_non_byte_symbols_is_rejected(self):
        with pytest.raises(DecompressionError, match="non-byte"):
            self.backend.decompress(HuffmanCodec().encode(np.array([3, 300, 3])))
        with pytest.raises(DecompressionError, match="non-byte"):
            self.backend.decompress(HuffmanCodec().encode(np.array([-1, 3])))


class TestBestFit:
    def test_best_fit_picks_smallest(self, rng):
        # Low-entropy index-array-like payload: a real codec must beat store.
        payload = rng.integers(1, 12, size=50_000, dtype=np.uint8).tobytes()
        backend, blob = best_fit_backend(payload)
        assert backend.name != "store"
        assert len(blob) < len(payload)
        assert get_backend(backend.name).decompress(blob) == payload

    def test_best_fit_with_candidate_subset(self):
        payload = b"\x00" * 1000
        backend, _ = best_fit_backend(payload, candidates=["store", "zlib"])
        assert backend.name == "zlib"

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 30_000))
    def test_huffman_never_makes_the_index_fit_larger(self, seed, n):
        payload = _index_like(np.random.default_rng(seed), n)
        others = [name for name in INDEX_LOSSLESS_CANDIDATES if name != "huffman"]
        with_huffman, blob = best_fit_backend(payload, INDEX_LOSSLESS_CANDIDATES)
        without, other_blob = best_fit_backend(payload, others)
        assert len(blob) <= len(other_blob)
        # Huffman is last in the candidate order, so it wins only outright.
        assert (with_huffman.name == "huffman") == (len(blob) < len(other_blob))

    def test_best_fit_empty_candidates_raises(self):
        with pytest.raises(ConfigurationError):
            best_fit_backend(b"data", candidates=[])
