"""Tests for the canonical Huffman codec."""

import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz import huffman, native
from repro.sz.huffman import HuffmanCodec, HuffmanTable
from repro.utils.bitstream import pack_bits
from repro.utils.bytesio import read_named_sections, write_named_sections
from repro.utils.errors import DecompressionError, ValidationError

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@pytest.fixture()
def codec():
    return HuffmanCodec()


def _c_decode_packed(payload, nbits, table, count):
    """``HuffmanCodec._decode_packed``'s signature, run by the compiled kernel."""
    kernel = native.huffman_kernel()
    assert kernel is not None, "cc is on PATH but the compiled kernel did not load"
    return HuffmanCodec._decode_native(kernel, payload, nbits, table, count)


@needs_cc
def test_compiled_kernel_loads_where_cc_exists():
    # The C test classes below would fail without it; this names the cause.
    assert native.huffman_kernel() is not None


class TestHuffmanRoundtrip:
    def test_simple_roundtrip(self, codec):
        data = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_empty_array(self, codec):
        out = codec.decode(codec.encode(np.zeros(0, dtype=np.int64)))
        assert out.size == 0

    def test_single_element(self, codec):
        data = np.array([42], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_single_symbol_alphabet(self, codec):
        data = np.full(1000, -7, dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_two_symbols(self, codec):
        data = np.array([5, -5] * 100, dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_negative_symbols(self, codec):
        data = np.array([-1000, -1, 0, 1, 1000, -1000, -1000], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_geometric_distribution(self, codec, rng):
        data = rng.geometric(0.3, size=20_000).astype(np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_uniform_large_alphabet(self, codec, rng):
        data = rng.integers(-500, 500, size=10_000).astype(np.int64)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_skewed_quantization_like_distribution(self, codec, rng):
        # Mimics SZ residual codes: overwhelmingly near zero with a long tail.
        data = np.rint(rng.normal(0, 2.0, size=50_000)).astype(np.int64)
        data[rng.random(50_000) < 0.001] = 5000
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_rejects_2d_input(self, codec):
        with pytest.raises(ValidationError):
            codec.encode(np.zeros((2, 2), dtype=np.int64))


class TestHuffmanCompression:
    def test_skewed_data_compresses_well(self, codec, rng):
        data = np.rint(rng.normal(0, 1.0, size=100_000)).astype(np.int64)
        encoded = codec.encode(data)
        # ~2-3 bits/symbol vs 64-bit raw storage; even vs 8-bit it should win.
        assert len(encoded) < data.size

    def test_uniform_data_close_to_entropy(self, codec, rng):
        data = rng.integers(0, 16, size=50_000).astype(np.int64)
        encoded = codec.encode(data)
        bits_per_symbol = 8 * len(encoded) / data.size
        assert bits_per_symbol < 4.6  # entropy is 4 bits; allow table overhead


class TestHuffmanCorruption:
    def test_truncated_payload_raises(self, codec, rng):
        data = rng.integers(0, 50, size=1000).astype(np.int64)
        encoded = codec.encode(data)
        with pytest.raises(DecompressionError):
            codec.decode(encoded[: len(encoded) // 2])

    def test_corrupt_payload_never_returns_original(self, codec):
        data = np.arange(100, dtype=np.int64)
        encoded = bytearray(codec.encode(data))
        # Zero out a chunk in the middle of the blob (hits table or payload).
        encoded[len(encoded) // 2 : len(encoded) // 2 + 8] = b"\x00" * 8
        try:
            out = codec.decode(bytes(encoded))
        except DecompressionError:
            return  # detected corruption: acceptable outcome
        # Decoding "succeeded": the corruption must at least be visible.
        assert not np.array_equal(out, data)


    @pytest.mark.parametrize("count", [-5, 1 << 40])
    def test_corrupt_count_raises_decompression_error(self, codec, count):
        # A huge count used to reach the kernel's output allocation
        # (MemoryError), a negative one numpy's shape check (ValueError).
        meta, sections = read_named_sections(codec.encode(np.arange(10, dtype=np.int64)))
        meta["count"] = count
        with pytest.raises(DecompressionError):
            codec.decode(write_named_sections(sections, meta=meta))


class TestHuffmanTable:
    def test_canonical_codes_are_prefix_free(self):
        table = HuffmanTable(
            symbols=np.array([10, 20, 30, 40]), lengths=np.array([1, 2, 3, 3], dtype=np.uint8)
        )
        codes = table.codes()
        rendered = [
            format(int(c), f"0{int(l)}b") for c, l in zip(codes, table.lengths)
        ]
        for i, a in enumerate(rendered):
            for j, b in enumerate(rendered):
                if i != j:
                    assert not b.startswith(a)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValidationError):
            HuffmanTable(symbols=np.array([1, 2]), lengths=np.array([1], dtype=np.uint8))


class TestVectorizedDecodeKernel:
    """Differential tests: the batched decode kernel vs the scalar reference."""

    kernel = staticmethod(HuffmanCodec._decode_packed)

    def _round_trip_both(self, codec, data):
        from repro.utils.bytesio import read_named_sections
        from repro.utils.bitstream import unpack_bits

        blob = codec.encode(data)
        meta, sections = read_named_sections(blob)
        symbols = np.frombuffer(sections["table_symbols"], dtype="<i8").astype(np.int64)
        lengths = np.frombuffer(sections["table_lengths"], dtype=np.uint8)
        table = HuffmanTable(symbols=symbols, lengths=lengths)
        bits = unpack_bits(sections["payload"], int(meta["nbits"]))
        fast = self.kernel(pack_bits(bits), bits.size, table, data.size)
        slow = HuffmanCodec._decode_bits_reference(bits, table, data.size)
        np.testing.assert_array_equal(fast, slow)
        np.testing.assert_array_equal(fast, data)

    def test_matches_reference_geometricish(self, codec, rng):
        data = np.rint(rng.standard_normal(20_000) * 2).astype(np.int64)
        self._round_trip_both(codec, data)

    def test_matches_reference_long_tail(self, codec, rng):
        # A wide alphabet pushes many codes past the fast-table width, so the
        # canonical-range slow path is exercised heavily.
        data = np.concatenate(
            [np.zeros(30_000, dtype=np.int64), rng.integers(-30_000, 30_000, 15_000)]
        )
        rng.shuffle(data)
        self._round_trip_both(codec, data)

    def test_matches_reference_uniform_alphabet(self, codec, rng):
        data = rng.integers(0, 5000, size=25_000).astype(np.int64)
        self._round_trip_both(codec, data)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 1000])
    def test_chain_stride_boundaries(self, codec, rng, n):
        # Sizes around the lockstep stride (32) hit the anchor-walk edges.
        data = rng.integers(-40, 40, size=n).astype(np.int64)
        self._round_trip_both(codec, data)

    def test_two_symbol_alphabet(self, codec):
        data = np.tile(np.array([7, -7], dtype=np.int64), 500)
        self._round_trip_both(codec, data)

    def test_truncated_bitstream_raises(self, codec, rng):
        from repro.utils.bytesio import read_named_sections, write_named_sections

        data = rng.integers(0, 200, size=5000).astype(np.int64)
        blob = codec.encode(data)
        meta, sections = read_named_sections(blob)
        sections["payload"] = sections["payload"][: len(sections["payload"]) // 2]
        meta["nbits"] = len(sections["payload"]) * 8
        with pytest.raises(DecompressionError):
            codec.decode(write_named_sections(sections, meta=meta))


@needs_cc
class TestVectorizedDecodeKernelC(TestVectorizedDecodeKernel):
    """The same differential tests for the compiled kernel."""

    kernel = staticmethod(_c_decode_packed)


def _table_and_bits(codec, data):
    from repro.utils.bitstream import unpack_bits
    from repro.utils.bytesio import read_named_sections

    meta, sections = read_named_sections(codec.encode(data))
    table = HuffmanTable(
        symbols=np.frombuffer(sections["table_symbols"], dtype="<i8").astype(np.int64),
        lengths=np.frombuffer(sections["table_lengths"], dtype=np.uint8),
    )
    return table, unpack_bits(sections["payload"], int(meta["nbits"]))


def _outcome(decode, *args):
    """The decoded array, or the message of the DecompressionError raised."""
    try:
        return decode(*args)
    except DecompressionError as exc:
        return str(exc)


def _assert_same_outcome(bits, table, count, nbits=None, kernel=HuffmanCodec._decode_packed):
    """``kernel`` and the reference agree on the first ``nbits`` bits of ``bits``.

    ``kernel`` gets every byte of ``bits``, so bits after ``nbits`` (a
    truncated header over an intact payload) must not change its result.
    Where it raises, it raises the numpy kernel's error for the same stream.
    """
    nbits = bits.size if nbits is None else nbits
    stream = bits[:nbits]
    packed = _outcome(kernel, pack_bits(bits), nbits, table, count)
    wrapped = _outcome(HuffmanCodec._decode_bits, stream, table, count)
    slow = _outcome(HuffmanCodec._decode_bits_reference, stream, table, count)
    for fast in (packed, wrapped):
        if isinstance(fast, str) or isinstance(slow, str):
            assert isinstance(fast, str) and isinstance(slow, str)
        else:
            np.testing.assert_array_equal(fast, slow)
    if isinstance(packed, str):
        assert packed == wrapped
        return DecompressionError
    return packed


def _encode_with_table(table, slots):
    """Bits of the canonical codes of ``table`` at ``slots``."""
    codes, lengths = table.codes(), table.lengths
    text = "".join(format(int(codes[s]), f"0{int(lengths[s])}b") for s in slots)
    return np.frombuffer(text.encode(), dtype=np.uint8) == ord("1")


def _fibonacci_stream(rng, nsym):
    """Symbols with Fibonacci frequencies: the deepest Huffman tree, whose
    longest codes are ``nsym - 1`` bits."""
    fib = [1, 1]
    while len(fib) < nsym:
        fib.append(fib[-1] + fib[-2])
    data = np.repeat(rng.permutation(2 * nsym)[:nsym] - nsym, fib).astype(np.int64)
    rng.shuffle(data)
    return data


class TestCorruptionDifferential:
    """On corrupt input the kernel and the scalar reference agree: the same
    array, or both raise DecompressionError."""

    kernel = staticmethod(HuffmanCodec._decode_packed)

    @staticmethod
    def _stream(rng):
        n = int(rng.integers(1, 400))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            data = rng.integers(-8, 8, size=n)
        elif kind == 1:
            data = np.rint(rng.standard_normal(n) * 3)
        elif kind == 2:
            data = _fibonacci_stream(rng, 15)
        else:
            data = rng.integers(0, 2, size=n)
        return data.astype(np.int64)

    def test_seeded_corruptions_agree(self, codec):
        outcomes = {"error": 0, "array": 0, "long codes": 0}
        for seed in range(420):
            rng = np.random.default_rng(seed)
            data = self._stream(rng)
            table, bits = _table_and_bits(codec, data)
            outcomes["long codes"] += table.max_length > 12
            count, nbits = data.size, None
            corruption = seed % 3
            if corruption == 0:
                bits = bits.copy()
                nflips = min(bits.size, int(rng.integers(1, 4)))
                flips = rng.choice(bits.size, size=nflips, replace=False)
                bits[flips] ^= True
            elif corruption == 1:
                nbits = max(0, bits.size - int(rng.integers(1, 21)))
            else:
                count += int(rng.integers(1, 10))
            got = _assert_same_outcome(bits, table, count, nbits, self.kernel)
            outcomes["error" if got is DecompressionError else "array"] += 1
        # Both outcomes occur, so neither side is trivially always failing.
        assert outcomes["error"] > 50 and outcomes["array"] > 50
        assert outcomes["long codes"] > 10

    def test_codes_longer_than_the_probe(self, codec):
        rng = np.random.default_rng(5)
        data = _fibonacci_stream(rng, 17)
        table, bits = _table_and_bits(codec, data)
        assert table.max_length > 12
        got = _assert_same_outcome(bits, table, data.size, kernel=self.kernel)
        np.testing.assert_array_equal(got, data)
        for seed in range(40):
            flipped = bits.copy()
            flipped[np.random.default_rng(seed).integers(0, bits.size, 2)] ^= True
            _assert_same_outcome(flipped, table, data.size, kernel=self.kernel)

    def test_codes_wider_than_one_word(self):
        # Lengths 1, 2, ..., 64, 64: a complete code whose longest codewords
        # exceed the 57 bits one int64 word holds at every in-byte offset.
        lengths = np.concatenate([np.arange(1, 65), [64]]).astype(np.uint8)
        table = HuffmanTable(symbols=np.arange(65, dtype=np.int64) * 3 - 7, lengths=lengths)
        rng = np.random.default_rng(9)
        slots = np.concatenate([rng.integers(0, 65, 300), [64, 63, 58, 57, 0, 64]])
        bits = _encode_with_table(table, slots)
        out = _assert_same_outcome(bits, table, slots.size, kernel=self.kernel)
        np.testing.assert_array_equal(out, table.symbols[slots])
        for cut in (1, 7, 40):
            _assert_same_outcome(bits, table, slots.size, bits.size - cut, self.kernel)
        _assert_same_outcome(bits, table, slots.size + 1, kernel=self.kernel)

    @pytest.mark.parametrize(
        "lengths",
        [[2, 1], [1, 1, 1], [0, 1], [1, 65]],
        ids=["unsorted", "over-subscribed", "zero-length", "too-long"],
    )
    def test_impossible_table_rejected(self, lengths):
        table = HuffmanTable(
            symbols=np.arange(len(lengths), dtype=np.int64),
            lengths=np.asarray(lengths, dtype=np.uint8),
        )
        with pytest.raises(DecompressionError):
            self.kernel(pack_bits(np.zeros(16, dtype=bool)), 16, table, 4)


@needs_cc
class TestCorruptionDifferentialC(TestCorruptionDifferential):
    """The same corruption differential for the compiled kernel."""

    kernel = staticmethod(_c_decode_packed)


def _pack_bits_reference(codes, lengths):
    """Scalar reference packer (the encode-side sibling of
    ``HuffmanCodec._decode_bits_reference``): append every code's bits
    MSB-first, one code at a time.  Returns ``(payload, nbits)``."""
    text = "".join(
        format(int(code), f"0{int(length)}b") for code, length in zip(codes, lengths)
    )
    bits = np.frombuffer(text.encode(), dtype=np.uint8) == ord("1")
    return np.packbits(bits).tobytes(), len(text)


def _code_lengths_reference(counts):
    """The list-merging Huffman construction ``_code_lengths`` replaced:
    every merge bumps the length of each leaf below it."""
    import heapq

    n = len(counts)
    if n == 1:
        return np.array([1], dtype=np.uint8)
    heap = [(int(c), i, [i]) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    lengths = np.zeros(n, dtype=np.int64)
    tie = n
    while len(heap) > 1:
        c1, _, leaves1 = heapq.heappop(heap)
        c2, _, leaves2 = heapq.heappop(heap)
        merged = leaves1 + leaves2
        lengths[merged] += 1
        heapq.heappush(heap, (c1 + c2, tie, merged))
        tie += 1
    return lengths.astype(np.uint8)


def _random_codes(rng, n, max_length=64):
    """``n`` right-aligned codes of random lengths in 1..max_length."""
    lengths = rng.integers(1, max_length + 1, size=n).astype(np.uint8)
    codes = rng.integers(0, 1 << 63, size=n, dtype=np.uint64, endpoint=True)
    codes >>= (64 - lengths.astype(np.int64)).astype(np.uint64)
    return codes, lengths


def _encoded_and_reference(data):
    """``(payload, nbits)`` of ``HuffmanCodec.encode(data)``, and of the
    scalar reference packer over the same canonical table."""
    meta, sections = read_named_sections(HuffmanCodec().encode(data))
    symbols = np.frombuffer(sections["table_symbols"], dtype="<i8")
    table = HuffmanTable(
        symbols=symbols, lengths=np.frombuffer(sections["table_lengths"], dtype=np.uint8)
    )
    order = np.argsort(symbols)
    slots = order[np.searchsorted(symbols[order], data)]
    reference = _pack_bits_reference(table.codes()[slots], table.lengths[slots])
    return (sections["payload"], int(meta["nbits"])), reference


class TestEncoderOracle:
    """The word packer and the parent-pointer code lengths against scalar
    references."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 600),
        max_length=st.sampled_from([1, 7, 32, 33, 63, 64]),
        chunk=st.sampled_from([1, 5, 64, 1 << 18]),
    )
    def test_pack_codes_matches_reference(self, seed, n, max_length, chunk):
        # Codes past 32 bits and passes of a few codes each put code ends,
        # word spills and pass boundaries everywhere.
        codes, lengths = _random_codes(np.random.default_rng(seed), n, max_length)
        with mock.patch.object(huffman, "_PACK_CHUNK", chunk):
            got = huffman._pack_codes(codes, lengths)
        assert got == _pack_bits_reference(codes, lengths)

    def test_pack_codes_across_the_chunk_boundary(self):
        rng = np.random.default_rng(17)
        codes, lengths = _random_codes(rng, huffman._PACK_CHUNK + 1001)
        assert huffman._pack_codes(codes, lengths) == _pack_bits_reference(codes, lengths)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alphabet=st.integers(1, 300),
        n=st.integers(1, 3000),
        skew=st.floats(0.0, 3.0),
    )
    def test_encode_matches_reference_packer(self, seed, alphabet, n, skew):
        rng = np.random.default_rng(seed)
        values = rng.choice(1 << 40, size=alphabet, replace=False) - (1 << 39)
        weights = np.arange(1, alphabet + 1, dtype=np.float64) ** -skew
        data = rng.choice(values, size=n, p=weights / weights.sum()).astype(np.int64)
        got, want = _encoded_and_reference(data)
        assert got == want

    def test_encode_across_the_chunk_boundary(self, rng):
        data = np.rint(rng.standard_normal(huffman._PACK_CHUNK + 5000) * 40)
        got, want = _encoded_and_reference(data.astype(np.int64))
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 2000),
        spread=st.sampled_from([1, 40, 1 << 20, 1 << 62]),
    )
    def test_unique_counts_matches_numpy(self, seed, n, spread):
        # Narrow spreads take the histogram, wide ones the sort.
        data = np.random.default_rng(seed).integers(-spread, spread, size=n)
        got = huffman._unique_counts(data)
        want = np.unique(data, return_inverse=True, return_counts=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=80, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 50), min_size=1, max_size=400),
    )
    def test_code_lengths_match_list_merging(self, counts):
        # Counts drawn from a small range tie often, so the heap's tie-break
        # order decides the lengths.
        counts = np.array(counts, dtype=np.int64)
        symbols = np.arange(counts.size, dtype=np.int64)
        np.testing.assert_array_equal(
            huffman._code_lengths(symbols, counts), _code_lengths_reference(counts)
        )

    def test_code_lengths_fibonacci_depth(self):
        # Fibonacci counts build the deepest tree: lengths 1 .. n-1.
        fib = [1, 1]
        while len(fib) < 40:
            fib.append(fib[-1] + fib[-2])
        counts = np.array(fib, dtype=np.int64)
        lengths = huffman._code_lengths(np.arange(40), counts)
        np.testing.assert_array_equal(lengths, _code_lengths_reference(counts))
        assert int(lengths.max()) == 39
