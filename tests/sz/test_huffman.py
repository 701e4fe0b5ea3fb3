"""Tests for the canonical Huffman codec."""

import numpy as np
import pytest

from repro.sz.huffman import HuffmanCodec, HuffmanTable
from repro.utils.errors import DecompressionError, ValidationError


@pytest.fixture()
def codec():
    return HuffmanCodec()


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

    def _round_trip_both(self, codec, data):
        from repro.utils.bytesio import read_named_sections
        from repro.utils.bitstream import unpack_bits

        blob = codec.encode(data)
        meta, sections = read_named_sections(blob)
        symbols = np.frombuffer(sections["table_symbols"], dtype="<i8").astype(np.int64)
        lengths = np.frombuffer(sections["table_lengths"], dtype=np.uint8)
        table = HuffmanTable(symbols=symbols, lengths=lengths)
        bits = unpack_bits(sections["payload"], int(meta["nbits"]))
        fast = HuffmanCodec._decode_bits(bits, table, data.size)
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
    try:
        return decode(*args)
    except DecompressionError:
        return DecompressionError


def _assert_same_outcome(bits, table, count, nbits=None):
    """Kernel and reference agree on the first ``nbits`` bits of ``bits``.

    The packed kernel gets every byte of ``bits``, so bits after ``nbits``
    (a truncated header over an intact payload) must not change its result.
    """
    from repro.utils.bitstream import pack_bits

    nbits = bits.size if nbits is None else nbits
    stream = bits[:nbits]
    packed = _outcome(HuffmanCodec._decode_packed, pack_bits(bits), nbits, table, count)
    wrapped = _outcome(HuffmanCodec._decode_bits, stream, table, count)
    slow = _outcome(HuffmanCodec._decode_bits_reference, stream, table, count)
    for fast in (packed, wrapped):
        if fast is DecompressionError or slow is DecompressionError:
            assert fast is slow
        else:
            np.testing.assert_array_equal(fast, slow)
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
            got = _assert_same_outcome(bits, table, count, nbits)
            outcomes["error" if got is DecompressionError else "array"] += 1
        # Both outcomes occur, so neither side is trivially always failing.
        assert outcomes["error"] > 50 and outcomes["array"] > 50
        assert outcomes["long codes"] > 10

    def test_codes_longer_than_the_probe(self, codec):
        rng = np.random.default_rng(5)
        data = _fibonacci_stream(rng, 17)
        table, bits = _table_and_bits(codec, data)
        assert table.max_length > 12
        np.testing.assert_array_equal(_assert_same_outcome(bits, table, data.size), data)
        for seed in range(40):
            flipped = bits.copy()
            flipped[np.random.default_rng(seed).integers(0, bits.size, 2)] ^= True
            _assert_same_outcome(flipped, table, data.size)

    def test_codes_wider_than_one_word(self):
        # Lengths 1, 2, ..., 64, 64: a complete code whose longest codewords
        # exceed the 57 bits one int64 word holds at every in-byte offset.
        lengths = np.concatenate([np.arange(1, 65), [64]]).astype(np.uint8)
        table = HuffmanTable(symbols=np.arange(65, dtype=np.int64) * 3 - 7, lengths=lengths)
        rng = np.random.default_rng(9)
        slots = np.concatenate([rng.integers(0, 65, 300), [64, 63, 58, 57, 0, 64]])
        bits = _encode_with_table(table, slots)
        out = _assert_same_outcome(bits, table, slots.size)
        np.testing.assert_array_equal(out, table.symbols[slots])
        for cut in (1, 7, 40):
            _assert_same_outcome(bits, table, slots.size, bits.size - cut)
        _assert_same_outcome(bits, table, slots.size + 1)

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
            HuffmanCodec._decode_bits(np.zeros(16, dtype=bool), table, 4)
