"""Canonical Huffman codec for SZ quantization codes.

SZ applies a "customised Huffman encoding" to the stream of quantization
codes.  This module implements a canonical Huffman codec whose encoded form
carries only the (symbol, code-length) table — the actual codes are
reconstructed canonically on both sides, which keeps the header small and the
decoder deterministic.

Encoding is fully vectorised and O(n) in the symbol count: symbols are
counted with a histogram, a ``cumsum`` of the code lengths gives every code
its bit offset, and each code is shifted into the (at most two) big-endian
64-bit words it touches; no code is ever expanded bit by bit.  Decoding
works from the packed payload bytes: one big-endian word per byte yields
the bit window at every offset, one probe of a combined ``slot << 8 |
length`` entry table decodes every short code, and the chain of visited
offsets is extracted with ``np.intp`` gathers.  Where this machine can
build it, a small compiled kernel (:mod:`repro.sz.native`) walks the stream
once instead; the numpy kernel is the portable fallback and its oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.sz import native
from repro.utils.bitstream import pack_bits
from repro.utils.bytesio import read_named_sections, write_named_sections
from repro.utils.errors import CompressionError, DecompressionError, ValidationError

__all__ = ["HuffmanCodec", "HuffmanTable"]

_FAST_BITS = 12  # bits probed per offset (4096-entry table); at most 16 for the C kernel
_NO_CODE = -1  # entry-table marker: no code of at most _FAST_BITS bits here
#: The compiled kernel's nonzero statuses.
_KERNEL_ERRORS = {
    1: "Huffman bitstream exhausted",
    2: "invalid Huffman code in stream",
    3: "Huffman bitstream overrun",
}


@dataclass(frozen=True)
class HuffmanTable:
    """Canonical Huffman table: symbols and their code lengths.

    ``symbols`` are the distinct source symbols in canonical order (sorted by
    (length, symbol)); ``lengths`` are the corresponding code lengths.
    """

    symbols: np.ndarray  # int64, canonical order
    lengths: np.ndarray  # uint8, same order

    def __post_init__(self) -> None:
        if self.symbols.shape != self.lengths.shape:
            raise ValidationError("symbols and lengths must have equal length")

    @property
    def max_length(self) -> int:
        return int(self.lengths.max()) if self.lengths.size else 0

    def codes(self) -> np.ndarray:
        """Canonical code values (uint64), aligned with :attr:`symbols`."""
        if self.symbols.size == 0:
            return np.zeros(0, dtype=np.uint64)
        lengths = self.lengths.astype(np.int64)
        codes = np.empty(self.symbols.size, dtype=np.uint64)
        # One step per run of equal length: the run takes consecutive codes,
        # and the next run starts one past its end, shifted to its length.
        bounds = np.flatnonzero(np.diff(lengths)) + 1
        starts = [0, *bounds.tolist()]
        ends = [*bounds.tolist(), self.symbols.size]
        code = 0
        prev_len = int(lengths[0])
        for start, end in zip(starts, ends):
            length = int(lengths[start])
            code <<= length - prev_len
            codes[start:end] = np.uint64(code) + np.arange(end - start, dtype=np.uint64)
            code += end - start
            prev_len = length
        return codes


def _code_lengths(symbols: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths for ``symbols`` with frequencies ``counts``."""
    n = symbols.size
    if n == 1:
        return np.array([1], dtype=np.uint8)
    # Standard heap-based Huffman; the alphabet is at most `capacity` symbols
    # (a few thousand in practice), so a Python heap is not a hot path.
    # Heap keys are (count, node id): leaves are 0..n-1 and merged nodes
    # take ids n, n+1, ... in merge order, so ties break by age.
    heap = [(int(c), i) for i, c in enumerate(counts.tolist())]
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    node = n
    while len(heap) > 1:
        c1, a = heapq.heappop(heap)
        c2, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (c1 + c2, node))
        node += 1
    # A parent always has a larger id than its children, so one pass from
    # the root (id 2n-2) downwards sees every parent's depth first.
    depth = [0] * (2 * n - 1)
    for i in range(2 * n - 3, -1, -1):
        depth[i] = depth[parent[i]] + 1
    lengths = np.array(depth[:n], dtype=np.int64)
    if np.any(lengths > 64):
        raise CompressionError("Huffman code length exceeds 64 bits")
    return lengths.astype(np.uint8)


def _check_canonical(lengths: np.ndarray) -> None:
    """Reject a code-length table no canonical Huffman encoder can produce.

    Lengths must lie in ``[1, 64]``, be sorted (canonical order) and satisfy
    the Kraft inequality, so every canonical code fits in its length.
    """
    if lengths.size == 0 or lengths[0] < 1 or lengths[-1] > 64:
        raise DecompressionError("corrupt Huffman table")
    if lengths.size > 1 and np.any(lengths[1:] < lengths[:-1]):
        raise DecompressionError("corrupt Huffman table")
    per_length = np.bincount(lengths, minlength=65).tolist()
    if sum(n << (64 - length) for length, n in enumerate(per_length)) > 1 << 64:
        raise DecompressionError("corrupt Huffman table")


def _trivial_decode(
    payload: bytes, nbits: int, table: HuffmanTable, count: int
) -> np.ndarray | None:
    """The checks both decode kernels run first.

    Raises on a header that claims more bits than ``payload`` holds or a
    code-length table no canonical encoder can produce; returns the output
    when no kernel needs to run, else ``None``.
    """
    if nbits < 0 or nbits > 8 * len(payload):
        raise DecompressionError(
            f"bitstream truncated: need {nbits} bits, have {8 * len(payload)}"
        )
    _check_canonical(table.lengths)
    if count < 0:
        raise DecompressionError(f"corrupt Huffman header: count {count}")
    if table.symbols.size == 1:
        # Degenerate single-symbol alphabet: every element is that symbol.
        return np.full(count, table.symbols[0], dtype=np.int64)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if count > nbits:
        # Every code is at least one bit, so the stream ends first.  Checked
        # before a kernel allocates output for a corrupt ``count``.
        raise DecompressionError("Huffman bitstream exhausted")
    return None


def _zero_padded(payload: bytes, nbits: int, size: int) -> np.ndarray:
    """The first ``nbits`` bits of ``payload`` in ``size`` bytes, the rest zero."""
    nbytes = (nbits + 7) >> 3
    buf = np.zeros(size, dtype=np.uint8)
    buf[:nbytes] = np.frombuffer(payload, dtype=np.uint8, count=nbytes)
    if nbits & 7:
        buf[nbytes - 1] &= (0xFF << (8 - (nbits & 7))) & 0xFF
    return buf


def _resolve_long_codes(
    entry_at: np.ndarray,
    words: np.ndarray,
    buf: np.ndarray,
    table: HuffmanTable,
    fast_bits: int,
) -> None:
    """Fill in ``entry_at`` where the code is longer than ``fast_bits``.

    Canonical codes of one length occupy a contiguous value range
    ``[first, first + n)``, and the ``l``-bit prefix of any longer canonical
    code compares strictly greater, so one range test per length is exact.
    The 64 bits from offset ``8*i + j`` are ``word[i] << j`` plus the top
    ``j`` bits of byte ``i + 8``: codes up to the 64-bit limit of
    :func:`_code_lengths` resolve from one word and one byte.
    """
    miss = np.flatnonzero(entry_at == _NO_CODE)
    if miss.size == 0:
        return
    byte = miss >> 3
    shift = (miss & 7).astype(np.uint64)
    value64 = words.view(np.uint64)[byte] << shift
    value64 |= buf[byte + 8].astype(np.uint64) >> (np.uint64(8) - shift)
    lengths = table.lengths
    codes = table.codes()
    unresolved = np.ones(miss.size, dtype=bool)
    for length in np.unique(lengths[lengths > fast_bits]).tolist():
        first_slot = int(np.searchsorted(lengths, length, side="left"))
        n = int(np.searchsorted(lengths, length, side="right")) - first_slot
        first = codes[first_slot]
        value = value64 >> np.uint64(64 - length)
        hit = unresolved & (value >= first) & (value - first < np.uint64(n))
        if np.any(hit):
            slot = (value[hit] - first).astype(np.int64) + first_slot
            entry_at[miss[hit]] = (slot << 8) | length
            unresolved &= ~hit


def _unique_counts(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(data, return_inverse=True, return_counts=True)`` in O(n).

    Quantization residuals span a narrow range, so a histogram over
    ``[min, max]`` replaces the sort.  The histogram costs O(max - min) time
    and memory, so a range much wider than the stream (outlier codes far
    from the rest) falls back to ``np.unique``.
    """
    lo, hi = int(data.min()), int(data.max())
    if hi - lo > 4 * data.size + (1 << 16):
        return np.unique(data, return_inverse=True, return_counts=True)
    offset = data - lo
    histogram = np.bincount(offset)
    present = np.flatnonzero(histogram)
    rank = np.zeros(histogram.size, dtype=np.intp)
    rank[present] = np.arange(present.size)
    return present + lo, rank[offset], histogram[present]


#: Codes packed per pass of :func:`_pack_codes`; bounds its temporaries.
_PACK_CHUNK = 1 << 18


def _pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-length codes MSB-first; returns ``(bytes, nbits)``.

    ``codes[i]`` holds its ``lengths[i]`` (1..64) bits right-aligned.  The
    code starting at bit ``p`` lands in big-endian word ``w = p >> 6`` at
    offset ``o = p & 63``: its head is shifted to end at bit ``o + length``
    of word ``w``, and when that passes 64 the low ``o + length - 64`` bits
    spill into word ``w + 1``.  Codes never overlap, so adding the heads of
    all codes that start in one word (``np.add.reduceat`` over the sorted
    word index) is the same as OR-ing them, and at most one code spills into
    any word.  Passes of :data:`_PACK_CHUNK` codes keep the temporaries
    small; a word shared by two passes just receives two additions.
    """
    ends = np.cumsum(lengths, dtype=np.int64)
    nbits = int(ends[-1]) if ends.size else 0
    words = np.zeros((nbits + 63) >> 6, dtype=np.uint64)
    for start in range(0, codes.size, _PACK_CHUNK):
        stop = start + _PACK_CHUNK
        vals = codes[start:stop]
        lens = lengths[start:stop].astype(np.int64)
        begin = ends[start:stop] - lens
        word = begin >> 6
        # Free bits after the code in its first word; negative = spill.
        room = 64 - (begin & 63) - lens
        head = np.where(
            room >= 0,
            vals << np.maximum(room, 0).astype(np.uint64),
            vals >> np.maximum(-room, 0).astype(np.uint64),
        )
        first = np.flatnonzero(np.diff(word, prepend=-1))
        words[word[first]] += np.add.reduceat(head, first)
        spill = np.flatnonzero(room < 0)
        words[word[spill] + 1] += vals[spill] << (64 + room[spill]).astype(np.uint64)
    return words.astype(">u8").tobytes()[: (nbits + 7) >> 3], nbits


class HuffmanCodec:
    """Encode / decode an integer symbol stream with canonical Huffman codes."""

    # -- encoding --------------------------------------------------------
    def encode(self, data: np.ndarray) -> bytes:
        """Encode a 1-D integer array into a self-describing byte string."""
        data = np.asarray(data)
        if data.ndim != 1:
            raise ValidationError(f"data must be 1-D, got shape {data.shape}")
        data = data.astype(np.int64, copy=False)
        n = int(data.size)
        if n == 0:
            return write_named_sections(
                {"table_symbols": b"", "table_lengths": b"", "payload": b""},
                meta={"count": 0, "nbits": 0},
            )

        symbols, inverse, counts = _unique_counts(data)
        lengths = _code_lengths(symbols, counts)
        # Canonical ordering: by (length, symbol value).
        order = np.lexsort((symbols, lengths))
        table = HuffmanTable(symbols=symbols[order], lengths=lengths[order])
        codes = table.codes()

        # Map each input position to its canonical table slot.
        slot_of_unique = np.empty(symbols.size, dtype=np.int64)
        slot_of_unique[order] = np.arange(symbols.size)
        slots = slot_of_unique[inverse]

        payload, nbits = _pack_codes(codes[slots], table.lengths[slots])

        return write_named_sections(
            {
                "table_symbols": table.symbols.astype("<i8").tobytes(),
                "table_lengths": table.lengths.astype(np.uint8).tobytes(),
                "payload": payload,
            },
            meta={"count": n, "nbits": nbits},
        )

    # -- decoding --------------------------------------------------------
    def decode(self, blob: bytes) -> np.ndarray:
        """Decode a byte string produced by :meth:`encode`."""
        meta, sections = read_named_sections(blob)
        count = int(meta.get("count", 0))
        nbits = int(meta.get("nbits", 0))
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        symbols = np.frombuffer(sections["table_symbols"], dtype="<i8").astype(np.int64)
        lengths = np.frombuffer(sections["table_lengths"], dtype=np.uint8)
        if symbols.size != lengths.size or symbols.size == 0:
            raise DecompressionError("corrupt Huffman table")
        table = HuffmanTable(symbols=symbols, lengths=lengths)
        kernel = native.huffman_kernel()
        if kernel is None:
            return self._decode_packed(sections["payload"], nbits, table, count)
        return self._decode_native(kernel, sections["payload"], nbits, table, count)

    #: Symbols decoded per anchor in the lockstep phase of :meth:`_decode_packed`.
    _CHAIN_STRIDE = 32

    @staticmethod
    def _decode_bits(bits: np.ndarray, table: HuffmanTable, count: int) -> np.ndarray:
        """Decode an unpacked bit array (one bool per bit) with the packed kernel."""
        bits = np.asarray(bits)
        return HuffmanCodec._decode_packed(pack_bits(bits), int(bits.size), table, count)

    @staticmethod
    def _decode_native(
        kernel, payload: bytes, nbits: int, table: HuffmanTable, count: int
    ) -> np.ndarray:
        """Decode with the compiled ``kernel`` (:func:`repro.sz.native.huffman_kernel`).

        One sequential walk: probe the next ``_FAST_BITS`` bits in a table
        of code lengths, fall back to the canonical per-length range test
        for longer codes, and take the slot from the code's offset in its
        length's range.  Same output and errors as :meth:`_decode_packed`.
        """
        done = _trivial_decode(payload, nbits, table, count)
        if done is not None:
            return done
        buf = _zero_padded(payload, nbits, ((nbits + 7) >> 3) + 8)
        per_length = np.bincount(table.lengths, minlength=65).astype(np.int64)
        symbols = np.ascontiguousarray(table.symbols, dtype=np.int64)
        out = np.empty(count, dtype=np.int64)
        fast_bits = min(_FAST_BITS, int(table.lengths[-1]))
        status = kernel(
            buf.ctypes.data,
            nbits,
            per_length.ctypes.data,
            fast_bits,
            symbols.ctypes.data,
            count,
            out.ctypes.data,
        )
        if status:
            raise DecompressionError(_KERNEL_ERRORS[status])
        return out

    @staticmethod
    def _decode_packed(
        payload: bytes, nbits: int, table: HuffmanTable, count: int
    ) -> np.ndarray:
        """Batched NumPy table-probe decode of the first ``nbits`` bits of ``payload``.

        The decode problem is a chain walk — ``pos[i+1] = pos[i] +
        code_length_at(pos[i])`` — so the kernel decodes a code at *every*
        bit offset and then extracts the chain of offsets actually visited:

        1. one big-endian int64 word per payload byte gives the next
           ``fast_bits`` bits at all eight offsets inside that byte with one
           shift and one mask on an ``(nbytes, 8)`` view;
        2. one gather into the entry table (``slot << 8 | length``, built
           with :func:`numpy.repeat` from the canonical code ranges) decodes
           every code of at most ``fast_bits`` bits;
        3. offsets whose probe missed read a 64-bit window (their word plus
           the following byte) and are resolved with one canonical-range
           test per code *length*;
        4. the jump table ``jump[p] = p + length[p]`` yields the chain: five
           doublings build a 32-step jump table, a scalar walk places one
           anchor per 32 symbols, and the 32 symbols after every anchor are
           gathered in vectorised lockstep;
        5. the output symbols are gathered at the visited offsets.

        Positions are ``np.intp``: NumPy casts any other index dtype to
        ``intp`` before a gather.  See DESIGN.md ("Vectorised Huffman
        decode") for the derivation.
        """
        done = _trivial_decode(payload, nbits, table, count)
        if done is not None:
            return done
        symbols = table.symbols
        lengths = table.lengths.astype(np.int64)
        max_len = int(lengths[-1])
        fast_bits = min(_FAST_BITS, max_len)

        # Entry table over the next `fast_bits` bits.  Canonical codes of at
        # most `fast_bits` bits fill its low end as consecutive ranges in
        # slot order; the rest (long-code prefixes, unused space) is _NO_CODE.
        # int32 entries halve the per-bit memory; wide alphabets need int64.
        entry_dtype = np.int32 if symbols.size < 1 << 23 else np.int64
        n_short = int(np.searchsorted(lengths, fast_bits, side="right"))
        spans = np.left_shift(1, fast_bits - lengths[:n_short])
        entries = np.full(1 << fast_bits, _NO_CODE, dtype=entry_dtype)
        short = (np.arange(n_short, dtype=np.int64) << 8) | lengths[:n_short]
        entries[: int(spans.sum())] = np.repeat(short, spans)

        # word[i] = the 8 payload bytes from byte i on, big-endian; bits past
        # `nbits` read as zero.  Codes matched inside that zero padding are
        # rejected by the final overrun check.
        nbytes = (nbits + 7) >> 3
        nwords = (nbytes + 7) >> 3
        buf = _zero_padded(payload, nbits, 8 * nwords + 8)
        words = np.empty((nwords, 8), dtype=np.int64)
        for k in range(8):
            words[:, k] = buf[k : k + 8 * nwords].view(">i8")
        words = words.reshape(-1)[:nbytes]

        # window at bit offset 8*i + j = bits j .. j+fast_bits-1 of word[i].
        shifts = np.arange(64 - fast_bits, 56 - fast_bits, -1, dtype=np.int64)
        window = words[:, None] >> shifts
        window &= (1 << fast_bits) - 1
        entry_at = entries[window.reshape(-1)[:nbits]]
        del window

        if max_len > fast_bits:
            _resolve_long_codes(entry_at, words, buf, table, fast_bits)
        del words, buf

        # Jump table: jump[p] = p + length.  A _NO_CODE offset (length field
        # 0xFF) may jump anywhere, since visiting it raises below.  Offsets
        # past the stream end are absorbing: the longest jump from inside
        # the stream lands in the 0x100-entry tail, where jump[p] = p.
        jump = np.arange(nbits + 0x100, dtype=np.intp)
        jump[:nbits] += entry_at & 0xFF

        # Chain extraction: five doublings build a 32-step jump table, a
        # scalar walk drops one anchor every 32 symbols, and the lockstep
        # phase advances all anchors together one symbol per round.
        stride = HuffmanCodec._CHAIN_STRIDE
        n_anchor = (count + stride - 1) // stride
        anchors = np.zeros(n_anchor, dtype=np.intp)
        if n_anchor > 1:
            hop = jump
            for _ in range(stride.bit_length() - 1):
                hop = hop[hop]
            a = 0
            for i in range(1, n_anchor):
                a = hop[a]
                anchors[i] = a
            del hop
        lanes = np.empty((n_anchor, stride), dtype=np.intp)
        p = anchors
        for r in range(stride):
            lanes[:, r] = p
            p = jump[p]
        positions = lanes.reshape(-1)[:count]

        last = int(positions[-1])
        if last >= nbits:
            # The chain ran off the end: either the stream is short or it hit
            # an offset with no valid code.
            reached = positions[positions < nbits]
            if reached.size and np.any(entry_at[reached] < 0):
                raise DecompressionError("invalid Huffman code in stream")
            raise DecompressionError("Huffman bitstream exhausted")
        found = entry_at[positions]
        if np.any(found < 0):
            raise DecompressionError("invalid Huffman code in stream")
        if last + int(found[-1] & 0xFF) > nbits:
            raise DecompressionError("Huffman bitstream overrun")
        return symbols[found >> 8]

    @staticmethod
    def _decode_bits_reference(
        bits: np.ndarray, table: HuffmanTable, count: int
    ) -> np.ndarray:
        """Scalar reference decoder (the pre-vectorisation algorithm).

        Kept for differential testing of :meth:`_decode_bits`; not used on the
        decode hot path.
        """
        codes = table.codes()
        lengths = table.lengths.astype(np.int64)
        symbols = table.symbols
        if symbols.size == 1:
            return np.full(count, symbols[0], dtype=np.int64)
        by_code: dict[tuple[int, int], int] = {
            (int(lengths[i]), int(codes[i])): int(symbols[i])
            for i in range(symbols.size)
        }
        out = np.empty(count, dtype=np.int64)
        bit_list = bits.astype(np.uint8).tolist()
        nbits = len(bit_list)
        pos = 0
        for i in range(count):
            if pos >= nbits:
                raise DecompressionError("Huffman bitstream exhausted")
            prefix = 0
            length = 0
            while True:
                length += 1
                if length > 64 or pos + length > nbits:
                    raise DecompressionError("invalid Huffman code in stream")
                prefix = (prefix << 1) | bit_list[pos + length - 1]
                sym = by_code.get((length, prefix))
                if sym is not None:
                    out[i] = sym
                    pos += length
                    break
        if pos > nbits:
            raise DecompressionError("Huffman bitstream overrun")
        return out
