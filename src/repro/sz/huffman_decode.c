/* Canonical Huffman decode: one sequential walk over the packed stream.
 *
 * Compiled on first use and loaded through ctypes by repro/sz/native.py;
 * the caller (HuffmanCodec._decode_native) has already checked the header
 * and the code-length table, so this walk only meets stream errors.
 *
 * buf        the payload's first ceil(nbits / 8) bytes, bits past nbits
 *            zeroed, followed by at least 8 zero bytes;
 * per_length per_length[l] = number of codes of length l, l = 0 .. 64;
 * fast_bits  width of the probe table, 1 .. 16;
 * symbols    the table's symbols in canonical (slot) order;
 * out        count decoded symbols.
 *
 * Returns 0, or the status Python maps to a DecompressionError:
 * 1 bitstream exhausted, 2 invalid code, 3 overrun.
 */
#include <stdint.h>
#include <string.h>

/* The 64 stream bits from bit offset pos, MSB first. */
static inline uint64_t window(const uint8_t *buf, int64_t pos)
{
    const uint8_t *p = buf + (pos >> 3);
    int shift = (int)(pos & 7);
    uint64_t w;
#if defined(__GNUC__) && defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    memcpy(&w, p, 8);
    w = __builtin_bswap64(w);
#else
    w = 0;
    for (int k = 0; k < 8; k++)
        w = (w << 8) | p[k];
#endif
    return shift ? (w << shift) | (p[8] >> (8 - shift)) : w;
}

int huffman_decode(const uint8_t *buf, int64_t nbits, const int64_t *per_length,
                   int fast_bits, const int64_t *symbols, int64_t count, int64_t *out)
{
    /* Canonical codes of length l are the values [first[l], first[l] + n);
     * the l-bit prefix of any longer code compares strictly greater. */
    uint64_t first[65];
    int64_t first_slot[65];
    uint64_t code = 0;
    int64_t slot = 0;
    int max_len = 0;
    for (int l = 1; l <= 64; l++) {
        first[l] = code;
        first_slot[l] = slot;
        code = (code + (uint64_t)per_length[l]) << 1;
        slot += per_length[l];
        if (per_length[l])
            max_len = l;
    }

    /* probe[v] = length of the code the fast_bits-bit prefix v starts with,
     * or 0 when that code is longer. Short codes fill the low end in order. */
    uint8_t probe[1 << 16];
    int64_t filled = 0;
    for (int l = 1; l <= fast_bits; l++) {
        int64_t span = per_length[l] << (fast_bits - l);
        memset(probe + filled, l, (size_t)span);
        filled += span;
    }
    memset(probe + filled, 0, (size_t)((1 << fast_bits) - filled));

    int64_t pos = 0;
    for (int64_t i = 0; i < count; i++) {
        if (pos >= nbits)
            return 1;
        uint64_t w = window(buf, pos);
        int l = probe[w >> (64 - fast_bits)];
        if (l == 0) {
            for (l = fast_bits + 1; l <= max_len; l++)
                if ((w >> (64 - l)) - first[l] < (uint64_t)per_length[l])
                    break;
            if (l > max_len)
                return 2;
        }
        out[i] = symbols[first_slot[l] + (int64_t)((w >> (64 - l)) - first[l])];
        pos += l;
    }
    return pos > nbits ? 3 : 0;
}
