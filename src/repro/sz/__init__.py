"""SZ error-bounded lossy compressor, reimplemented from scratch.

This package reproduces the SZ pipeline the paper relies on (Tao et al.
IPDPS'17, Liang et al. 2018, Di & Cappello IPDPS'16) for 1-D floating point
arrays, which is exactly the shape of the pruned fc-layer ``data arrays``
DeepSZ compresses:

1. **Prediction** -- a 1-D Lorenzo predictor operating on *decompressed*
   values (equivalently: first differences of the quantization codes) or
   direct quantization; the default takes, per stream, whichever of the two
   Huffman-codes smaller (:mod:`repro.sz.predictor`).
2. **Error-controlled linear-scaling quantization** -- every value is mapped
   to an integer code on a ``2 * error_bound`` grid; codes that fall outside
   the quantizer capacity are stored verbatim as "unpredictable" literals
   (:mod:`repro.sz.quantizer`).
3. **Customised Huffman coding** of the quantization codes
   (:mod:`repro.sz.huffman`).
4. **Lossless back end** (zlib / lzma / bz2 / huffman / store) applied to
   the encoded payload (:mod:`repro.sz.lossless`).

Two container formats are emitted: the monolithic v1 stream and, when
``SZConfig.chunk_size`` is set, the chunked v2 container whose chunks are
independently compressed (own Huffman table + outlier section) and therefore
encode/decode in parallel through :class:`repro.parallel.TaskPool` — see the
top-level DESIGN.md for byte layouts.

The public entry points are :class:`repro.sz.SZCompressor` and the
convenience functions :func:`repro.sz.compress` / :func:`repro.sz.decompress`.
"""

from repro.sz.config import ErrorMode, PredictorKind, SZConfig
from repro.sz.compressor import SZCompressor, SZCompressionResult, compress, decompress
from repro.sz.huffman import HuffmanCodec
from repro.sz.lossless import (
    LosslessBackend,
    available_backends,
    get_backend,
    best_fit_backend,
)
from repro.sz.quantizer import LinearQuantizer, QuantizationResult
from repro.sz.predictor import lorenzo_encode, lorenzo_decode
from repro.sz.regression import AdaptivePrediction, adaptive_decode

__all__ = [
    "ErrorMode",
    "PredictorKind",
    "SZConfig",
    "SZCompressor",
    "SZCompressionResult",
    "compress",
    "decompress",
    "HuffmanCodec",
    "LosslessBackend",
    "available_backends",
    "get_backend",
    "best_fit_backend",
    "LinearQuantizer",
    "QuantizationResult",
    "lorenzo_encode",
    "lorenzo_decode",
    "AdaptivePrediction",
    "adaptive_decode",
]
