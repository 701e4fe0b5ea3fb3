"""The SZ compressor pipeline for 1-D floating point arrays.

Compression stages (Section 2.2 / 3.3 of the paper):

1. resolve the error constraint to an absolute bound,
2. error-controlled linear-scaling quantization (:class:`LinearQuantizer`),
3. prediction of the quantization codes: direct (none), 1-D Lorenzo
   (:func:`lorenzo_encode`), or, with ``PredictorKind.ADAPTIVE`` (the
   default), the per-stream best fit of direct vs Lorenzo by coded size,
4. canonical Huffman coding of the residual codes (:class:`HuffmanCodec`),
5. a lossless back end over the whole payload (:mod:`repro.sz.lossless`).

The decompressor inverts the stages and reconstructs a float32 array whose
element-wise error is bounded by the absolute error bound (outliers are
reconstructed exactly).  It also reads the per-block regression/adaptive
streams of :mod:`repro.sz.regression`; those are read-only, for streams
written by earlier versions.

Containers
----------
Two container formats are produced (see DESIGN.md for the byte layout):

* **v1** (``chunk_size=None``, the default): the whole array is one
  monolithic stream — header, Huffman body, outlier section, all wrapped in
  one lossless pass.  Byte-identical to the historical format.
* **v2** (``chunk_size=N``): the array is split into independently
  compressed chunks of ``N`` elements.  Every chunk carries its own Huffman
  table and outlier section and is losslessly compressed on its own, so
  chunks can be encoded **and** decoded concurrently; the outer header holds
  the chunk index (per-chunk byte extents, element counts and lossless
  backends).  The error bound is resolved *once* against the full array
  (REL / PSNR modes see the global value range), so the reconstruction is
  identical to the v1 path.

``compress(..., workers=k)`` / ``decompress(..., workers=k)`` fan chunk
work out on a :class:`repro.parallel.pool.TaskPool`; ``workers=1`` runs the
same per-chunk code serially and produces bit-identical payloads.  v1
payloads remain decodable forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import profile
from repro.parallel.pool import TaskPool
from repro.sz.config import PredictorKind, SZConfig
from repro.sz.huffman import HuffmanCodec
from repro.sz.lossless import best_fit_backend, get_backend
from repro.sz.predictor import lorenzo_decode, lorenzo_encode
from repro.sz.quantizer import LinearQuantizer, QuantizationResult
from repro.sz.regression import AdaptivePrediction, adaptive_decode
from repro.utils.bytesio import read_named_sections, write_named_sections
from repro.utils.errors import DecompressionError
from repro.utils.validation import as_float32_1d

__all__ = ["SZCompressionResult", "SZCompressor", "compress", "decompress"]

_MAGIC = "repro-sz-v1"
_MAGIC_V2 = "repro-sz-v2"


@dataclass(frozen=True)
class SZCompressionResult:
    """Outcome of one SZ compression call.

    Attributes
    ----------
    payload:
        The self-describing compressed byte string.
    original_bytes / compressed_bytes:
        Sizes before and after compression.
    absolute_bound:
        The absolute error bound that was actually enforced (after resolving
        REL / PSNR modes).
    lossless_backend:
        Name of the lossless codec used for the final stage (``"mixed"``
        when a chunked payload's best-fit selection picked different winners
        for different chunks).
    outlier_count:
        Number of values stored verbatim through the unpredictable path.
    num_chunks:
        Number of independently compressed chunks: 1 for a v1 payload,
        and for v2 exactly the container header's ``num_chunks`` (0 for an
        empty array).
    """

    payload: bytes
    original_bytes: int
    compressed_bytes: int
    absolute_bound: float
    lossless_backend: str
    outlier_count: int
    num_chunks: int = 1

    @property
    def ratio(self) -> float:
        """Compression ratio (original size / compressed size)."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes

    @property
    def bits_per_value(self) -> float:
        """Average encoded bits per original value."""
        count = self.original_bytes // 4
        if count == 0:
            return 0.0
        return 8.0 * self.compressed_bytes / count


def _encode_raw(
    data: np.ndarray, abs_bound: float, cfg: SZConfig
) -> tuple[bytes, QuantizationResult]:
    """Quantize + predict + Huffman-code one array into a raw inner payload.

    Returns ``(raw_payload, quantization)``.  The raw payload is the
    pre-lossless stream shared by the v1 body and every v2 chunk; the
    quantization is what :func:`_reconstruct` turns into the decoded array.
    """
    quantizer = LinearQuantizer(abs_bound, capacity=cfg.capacity)
    qr = quantizer.quantize(data)

    # ADAPTIVE is the best fit per stream: the direct codes or their Lorenzo
    # residuals, whichever Huffman-codes smaller (direct on a tie: it has no
    # prefix sum to decode).  The stream records the kind that won, so it
    # decodes through that kind's branch.
    kinds = (cfg.predictor,)
    if cfg.predictor is PredictorKind.ADAPTIVE:
        kinds = (PredictorKind.NONE, PredictorKind.LORENZO)
    streams = [lorenzo_encode(qr.codes) if k is PredictorKind.LORENZO else qr.codes for k in kinds]
    pick, encoded = HuffmanCodec().encode_smallest(streams)
    sections = {
        "huffman": encoded,
        "outlier_mask": np.packbits(qr.outlier_mask).tobytes() if qr.outlier_count else b"",
        "outliers": qr.outliers.astype("<f4").tobytes(),
    }
    meta = {
        "magic": _MAGIC,
        "count": int(data.size),
        "abs_bound": float(abs_bound),
        "predictor": kinds[pick].value,
        "capacity": int(cfg.capacity),
        "outlier_count": int(qr.outlier_count),
    }
    return write_named_sections(sections, meta=meta), qr


def _reconstruct(qr: QuantizationResult, abs_bound: float, cfg: SZConfig) -> np.ndarray:
    """The array :func:`_decode_raw` returns for the payload of ``qr``.

    Prediction and Huffman coding are lossless on the integer codes and the
    outlier literals are stored as the same float32 values, so dequantizing
    the encoder's own quantization is bitwise what the decoder produces.
    """
    quantizer = LinearQuantizer(abs_bound, capacity=cfg.capacity)
    return quantizer.dequantize(qr.codes, qr.outlier_mask, qr.outliers)


def _required(fields: dict, key: str):
    """``fields[key]`` of an inner payload's header or sections; a missing
    key is a corrupt payload."""
    try:
        return fields[key]
    except KeyError:
        raise DecompressionError(f"corrupt SZ payload: {key!r} is missing") from None


def _decode_raw(raw_payload: bytes) -> np.ndarray:
    """Inverse of :func:`_encode_raw`."""
    meta, sections = read_named_sections(raw_payload)
    if meta.get("magic") != _MAGIC:
        raise DecompressionError("corrupt SZ payload (inner magic mismatch)")
    count = int(_required(meta, "count"))
    abs_bound = float(_required(meta, "abs_bound"))
    try:
        predictor = PredictorKind(_required(meta, "predictor"))
    except ValueError:
        raise DecompressionError(f"unknown SZ predictor {meta['predictor']!r}") from None
    capacity = int(_required(meta, "capacity"))
    outlier_count = int(_required(meta, "outlier_count"))

    with profile.stage("huffman"):
        residuals = HuffmanCodec().decode(_required(sections, "huffman"))
    if residuals.size != count:
        raise DecompressionError(f"decoded {residuals.size} codes, expected {count}")
    if predictor is PredictorKind.LORENZO:
        with profile.stage("predictor"):
            codes = lorenzo_decode(residuals)
    elif predictor is PredictorKind.ADAPTIVE:
        # Per-block streams, written only before the per-stream choice.
        num_blocks = int(_required(meta, "num_blocks"))
        modes = np.frombuffer(_required(sections, "block_modes"), dtype=np.uint8)
        if modes.size != num_blocks:
            raise DecompressionError("adaptive block mode table is corrupt")
        coeffs = np.frombuffer(_required(sections, "block_coeffs"), dtype="<f4").reshape(-1, 2)
        with profile.stage("predictor"):
            codes = adaptive_decode(
                AdaptivePrediction(
                    residuals=residuals,
                    modes=modes,
                    coefficients=coeffs.astype(np.float32),
                    block_size=int(_required(meta, "block_size")),
                    count=count,
                )
            )
    else:
        codes = residuals

    if outlier_count:
        mask_bits = np.unpackbits(
            np.frombuffer(_required(sections, "outlier_mask"), dtype=np.uint8), count=count
        ).astype(bool)
        outliers = np.frombuffer(_required(sections, "outliers"), dtype="<f4").astype(np.float32)
        if int(mask_bits.sum()) != outlier_count or outliers.size != outlier_count:
            raise DecompressionError("outlier bookkeeping mismatch in SZ payload")
    else:
        mask_bits = None
        outliers = None

    quantizer = LinearQuantizer(abs_bound, capacity=capacity)
    with profile.stage("dequantize"):
        return quantizer.dequantize(codes, mask_bits, outliers)


def _apply_lossless(raw_payload: bytes, lossless: str) -> tuple[bytes, str]:
    """Run the configured lossless stage; returns (compressed, backend name)."""
    if lossless == "best":
        backend, compressed = best_fit_backend(raw_payload)
    else:
        backend = get_backend(lossless)
        compressed = backend.compress(raw_payload)
    return compressed, backend.name


def _encode_chunk_task(
    args: tuple[np.ndarray, float, SZConfig, bool],
) -> tuple[bytes, str, int, np.ndarray | None]:
    """Pool task: encode one chunk to its lossless-compressed payload, plus
    its reconstruction when asked for."""
    chunk, abs_bound, cfg, reconstruct = args
    raw, qr = _encode_raw(chunk, abs_bound, cfg)
    compressed, backend_name = _apply_lossless(raw, cfg.lossless)
    recon = _reconstruct(qr, abs_bound, cfg) if reconstruct else None
    return compressed, backend_name, qr.outlier_count, recon


def _decode_chunk_task(args: tuple[bytes, str]) -> np.ndarray:
    """Pool task: decode one lossless-compressed chunk payload."""
    blob, backend_name = args
    with profile.stage("lossless"):
        raw = get_backend(backend_name).decompress(blob)
    return _decode_raw(raw)


class SZCompressor:
    """Error-bounded lossy compressor for 1-D float arrays (SZ reimplementation)."""

    def __init__(self, config: SZConfig | None = None) -> None:
        self.config = config or SZConfig()

    # -- compression ------------------------------------------------------
    def compress(self, data: np.ndarray, *, workers: int = 1) -> SZCompressionResult:
        """Compress ``data`` under the configured error constraint.

        ``workers`` parallelises chunk encoding for v2 (chunked) payloads;
        the payload bytes are identical for every worker count.
        """
        return self._compress(data, workers, reconstruct=False)[0]

    def compress_and_reconstruct(
        self, data: np.ndarray, *, workers: int = 1
    ) -> tuple[SZCompressionResult, np.ndarray]:
        """:meth:`compress`, plus the array :meth:`decompress` would return
        for the payload, taken from the encoder's own quantization instead
        of a decode (bitwise equal; see :func:`_reconstruct`)."""
        return self._compress(data, workers, reconstruct=True)  # type: ignore[return-value]

    def _compress(
        self, data: np.ndarray, workers: int, reconstruct: bool
    ) -> tuple[SZCompressionResult, np.ndarray | None]:
        data = as_float32_1d(data)
        cfg = self.config
        abs_bound = cfg.absolute_bound(data)
        if cfg.chunk_size is not None:
            return self._compress_chunked(data, abs_bound, workers, reconstruct)

        raw_payload, qr = _encode_raw(data, abs_bound, cfg)
        compressed, backend_name = _apply_lossless(raw_payload, cfg.lossless)
        final = write_named_sections(
            {"body": compressed}, meta={"magic": _MAGIC, "lossless": backend_name}
        )
        result = SZCompressionResult(
            payload=final,
            original_bytes=int(data.size) * 4,
            compressed_bytes=len(final),
            absolute_bound=float(abs_bound),
            lossless_backend=backend_name,
            outlier_count=qr.outlier_count,
        )
        return result, _reconstruct(qr, abs_bound, cfg) if reconstruct else None

    def _compress_chunked(
        self, data: np.ndarray, abs_bound: float, workers: int, reconstruct: bool
    ) -> tuple[SZCompressionResult, np.ndarray | None]:
        cfg = self.config
        chunk_size = int(cfg.chunk_size)  # type: ignore[arg-type]
        n = int(data.size)
        num_chunks = -(-n // chunk_size) if n else 0
        tasks = [
            (data[i * chunk_size : (i + 1) * chunk_size], abs_bound, cfg, reconstruct)
            for i in range(num_chunks)
        ]
        results = TaskPool(workers).map(_encode_chunk_task, tasks)

        sections = {f"chunk/{i}": payload for i, (payload, *_) in enumerate(results)}
        chunk_counts = [int(task[0].size) for task in tasks]
        backends = [backend for _, backend, _, _ in results]
        outlier_count = sum(outliers for _, _, outliers, _ in results)
        meta = {
            "magic": _MAGIC_V2,
            "count": n,
            "abs_bound": float(abs_bound),
            "chunk_size": chunk_size,
            "num_chunks": num_chunks,
            "chunk_counts": chunk_counts,
            "lossless": backends,
            "outlier_count": int(outlier_count),
        }
        final = write_named_sections(sections, meta=meta)
        distinct = sorted(set(backends))
        result = SZCompressionResult(
            payload=final,
            original_bytes=n * 4,
            compressed_bytes=len(final),
            absolute_bound=float(abs_bound),
            lossless_backend=(
                distinct[0] if len(distinct) == 1 else "mixed" if distinct else cfg.lossless
            ),
            outlier_count=int(outlier_count),
            num_chunks=num_chunks,
        )
        if not reconstruct:
            return result, None
        if not results:
            return result, np.zeros(0, dtype=np.float32)
        return result, np.concatenate([recon for *_, recon in results])

    # -- decompression ----------------------------------------------------
    def decompress(self, payload: bytes, *, workers: int = 1) -> np.ndarray:
        """Reconstruct the float32 array from a compressed payload.

        Both container formats are accepted: the monolithic v1 stream and
        the chunked v2 stream (whose chunks are decoded on ``workers``
        parallel workers).
        """
        outer_meta, outer_sections = read_named_sections(payload)
        magic = outer_meta.get("magic")
        if magic == _MAGIC_V2:
            return self._decompress_chunked(outer_meta, outer_sections, workers)
        if magic != _MAGIC:
            raise DecompressionError("not an SZ payload (bad magic)")
        backend = get_backend(outer_meta["lossless"])
        with profile.stage("lossless"):
            raw_payload = backend.decompress(outer_sections["body"])
        return _decode_raw(raw_payload)

    def _decompress_chunked(
        self, meta: dict, sections: dict[str, bytes], workers: int
    ) -> np.ndarray:
        count = int(meta["count"])
        num_chunks = int(meta["num_chunks"])
        chunk_counts = [int(c) for c in meta.get("chunk_counts", [])]
        backends = meta.get("lossless", [])
        if len(chunk_counts) != num_chunks or len(backends) != num_chunks:
            raise DecompressionError("corrupt SZ v2 chunk index")
        if sum(chunk_counts) != count:
            raise DecompressionError("SZ v2 chunk index does not cover the array")
        tasks = []
        for i in range(num_chunks):
            blob = sections.get(f"chunk/{i}")
            if blob is None:
                raise DecompressionError(f"SZ v2 payload is missing chunk {i}")
            tasks.append((blob, str(backends[i])))
        chunks = TaskPool(workers).map(_decode_chunk_task, tasks)
        for i, chunk in enumerate(chunks):
            if chunk.size != chunk_counts[i]:
                raise DecompressionError(
                    f"chunk {i} decoded {chunk.size} values, expected {chunk_counts[i]}"
                )
        if not chunks:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate(chunks)


def compress(
    data: np.ndarray, error_bound: float = 1e-3, *, workers: int = 1, **kwargs
) -> SZCompressionResult:
    """Convenience wrapper: compress with an absolute error bound."""
    cfg = SZConfig(error_bound=error_bound, **kwargs)
    return SZCompressor(cfg).compress(data, workers=workers)


def decompress(payload: bytes, *, workers: int = 1) -> np.ndarray:
    """Convenience wrapper: decompress an SZ payload."""
    return SZCompressor().decompress(payload, workers=workers)
