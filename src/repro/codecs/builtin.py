"""Adapters registering the built-in back ends with the codec registry.

Importing this module (which :mod:`repro.codecs` does eagerly) registers:

* ``"sz"`` — the error-bounded SZ pipeline (:mod:`repro.sz.compressor`),
  including its chunked v2 container and ``workers`` parallelism;
* ``"zfp"`` — the ZFP-style block transform codec (:mod:`repro.zfp.codec`);
* every lossless backend from :mod:`repro.sz.lossless` (``zlib``, ``lzma``,
  ``bz2``, ``huffman``, ``store`` plus their aliases) as byte codecs.

The adapters are thin: they translate the uniform keyword-option surface of
:class:`repro.codecs.base.Codec` into each back end's native configuration
object and ignore options the back end does not understand, so the DeepSZ
encoder can hand one option set to whichever data codec is selected.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.codecs.base import Codec, CodecInfo
from repro.codecs.registry import register_codec
from repro.obs import profile
from repro.sz import lossless as sz_lossless
from repro.sz.compressor import SZCompressionResult, SZCompressor
from repro.sz.config import SZConfig
from repro.zfp.codec import ZFPCompressor, ZFPConfig

__all__ = ["SZCodec", "ZFPCodec", "LosslessByteCodec"]


class SZCodec(Codec):
    """Registry adapter for the SZ error-bounded compressor."""

    info = CodecInfo(
        name="sz",
        error_bounded=True,
        lossless=False,
        chunked=True,
        input_kind="float32",
        description="SZ: Lorenzo/adaptive prediction + quantization + Huffman",
    )

    @staticmethod
    def _config(
        *,
        error_bound: float = 1e-3,
        mode: str = "abs",
        predictor: str | None = None,
        capacity: int = 65536,
        lossless: str = "zlib",
        chunk_size: int | None = None,
        **_ignored,
    ) -> SZConfig:
        kwargs: dict = {
            "error_bound": error_bound,
            "mode": mode,
            "capacity": capacity,
            "lossless": lossless,
            "chunk_size": chunk_size,
        }
        if predictor is not None:
            kwargs["predictor"] = predictor
        return SZConfig(**kwargs)

    def compress(self, data: np.ndarray, *, workers: int = 1, **options) -> bytes:
        return self.compress_result(data, workers=workers, **options).payload

    def compress_result(
        self, data: np.ndarray, *, workers: int = 1, **options
    ) -> SZCompressionResult:
        """Compress and return the full :class:`SZCompressionResult`."""
        return SZCompressor(self._config(**options)).compress(data, workers=workers)

    def compress_and_reconstruct(
        self, data: np.ndarray, *, workers: int = 1, **options
    ) -> tuple[bytes, np.ndarray]:
        """One encode, no decode: the reconstruction comes from the encoder's
        own quantization codes (see :meth:`SZCompressor.compress_and_reconstruct`)."""
        result, recon = SZCompressor(self._config(**options)).compress_and_reconstruct(
            data, workers=workers
        )
        return result.payload, recon

    def decompress(self, payload: bytes, *, workers: int = 1, **_options) -> np.ndarray:
        return SZCompressor().decompress(payload, workers=workers)


class ZFPCodec(Codec):
    """Registry adapter for the ZFP-style block transform codec."""

    info = CodecInfo(
        name="zfp",
        error_bounded=True,
        lossless=False,
        chunked=False,
        input_kind="float32",
        description="ZFP-style block floating-point transform codec",
    )

    @staticmethod
    def _config(
        *,
        error_bound: float | None = 1e-3,
        rate_bits: int | None = None,
        block_size: int = 32,
        use_transform: bool = False,
        **_ignored,
    ) -> ZFPConfig:
        tolerance = None if rate_bits is not None else error_bound
        return ZFPConfig(
            tolerance=tolerance,
            rate_bits=rate_bits,
            block_size=block_size,
            use_transform=use_transform,
        )

    def compress(self, data: np.ndarray, **options) -> bytes:
        return ZFPCompressor(self._config(**options)).compress(data).payload

    def decompress(self, payload: bytes, **_options) -> np.ndarray:
        return ZFPCompressor().decompress(payload)


class LosslessByteCodec(Codec):
    """Registry adapter wrapping one :class:`repro.sz.lossless.LosslessBackend`.

    The codec holds the backend object itself (rather than re-resolving it
    by name on every call), so a pickled codec instance keeps working inside
    spawn-started pool workers whose :mod:`repro.sz.lossless` registry only
    contains the built-ins.  Backends registered or *replaced* after import
    are still picked up transparently: every
    :func:`repro.sz.lossless.register_backend` call fires the registration
    hook, which re-registers a fresh adapter wrapping the new backend.
    """

    def __init__(
        self, backend: sz_lossless.LosslessBackend, aliases: tuple[str, ...] = ()
    ) -> None:
        self._backend = backend
        self.info = CodecInfo(
            name=backend.name,
            error_bounded=False,
            lossless=True,
            chunked=False,
            input_kind="bytes",
            description=f"lossless byte codec ({backend.name})",
            aliases=aliases,
        )

    def compress(self, data: Union[bytes, bytearray, memoryview], **_options) -> bytes:
        return self._backend.compress(bytes(data))

    def decompress(self, payload: bytes, **_options) -> bytes:
        # Registry-path lossless decodes (e.g. a layer's index array) count
        # toward the same "lossless" decode stage as the SZ-internal pass.
        with profile.stage("lossless"):
            return self._backend.decompress(payload)


def _register_lossless(backend: sz_lossless.LosslessBackend) -> None:
    # Invert the lossless alias table so each backend advertises its aliases.
    aliases = tuple(
        sorted(
            alias
            for alias, target in sz_lossless._ALIASES.items()
            if target == backend.name
        )
    )
    register_codec(LosslessByteCodec(backend, aliases))


def _register_builtin() -> None:
    register_codec(SZCodec())
    register_codec(ZFPCodec())
    # The hook replays the already-registered backends and fires again for
    # every future sz_lossless.register_backend call, so backends registered
    # at runtime stay visible through the unified registry too.
    sz_lossless.add_registration_hook(_register_lossless)


_register_builtin()
