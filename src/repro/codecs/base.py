"""The :class:`Codec` protocol and capability metadata.

Every compression back end in the repository — the SZ error-bounded pipeline,
the ZFP-style block codec, and the byte-level lossless backends — is exposed
through one uniform interface so that higher layers (the DeepSZ encoder /
decoder, the assessment harness, benchmarks) select codecs by *name and
capability* instead of importing concrete classes.

A codec is a stateless object with two byte-oriented entry points:

* ``compress(data, **options) -> bytes`` — options are codec-specific
  keyword arguments (``error_bound``, ``chunk_size``, ``workers``, ...);
  every codec ignores options it does not understand, so callers can pass a
  shared option set to interchangeable codecs.
* ``decompress(payload, **options)`` — returns a ``float32`` array for array
  codecs and ``bytes`` for byte codecs.
* ``compress_and_reconstruct(data, **options)`` — the payload together with
  what ``decompress`` returns for it.  The default runs both calls; a codec
  whose encoder already holds the reconstruction (SZ) overrides it to skip
  the decode.

Capabilities are declared up front in :class:`CodecInfo` so callers can
filter (e.g. "error-bounded array codecs only") before committing to a name.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = ["CodecInfo", "Codec"]


@dataclass(frozen=True)
class CodecInfo:
    """Capability metadata of one registered codec.

    Attributes
    ----------
    name:
        Registry key.
    error_bounded:
        The codec honours a per-call ``error_bound`` option (lossy codecs
        with a hard element-wise guarantee).
    lossless:
        Decompression reproduces the input bit-exactly.
    chunked:
        The codec can emit a chunked container whose pieces are
        independently decodable (and therefore encode/decode in parallel
        with a ``workers`` option).
    input_kind:
        ``"float32"`` for 1-D array codecs, ``"bytes"`` for byte codecs.
    description:
        One-line human-readable summary.
    aliases:
        Alternative registry names resolving to this codec.
    """

    name: str
    error_bounded: bool = False
    lossless: bool = False
    chunked: bool = False
    input_kind: str = "float32"
    description: str = ""
    aliases: tuple[str, ...] = field(default=())


class Codec(abc.ABC):
    """Uniform compress/decompress interface over every back end.

    Concrete codecs are stateless: per-call behaviour is controlled entirely
    through keyword options, so one registered instance serves all callers.
    """

    info: CodecInfo

    @property
    def name(self) -> str:
        return self.info.name

    @abc.abstractmethod
    def compress(self, data: Union[np.ndarray, bytes], **options) -> bytes:
        """Compress ``data`` into a self-describing payload."""

    @abc.abstractmethod
    def decompress(self, payload: bytes, **options) -> Union[np.ndarray, bytes]:
        """Invert :meth:`compress`."""

    def compress_and_reconstruct(
        self, data: Union[np.ndarray, bytes], **options
    ) -> tuple[bytes, Union[np.ndarray, bytes]]:
        """``(payload, decompress(payload))`` for ``compress(data)``.

        Overrides must return the same payload bytes as :meth:`compress` and
        a reconstruction bitwise equal to :meth:`decompress` of it.  The
        payload is self-describing, so the default decodes it with no
        options.
        """
        payload = self.compress(data, **options)
        return payload, self.decompress(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.info.name!r}>"
