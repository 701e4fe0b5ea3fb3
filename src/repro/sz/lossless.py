"""Lossless back ends for the SZ pipeline and the DeepSZ index arrays.

The paper's Step 4 picks the best-fit lossless compressor (Gzip, Zstandard,
Blosc) for each index array and reports (Fig. 4) that Zstandard always wins.
Zstandard, Blosc and the original Gzip binary are not available offline, so
this module exposes the general-purpose byte compressors that ship with
CPython (zlib/"gzip", lzma, bz2) plus a trivial "store" codec, behind one
registry.  The *selection machinery* — try every registered codec, keep the
smallest output, record the winner — is exactly the paper's best-fit step and
is what the DeepSZ encoder calls.

``"huffman"`` is the repo's canonical Huffman codec (:mod:`repro.sz.huffman`)
over the bytes as uint8 symbols, with its one-byte symbol table.  An index
array of position deltas is a skewed, nearly memoryless byte stream, so an
order-0 entropy coder codes the large layers' indexes a little smaller than
``lzma`` and decodes them several times faster through the compiled decode
kernel.  It is the last of :data:`INDEX_LOSSLESS_CANDIDATES`, so the
best-fit step picks it only where it is strictly smaller.

For readability in tables, ``"gzip"`` is an alias of ``"zlib"`` and
``"zstd-like"`` is an alias of ``"lzma"`` (the strongest general-purpose codec
available offline, playing Zstandard's role of "the back end that wins").
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable

import numpy as np

from repro.sz.huffman import HuffmanCodec
from repro.utils.errors import ConfigurationError, DecompressionError

__all__ = [
    "INDEX_LOSSLESS_CANDIDATES",
    "LosslessBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "best_fit_backend",
]


@dataclass(frozen=True)
class LosslessBackend:
    """A named lossless codec (compress / decompress byte transforms)."""

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]

    def ratio(self, data: bytes) -> float:
        """Compression ratio achieved on ``data`` (original / compressed)."""
        if len(data) == 0:
            return 1.0
        return len(data) / max(1, len(self.compress(data)))


_REGISTRY: Dict[str, LosslessBackend] = {}
_ALIASES: Dict[str, str] = {"gzip": "zlib", "zstd-like": "lzma", "blosc-like": "bz2"}

#: Callbacks invoked on every registration; the unified codec registry
#: (:mod:`repro.codecs.builtin`) installs one so backends registered at
#: runtime become visible there too.
_REGISTRATION_HOOKS: list = []


def add_registration_hook(hook, *, replay: bool = True) -> None:
    """Call ``hook(backend)`` for every future (and, with ``replay``, every
    already-registered) backend."""
    _REGISTRATION_HOOKS.append(hook)
    if replay:
        for backend in list(_REGISTRY.values()):
            hook(backend)


def register_backend(backend: LosslessBackend) -> None:
    """Register a lossless codec under its name (overwrites an existing one)."""
    _REGISTRY[backend.name] = backend
    for hook in _REGISTRATION_HOOKS:
        hook(backend)


def available_backends() -> list[str]:
    """Names of all registered codecs (aliases excluded)."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> LosslessBackend:
    """Look up a codec by name or alias."""
    key = _ALIASES.get(name, name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown lossless backend {name!r}; available: {available_backends()}"
        ) from None


def best_fit_backend(data: bytes, candidates: Iterable[str] | None = None) -> tuple[LosslessBackend, bytes]:
    """Try every candidate codec on ``data`` and return the smallest result.

    This is the paper's best-fit lossless selection (Step 4 / Fig. 4).
    Returns the winning backend and its compressed output.
    """
    names = list(candidates) if candidates is not None else available_backends()
    if not names:
        raise ConfigurationError("no lossless backends to choose from")
    best: tuple[LosslessBackend, bytes] | None = None
    for name in names:
        backend = get_backend(name)
        out = backend.compress(data)
        if best is None or len(out) < len(best[1]):
            best = (backend, out)
    assert best is not None
    return best


def _lzma_compress(data: bytes) -> bytes:
    return lzma.compress(data, preset=6)


def _lzma_decompress(data: bytes) -> bytes:
    try:
        return lzma.decompress(data)
    except lzma.LZMAError as exc:
        raise DecompressionError(f"lzma stream corrupt: {exc}") from exc


def _zlib_compress(data: bytes) -> bytes:
    return zlib.compress(data, level=6)


def _zlib_decompress(data: bytes) -> bytes:
    try:
        return zlib.decompress(data)
    except zlib.error as exc:
        raise DecompressionError(f"zlib stream corrupt: {exc}") from exc


def _bz2_compress(data: bytes) -> bytes:
    return bz2.compress(data, compresslevel=9)


def _bz2_decompress(data: bytes) -> bytes:
    try:
        return bz2.decompress(data)
    except (OSError, ValueError) as exc:
        raise DecompressionError(f"bz2 stream corrupt: {exc}") from exc


def _huffman_compress(data: bytes) -> bytes:
    return HuffmanCodec().encode(np.frombuffer(data, dtype=np.uint8))


def _huffman_decompress(data: bytes) -> bytes:
    out = HuffmanCodec().decode(data)
    if out.size and (out.min() < 0 or out.max() > 0xFF):
        raise DecompressionError("huffman byte stream decodes to non-byte symbols")
    return out.astype(np.uint8).tobytes()


def _identity(data: bytes) -> bytes:
    # Module-level (not a lambda) so store backends pickle into pool workers.
    return data


register_backend(LosslessBackend("store", _identity, _identity))
register_backend(LosslessBackend("zlib", _zlib_compress, _zlib_decompress))
register_backend(LosslessBackend("lzma", _lzma_compress, _lzma_decompress))
register_backend(LosslessBackend("bz2", _bz2_compress, _bz2_decompress))
register_backend(LosslessBackend("huffman", _huffman_compress, _huffman_decompress))

#: The default best-fit candidates for the DeepSZ index arrays, in tie-break
#: order (the earlier candidate keeps a tie).
INDEX_LOSSLESS_CANDIDATES = ("zlib", "lzma", "bz2", "huffman")
