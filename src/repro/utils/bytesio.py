"""Named-section binary containers.

SZ and ZFP streams, Huffman payloads, network state dicts and the baseline
codecs all serialise through one layout: an 8-byte little-endian length
(``<Q``), a UTF-8 JSON header of that many bytes holding the metadata dict
and the ``[name, length]`` of every section, then the section payloads in
order.  Keeping the layout in one place means every format gets consistent
truncation / corruption detection for free.
"""

from __future__ import annotations

import io
import json
import struct
from typing import Mapping

from repro.utils.errors import DecompressionError, ValidationError

__all__ = ["write_named_sections", "read_named_sections"]

_LEN = struct.Struct("<Q")


def write_named_sections(sections: Mapping[str, bytes], *, meta: dict | None = None) -> bytes:
    """Serialise named byte sections (plus an optional JSON metadata dict)."""
    for name, blob in sections.items():
        if not isinstance(blob, (bytes, bytearray, memoryview)):
            raise ValidationError(f"section {name!r} payload must be bytes-like")
    header = {
        "meta": meta or {},
        "sections": [[name, len(blob)] for name, blob in sections.items()],
    }
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"".join([_LEN.pack(len(encoded)), encoded, *map(bytes, sections.values())])


def read_named_sections(data: bytes) -> tuple[dict, dict[str, bytes]]:
    """Inverse of :func:`write_named_sections`; returns ``(meta, sections)``."""
    buf = io.BytesIO(data)
    prefix = buf.read(_LEN.size)
    if len(prefix) != _LEN.size:
        raise DecompressionError("truncated section header")
    (length,) = _LEN.unpack(prefix)
    raw = buf.read(length)
    if len(raw) != length:
        raise DecompressionError(
            f"truncated section header: expected {length} bytes, got {len(raw)}"
        )
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecompressionError(f"corrupt section header: {exc}") from exc
    sections: dict[str, bytes] = {}
    for name, length in header.get("sections", []):
        blob = buf.read(length)
        if len(blob) != length:
            raise DecompressionError(f"truncated section {name!r}")
        sections[name] = blob
    return header.get("meta", {}), sections
