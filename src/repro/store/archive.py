"""The random-access ``.dsz`` model archive (format v2).

The first model container (v1) was a monolithic blob: the JSON header sits
at the front, every layer's payload follows, and a reader must slurp the
whole container before it can touch a single layer.  The archive format here
is the random-access replacement, the only model format still written, and
the storage layer under the :mod:`repro.serve` runtime:

```
offset 0        8-byte magic  b"DSZARC2\\n"
offset 8        segment bytes, back to back (one "sz" + one "index" segment
                per layer, in layer order; offsets recorded in the manifest)
...             manifest: UTF-8 JSON (network, per-layer metadata, and for
                every segment its absolute offset, length and CRC32)
file end - 28   footer: "<QQI" manifest_offset, manifest_length,
                manifest_crc32, then the 8-byte magic again
```

Because the manifest is found *from the footer*, a reader seeks to the end,
reads the manifest, and can then fetch any single layer's segments by offset
— over a file, an ``mmap``, or an in-memory buffer — without reading, CRC-
checking, or decoding any sibling layer.  Every segment carries a CRC32 so
lazy reads still detect corruption, and the manifest itself is checksummed
so a damaged index never silently mis-addresses segments.

v1 monolithic blobs remain readable through the compat path, the only v1
reader: their named-section header *is* a segment index (name + length in
order), so :class:`ModelArchive` synthesises a manifest with computed
offsets and serves lazy per-layer reads from v1 blobs too.  Later v1 blobs
carry per-payload CRC32s in their layer metadata, which the compat reader
picks up; the earliest ones simply skip checksum verification.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Mapping, Union

from repro.core.encoder import CompressedLayer, CompressedModel
from repro.utils.errors import DecompressionError, ValidationError

__all__ = [
    "ARCHIVE_MAGIC",
    "FOOTER_SIZE",
    "SegmentEntry",
    "LayerEntry",
    "ArchiveManifest",
    "manifest_to_dict",
    "manifest_from_dict",
    "archive_bytes",
    "write_archive",
    "is_archive",
    "ModelArchive",
    "archive_input_dim",
]

#: Leading and trailing magic of a v2 archive.
ARCHIVE_MAGIC = b"DSZARC2\n"

_FOOTER = struct.Struct("<QQI")

#: Total footer size: manifest offset + length + CRC32, then the magic.
FOOTER_SIZE = _FOOTER.size + len(ARCHIVE_MAGIC)

#: Manifest format tag (bumped together with ARCHIVE_MAGIC on layout changes).
_MANIFEST_FORMAT = "dsz-manifest-v2"

#: Segment kinds every layer stores, in on-disk order.
SEGMENT_KINDS = ("sz", "index")

_V1_FRAME_LEN = struct.Struct("<Q")
_V1_MAGIC = "repro-deepsz-model-v1"


# ---------------------------------------------------------------------------
# Manifest model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentEntry:
    """Location (and optional checksum) of one byte segment in the archive."""

    offset: int
    length: int
    crc32: int | None = None  #: None for pre-checksum v1 blobs

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ValidationError("segment offset/length must be non-negative")
        if self.crc32 is not None and not (0 <= int(self.crc32) < 2**32):
            raise ValidationError("segment crc32 must fit in 32 bits")

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class LayerEntry:
    """Per-layer manifest record: codec metadata plus segment locations."""

    name: str
    error_bound: float
    shape: tuple[int, int]
    nnz: int
    entry_count: int
    index_backend: str
    data_codec: str
    segments: Mapping[str, SegmentEntry]

    def __post_init__(self) -> None:
        missing = set(SEGMENT_KINDS) - set(self.segments)
        if missing:
            raise ValidationError(
                f"layer {self.name!r} manifest is missing segments: {sorted(missing)}"
            )

    @property
    def compressed_bytes(self) -> int:
        return int(sum(seg.length for seg in self.segments.values()))


@dataclass(frozen=True)
class ArchiveManifest:
    """The archive index: model-level metadata plus every layer's entry."""

    network: str
    expected_accuracy_loss: float
    layers: Mapping[str, LayerEntry]
    version: int = 2
    extra: Mapping[str, object] = field(default_factory=dict)

    @property
    def layer_names(self) -> list[str]:
        return list(self.layers)

    @property
    def compressed_bytes(self) -> int:
        return int(sum(entry.compressed_bytes for entry in self.layers.values()))


def manifest_to_dict(manifest: ArchiveManifest) -> dict:
    """Encode a manifest as the JSON-ready dict stored in the archive."""
    layers = {}
    for name, entry in manifest.layers.items():
        layers[name] = {
            "error_bound": float(entry.error_bound),
            "shape": [int(entry.shape[0]), int(entry.shape[1])],
            "nnz": int(entry.nnz),
            "entry_count": int(entry.entry_count),
            "index_backend": entry.index_backend,
            "data_codec": entry.data_codec,
            "segments": {
                kind: {
                    "offset": int(seg.offset),
                    "length": int(seg.length),
                    **({"crc32": int(seg.crc32)} if seg.crc32 is not None else {}),
                }
                for kind, seg in entry.segments.items()
            },
        }
    return {
        "format": _MANIFEST_FORMAT,
        "version": int(manifest.version),
        "network": manifest.network,
        "expected_accuracy_loss": float(manifest.expected_accuracy_loss),
        "layers": layers,
        **({"extra": dict(manifest.extra)} if manifest.extra else {}),
    }


def manifest_from_dict(payload: Mapping) -> ArchiveManifest:
    """Decode :func:`manifest_to_dict` output (corrupt input raises
    :class:`DecompressionError`, matching the rest of the read path)."""
    try:
        if payload.get("format") != _MANIFEST_FORMAT:
            raise DecompressionError(
                f"unknown manifest format {payload.get('format')!r}"
            )
        layers: Dict[str, LayerEntry] = {}
        for name, info in payload["layers"].items():
            segments = {
                kind: SegmentEntry(
                    offset=int(seg["offset"]),
                    length=int(seg["length"]),
                    crc32=int(seg["crc32"]) if "crc32" in seg else None,
                )
                for kind, seg in info["segments"].items()
            }
            layers[name] = LayerEntry(
                name=name,
                error_bound=float(info["error_bound"]),
                shape=(int(info["shape"][0]), int(info["shape"][1])),
                nnz=int(info["nnz"]),
                entry_count=int(info["entry_count"]),
                index_backend=str(info["index_backend"]),
                data_codec=str(info["data_codec"]),
                segments=segments,
            )
        return ArchiveManifest(
            network=str(payload["network"]),
            expected_accuracy_loss=float(payload["expected_accuracy_loss"]),
            layers=layers,
            version=int(payload.get("version", 2)),
            extra=dict(payload.get("extra", {})),
        )
    except DecompressionError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ValidationError) as exc:
        raise DecompressionError(f"corrupt archive manifest: {exc}") from exc


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def write_archive(model: CompressedModel, destination: Union[str, Path, BinaryIO]) -> int:
    """Write ``model`` as a v2 archive; returns the number of bytes written.

    ``destination`` is a path (written atomically via a temp file) or any
    binary stream.
    """
    if isinstance(destination, (str, Path)):
        path = Path(destination)
        # Writer-unique temp name: concurrent writers to the same target
        # must not interleave into one temp file; the rename stays atomic.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            with open(tmp, "wb") as stream:
                written = _write_archive_stream(model, stream)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return written
    return _write_archive_stream(model, destination)


def archive_bytes(model: CompressedModel) -> bytes:
    """Serialise ``model`` as an in-memory v2 archive."""
    buf = io.BytesIO()
    _write_archive_stream(model, buf)
    return buf.getvalue()


def _write_archive_stream(model: CompressedModel, stream: BinaryIO) -> int:
    stream.write(ARCHIVE_MAGIC)
    offset = len(ARCHIVE_MAGIC)
    layers: Dict[str, LayerEntry] = {}
    for name, layer in model.layers.items():
        segments: Dict[str, SegmentEntry] = {}
        for kind, payload in (("sz", layer.sz_payload), ("index", layer.index_payload)):
            payload = bytes(payload)
            segments[kind] = SegmentEntry(
                offset=offset, length=len(payload), crc32=zlib.crc32(payload)
            )
            stream.write(payload)
            offset += len(payload)
        layers[name] = LayerEntry(
            name=name,
            error_bound=layer.error_bound,
            shape=layer.shape,
            nnz=layer.nnz,
            entry_count=layer.entry_count,
            index_backend=layer.index_backend,
            data_codec=layer.data_codec,
            segments=segments,
        )
    manifest = ArchiveManifest(
        network=model.network,
        expected_accuracy_loss=model.expected_accuracy_loss,
        layers=layers,
    )
    blob = json.dumps(manifest_to_dict(manifest), sort_keys=True).encode("utf-8")
    stream.write(blob)
    stream.write(_FOOTER.pack(offset, len(blob), zlib.crc32(blob)))
    stream.write(ARCHIVE_MAGIC)
    return offset + len(blob) + FOOTER_SIZE


# ---------------------------------------------------------------------------
# Byte sources (file / mmap / buffer) for random-access reads
# ---------------------------------------------------------------------------


class _BufferSource:
    """Random access over bytes / memoryview / mmap."""

    def __init__(self, buf) -> None:
        self._view = memoryview(buf)

    @property
    def size(self) -> int:
        return self._view.nbytes

    def read_at(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > self.size:
            raise DecompressionError(
                f"archive read out of bounds: [{offset}, {offset + length}) "
                f"of {self.size} bytes"
            )
        return bytes(self._view[offset : offset + length])

    def close(self) -> None:
        self._view.release()


class _FileSource:
    """Random access over a seekable file handle (fallback when the file
    cannot be memory-mapped); a lock serialises seek+read pairs so the
    source stays safe under the serving runtime's thread fan-out."""

    def __init__(self, handle: BinaryIO, size: int) -> None:
        self._handle = handle
        self._size = size
        self._lock = threading.Lock()

    @property
    def size(self) -> int:
        return self._size

    def read_at(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > self._size:
            raise DecompressionError(
                f"archive read out of bounds: [{offset}, {offset + length}) "
                f"of {self._size} bytes"
            )
        with self._lock:
            self._handle.seek(offset)
            data = self._handle.read(length)
        if len(data) != length:
            raise DecompressionError(
                f"short archive read at offset {offset}: wanted {length} bytes, "
                f"got {len(data)}"
            )
        return data

    def close(self) -> None:
        self._handle.close()


def is_archive(data: Union[bytes, memoryview]) -> bool:
    """True when ``data`` starts with the v2 archive magic."""
    return bytes(data[: len(ARCHIVE_MAGIC)]) == ARCHIVE_MAGIC


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


class ModelArchive:
    """Random-access reader over a ``.dsz`` archive (or a v1 compat blob).

    Layers are fetched independently: :meth:`read_layer` touches only the
    target layer's segment bytes, verifies their CRC32 (when recorded), and
    returns a :class:`CompressedLayer` — sibling layers are never read, so a
    multi-hundred-MB archive serves a single layer with a few page faults.

    Use :meth:`open` for files (memory-mapped when possible) and
    :meth:`from_bytes` for in-memory blobs; both accept v1 monolithic
    model blobs via the compat manifest synthesiser.
    Instances are context managers; reads are thread-safe.
    """

    def __init__(
        self,
        source,
        manifest: ArchiveManifest,
        *,
        version: int = 2,
        closer=None,
    ) -> None:
        self._source = source
        self._manifest = manifest
        self._version = version
        self._closer = closer
        self._closed = False

    # -- constructors ------------------------------------------------------
    @classmethod
    def open(cls, path: Union[str, Path], *, use_mmap: bool = True) -> "ModelArchive":
        """Open an archive file for random access (mmap-backed by default)."""
        handle = open(path, "rb")
        try:
            size = os.fstat(handle.fileno()).st_size
            source = None
            if use_mmap and size > 0:
                try:
                    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                except (OSError, ValueError):
                    mapped = None
                if mapped is not None:
                    buffer_source = _BufferSource(mapped)

                    def closer(m=mapped, h=handle, s=buffer_source):
                        s.close()
                        m.close()
                        h.close()

                    return cls._from_source(buffer_source, closer=closer)
            source = _FileSource(handle, size)
            return cls._from_source(source, closer=source.close)
        except BaseException:
            handle.close()
            raise

    @classmethod
    def from_bytes(cls, data: Union[bytes, bytearray, memoryview]) -> "ModelArchive":
        """Open an in-memory archive (v2 or v1 compat) for random access."""
        source = _BufferSource(bytes(data) if isinstance(data, bytearray) else data)
        return cls._from_source(source, closer=source.close)

    @classmethod
    def _from_source(cls, source, *, closer=None) -> "ModelArchive":
        if source.size >= len(ARCHIVE_MAGIC) and is_archive(
            source.read_at(0, len(ARCHIVE_MAGIC))
        ):
            manifest = cls._read_v2_manifest(source)
            return cls(source, manifest, version=2, closer=closer)
        manifest = cls._read_v1_manifest(source)
        return cls(source, manifest, version=1, closer=closer)

    # -- manifest parsing --------------------------------------------------
    @staticmethod
    def _read_v2_manifest(source) -> ArchiveManifest:
        if source.size < len(ARCHIVE_MAGIC) + FOOTER_SIZE:
            raise DecompressionError(
                f"archive too small for a footer ({source.size} bytes); truncated?"
            )
        footer = source.read_at(source.size - FOOTER_SIZE, FOOTER_SIZE)
        if footer[_FOOTER.size :] != ARCHIVE_MAGIC:
            raise DecompressionError(
                "archive footer magic missing (file truncated or not a .dsz archive)"
            )
        offset, length, crc = _FOOTER.unpack(footer[: _FOOTER.size])
        if offset + length > source.size - FOOTER_SIZE:
            raise DecompressionError(
                f"archive manifest [{offset}, {offset + length}) overruns the file"
            )
        blob = source.read_at(offset, length)
        if zlib.crc32(blob) != crc:
            raise DecompressionError("archive manifest failed CRC32 verification")
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DecompressionError(f"corrupt archive manifest: {exc}") from exc
        manifest = manifest_from_dict(payload)
        for entry in manifest.layers.values():
            for kind, seg in entry.segments.items():
                if seg.end > offset:
                    raise DecompressionError(
                        f"layer {entry.name!r} {kind} segment overruns the manifest"
                    )
        return manifest

    @staticmethod
    def _read_v1_manifest(source) -> ArchiveManifest:
        """Synthesise a manifest from a v1 monolithic model blob.

        The v1 named-section header records ``[name, length]`` pairs in
        on-disk order, which is exactly a segment index once the cumulative
        offsets are computed — so v1 blobs get lazy per-layer reads too.
        """
        if source.size < _V1_FRAME_LEN.size:
            raise DecompressionError("blob too small to be a compressed model")
        (header_len,) = _V1_FRAME_LEN.unpack(source.read_at(0, _V1_FRAME_LEN.size))
        if _V1_FRAME_LEN.size + header_len > source.size:
            raise DecompressionError("truncated v1 container header")
        try:
            header = json.loads(
                source.read_at(_V1_FRAME_LEN.size, header_len).decode("utf-8")
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DecompressionError(
                f"not a .dsz archive and not a v1 compressed model: {exc}"
            ) from exc
        layers: Dict[str, LayerEntry] = {}
        try:
            meta = header.get("meta", {})
            if meta.get("magic") != _V1_MAGIC:
                raise DecompressionError("not a DeepSZ compressed model (bad magic)")
            offsets: Dict[str, SegmentEntry] = {}
            cursor = _V1_FRAME_LEN.size + header_len
            for name, length in header.get("sections", []):
                offsets[name] = SegmentEntry(offset=cursor, length=int(length))
                cursor += int(length)
            if cursor > source.size:
                raise DecompressionError("v1 container sections overrun the blob")
            for name, info in meta["layers"].items():
                crcs = info.get("crc32", {})
                segments: Dict[str, SegmentEntry] = {}
                for kind in SEGMENT_KINDS:
                    base = offsets[f"{name}/{kind}"]
                    segments[kind] = SegmentEntry(
                        offset=base.offset,
                        length=base.length,
                        crc32=int(crcs[kind]) if kind in crcs else None,
                    )
                layers[name] = LayerEntry(
                    name=name,
                    error_bound=float(info["error_bound"]),
                    shape=(int(info["shape"][0]), int(info["shape"][1])),
                    nnz=int(info["nnz"]),
                    entry_count=int(info["entry_count"]),
                    index_backend=str(info["index_backend"]),
                    data_codec=str(info.get("data_codec", "sz")),
                    segments=segments,
                )
        except DecompressionError:
            raise
        except (
            KeyError,
            TypeError,
            ValueError,
            IndexError,
            AttributeError,
        ) as exc:
            raise DecompressionError(f"corrupt v1 container metadata: {exc}") from exc
        return ArchiveManifest(
            network=str(meta.get("network", "")),
            expected_accuracy_loss=float(meta.get("expected_accuracy_loss", 0.0)),
            layers=layers,
            version=1,
        )

    # -- properties --------------------------------------------------------
    @property
    def manifest(self) -> ArchiveManifest:
        return self._manifest

    @property
    def version(self) -> int:
        """2 for native archives, 1 for v1 monolithic blobs (compat path)."""
        return self._version

    @property
    def layer_names(self) -> list[str]:
        return self._manifest.layer_names

    @property
    def size(self) -> int:
        return self._source.size

    # -- reads -------------------------------------------------------------
    def segment(self, layer: str, kind: str, *, verify: bool = True) -> bytes:
        """Raw bytes of one layer segment (CRC-verified when recorded)."""
        entry = self._layer_entry(layer)
        try:
            seg = entry.segments[kind]
        except KeyError:
            raise ValidationError(
                f"unknown segment kind {kind!r}; expected one of {SEGMENT_KINDS}"
            ) from None
        data = self._source.read_at(seg.offset, seg.length)
        if verify and seg.crc32 is not None and zlib.crc32(data) != seg.crc32:
            raise DecompressionError(
                f"layer {layer!r} {kind} segment failed CRC32 verification "
                "(archive corrupted?)"
            )
        return data

    def read_layer(self, name: str, *, verify: bool = True) -> CompressedLayer:
        """Materialise one layer without touching any sibling segments."""
        entry = self._layer_entry(name)
        return CompressedLayer(
            name=entry.name,
            error_bound=entry.error_bound,
            shape=entry.shape,
            nnz=entry.nnz,
            entry_count=entry.entry_count,
            sz_payload=self.segment(name, "sz", verify=verify),
            index_payload=self.segment(name, "index", verify=verify),
            index_backend=entry.index_backend,
            data_codec=entry.data_codec,
        )

    def load_model(self, *, verify: bool = True) -> CompressedModel:
        """Materialise the whole :class:`CompressedModel` (every layer read)."""
        layers = {name: self.read_layer(name, verify=verify) for name in self.layer_names}
        return CompressedModel(
            network=self._manifest.network,
            layers=layers,
            expected_accuracy_loss=self._manifest.expected_accuracy_loss,
        )

    def verify(self) -> list[str]:
        """CRC-check every segment; returns the names of unverifiable
        (checksum-less, v1-era) segments instead of failing on them."""
        unverified: list[str] = []
        for name, entry in self._manifest.layers.items():
            for kind, seg in entry.segments.items():
                if seg.crc32 is None:
                    unverified.append(f"{name}/{kind}")
                else:
                    self.segment(name, kind, verify=True)
        return unverified

    def _layer_entry(self, name: str) -> LayerEntry:
        try:
            return self._manifest.layers[name]
        except KeyError:
            raise ValidationError(
                f"archive has no layer {name!r}; available: {self.layer_names}"
            ) from None

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._closer is not None:
                self._closer()

    def __enter__(self) -> "ModelArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ModelArchive v{self._version} network={self._manifest.network!r} "
            f"layers={len(self._manifest.layers)} bytes={self.size}>"
        )


def archive_input_dim(source: Union[str, Path, bytes]) -> int:
    """The in-features of a chained archive's first fc layer (request width)."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        archive = ModelArchive.from_bytes(source)
    else:
        archive = ModelArchive.open(source)
    with archive:
        return int(archive.manifest.layers[archive.layer_names[0]].shape[1])
