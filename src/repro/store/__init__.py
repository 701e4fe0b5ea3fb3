"""Model storage: the random-access ``.dsz`` archive and the content store.

Two pieces sit between the codec core and the serving runtime:

* :mod:`repro.store.archive` — the footer-indexed ``.dsz`` archive format
  (v2).  Per-layer segments with offsets and CRC32s in a manifest found
  from the file footer, so any layer is readable lazily without decoding
  siblings; v1 monolithic model blobs load through a compat reader that
  synthesises the same manifest.
* :mod:`repro.store.cas` — :class:`ModelStore`, a SHA-256 content-addressed
  on-disk store of archives with dedup, integrity verification on read,
  and an optional LRU byte budget.

A third piece, :mod:`repro.store.assess_cache`, reuses the CAS layout for
the assessment engine: candidate evaluation results keyed by the SHA-256 of
their inputs (layer content, error bound, codec settings, test set), so
repeated Step 2 runs are incremental.
"""

from repro.store.archive import (
    ARCHIVE_MAGIC,
    ArchiveManifest,
    LayerEntry,
    ModelArchive,
    SegmentEntry,
    archive_bytes,
    archive_input_dim,
    is_archive,
    manifest_from_dict,
    manifest_to_dict,
    write_archive,
)
from repro.store.assess_cache import (
    AssessmentCache,
    AssessmentCacheStats,
    sha256_array,
    test_set_digest,
)
from repro.store.cas import ModelStore, StoreStats

__all__ = [
    "AssessmentCache",
    "AssessmentCacheStats",
    "sha256_array",
    "test_set_digest",
    "ARCHIVE_MAGIC",
    "ArchiveManifest",
    "LayerEntry",
    "ModelArchive",
    "SegmentEntry",
    "archive_bytes",
    "archive_input_dim",
    "is_archive",
    "manifest_from_dict",
    "manifest_to_dict",
    "write_archive",
    "ModelStore",
    "StoreStats",
]
