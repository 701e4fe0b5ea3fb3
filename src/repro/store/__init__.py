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

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use (see repro._lazy).
_EXPORTS = {
    "AssessmentCache": ".assess_cache",
    "AssessmentCacheStats": ".assess_cache",
    "sha256_array": ".assess_cache",
    "test_set_digest": ".assess_cache",
    "ARCHIVE_MAGIC": ".archive",
    "ArchiveManifest": ".archive",
    "LayerEntry": ".archive",
    "ModelArchive": ".archive",
    "SegmentEntry": ".archive",
    "archive_bytes": ".archive",
    "archive_input_dim": ".archive",
    "is_archive": ".archive",
    "manifest_from_dict": ".archive",
    "manifest_to_dict": ".archive",
    "write_archive": ".archive",
    "ModelStore": ".cas",
    "StoreStats": ".cas",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
