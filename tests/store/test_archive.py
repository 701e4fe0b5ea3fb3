"""Tests for the random-access ``.dsz`` archive format (v2 + v1 compat)."""

import zlib

import numpy as np
import pytest

from repro.core.decoder import DeepSZDecoder
from repro.core.encoder import CompressedModel, DeepSZEncoder
from repro.pruning import encode_sparse, prune_weights
from repro.store import (
    ARCHIVE_MAGIC,
    ModelArchive,
    archive_bytes,
    is_archive,
    write_archive,
)
from repro.store.archive import FOOTER_SIZE
from repro.utils.bytesio import read_named_sections
from repro.utils.errors import DecompressionError, ValidationError


@pytest.fixture(scope="module")
def blob(small_compressed_model):
    return archive_bytes(small_compressed_model)


class TestRoundTrip:
    def test_magic_and_sniffing(self, blob):
        assert is_archive(blob)
        assert blob.startswith(ARCHIVE_MAGIC)
        assert blob.endswith(ARCHIVE_MAGIC)
        assert not is_archive(b"definitely not an archive")

    def test_load_model_round_trips(self, small_compressed_model, blob):
        loaded = ModelArchive.from_bytes(blob).load_model()
        assert loaded.network == small_compressed_model.network
        assert set(loaded.layers) == set(small_compressed_model.layers)
        for name, layer in small_compressed_model.layers.items():
            got = loaded.layers[name]
            assert got.sz_payload == layer.sz_payload
            assert got.index_payload == layer.index_payload
            assert got.shape == layer.shape
            assert got.nnz == layer.nnz
            assert got.entry_count == layer.entry_count
            assert got.index_backend == layer.index_backend
            assert got.data_codec == layer.data_codec
            assert got.error_bound == layer.error_bound

    def test_decoded_weights_match_v1_path(self, small_compressed_model, blob):
        via_archive = DeepSZDecoder().decode(ModelArchive.from_bytes(blob))
        direct = DeepSZDecoder().decode(small_compressed_model)
        for name in small_compressed_model.layers:
            np.testing.assert_array_equal(
                via_archive.weights[name], direct.weights[name]
            )

    def test_file_round_trip_and_mmap_open(self, small_compressed_model, tmp_path):
        path = tmp_path / "model.dsz"
        written = write_archive(small_compressed_model, path)
        assert path.stat().st_size == written
        with ModelArchive.open(path) as archive:
            assert archive.version == 2
            layer = archive.read_layer("fc7")
            assert layer.sz_payload == small_compressed_model.layers["fc7"].sz_payload

    def test_open_without_mmap(self, small_compressed_model, tmp_path):
        path = tmp_path / "model.dsz"
        write_archive(small_compressed_model, path)
        with ModelArchive.open(path, use_mmap=False) as archive:
            model = archive.load_model()
            assert set(model.layers) == set(small_compressed_model.layers)

    def test_save_load_methods(self, small_compressed_model, tmp_path):
        path = tmp_path / "model.dsz"
        small_compressed_model.save(path)
        loaded = CompressedModel.load(path)
        assert loaded.layers["fc8"].sz_payload == (
            small_compressed_model.layers["fc8"].sz_payload
        )

    def test_empty_model(self):
        empty = CompressedModel(network="empty", layers={}, expected_accuracy_loss=0.0)
        archive = ModelArchive.from_bytes(archive_bytes(empty))
        assert archive.layer_names == []
        loaded = archive.load_model()
        assert loaded.network == "empty"
        assert loaded.layers == {}

    def test_single_layer_model(self, rng):
        pruned, _ = prune_weights(rng.normal(0, 0.05, (24, 40)).astype(np.float32), 0.2)
        model = DeepSZEncoder().encode(
            "one", {"fc": encode_sparse(pruned)}, {"fc": 1e-3}
        )
        archive = ModelArchive.from_bytes(archive_bytes(model))
        assert archive.layer_names == ["fc"]
        got = archive.read_layer("fc")
        assert got.sz_payload == model.layers["fc"].sz_payload


class TestRandomAccess:
    def test_layer_reads_survive_corrupting_every_other_segment(
        self, small_compressed_model, blob
    ):
        """The acceptance bar: any single layer decodes with every sibling
        segment destroyed — proof reads touch only the target's bytes."""
        manifest = ModelArchive.from_bytes(blob).manifest
        decoder = DeepSZDecoder()
        reference = decoder.decode(small_compressed_model)
        for target in manifest.layers:
            corrupted = bytearray(blob)
            for other, entry in manifest.layers.items():
                if other == target:
                    continue
                for seg in entry.segments.values():
                    corrupted[seg.offset : seg.end] = b"\xff" * seg.length
            archive = ModelArchive.from_bytes(bytes(corrupted))
            layer = archive.read_layer(target)  # CRC passes: bytes untouched
            single = CompressedModel(
                network="x", layers={target: layer}, expected_accuracy_loss=0.0
            )
            np.testing.assert_array_equal(
                decoder.decode(single).weights[target], reference.weights[target]
            )
            # ... while the siblings are detected as corrupt.
            for other in manifest.layers:
                if other != target:
                    with pytest.raises(DecompressionError, match="CRC32"):
                        archive.read_layer(other)

    def test_single_layer_read_touches_only_its_byte_ranges(self, blob):
        """Stronger than corruption: a byte source that *refuses* any read
        outside the target layer's segments still serves that layer."""
        archive = ModelArchive.from_bytes(blob)
        entry = archive.manifest.layers["fc7"]
        allowed = [(seg.offset, seg.end) for seg in entry.segments.values()]
        real = archive._source

        class GatedSource:
            @property
            def size(self):
                return real.size

            def read_at(self, offset, length):
                assert any(
                    offset >= lo and offset + length <= hi for lo, hi in allowed
                ), f"read [{offset}, {offset + length}) outside layer fc7"
                return real.read_at(offset, length)

        archive._source = GatedSource()
        layer = archive.read_layer("fc7")
        assert layer.entry_count == entry.entry_count

    def test_segment_crc_mismatch_names_layer_and_kind(self, blob):
        manifest = ModelArchive.from_bytes(blob).manifest
        seg = manifest.layers["fc7"].segments["sz"]
        corrupted = bytearray(blob)
        corrupted[seg.offset] ^= 0xFF
        archive = ModelArchive.from_bytes(bytes(corrupted))
        with pytest.raises(DecompressionError, match="'fc7' sz segment"):
            archive.read_layer("fc7")
        # verify=False skips the checksum (caller opts out explicitly)
        raw = archive.segment("fc7", "sz", verify=False)
        assert len(raw) == seg.length

    def test_unknown_layer_or_kind(self, blob):
        archive = ModelArchive.from_bytes(blob)
        with pytest.raises(ValidationError, match="no layer"):
            archive.read_layer("nope")
        with pytest.raises(ValidationError, match="segment kind"):
            archive.segment("fc6", "bogus")

    def test_verify_walks_every_segment(self, blob):
        assert ModelArchive.from_bytes(blob).verify() == []


class TestCorruptContainers:
    def test_truncated_footer(self, blob):
        for cut in (1, FOOTER_SIZE - 1, FOOTER_SIZE + 3):
            with pytest.raises(DecompressionError):
                ModelArchive.from_bytes(blob[:-cut]).load_model()

    def test_tiny_blob(self):
        with pytest.raises(DecompressionError):
            ModelArchive.from_bytes(b"DSZ")

    def test_manifest_crc_mismatch(self, blob):
        # Flip a byte inside the manifest JSON (between last segment and footer).
        manifest = ModelArchive.from_bytes(blob).manifest
        last_end = max(
            seg.end for e in manifest.layers.values() for seg in e.segments.values()
        )
        corrupted = bytearray(blob)
        corrupted[last_end + 2] ^= 0x01
        with pytest.raises(DecompressionError, match="manifest"):
            ModelArchive.from_bytes(bytes(corrupted))

    def test_manifest_overrunning_segment_rejected(self, small_compressed_model):
        # Hand-corrupt the footer to point the manifest past the file end.
        blob = bytearray(archive_bytes(small_compressed_model))
        import struct

        offset, length, _ = struct.unpack(
            "<QQI", bytes(blob[-FOOTER_SIZE : -FOOTER_SIZE + 20])
        )
        bad = struct.pack("<QQI", offset + 10_000_000, length, 0)
        blob[-FOOTER_SIZE : -FOOTER_SIZE + 20] = bad
        with pytest.raises(DecompressionError, match="overruns"):
            ModelArchive.from_bytes(bytes(blob))


class TestV1Compat:
    def test_v1_blob_opens_with_lazy_reads(self, small_compressed_model, v1_crc_blob):
        archive = ModelArchive.from_bytes(v1_crc_blob)
        assert archive.version == 1
        assert set(archive.layer_names) == set(small_compressed_model.layers)
        layer = archive.read_layer("fc6")
        assert layer.sz_payload == small_compressed_model.layers["fc6"].sz_payload
        assert layer.index_payload == small_compressed_model.layers["fc6"].index_payload

    def test_v1_blob_checksums_are_consumed(self, small_compressed_model, v1_crc_blob):
        archive = ModelArchive.from_bytes(v1_crc_blob)
        seg = archive.manifest.layers["fc6"].segments["sz"]
        assert seg.crc32 == zlib.crc32(small_compressed_model.layers["fc6"].sz_payload)
        corrupted = bytearray(v1_crc_blob)
        corrupted[seg.offset] ^= 0xFF
        with pytest.raises(DecompressionError, match="'fc6' sz segment"):
            ModelArchive.from_bytes(bytes(corrupted)).read_layer("fc6")

    def test_golden_v1_blob_loads_through_compat_reader(self):
        from pathlib import Path

        blob = (
            Path(__file__).resolve().parent.parent / "golden" / "golden_model_v1.bin"
        ).read_bytes()
        archive = ModelArchive.from_bytes(blob)
        assert archive.version == 1
        # Pre-PR2 blobs carry no checksums; the compat reader skips crc.
        assert archive.manifest.layers["fc1"].segments["sz"].crc32 is None
        assert sorted(archive.verify()) == ["fc1/index", "fc1/sz"]
        model = archive.load_model()
        # Cross-check the synthesised offsets against the generic section parser.
        _, sections = read_named_sections(blob)
        assert model.layers["fc1"].sz_payload == sections["fc1/sz"]
        assert model.layers["fc1"].index_payload == sections["fc1/index"]

    def test_garbage_is_neither_format(self):
        with pytest.raises(DecompressionError):
            ModelArchive.from_bytes(b"\x00" * 64)

    def test_corrupt_v1_headers_map_to_decompression_error(self):
        """Malformed-but-parseable v1 JSON headers (wrong types, bad section
        tuples, negative lengths) must fail with the decode error type, not
        leak AttributeError/ValueError."""
        import json
        import struct

        v1_meta = {"magic": "repro-deepsz-model-v1", "layers": {"x": {}}}
        headers = [
            [1, 2],  # header is not a dict
            {"meta": v1_meta, "sections": [["only-one-element"]]},
            {"meta": v1_meta, "sections": [["x/sz", -5]]},
            {"meta": {"magic": "repro-deepsz-model-v1", "layers": 7}, "sections": []},
        ]
        for header in headers:
            payload = json.dumps(header).encode()
            blob = struct.pack("<Q", len(payload)) + payload
            with pytest.raises(DecompressionError):
                ModelArchive.from_bytes(blob)
