"""Tests for repro.utils.bytesio (named sections)."""

import pytest

from repro.utils import read_named_sections, write_named_sections
from repro.utils.errors import DecompressionError, ValidationError


class TestNamedSections:
    def test_roundtrip_with_meta(self):
        blob = write_named_sections(
            {"a": b"xxx", "b": b"yy"}, meta={"answer": 42, "name": "deepsz"}
        )
        meta, sections = read_named_sections(blob)
        assert meta == {"answer": 42, "name": "deepsz"}
        assert sections == {"a": b"xxx", "b": b"yy"}

    def test_roundtrip_empty(self):
        meta, sections = read_named_sections(write_named_sections({}))
        assert meta == {}
        assert sections == {}

    def test_section_order_preserved(self):
        blob = write_named_sections({"z": b"1", "a": b"2", "m": b"3"})
        _, sections = read_named_sections(blob)
        assert list(sections) == ["z", "a", "m"]

    def test_binary_safe_payloads(self):
        payload = bytes(range(256)) * 3
        _, sections = read_named_sections(write_named_sections({"bin": payload}))
        assert sections["bin"] == payload

    def test_truncated_section_raises(self):
        blob = write_named_sections({"a": b"0123456789"})
        with pytest.raises(DecompressionError):
            read_named_sections(blob[:-4])

    def test_truncated_header_raises(self):
        blob = write_named_sections({"a": b"abc"})
        for cut in (3, 12):  # inside the length prefix, inside the JSON header
            with pytest.raises(DecompressionError, match="truncated section header"):
                read_named_sections(blob[:cut])

    def test_corrupt_header_raises(self):
        blob = write_named_sections({"a": b"abc"})
        corrupted = blob[:8] + b"\xff" * 10 + blob[18:]
        with pytest.raises(DecompressionError):
            read_named_sections(corrupted)

    def test_non_bytes_section_raises(self):
        with pytest.raises(ValidationError):
            write_named_sections({"a": 123})  # type: ignore[dict-item]
