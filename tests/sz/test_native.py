"""The compiled Huffman kernel's loader: cache, build races and fallbacks.

Every test points the cache root (``REPRO_CACHE``) at its own ``tmp_path``
and gives the process a fresh :class:`repro.sz.native.KernelLoader`, so the
first decode in the test makes the loader's one attempt.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sz import native
from repro.sz.huffman import HuffmanCodec, HuffmanTable
from repro.utils.bytesio import read_named_sections

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture()
def cache(monkeypatch, tmp_path):
    """An empty cache root and a loader that has not tried yet."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE", str(root))
    monkeypatch.setattr(native, "_loader", native.KernelLoader())
    return root


@pytest.fixture()
def stream():
    rng = np.random.default_rng(3)
    data = np.rint(rng.standard_normal(5000) * 4).astype(np.int64)
    blob = HuffmanCodec().encode(data)
    meta, sections = read_named_sections(blob)
    table = HuffmanTable(
        symbols=np.frombuffer(sections["table_symbols"], dtype="<i8").astype(np.int64),
        lengths=np.frombuffer(sections["table_lengths"], dtype=np.uint8),
    )
    numpy_out = HuffmanCodec._decode_packed(sections["payload"], meta["nbits"], table, data.size)
    np.testing.assert_array_equal(numpy_out, data)
    return blob, data


def _warnings(caplog):
    return [r for r in caplog.records if r.name == "repro.sz.native"]


def _kernel_dir_files(root):
    kernels = root / "kernels"
    return sorted(p.name for p in kernels.iterdir()) if kernels.is_dir() else []


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_no_compiler_decodes_with_numpy_and_tries_once(
    cache, stream, monkeypatch, tmp_path, caplog, compiler
):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    calls = tmp_path / "cc-calls"
    if compiler == "failing":
        cc = bin_dir / "cc"
        cc.write_text(f'#!/bin/sh\necho called >> "{calls}"\necho "cc: error" >&2\nexit 1\n')
        cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    caplog.set_level(logging.WARNING, logger="repro.sz.native")
    blob, data = stream

    for _ in range(3):
        np.testing.assert_array_equal(HuffmanCodec().decode(blob), data)

    assert native.huffman_kernel() is None
    assert len(_warnings(caplog)) == 1
    if compiler == "failing":
        assert calls.read_text().splitlines() == ["called"]
        assert "cc: error" in _warnings(caplog)[0].getMessage()
    assert _kernel_dir_files(cache) == []


def test_threads_racing_on_the_first_decode_build_once(cache, stream, monkeypatch, tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    calls = tmp_path / "cc-calls"
    cc = bin_dir / "cc"
    # Slow enough that the other threads decode while the build runs.
    cc.write_text(f'#!/bin/sh\necho called >> "{calls}"\nsleep 0.3\nexit 1\n')
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    blob, data = stream
    start = threading.Barrier(6)
    outputs = []

    def decode():
        start.wait(timeout=10)
        outputs.append(HuffmanCodec().decode(blob))

    threads = [threading.Thread(target=decode) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()

    assert len(outputs) == 6
    for out in outputs:
        np.testing.assert_array_equal(out, data)
    assert calls.read_text().splitlines() == ["called"]


def test_unwritable_cache_decodes_with_numpy(cache, stream, caplog):
    # A regular file where the cache directory should be: no user, root
    # included, can create the kernels directory under it.
    cache.write_bytes(b"not a directory")
    caplog.set_level(logging.WARNING, logger="repro.sz.native")
    blob, data = stream

    np.testing.assert_array_equal(HuffmanCodec().decode(blob), data)
    np.testing.assert_array_equal(HuffmanCodec().decode(blob), data)

    assert native.huffman_kernel() is None
    assert len(_warnings(caplog)) == 1


@needs_cc
def test_racing_processes_on_an_empty_cache_share_one_kernel(cache):
    code = "from repro.sz import native; print(native.huffman_kernel() is not None)"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
    }
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]

    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err.decode()
        assert out.decode().strip() == "True"
    assert _kernel_dir_files(cache) == [native.kernel_path().name]


@needs_cc
@pytest.mark.parametrize("damage", ["truncated", "empty", "unsigned"])
def test_damaged_kernel_file_is_rebuilt(cache, stream, monkeypatch, damage):
    assert native.huffman_kernel() is not None
    path = native.kernel_path()
    good = path.read_bytes()
    damaged = {
        # Loading this ELF prefix would kill the process with SIGBUS.
        "truncated": good[: len(good) // 2],
        "empty": b"",
        # A complete shared object without the trailer of a finished build.
        "unsigned": good[: -native._TRAILER_SIZE],
    }[damage]
    # A new file: this process has the old one mapped, and cutting a mapped
    # file in place faults the process that mapped it.
    path.unlink()
    path.write_bytes(damaged)
    monkeypatch.setattr(native, "_loader", native.KernelLoader())
    blob, data = stream

    np.testing.assert_array_equal(HuffmanCodec().decode(blob), data)

    assert native.huffman_kernel() is not None
    assert native._intact(path)
    assert _kernel_dir_files(cache) == [path.name]


@needs_cc
def test_cached_kernel_is_loaded_without_a_build(cache, monkeypatch, tmp_path, stream):
    assert native.huffman_kernel() is not None
    # A second process (a fresh loader) with no compiler still gets it.
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    monkeypatch.setattr(native, "_loader", native.KernelLoader())
    blob, data = stream

    np.testing.assert_array_equal(HuffmanCodec().decode(blob), data)
    assert native.huffman_kernel() is not None
