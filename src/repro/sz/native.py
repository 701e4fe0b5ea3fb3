"""Build, cache and load the compiled Huffman decode kernel.

``huffman_decode.c`` ships beside this module.  The first decode in a
process looks for ``<cache root>/kernels/huffman-<key>.so``, where ``key``
hashes the C source, the compile flags and the platform tag; if the file is
missing or damaged it compiles the source with the system ``cc`` into a
temporary file and ``os.replace``s it into place, so processes racing on an
empty cache each install a complete kernel.  The kernel is then loaded with
:mod:`ctypes`.

Where no kernel can be built or loaded (no compiler, a compile error, an
unwritable cache, a load error), the failure is logged once and
:func:`huffman_kernel` returns ``None`` for the rest of the process: the
caller decodes with the numpy kernel, which gives the same output.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sysconfig
import threading
from pathlib import Path
from typing import Callable, Optional

from repro.obs.log import get_logger
from repro.utils.cache import cache_root

__all__ = ["KernelLoader", "huffman_kernel", "kernel_path"]

_log = get_logger("sz.native")

_SOURCE = Path(__file__).with_name("huffman_decode.c")
_COMPILER = "cc"
_FLAGS = ("-O2", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120
#: Appended to every built kernel: this marker and the SHA-256 of the bytes
#: before it.  The dynamic loader dies of SIGBUS on a truncated shared
#: object, so a file whose trailer does not match is rebuilt, never loaded.
_TRAILER = b"reproKRN"
_TRAILER_SIZE = len(_TRAILER) + hashlib.sha256().digest_size


def kernel_path() -> Path:
    """Where this source, these flags and this platform keep their kernel."""
    key = hashlib.sha256(
        b"\0".join(
            [_SOURCE.read_bytes(), " ".join(_FLAGS).encode(), sysconfig.get_platform().encode()]
        )
    ).hexdigest()[:16]
    return cache_root() / "kernels" / f"huffman-{key}.so"


def _intact(path: Path) -> bool:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    body, trailer = data[:-_TRAILER_SIZE], data[-_TRAILER_SIZE:]
    return trailer == _TRAILER + hashlib.sha256(body).digest()


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        subprocess.run(
            [_COMPILER, *_FLAGS, "-o", str(tmp), str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        body = tmp.read_bytes()
        tmp.write_bytes(body + _TRAILER + hashlib.sha256(body).digest())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _open(path: Path) -> Callable[..., int]:
    import ctypes  # imported on first decode, not with the package

    kernel = ctypes.CDLL(str(path)).huffman_decode
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    kernel.argtypes = [ptr, i64, ptr, ctypes.c_int, ptr, i64, ptr]
    kernel.restype = ctypes.c_int
    return kernel


class KernelLoader:
    """Makes one attempt to get the kernel, on the first :meth:`get`.

    The attempt runs outside the lock: a thread that calls :meth:`get`
    while another is building gets ``None`` and decodes with numpy.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claimed = False
        self._kernel: Optional[Callable[..., int]] = None

    def get(self) -> Optional[Callable[..., int]]:
        """The kernel function, or ``None`` where there is none (yet)."""
        if not self._claimed:
            with self._lock:
                claimed, self._claimed = self._claimed, True
            if not claimed:
                self._kernel = self._load()
        return self._kernel

    @staticmethod
    def _load() -> Optional[Callable[..., int]]:
        try:
            path = kernel_path()
            if not _intact(path):
                _build(path)
            return _open(path)
        except (OSError, subprocess.SubprocessError) as exc:
            stderr = getattr(exc, "stderr", None) or b""
            _log.warning(
                "compiled Huffman decode kernel unavailable, decoding with numpy: %s %s",
                exc,
                stderr.decode(errors="replace").strip(),
            )
            return None


_loader = KernelLoader()


def huffman_kernel() -> Optional[Callable[..., int]]:
    """This process's compiled decode kernel, or ``None``: decode with numpy."""
    return _loader.get()
