"""The on-disk cache root shared by the model zoo and the compiled kernels."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["cache_root"]


def cache_root() -> Path:
    """``$REPRO_CACHE``, default ``~/.cache/repro-deepsz``; created if missing."""
    root = os.environ.get("REPRO_CACHE", os.path.join(os.path.expanduser("~"), ".cache", "repro-deepsz"))
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path
