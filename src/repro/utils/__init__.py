"""Shared low-level utilities for the DeepSZ reproduction.

This package contains the pieces that every other subsystem leans on:

* :mod:`repro.utils.errors` -- the exception hierarchy.
* :mod:`repro.utils.bitstream` -- vectorised bit-level writer/reader used by
  the Huffman codec and the ZFP-style bit-plane coder.
* :mod:`repro.utils.bytesio` -- the named-section binary container behind
  the codec payloads and network state dicts.
* :mod:`repro.utils.timing` -- lightweight wall-clock timers used by the
  benchmark harness and the Figure 7 breakdowns.
* :mod:`repro.utils.rng` -- deterministic random number helpers.
* :mod:`repro.utils.cache` -- the on-disk cache root (``REPRO_CACHE``).
* :mod:`repro.utils.validation` -- argument checking helpers shared by the
  public API surfaces.
"""

from repro.utils.errors import (
    ReproError,
    CompressionError,
    DecompressionError,
    ConfigurationError,
    IntegrityError,
    ValidationError,
)
from repro.utils.bitstream import BitWriter, BitReader, pack_bits, unpack_bits
from repro.utils.bytesio import write_named_sections, read_named_sections
from repro.utils.timing import Timer, TimingBreakdown
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.cache import cache_root
from repro.utils.validation import (
    require,
    check_positive,
    check_in_range,
    check_array_1d,
    check_finite,
    as_float32_1d,
)

__all__ = [
    "ReproError",
    "CompressionError",
    "DecompressionError",
    "ConfigurationError",
    "IntegrityError",
    "ValidationError",
    "BitWriter",
    "BitReader",
    "pack_bits",
    "unpack_bits",
    "write_named_sections",
    "read_named_sections",
    "Timer",
    "TimingBreakdown",
    "make_rng",
    "spawn_rngs",
    "cache_root",
    "require",
    "check_positive",
    "check_in_range",
    "check_array_1d",
    "check_finite",
    "as_float32_1d",
]
