"""Configuration objects for the SZ compressor.

The paper exercises SZ in absolute-error-bound mode (the error bounds that
Algorithm 1 sweeps are absolute), but SZ itself also supports value-range
relative bounds and PSNR targets ("our SZ compressor can control errors in
more sophisticated ways, such as relative error bound and peak signal-to-noise
ratio"), so all three modes are implemented.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive

__all__ = ["ErrorMode", "PredictorKind", "SZConfig"]


class ErrorMode(str, enum.Enum):
    """How the user expresses the error constraint."""

    ABS = "abs"  #: absolute error bound (paper default)
    REL = "rel"  #: value-range relative error bound
    PSNR = "psnr"  #: peak signal-to-noise ratio target in dB


class PredictorKind(str, enum.Enum):
    """Prediction scheme applied before quantization."""

    LORENZO = "lorenzo"  #: 1-D Lorenzo predictor on decompressed values
    #: Per-stream best fit of direct vs Lorenzo by coded size.  Streams
    #: record the kind that won; per-block regression/adaptive streams are
    #: read-only, for streams written by earlier versions.
    ADAPTIVE = "adaptive"
    NONE = "none"  #: direct quantization of values (ablation baseline)


@dataclass(frozen=True)
class SZConfig:
    """Immutable configuration for one SZ compression invocation.

    Parameters
    ----------
    error_bound:
        Meaning depends on :attr:`mode`: absolute bound (ABS), fraction of the
        value range (REL), or target PSNR in dB (PSNR).
    mode:
        Error-control mode.
    predictor:
        Prediction scheme.  The default, ``ADAPTIVE``, is SZ's best-fit
        prediction made per stream: direct quantization or Lorenzo,
        whichever has the smaller exact Huffman-coded size.  Per-block
        regression/adaptive streams are read-only, for streams written by
        earlier versions.  Plain Lorenzo and no-prediction are available for
        ablation.
    capacity:
        Number of quantization bins.  Codes outside ``[-capacity/2,
        capacity/2)`` are stored as unpredictable literals, exactly as SZ's
        "unpredictable data" path.
    lossless:
        Name of the lossless back end applied to the encoded payload; one of
        :func:`repro.sz.lossless.available_backends`, or ``"best"`` to try all
        of them and keep the smallest output (per-stream best-fit selection).
        The name is resolved against the codec registry at construction time,
        so a typo fails fast instead of at compression time.
    chunk_size:
        ``None`` (default) emits the monolithic v1 container.  An integer
        splits the array into independently compressed chunks of that many
        elements (the v2 container), each with its own Huffman table and
        outlier section, enabling parallel encode/decode.  Chunks in the low
        hundreds of thousands of elements amortise per-chunk headers while
        still exposing enough parallelism (see DESIGN.md).
    """

    error_bound: float = 1e-3
    mode: ErrorMode = ErrorMode.ABS
    predictor: PredictorKind = PredictorKind.ADAPTIVE
    capacity: int = 65536
    lossless: str = "zlib"
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        check_positive(self.error_bound, "error_bound")
        if not isinstance(self.mode, ErrorMode):
            object.__setattr__(self, "mode", ErrorMode(self.mode))
        if not isinstance(self.predictor, PredictorKind):
            object.__setattr__(self, "predictor", PredictorKind(self.predictor))
        if int(self.capacity) < 4:
            raise ConfigurationError("capacity must be at least 4 bins")
        if int(self.capacity) & 1:
            raise ConfigurationError("capacity must be even")
        object.__setattr__(self, "capacity", int(self.capacity))
        if self.chunk_size is not None:
            if int(self.chunk_size) < 1:
                raise ConfigurationError("chunk_size must be a positive element count")
            object.__setattr__(self, "chunk_size", int(self.chunk_size))
        # Resolve the lossless stage through the backend registry now rather
        # than failing deep inside a compression call.
        if self.lossless != "best":
            from repro.sz.lossless import get_backend

            get_backend(self.lossless)

    def with_error_bound(self, error_bound: float) -> "SZConfig":
        """Return a copy of this config with a different error bound."""
        return replace(self, error_bound=error_bound)

    def absolute_bound(self, data: np.ndarray) -> float:
        """Resolve the configured error target to an absolute bound for ``data``.

        * ABS  -- the bound itself.
        * REL  -- ``error_bound * (max(data) - min(data))``.
        * PSNR -- the absolute bound whose uniform quantization noise yields
          the requested PSNR: with error uniform in ``[-eb, eb]`` the RMSE is
          ``eb / sqrt(3)``, so ``eb = range * sqrt(3) * 10**(-psnr / 20)``.
        """
        if self.mode is ErrorMode.ABS:
            return float(self.error_bound)
        if data.size == 0:
            raise ConfigurationError(
                f"{self.mode.value} mode needs a non-empty array to resolve the bound"
            )
        value_range = float(np.max(data) - np.min(data))
        if value_range == 0.0:
            # Constant data: any positive bound preserves it exactly.
            return float(self.error_bound) if self.mode is ErrorMode.ABS else 1e-12
        if self.mode is ErrorMode.REL:
            return float(self.error_bound) * value_range
        # PSNR mode
        psnr = float(self.error_bound)
        return value_range * math.sqrt(3.0) * 10.0 ** (-psnr / 20.0)
