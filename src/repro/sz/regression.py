"""Reader for per-block adaptive SZ streams, written by earlier versions.

SZ 2.x (Liang et al. 2018) predicts each block of data with whichever
predictor fits better: the Lorenzo predictor or a linear-regression
predictor fitted to the block.  ``PredictorKind.ADAPTIVE`` now makes its
choice per stream instead: the best fit of direct vs Lorenzo by exact
Huffman-coded size, recorded as a plain ``"none"`` or ``"lorenzo"`` stream
(see DESIGN.md, "SZ v1").  Regression/adaptive blocks are read-only, for
streams written by earlier versions (the golden payloads among them).  Such
a stream holds:

* one residual stream over the integer quantization codes, split into
  blocks of ``block_size`` codes, each block coded one of three ways —

  - **Lorenzo**: first differences, with the block's first element
    predicted from the last code of the *previous* block,
  - **regression**: ``code[i] - round(a + b * i)`` with ``(a, b)`` the
    block's stored float32 coefficients,
  - **direct**: the codes themselves;

* one mode byte per block, and the ``(a, b)`` pairs of the regression
  blocks.

The decoder recomputes ``round(a + b * i)`` from the stored float32
coefficients in float32 arithmetic, bit-for-bit as the encoder did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import DecompressionError

__all__ = [
    "AdaptivePrediction",
    "adaptive_decode",
    "MODE_LORENZO",
    "MODE_REGRESSION",
    "MODE_DIRECT",
]

#: Per-block predictor identifiers stored in :attr:`AdaptivePrediction.modes`.
MODE_LORENZO = 0
MODE_REGRESSION = 1
MODE_DIRECT = 2


@dataclass(frozen=True)
class AdaptivePrediction:
    """One per-block adaptive stream, as read from its sections."""

    residuals: np.ndarray  #: int64, same length as the codes
    modes: np.ndarray  #: uint8, one MODE_* value per block
    coefficients: np.ndarray  #: float32, shape (num_regression_blocks, 2)
    block_size: int
    count: int  #: number of codes


def _regression_predict(coeffs: np.ndarray, block_size: int) -> np.ndarray:
    """Integer predictions round(a + b*i) for each block; float32 arithmetic."""
    idx = np.arange(block_size, dtype=np.float32)
    pred = coeffs[:, 0:1].astype(np.float32) + coeffs[:, 1:2].astype(np.float32) * idx[None, :]
    return np.rint(pred.astype(np.float64)).astype(np.int64)


def adaptive_decode(prediction: AdaptivePrediction) -> np.ndarray:
    """Reconstruct the quantization codes from an :class:`AdaptivePrediction`."""
    n = prediction.count
    bs = prediction.block_size
    if bs < 1:
        raise DecompressionError(f"adaptive block size {bs} is not positive")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    residuals = np.asarray(prediction.residuals, dtype=np.int64)
    if residuals.size != n:
        raise DecompressionError("residual stream length does not match the code count")
    nblocks = (n + bs - 1) // bs
    modes = np.asarray(prediction.modes, dtype=np.uint8)
    if modes.size != nblocks:
        raise DecompressionError("block mode count does not match the block count")
    if modes.size and int(modes.max()) > MODE_DIRECT:
        raise DecompressionError("unknown predictor mode in the adaptive stream")
    if int((modes == MODE_REGRESSION).sum()) != prediction.coefficients.shape[0]:
        raise DecompressionError("regression coefficient count does not match the block modes")

    padded = np.zeros(nblocks * bs, dtype=np.int64)
    padded[:n] = residuals
    out = padded.reshape(nblocks, bs)  # residuals, decoded in place

    # Lorenzo blocks continue a running sum from the last code of the block
    # before; regression and direct blocks are absolute.  Put the absolute
    # blocks in difference form, so one cumsum over the whole stream decodes
    # every block, then restart the sum at each absolute block.
    absolute = np.flatnonzero(modes != MODE_LORENZO)
    if absolute.size:
        regression_mask = modes == MODE_REGRESSION
        if regression_mask.any():
            out[regression_mask] += _regression_predict(
                np.asarray(prediction.coefficients, dtype=np.float32), bs
            )
        rows = out[absolute]
        rows[:, 1:] = np.diff(rows, axis=1)
        out[absolute] = rows
    np.cumsum(padded, out=padded)
    if absolute.size:
        # before[b] = the running sum over all blocks before b; every block
        # from an absolute block on drops the sum before its nearest one.
        before = np.zeros(nblocks, dtype=np.int64)
        before[1:] = out[:-1, -1]
        anchor = np.zeros(nblocks, dtype=np.int64)
        anchor[absolute] = absolute
        np.maximum.accumulate(anchor, out=anchor)
        first = int(absolute[0])
        out[first:] -= before[anchor[first:], None]
    return padded[:n]
