"""Adaptive best-fit prediction: per-block choice of predictor.

SZ 2.x (Liang et al. 2018) predicts each block of data with whichever
predictor fits better: the Lorenzo predictor (previous decompressed value) or
a linear-regression predictor fitted to the block.  The paper describes this
"adaptive, best-fit prediction method" as part of the SZ framework DeepSZ
builds on, so it is available here as ``PredictorKind.ADAPTIVE``; a third
per-block candidate — direct quantization with no prediction — is added
because it is the best fit for uncorrelated fc-layer weights (see the
predictor ablation benchmark).

The adaptive scheme operates on the integer quantization codes:

* the data is split into blocks of ``block_size`` codes;
* for every block three candidate residual streams are formed —

  - **Lorenzo**: first differences, with the block's first element predicted
    from the last code of the *previous* block so that no per-block absolute
    restart value pollutes the symbol alphabet,
  - **regression**: ``code[i] - round(a + b * i)`` with ``(a, b)`` the
    float32 least-squares fit of the block's codes against their positions,
  - **direct**: the codes themselves (prediction of zero) — free of side
    information, and the best choice on uncorrelated, noise-like weight data
    where differencing only inflates the residual entropy;

* the predictor with the smallest estimated entropy-coded size wins the block;
* the outputs are the concatenated residual stream (entropy-coded by the
  caller), one mode byte per block, and the ``(a, b)`` pairs of the
  regression blocks.

Everything is exactly invertible: the decoder recomputes ``round(a + b * i)``
from the stored float32 coefficients, so encoder and decoder agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import DecompressionError, ValidationError

__all__ = [
    "AdaptivePrediction",
    "adaptive_encode",
    "adaptive_decode",
    "DEFAULT_BLOCK_SIZE",
    "MODE_LORENZO",
    "MODE_REGRESSION",
    "MODE_DIRECT",
]

DEFAULT_BLOCK_SIZE = 256

#: Per-block predictor identifiers stored in :attr:`AdaptivePrediction.modes`.
MODE_LORENZO = 0
MODE_REGRESSION = 1
MODE_DIRECT = 2


@dataclass(frozen=True)
class AdaptivePrediction:
    """Encoder output of the adaptive predictor."""

    residuals: np.ndarray  #: int64, same length as the input codes
    modes: np.ndarray  #: uint8, one MODE_* value per block
    coefficients: np.ndarray  #: float32, shape (num_regression_blocks, 2)
    block_size: int
    count: int  #: number of codes

    @property
    def num_blocks(self) -> int:
        return int(self.modes.size)

    @property
    def regression_fraction(self) -> float:
        """Fraction of blocks won by the regression predictor."""
        if self.modes.size == 0:
            return 0.0
        return float((self.modes == MODE_REGRESSION).mean())

    @property
    def mode_fractions(self) -> dict:
        """Fraction of blocks per predictor mode (diagnostics / ablations)."""
        if self.modes.size == 0:
            return {"lorenzo": 0.0, "regression": 0.0, "direct": 0.0}
        return {
            "lorenzo": float((self.modes == MODE_LORENZO).mean()),
            "regression": float((self.modes == MODE_REGRESSION).mean()),
            "direct": float((self.modes == MODE_DIRECT).mean()),
        }


def _pad_to_blocks(codes: np.ndarray, block_size: int) -> np.ndarray:
    """Reshape to (nblocks, block_size), padding the tail by repeating the last code."""
    n = codes.size
    nblocks = (n + block_size - 1) // block_size
    padded = np.empty(nblocks * block_size, dtype=np.int64)
    padded[:n] = codes
    if n:
        padded[n:] = codes[-1]
    else:
        padded[:] = 0
    return padded.reshape(nblocks, block_size)


def _lorenzo_residuals(blocks: np.ndarray) -> np.ndarray:
    """First differences; each block's first element is predicted from the
    last code of the previous block (0 for the very first block)."""
    out = np.empty_like(blocks)
    out[1:, 0] = blocks[1:, 0] - blocks[:-1, -1]
    out[0, 0] = blocks[0, 0]
    np.subtract(blocks[:, 1:], blocks[:, :-1], out=out[:, 1:])
    return out


def _regression_fit(blocks: np.ndarray) -> np.ndarray:
    """Least-squares (intercept, slope) per block, stored as float32."""
    nblocks, bs = blocks.shape
    idx = np.arange(bs, dtype=np.float64)
    x_mean = idx.mean()
    x_var = ((idx - x_mean) ** 2).sum()
    y = blocks.astype(np.float64)
    y_mean = y.mean(axis=1)
    slope = ((idx - x_mean)[None, :] * (y - y_mean[:, None])).sum(axis=1) / x_var
    intercept = y_mean - slope * x_mean
    return np.stack([intercept, slope], axis=1).astype(np.float32)


def _regression_predict(coeffs: np.ndarray, block_size: int) -> np.ndarray:
    """Integer predictions round(a + b*i) for each block; float32 arithmetic."""
    idx = np.arange(block_size, dtype=np.float32)
    pred = coeffs[:, 0:1].astype(np.float32) + coeffs[:, 1:2].astype(np.float32) * idx[None, :]
    return np.rint(pred.astype(np.float64)).astype(np.int64)


def adaptive_encode(codes: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> AdaptivePrediction:
    """Run the per-block best-fit prediction over a 1-D code array."""
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValidationError(f"codes must be 1-D, got shape {codes.shape}")
    if block_size < 4:
        raise ValidationError("block_size must be at least 4")
    codes = codes.astype(np.int64, copy=False)
    n = int(codes.size)
    if n == 0:
        return AdaptivePrediction(
            residuals=np.zeros(0, dtype=np.int64),
            modes=np.zeros(0, dtype=np.uint8),
            coefficients=np.zeros((0, 2), dtype=np.float32),
            block_size=block_size,
            count=0,
        )

    blocks = _pad_to_blocks(codes, block_size)
    lorenzo = _lorenzo_residuals(blocks)
    coeffs_all = _regression_fit(blocks)
    regression = blocks - _regression_predict(coeffs_all, block_size)

    # Cost proxy: an estimate of the entropy-coded size in bits.  A residual
    # of magnitude m costs roughly log2(1 + m) bits under the Huffman coder
    # (small residuals are nearly free, large ones cost their magnitude's bit
    # width), which — unlike a plain absolute sum — correctly prefers a
    # highly skewed difference distribution over a flatter but smaller-sum
    # one.  The regression predictor additionally pays for its two float32
    # coefficients; they cost 64 bits on the wire but are charged double so
    # that regression only wins a block when its advantage is clear (the
    # estimate ignores the cost of widening the shared Huffman alphabet).
    lorenzo_cost = np.log2(1.0 + np.abs(lorenzo)).sum(axis=1)
    regression_cost = np.log2(1.0 + np.abs(regression)).sum(axis=1) + 128.0
    direct_cost = np.log2(1.0 + np.abs(blocks)).sum(axis=1)
    costs = np.stack([lorenzo_cost, regression_cost, direct_cost], axis=1)
    modes = costs.argmin(axis=1).astype(np.uint8)

    residual_blocks = np.where(
        (modes == MODE_REGRESSION)[:, None],
        regression,
        np.where((modes == MODE_DIRECT)[:, None], blocks, lorenzo),
    )
    residuals = residual_blocks.reshape(-1)[:n].copy()
    coefficients = coeffs_all[modes == MODE_REGRESSION].copy()
    return AdaptivePrediction(
        residuals=residuals,
        modes=modes,
        coefficients=coefficients,
        block_size=block_size,
        count=n,
    )


def adaptive_decode(prediction: AdaptivePrediction) -> np.ndarray:
    """Reconstruct the quantization codes from an :class:`AdaptivePrediction`."""
    n = prediction.count
    bs = prediction.block_size
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
