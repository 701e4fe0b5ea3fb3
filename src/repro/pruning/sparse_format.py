"""The two-array sparse representation of a pruned fc-layer.

Unlike textbook CSR (three arrays), the paper uses two 1-D arrays per layer:
a float32 ``data`` array of the non-zero weights and a uint8 ``index`` array
of position *differences* between consecutive non-zeros.  When a gap exceeds
the 8-bit range, a padding entry is emitted: 255 in the index array and 0.0
in the data array (Section 3.2).  Every stored weight therefore costs
40 bits, which is why the post-pruning ratio is slightly below the nominal
1 / pruning-ratio.

Both encode and decode are fully vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.errors import DecompressionError, ValidationError

if TYPE_CHECKING:
    from scipy import sparse as sp

__all__ = [
    "SparseLayer",
    "encode_sparse",
    "decode_sparse",
    "sparse_positions",
    "sparse_to_scipy",
]

_GAP_LIMIT = 255  #: largest position difference representable in one uint8 entry


@dataclass(frozen=True)
class SparseLayer:
    """A pruned fc-layer in the paper's two-array format.

    Attributes
    ----------
    data:
        float32 values (non-zero weights plus 0.0 padding entries).
    index:
        uint8 position deltas, same length as ``data``.
    shape:
        The dense (rows, cols) shape of the original weight matrix.
    nnz:
        Number of true non-zero weights (excludes padding entries).
    """

    data: np.ndarray
    index: np.ndarray
    shape: tuple[int, int]
    nnz: int

    def __post_init__(self) -> None:
        if self.data.shape != self.index.shape:
            raise ValidationError("data and index arrays must have equal length")

    @property
    def entry_count(self) -> int:
        """Stored entries, padding included."""
        return int(self.data.size)

    @property
    def dense_bytes(self) -> int:
        """Size of the dense float32 matrix this layer came from."""
        return int(np.prod(self.shape)) * 4

    @property
    def packed_bytes(self) -> int:
        """Storage of the two-array format: 40 bits (4 + 1 bytes) per entry."""
        return self.entry_count * 5

    @property
    def compression_ratio(self) -> float:
        """Dense bytes / two-array bytes (the paper's "CSR Size" ratio)."""
        return self.dense_bytes / self.packed_bytes if self.packed_bytes else float("inf")

    @property
    def density(self) -> float:
        """Fraction of weights that survived pruning."""
        total = int(np.prod(self.shape))
        return self.nnz / total if total else 0.0


def encode_sparse(weights: np.ndarray) -> SparseLayer:
    """Encode a (pruned) dense weight matrix into the two-array format."""
    weights = np.asarray(weights, dtype=np.float32)
    if weights.ndim != 2:
        raise ValidationError(f"weights must be a 2-D matrix, got shape {weights.shape}")
    flat = weights.ravel()
    positions = np.flatnonzero(flat)
    nnz = int(positions.size)
    if nnz == 0:
        return SparseLayer(
            data=np.zeros(0, dtype=np.float32),
            index=np.zeros(0, dtype=np.uint8),
            shape=weights.shape,
            nnz=0,
        )

    # Gaps between consecutive non-zeros; the first gap is measured from
    # position -1 so that every entry's delta is >= 1.
    gaps = np.diff(positions, prepend=-1).astype(np.int64)
    # Number of 255-padding entries needed in front of each real entry.
    pad_counts = (gaps - 1) // _GAP_LIMIT
    remainders = gaps - pad_counts * _GAP_LIMIT  # final delta, in [1, 255]

    total_entries = int(nnz + pad_counts.sum())
    index = np.empty(total_entries, dtype=np.uint8)
    data = np.zeros(total_entries, dtype=np.float32)

    # Positions of the real (non-padding) entries in the output arrays.
    entry_pos = np.arange(nnz) + np.cumsum(pad_counts)
    index[:] = _GAP_LIMIT  # every slot defaults to a padding entry
    index[entry_pos] = remainders.astype(np.uint8)
    data[entry_pos] = flat[positions]

    return SparseLayer(data=data, index=index, shape=weights.shape, nnz=nnz)


def decode_sparse(layer: SparseLayer, data: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct the dense weight matrix.

    Parameters
    ----------
    layer:
        The sparse layer (provides the index array and shape).
    data:
        Optional replacement data array — this is how DeepSZ rebuilds a layer
        from the *decompressed* values while reusing the lossless index array.
    """
    values = layer.data if data is None else np.asarray(data, dtype=np.float32)
    if values.shape != layer.index.shape:
        raise DecompressionError(
            f"data array length {values.shape} does not match index array {layer.index.shape}"
        )
    total = int(np.prod(layer.shape))
    dense = np.zeros(total, dtype=np.float32)
    if values.size:
        # Padding entries carry (near-)zero values; writing them is harmless
        # and mirrors the paper's reconstruction.
        dense[sparse_positions(layer)] = values
    return dense.reshape(layer.shape)


def sparse_positions(layer: SparseLayer) -> np.ndarray:
    """Flat (row-major) positions of every stored entry, padding included.

    The delta decode shared by :func:`decode_sparse` and
    :func:`sparse_to_scipy`; raises :class:`DecompressionError` when the
    index array is corrupt — a zero delta (every encoded delta is in
    [1, 255], and a zero would make two entries collide on one position)
    or a walk past the end of the matrix.
    """
    if layer.index.size and int(layer.index.min()) < 1:
        raise DecompressionError(
            "index array contains zero deltas (corrupt two-array stream)"
        )
    positions = np.cumsum(layer.index.astype(np.int64)) - 1
    if positions.size and positions[-1] >= int(np.prod(layer.shape)):
        raise DecompressionError("index array addresses past the end of the matrix")
    return positions


def sparse_to_scipy(layer: SparseLayer, data: np.ndarray | None = None) -> sp.csr_matrix:
    """Convert to a SciPy CSR matrix *without* materialising the dense matrix.

    The stored positions are strictly increasing in row-major order, so the
    CSR structure falls out directly: column indices are ``position % cols``
    and the row pointer is a ``searchsorted`` over ``position // cols``.
    This is the compressed-domain entry point of the sparse inference path —
    a pruned fc-layer goes from the two-array format to a matmul-ready CSR
    in O(entries), never touching the O(rows * cols) dense form.

    Parameters
    ----------
    layer:
        The sparse layer (provides the index array and shape).
    data:
        Optional replacement data array (e.g. SZ-decompressed values).  When
        given, *every* stored entry is kept — including padding slots, whose
        lossy-decoded values are near zero — so the CSR holds exactly what
        :func:`decode_sparse` would write into the dense matrix.  Without it
        the exact 0.0 padding entries are dropped and ``csr.nnz`` equals
        ``layer.nnz``.
    """
    from scipy import sparse as sp

    values = layer.data if data is None else np.asarray(data, dtype=np.float32)
    if values.shape != layer.index.shape:
        raise DecompressionError(
            f"data array length {values.shape} does not match index array {layer.index.shape}"
        )
    rows_n, cols_n = (int(d) for d in layer.shape)
    if values.size == 0:
        return sp.csr_matrix(layer.shape, dtype=np.float32)
    positions = sparse_positions(layer)
    rows = positions // cols_n
    indices = (positions % cols_n).astype(np.int32)
    indptr = np.searchsorted(rows, np.arange(rows_n + 1)).astype(np.int32)
    csr = sp.csr_matrix(
        (values.astype(np.float32, copy=True), indices, indptr), shape=layer.shape
    )
    if data is None:
        # Padding entries are exact 0.0 by construction; dropping them makes
        # csr.nnz the true non-zero count (the documented interop contract).
        csr.eliminate_zeros()
    return csr
