"""Compressed-domain execution of pruned fc-layers (the SparseLinear path).

The paper's artifact is a pruned network whose fc layers sit at ~10%
density, yet a dense ``x @ W.T`` throws that sparsity away: BLAS multiplies
the 90% zeros like any other operand, and the resident weight matrix costs
its full dense footprint.  :class:`SparseWeight` keeps the weight matrix in
SciPy compressed-sparse form and runs the fc matmul directly on it.

Kernel choice
-------------
For ``y = x @ W.T`` with ``W`` of shape (out_features, in_features) the
weight is stored as a **CSC** matrix of ``W`` and the product computed as
``(W_csc @ x.T).T``.  CSC-of-W is structurally CSR-of-``W.T`` — the
traversal streams down each *input* feature's column, which measures
fastest of the SciPy formulations at serving batch sizes (tens of samples):
the batch dimension is then the contiguous inner axis of ``x.T`` column
reads.  Everything stays float32; the result is an ordinary ndarray.

The storage footprint is ``data + indices + indptr`` (8 bytes per stored
entry plus one int32 per input feature), which at 10% density is ~5x below
the dense float32 matrix — that footprint, not the dense ``nbytes``, is
what a :class:`repro.serve.cache.LRUCache` entry is charged in sparse
serving mode.

SciPy is imported inside the constructors, not by this module, so it loads
on the first :class:`SparseWeight` a process builds: a dense serving worker,
which imports this module through :mod:`repro.nn.network`, never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.utils.errors import ValidationError

if TYPE_CHECKING:
    from scipy import sparse as sp

__all__ = ["SparseWeight"]


class SparseWeight:
    """An fc weight matrix held in SciPy CSC form for compressed-domain matmuls.

    Immutable by convention: the underlying index/value arrays are marked
    read-only so a cached instance can be shared across request threads the
    same way the serving cache shares read-only dense matrices.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        from scipy import sparse as sp

        if not sp.issparse(matrix):
            raise ValidationError(
                f"SparseWeight needs a scipy sparse matrix, got {type(matrix).__name__}"
            )
        if matrix.ndim != 2:
            raise ValidationError(f"weight matrix must be 2-D, got shape {matrix.shape}")
        csc = matrix.tocsc()
        if csc is matrix:
            csc = csc.copy()  # never freeze the caller's own arrays
        if csc.dtype != np.float32:
            csc = csc.astype(np.float32)
        csc.sort_indices()
        for arr in (csc.data, csc.indices, csc.indptr):
            arr.flags.writeable = False
        self.matrix: sp.csc_matrix = csc

    # -- construction ------------------------------------------------------
    @classmethod
    def from_sparse_layer(cls, layer, data: Optional[np.ndarray] = None) -> "SparseWeight":
        """Build from a two-array :class:`~repro.pruning.SparseLayer` without
        ever materialising the dense matrix (``data`` optionally substitutes
        SZ-decompressed values, exactly like :func:`~repro.pruning.decode_sparse`).

        Every stored entry is kept, padding slots included: a decoded
        layer's values are lossy, so "padding is exactly 0.0" cannot be
        assumed here — and keeping everything makes the operand independent
        of which codec produced the values."""
        from repro.pruning.sparse_format import sparse_to_scipy

        return cls(sparse_to_scipy(layer, data=layer.data if data is None else data))

    @classmethod
    def from_csc_arrays(
        cls,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        *,
        shape: tuple[int, int],
    ) -> "SparseWeight":
        """Wrap pre-built CSC arrays **without copying** them.

        The shared-memory serving path reconstructs weights in worker
        processes from read-only views over a host-wide segment; going
        through ``__init__`` would defensively copy them, defeating the
        zero-copy design.  The arrays must already be what
        :class:`SparseWeight` produces — float32 data, sorted indices —
        which holds by construction when they were serialized from one.
        """
        from scipy import sparse as sp

        matrix = sp.csc_matrix((data, indices, indptr), shape=shape, copy=False)
        if matrix.dtype != np.float32:
            raise ValidationError(
                f"shared CSC data must be float32, got {matrix.dtype}"
            )
        # The source matrix had sort_indices() applied before serialization;
        # asserting it here would write (and the views are read-only).
        matrix.has_sorted_indices = True
        self = object.__new__(cls)
        self.matrix = matrix
        return self

    @classmethod
    def from_dense(cls, weights: np.ndarray) -> "SparseWeight":
        """Build from a (pruned) dense matrix — test/tooling convenience."""
        from scipy import sparse as sp

        weights = np.asarray(weights, dtype=np.float32)
        if weights.ndim != 2:
            raise ValidationError(f"weights must be a 2-D matrix, got shape {weights.shape}")
        return cls(sp.csc_matrix(weights))

    @classmethod
    def coerce(cls, value) -> "SparseWeight":
        """Accept a SparseWeight, a SciPy sparse matrix, or a SparseLayer."""
        if isinstance(value, cls):
            return value
        from scipy import sparse as sp

        if sp.issparse(value):
            return cls(value)
        # Duck-typed SparseLayer: avoids importing repro.pruning at module
        # import time (repro.pruning imports repro.nn back).
        if hasattr(value, "index") and hasattr(value, "data") and hasattr(value, "shape"):
            return cls.from_sparse_layer(value)
        raise ValidationError(
            "cannot build a SparseWeight from a "
            f"{type(value).__name__}; expected a SparseWeight, scipy sparse "
            "matrix, or SparseLayer"
        )

    # -- introspection -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.matrix.shape[0]), int(self.matrix.shape[1]))

    @property
    def nnz(self) -> int:
        """Stored entries (explicit near-zero padding values included)."""
        return int(self.matrix.nnz)

    @property
    def nbytes(self) -> int:
        """Actual resident footprint: data + indices + indptr bytes."""
        return int(
            self.matrix.data.nbytes
            + self.matrix.indices.nbytes
            + self.matrix.indptr.nbytes
        )

    @property
    def density(self) -> float:
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    # -- execution ---------------------------------------------------------
    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``x @ W.T`` for a batch ``x`` of shape (N, in_features).

        Returns an (N, out_features) float32 ndarray; add the bias yourself
        (the layer owns it).
        """
        return np.asarray((self.matrix @ x.T).T, dtype=np.float32)

    def to_dense(self) -> np.ndarray:
        """Materialise the dense (out_features, in_features) float32 matrix."""
        return np.asarray(self.matrix.toarray(), dtype=np.float32)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rows, cols = self.shape
        return (
            f"SparseWeight({rows}x{cols}, nnz={self.nnz}, "
            f"density={self.density:.3f}, {self.nbytes}B)"
        )
