"""Network pruning and the two-array sparse weight format (Step 1 of DeepSZ).

The paper builds on Deep Compression's *magnitude threshold plus retraining*
pruning: per-layer thresholds remove the smallest-magnitude weights, then the
network is retrained with masks so the pruned weights stay zero.  After
pruning, each fc-layer is stored as two 1-D arrays (Section 3.2):

* the **data array** — float32 values of the non-zero weights (plus the
  occasional zero padding), and
* the **index array** — uint8 differences between consecutive non-zero
  positions, with a ``255 + zero-padding`` escape when a gap exceeds the
  8-bit range.

The data array is what SZ compresses lossily; the index array is compressed
losslessly (Step 4).
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use (see repro._lazy).
_EXPORTS = {
    "magnitude_threshold": ".magnitude",
    "prune_weights": ".magnitude",
    "PruningConfig": ".magnitude",
    "PrunedNetwork": ".magnitude",
    "prune_network": ".magnitude",
    "SparseLayer": ".sparse_format",
    "encode_sparse": ".sparse_format",
    "decode_sparse": ".sparse_format",
    "sparse_to_scipy": ".sparse_format",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
