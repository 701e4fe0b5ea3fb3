"""Figure 4 — lossless compression ratios on the index arrays.

The paper compares Gzip, Zstandard and Blosc on the uint8 position-delta index
arrays of AlexNet's and VGG-16's fc-layers and picks the best fit (Zstandard
always wins there).  The offline equivalents are zlib, lzma and bz2, plus the
repo's canonical Huffman codec; the best-fit selection machinery is
identical.  Each backend's decode time is reported next to its ratio, since
the index decode sits on the serving path's time to first inference.
"""

from __future__ import annotations

import time
import zlib

from common import scale_factor, write_result
from repro.analysis import render_table
from repro.nn.models import synthesize_fc_weights
from repro.nn.specs import PAPER_PRUNING_RATIOS
from repro.pruning import encode_sparse, prune_weights
from repro.sz.lossless import INDEX_LOSSLESS_CANDIDATES, best_fit_backend, get_backend

NETWORKS = ["AlexNet", "VGG-16"]
LAYERS = ["fc6", "fc7", "fc8"]
BACKENDS = list(INDEX_LOSSLESS_CANDIDATES)
#: Decodes per backend and array; the fastest one is reported.
DECODE_REPEATS = 5


def _index_array(network: str, layer: str) -> bytes:
    # crc32, not hash(): str hashes change between interpreter runs.
    seed = zlib.crc32(f"{network}/{layer}/fig4".encode())
    weights = synthesize_fc_weights(network, layer, seed=seed, scale=scale_factor())
    keep = PAPER_PRUNING_RATIOS[network][layer]
    pruned, _ = prune_weights(weights, keep)
    return encode_sparse(pruned).index.tobytes()


def _decode_ms(name: str, blob: bytes, payload: bytes) -> float:
    """Fastest of :data:`DECODE_REPEATS` decodes of ``blob``, in ms."""
    backend = get_backend(name)
    best = float("inf")
    for _ in range(DECODE_REPEATS):
        start = time.perf_counter()
        out = backend.decompress(blob)
        best = min(best, time.perf_counter() - start)
        assert out == payload
    return 1e3 * best


def bench_fig4_lossless_index_ratios(benchmark):
    rows = []
    winners = []
    arrays = {(n, l): _index_array(n, l) for n in NETWORKS for l in LAYERS}
    for (network, layer), payload in arrays.items():
        blobs = {name: get_backend(name).compress(payload) for name in BACKENDS}
        ratios = {name: len(payload) / max(1, len(blob)) for name, blob in blobs.items()}
        cells = [
            f"{ratios[name]:.3f}x {_decode_ms(name, blob, payload):.1f} ms"
            for name, blob in blobs.items()
        ]
        best, _ = best_fit_backend(payload, BACKENDS)
        winners.append(best.name)
        rows.append([f"{network} {layer}", f"{len(payload):,}", *cells, best.name])
        # Every general-purpose codec compresses the low-entropy delta stream.
        assert min(ratios.values()) > 1.0

    text = render_table(
        ["layer", "index bytes", *BACKENDS, "best fit"],
        rows,
        title="Figure 4 — lossless compression ratio and decode time of index arrays "
        "(paper: gzip / Zstandard / Blosc; offline stand-ins: zlib / lzma / bz2, "
        "plus canonical Huffman)",
    )
    write_result("fig4_lossless_index", text)

    # One back end should win consistently, mirroring "Zstandard always wins".
    assert len(set(winners)) <= 2

    # Timed kernel: the best-fit selection over the largest index array.
    biggest = max(arrays.values(), key=len)
    benchmark(lambda: best_fit_backend(biggest, BACKENDS))
