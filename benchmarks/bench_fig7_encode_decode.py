"""Figure 7 — encoding and decoding performance of the three approaches.

* Figure 7a (encoding): DeepSZ's encoding cost is the assessment forward
  passes plus compression; Deep Compression and Weightless additionally pay
  retraining epochs to recover the accuracy their quantization destroys.  The
  paper normalises per network; the shape to reproduce is
  ``DeepSZ < Deep Compression < Weightless``.
* Figure 7b (decoding): the per-phase breakdown (lossless + SZ + CSR
  reconstruction for DeepSZ; codebook lookup + CSR for Deep Compression;
  Bloomier probing for Weightless).  The shape: DeepSZ and Deep Compression
  decode in the same ballpark, Weightless is far slower because every matrix
  position is probed through four hash functions.

The parallel-assessment scaling experiment (the paper's four V100s) is
covered by ``bench_fig7_parallel_assessment_scaling``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from common import write_result
from repro.analysis import render_table
from repro.baselines import (
    DeepCompressionConfig,
    DeepCompressionEncoder,
    WeightlessConfig,
    WeightlessEncoder,
)
from repro.core.assess_parallel import AssessmentEngine
from repro.core.assessment import AssessmentConfig
from repro.nn import zoo
from repro.nn.train import SGDConfig, SGDTrainer

#: Retraining epochs charged to the baselines.  The paper characterises the
#: retraining-based methods as costing O(5·M)–O(10·M) (5–10 epochs) for Deep
#: Compression and more for Weightless (its published VGG-16 encoding time
#: corresponds to tens of epochs); 6 and 12 epochs are the midpoints we charge
#: here.  DeepSZ is charged its *measured* encoding time (assessment +
#: optimization + compression), with no retraining.
RETRAIN_EPOCHS = {"deep-compression": 6, "weightless": 12}
MODEL = "alexnet-mini"


def bench_fig7a_encoding_time(benchmark, zoo_pruned, deepsz_results):
    pruned, train, test = zoo_pruned(MODEL)
    deepsz = deepsz_results(MODEL)
    deepsz_seconds = deepsz.encoding_seconds

    # Measure the cost of one masked retraining epoch once, then charge each
    # baseline its epoch count plus its measured quantization/encoding cost.
    start = time.perf_counter()
    SGDTrainer(SGDConfig(epochs=1, learning_rate=0.01, seed=1)).train(
        pruned.network.clone(), train.images, train.labels, masks=pruned.masks
    )
    epoch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    DeepCompressionEncoder(DeepCompressionConfig(bits=5)).encode_network(pruned.sparse_layers)
    dc_encode_seconds = time.perf_counter() - start
    dc_seconds = dc_encode_seconds + RETRAIN_EPOCHS["deep-compression"] * epoch_seconds

    wl_encoder = WeightlessEncoder(WeightlessConfig(seed=2))
    target = wl_encoder.pick_target_layer(pruned.sparse_layers)
    start = time.perf_counter()
    wl_encoder.encode_layer(target, pruned.sparse_layers[target])
    wl_encode_seconds = time.perf_counter() - start
    wl_seconds = wl_encode_seconds + RETRAIN_EPOCHS["weightless"] * epoch_seconds

    rows = [
        ["DeepSZ (measured, no retraining)", f"{deepsz_seconds:.1f} s", "1.00"],
        [
            f"Deep Compression (+{RETRAIN_EPOCHS['deep-compression']} retrain epochs)",
            f"{dc_seconds:.1f} s",
            f"{dc_seconds / deepsz_seconds:.2f}",
        ],
        [
            f"Weightless (+{RETRAIN_EPOCHS['weightless']} retrain epochs)",
            f"{wl_seconds:.1f} s",
            f"{wl_seconds / deepsz_seconds:.2f}",
        ],
    ]
    text = render_table(
        ["method", "encoding time", "normalized to DeepSZ"],
        rows,
        title=f"Figure 7a — encoding time on {zoo.PAPER_NAME[MODEL]} (mini); "
        f"one retraining epoch measured at {epoch_seconds:.1f} s",
    )
    write_result("fig7a_encoding_time", text)

    # The paper's ordering: DeepSZ encodes faster than both retraining-based
    # baselines (1.8x-4.0x in the paper), and Weightless is the slowest.
    assert dc_seconds > deepsz_seconds * 0.8
    assert wl_seconds > deepsz_seconds
    assert wl_seconds > dc_seconds

    # Timed kernel for pytest-benchmark: DeepSZ's Step 4 alone (compression of
    # all layers at the chosen bounds), the part that is pure encoding work.
    from repro.core.encoder import DeepSZEncoder

    encoder = DeepSZEncoder()
    benchmark(
        lambda: encoder.encode(MODEL, pruned.sparse_layers, deepsz.plan.error_bounds)
    )


def bench_fig7b_decoding_breakdown(benchmark):
    """Decode-time comparison at (scaled) paper layer dimensions.

    The decode path needs no accuracy measurement, so it runs on synthetic
    trained-like AlexNet fc-layers at REPRO_SCALE dimensions — large enough
    that the Figure 7b effect (Weightless probing every matrix position with
    four hash functions) dominates its decode time, exactly as in the paper.
    """
    from common import scale_factor
    from repro.core.encoder import DeepSZEncoder
    from repro.core.decoder import DeepSZDecoder
    from repro.nn.models import synthesize_fc_weights
    from repro.nn.specs import PAPER_PRUNING_RATIOS
    from repro.pruning import encode_sparse, prune_weights

    scale = max(scale_factor(), 0.15)
    bounds = {"fc6": 7e-3, "fc7": 7e-3, "fc8": 5e-3}
    sparse_layers = {}
    for layer, eb in bounds.items():
        weights = synthesize_fc_weights(
            "AlexNet", layer, seed=hash((layer, "fig7b")) % 2**31, scale=scale
        )
        pruned_w, _ = prune_weights(weights, PAPER_PRUNING_RATIOS["AlexNet"][layer])
        sparse_layers[layer] = encode_sparse(pruned_w)

    deepsz_model = DeepSZEncoder().encode("AlexNet", sparse_layers, bounds)

    # DeepSZ decode (timed kernel) and its per-phase breakdown.
    decoder = DeepSZDecoder()
    decoded = benchmark(lambda: decoder.decode(deepsz_model))
    deepsz_phases = decoded.timing.as_dict()

    # Deep Compression decode.
    dc = DeepCompressionEncoder(DeepCompressionConfig(bits=5))
    dc_payloads = dc.encode_network(sparse_layers)
    _, dc_timing = dc.decode_network(dc_payloads)

    # Weightless decode (largest layer only).
    wl = WeightlessEncoder(WeightlessConfig(seed=3))
    target = wl.pick_target_layer(sparse_layers)
    wl_payload = wl.encode_layer(target, sparse_layers[target]).payload
    from repro.utils.timing import TimingBreakdown

    wl_timing = TimingBreakdown()
    wl.decode_layer(wl_payload, wl_timing)

    def fmt(timing: dict) -> str:
        return ", ".join(f"{k} {v * 1e3:.1f} ms" for k, v in timing.items())

    rows = [
        ["DeepSZ", f"{sum(deepsz_phases.values()) * 1e3:.1f} ms", fmt(deepsz_phases)],
        ["Deep Compression", f"{dc_timing.total * 1e3:.1f} ms", fmt(dc_timing.as_dict())],
        ["Weightless", f"{wl_timing.total * 1e3:.1f} ms", fmt(wl_timing.as_dict())],
    ]
    text = render_table(
        ["method", "total decode time", "breakdown"],
        rows,
        title=f"Figure 7b — decoding time breakdown, AlexNet fc-layers at scale {scale}",
    )
    write_result("fig7b_decoding_breakdown", text)

    # Shape: Weightless decoding is the slowest by a wide margin (it probes
    # every matrix position), and DeepSZ's decode is not slower than
    # Weightless; the paper reports 4.5x-6.2x vs the second-best method.
    deepsz_total = sum(deepsz_phases.values())
    assert wl_timing.total > deepsz_total
    assert wl_timing.total > dc_timing.total * 0.8
    assert set(deepsz_phases) == {"lossless", "sz", "csr"}


def _residual_like_stream() -> np.ndarray:
    """2M Huffman symbols distributed like the SZ pipeline's residuals."""
    rng = np.random.default_rng(7)
    return np.rint(rng.standard_normal(2_000_000) * 3).astype(np.int64)


def bench_fig7_huffman_encode_throughput(benchmark):
    """Encode throughput and peak allocation of the Huffman word packer.

    Same stream as :func:`bench_fig7_huffman_decode_throughput`.  Reported
    only: the packer places each code into at most two 64-bit words, so its
    temporaries are per-symbol words, never per-bit, and the tracemalloc
    peak is the number to watch when changing it.
    """
    import tracemalloc

    from repro.sz.huffman import HuffmanCodec

    symbols = _residual_like_stream()
    codec = HuffmanCodec()
    codec.encode(symbols)  # warm-up

    start = time.perf_counter()
    blob = codec.encode(symbols)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        codec.encode(symbols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(codec.decode(blob), symbols)

    rows = [
        ["symbols", f"{symbols.size:,}"],
        ["encoded bytes", f"{len(blob):,}"],
        ["encode wall-clock", f"{seconds:.3f} s"],
        ["throughput", f"{symbols.size / max(seconds, 1e-9) / 1e6:.2f} Msymbols/s"],
        ["tracemalloc peak", f"{peak / 1e6:.1f} MB"],
    ]
    text = render_table(
        ["metric", "value"],
        rows,
        title="Huffman encode throughput (word packer)",
    )
    write_result("fig7_huffman_encode_throughput", text)

    benchmark(lambda: codec.encode(symbols))


def bench_fig7_huffman_decode_throughput(benchmark):
    """Decode throughput of the compiled and the numpy Huffman kernels.

    The Figure 7b "sz" phase is dominated by Huffman decoding, so this
    benchmark tracks symbols/second on a residual-like stream (the
    distribution the SZ pipeline actually feeds the codec).
    ``HuffmanCodec.decode`` runs the compiled kernel where this machine can
    build it (:mod:`repro.sz.native`); the batched numpy table-probe kernel
    is its portable fallback and is timed on the same stream.
    """
    from repro.sz import native
    from repro.sz.huffman import HuffmanCodec, HuffmanTable
    from repro.utils.bytesio import read_named_sections

    symbols = _residual_like_stream()
    codec = HuffmanCodec()
    blob = codec.encode(symbols)
    meta, sections = read_named_sections(blob)
    table = HuffmanTable(
        symbols=np.frombuffer(sections["table_symbols"], dtype="<i8").astype(np.int64),
        lengths=np.frombuffer(sections["table_lengths"], dtype=np.uint8),
    )
    kernels = {
        "numpy": lambda: HuffmanCodec._decode_packed(
            sections["payload"], meta["nbits"], table, symbols.size
        )
    }
    compiled = native.huffman_kernel()  # builds or loads it outside the timing
    if compiled is not None:
        kernels["compiled"] = lambda: HuffmanCodec._decode_native(
            compiled, sections["payload"], meta["nbits"], table, symbols.size
        )

    rows = [["symbols", f"{symbols.size:,}"], ["encoded bytes", f"{len(blob):,}"]]
    for name, decode in kernels.items():
        start = time.perf_counter()
        out = decode()
        seconds = time.perf_counter() - start
        assert np.array_equal(out, symbols)
        rows.append([f"{name} decode wall-clock", f"{seconds:.3f} s"])
        rows.append([f"{name} throughput", f"{symbols.size / max(seconds, 1e-9) / 1e6:.2f} Msymbols/s"])
    if compiled is None:
        rows.append(["compiled kernel", "unavailable (see the repro.sz.native log)"])
    text = render_table(["metric", "value"], rows, title="Huffman decode throughput")
    write_result("fig7_huffman_decode_throughput", text)

    benchmark(lambda: codec.decode(blob))


def bench_fig7_parallel_assessment_scaling(benchmark, zoo_pruned):
    """The multi-GPU claim: assessment tests are embarrassingly parallel."""
    pruned, _, test = zoo_pruned("lenet-300-100")
    images, labels = test.images[:400], test.labels[:400]
    config = AssessmentConfig(expected_accuracy_loss=0.05)

    def assess(workers, n=len(labels)):
        engine = AssessmentEngine(config, workers=workers)
        return engine.run(pruned.network, pruned.sparse_layers, images[:n], labels[:n])

    start = time.perf_counter()
    serial = assess(1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = assess(2)
    parallel_seconds = time.perf_counter() - start

    rows = [
        ["serial (1 worker)", f"{serial_seconds:.2f} s", "1.00"],
        ["thread pool (2 workers)", f"{parallel_seconds:.2f} s", f"{serial_seconds / max(parallel_seconds, 1e-9):.2f}"],
    ]
    text = render_table(
        ["configuration", "wall-clock", "speedup"],
        rows,
        title="Figure 7a (companion) — parallel error-bound assessment "
        f"({serial.tests_performed} candidate tests on LeNet-300-100)",
    )
    write_result("fig7_parallel_scaling", text)

    # Results must be identical regardless of the execution mode.
    assert serial.tests_performed == parallel.tests_performed
    for name, layer in serial.layers.items():
        assert [
            (p.error_bound, p.accuracy, p.compressed_bytes) for p in layer.points
        ] == [
            (p.error_bound, p.accuracy, p.compressed_bytes)
            for p in parallel.layers[name].points
        ]

    benchmark(lambda: assess(1, n=100))
