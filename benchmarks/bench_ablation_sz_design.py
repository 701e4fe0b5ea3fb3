"""Ablations of the SZ design choices called out in DESIGN.md.

* Lorenzo prediction vs direct quantization of values (no prediction), and
  the adaptive default that picks between them per stream.
* Quantizer capacity (the unpredictable-data threshold).
* Lossless back end applied after Huffman coding.

These are not figures from the paper, but they justify the defaults the
reproduction uses; the headline SZ pipeline (adaptive prediction + Huffman + zlib) should
never lose to the ablated variants by more than noise.
"""

from __future__ import annotations

import pytest

from common import scale_factor, write_result
from repro.analysis import render_table
from repro.nn.models import synthesize_fc_weights
from repro.nn.specs import PAPER_PRUNING_RATIOS
from repro.pruning import encode_sparse, prune_weights
from repro.sz import SZCompressor, SZConfig


def _data_array():
    weights = synthesize_fc_weights("AlexNet", "fc6", seed=77, scale=scale_factor())
    pruned, _ = prune_weights(weights, PAPER_PRUNING_RATIOS["AlexNet"]["fc6"])
    return encode_sparse(pruned).data


def bench_ablation_predictor(benchmark):
    """Adaptive (default) vs plain Lorenzo vs direct quantization.

    On noise-like weight arrays the plain Lorenzo predictor *hurts*: first
    differences of uncorrelated codes have roughly twice the variance, so the
    residual entropy grows by ~0.5 bit per value.  The adaptive default is
    the per-stream best fit of direct vs Lorenzo by exact Huffman-coded size,
    so on such arrays it picks direct quantization and matches its rate.  It
    must therefore match or beat both fixed choices.
    """
    data = _data_array()
    rows = []
    ratios = {}
    for eb in (1e-2, 1e-3):
        for predictor in ("adaptive", "lorenzo", "none"):
            result = SZCompressor(SZConfig(error_bound=eb, predictor=predictor)).compress(data)
            ratios[(predictor, eb)] = result.ratio
            rows.append([predictor, f"{eb:.0e}", f"{result.ratio:.2f}x", f"{result.bits_per_value:.2f}"])
    text = render_table(
        ["predictor", "error bound", "ratio", "bits/value"],
        rows,
        title="Ablation — prediction scheme (AlexNet fc6 data array)",
    )
    write_result("ablation_predictor", text)

    for eb in (1e-2, 1e-3):
        best_fixed = max(ratios[("lorenzo", eb)], ratios[("none", eb)])
        assert ratios[("adaptive", eb)] >= best_fixed * 0.93

    benchmark(lambda: SZCompressor(SZConfig(error_bound=1e-3)).compress(data))


def bench_ablation_capacity(benchmark):
    """Quantizer capacity: too-small capacities push values to the outlier path."""
    data = _data_array()
    rows = []
    outliers = {}
    for capacity in (256, 4096, 65536):
        result = SZCompressor(SZConfig(error_bound=1e-3, capacity=capacity)).compress(data)
        outliers[capacity] = result.outlier_count
        rows.append([str(capacity), f"{result.ratio:.2f}x", str(result.outlier_count)])
    text = render_table(
        ["capacity", "ratio", "unpredictable values"],
        rows,
        title="Ablation — quantizer capacity at error bound 1e-3",
    )
    write_result("ablation_capacity", text)

    # Larger capacity never produces more outliers.
    assert outliers[65536] <= outliers[4096] <= outliers[256]
    benchmark(lambda: SZCompressor(SZConfig(error_bound=1e-3, capacity=4096)).compress(data))


def bench_ablation_lossless_backend(benchmark):
    """Lossless stage after Huffman coding: store vs zlib vs lzma vs bz2."""
    data = _data_array()
    rows = []
    sizes = {}
    for backend in ("store", "zlib", "lzma", "bz2"):
        result = SZCompressor(SZConfig(error_bound=1e-2, lossless=backend)).compress(data)
        sizes[backend] = result.compressed_bytes
        rows.append([backend, f"{result.ratio:.2f}x"])
    text = render_table(
        ["lossless backend", "ratio"],
        rows,
        title="Ablation — lossless back end applied to the SZ payload (error bound 1e-2)",
    )
    write_result("ablation_lossless", text)

    # A real codec on top of Huffman should not lose to plain storage.
    assert min(sizes["zlib"], sizes["lzma"], sizes["bz2"]) <= sizes["store"]
    benchmark(lambda: SZCompressor(SZConfig(error_bound=1e-2, lossless="best")).compress(data))


def bench_ablation_assessment_granularity(benchmark, zoo_pruned):
    """Coarse-only vs Algorithm 1's fine schedule: the fine scan buys ratio."""
    from repro.core.assessment import AssessmentConfig, assess_network
    from repro.core.optimizer import OptimizerConfig, optimize_error_bounds

    pruned, _, test = zoo_pruned("lenet-300-100")
    images, labels = test.images[:300], test.labels[:300]
    budget = 0.0067

    def run(max_fine_tests):
        config = AssessmentConfig(expected_accuracy_loss=budget, max_fine_tests=max_fine_tests)
        assessment = assess_network(
            pruned.network, pruned.sparse_layers, images, labels, config=config
        )
        plan = optimize_error_bounds(
            assessment.candidates(), OptimizerConfig(expected_accuracy_loss=budget)
        )
        return assessment.tests_performed, plan.total_compressed_bytes

    coarse_tests, coarse_bytes = run(max_fine_tests=1)
    fine_tests, fine_bytes = benchmark.pedantic(lambda: run(max_fine_tests=18), rounds=1, iterations=1)

    text = render_table(
        ["schedule", "accuracy tests", "compressed fc bytes"],
        [
            ["coarse only (1 fine test/layer)", str(coarse_tests), str(coarse_bytes)],
            ["Algorithm 1 fine schedule", str(fine_tests), str(fine_bytes)],
        ],
        title="Ablation — assessment granularity vs achieved size (LeNet-300-100)",
    )
    write_result("ablation_assessment", text)

    # The fine schedule costs more tests and never yields a larger model.
    assert fine_tests >= coarse_tests
    assert fine_bytes <= coarse_bytes
