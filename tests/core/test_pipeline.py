"""Tests for the end-to-end DeepSZ pipeline."""

import numpy as np
import pytest

from repro.core import DeepSZ, DeepSZConfig
from repro.core.encoder import CompressedModel
from repro.store import archive_bytes
from repro.utils.errors import ValidationError


class TestConfig:
    def test_defaults(self):
        cfg = DeepSZConfig()
        assert cfg.mode == "expected-accuracy"
        assert cfg.expected_accuracy_loss == pytest.approx(0.004)

    def test_invalid_mode(self):
        with pytest.raises(ValidationError):
            DeepSZConfig(mode="magic")

    def test_ratio_mode_requires_target(self):
        with pytest.raises(ValidationError):
            DeepSZConfig(mode="expected-ratio")
        cfg = DeepSZConfig(mode="expected-ratio", target_ratio=30.0)
        assert cfg.target_ratio == 30.0

    def test_assessment_config_propagation(self):
        cfg = DeepSZConfig(expected_accuracy_loss=0.01, capacity=1024)
        acfg = cfg.assessment_config()
        assert acfg.expected_accuracy_loss == 0.01
        assert acfg.capacity == 1024


@pytest.fixture(scope="module")
def pipeline_result(pruned_lenet300, small_dataset):
    """Run the expected-accuracy pipeline once and share the result."""
    _, test = small_dataset
    deepsz = DeepSZ(DeepSZConfig(expected_accuracy_loss=0.01, topk=(1,), optimizer_resolution=50))
    return deepsz.compress(pruned_lenet300, test.images, test.labels)


class TestExpectedAccuracyPipeline:
    def test_compresses_all_fc_layers(self, pipeline_result, pruned_lenet300):
        assert set(pipeline_result.layer_reports) == set(pruned_lenet300.sparse_layers)
        assert set(pipeline_result.plan.error_bounds) == set(pruned_lenet300.sparse_layers)

    def test_accuracy_loss_within_budget(self, pipeline_result):
        # Allow two test-set quanta of slack on top of the 1% budget: the
        # optimizer enforces the *predicted* loss, the measured joint loss can
        # wobble by a sample or two.
        assert pipeline_result.top1_loss <= 0.01 + 0.01

    def test_compression_beats_pruning_alone(self, pipeline_result):
        assert pipeline_result.compression_ratio > pipeline_result.csr_compression_ratio > 1.0

    def test_per_layer_reports_consistent(self, pipeline_result):
        for name, report in pipeline_result.layer_reports.items():
            assert report.original_bytes > report.csr_bytes > report.compressed_bytes
            assert report.error_bound == pipeline_result.plan.error_bounds[name]
            assert 0 < report.pruning_ratio < 1
            assert report.deepsz_ratio > report.csr_ratio

    def test_bits_per_nonzero_in_paper_band(self, pipeline_result):
        """DeepSZ encodes pruned weights in a few bits each.

        The paper reports 2.0-3.3 bits of *data-array* payload per pruned
        weight; with the losslessly-coded index array included the figure
        roughly doubles.  Container overhead only matters for layers with a
        handful of non-zeros, so the check is restricted to layers that carry
        at least 10k surviving weights.
        """
        checked = 0
        for name, layer in pipeline_result.model.layers.items():
            if layer.nnz < 10_000:
                continue
            checked += 1
            assert 0.5 < layer.bits_per_nonzero < 10.0
            data_bits = 8.0 * len(layer.sz_payload) / layer.nnz
            assert 0.5 < data_bits < 6.0
        assert checked >= 1

    def test_model_serializable(self, pipeline_result):
        blob = archive_bytes(pipeline_result.model)
        assert CompressedModel.load(blob).network == pipeline_result.network

    def test_decoding_timing_phases(self, pipeline_result):
        assert set(pipeline_result.decoding_timing.phases) == {"lossless", "sz", "csr"}

    def test_assessment_test_count_is_linear_not_exponential(self, pipeline_result):
        """Algorithm 1 runs ~a dozen tests per layer, never the cross product."""
        layers = len(pipeline_result.layer_reports)
        assert pipeline_result.assessment_tests <= 30 * layers

    def test_summary_properties(self, pipeline_result):
        assert pipeline_result.original_fc_bytes > 0
        assert 0 < pipeline_result.pruning_ratio_overall < 1
        assert pipeline_result.baseline_accuracy[1] >= pipeline_result.compressed_accuracy[1] - 0.02


class TestSparseInferencePipeline:
    def test_default_is_dense(self):
        assert DeepSZConfig().sparse_inference is False

    def test_sparse_inference_accuracy_matches_dense_reevaluation(
        self, pruned_lenet300, small_dataset
    ):
        """With sparse_inference=True the reported compressed accuracy is
        measured through the compressed-domain forward pass — and must be
        the accuracy a dense decode of the same model would measure."""
        from repro.core.decoder import DeepSZDecoder

        _, test = small_dataset
        deepsz = DeepSZ(
            DeepSZConfig(
                expected_accuracy_loss=0.01,
                topk=(1,),
                optimizer_resolution=50,
                assessment_samples=100,
                sparse_inference=True,
            )
        )
        result = deepsz.compress(pruned_lenet300, test.images, test.labels)
        dense_net = pruned_lenet300.network.clone()
        DeepSZDecoder().apply(result.model, dense_net)
        dense_acc = dense_net.evaluate(test.images, test.labels, topk=(1,))
        # The two kernels are not bitwise identical (CSC vs BLAS summation
        # order), so allow one test-set quantum for a platform-dependent
        # near-tie; in practice the counts match exactly.
        assert result.compressed_accuracy[1] == pytest.approx(
            dense_acc[1], abs=1.0 / len(test.labels)
        )


class TestExpectedRatioPipeline:
    def test_reaches_target_ratio(self, pruned_lenet300, small_dataset):
        _, test = small_dataset
        target = 25.0
        deepsz = DeepSZ(
            DeepSZConfig(
                mode="expected-ratio",
                target_ratio=target,
                expected_accuracy_loss=0.05,
                topk=(1,),
            )
        )
        result = deepsz.compress(pruned_lenet300, test.images, test.labels)
        assert result.compression_ratio >= target * 0.95

    def test_empty_pruned_network_raises(self, trained_lenet300, small_dataset):
        _, test = small_dataset
        from repro.pruning import PrunedNetwork

        empty = PrunedNetwork(network=trained_lenet300.clone(), masks={}, sparse_layers={})
        with pytest.raises(ValidationError):
            DeepSZ().compress(empty, test.images, test.labels)


class TestRunFromDense:
    def test_full_run_prunes_and_compresses(self, trained_lenet300, small_dataset):
        train, test = small_dataset
        net = trained_lenet300.clone()
        deepsz = DeepSZ(DeepSZConfig(expected_accuracy_loss=0.02, topk=(1,)))
        result = deepsz.run(
            net,
            {"ip1": 0.1, "ip2": 0.15, "ip3": 0.3},
            train.images,
            train.labels,
            test.images,
            test.labels,
        )
        assert result.compression_ratio > 10
        assert set(result.layer_reports) == {"ip1", "ip2", "ip3"}


class TestCodecConfigValidation:
    def test_unknown_data_codec_fails_fast(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DeepSZConfig(data_codec="no-such-codec")

    def test_non_error_bounded_data_codec_fails_fast(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DeepSZConfig(data_codec="zlib")

    def test_chunking_with_unchunked_codec_fails_fast(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DeepSZConfig(data_codec="zfp", chunk_size=100)

    def test_valid_chunked_config_accepted(self):
        cfg = DeepSZConfig(data_codec="sz", chunk_size=4096, workers=2)
        assert cfg.assessment_config().chunk_size == 4096


class TestAssessmentSubset:
    """The Step 2 sample cap must be a seeded shuffle, not a head slice."""

    def _ordered_set(self, n=60):
        # Class-sorted labels: a head slice would only ever see class 0.
        images = np.arange(n * 4, dtype=np.float32).reshape(n, 4)
        labels = np.repeat(np.arange(3), n // 3)
        return images, labels

    def test_subset_is_not_a_head_slice(self):
        from repro.core.pipeline import assessment_subset

        images, labels = self._ordered_set()
        sub_images, sub_labels = assessment_subset(images, labels, 20, None)
        assert len(sub_images) == 20
        # A head slice of 20 would be all class 0; the shuffled draw must
        # cover more than one class on a class-sorted set.
        assert len(np.unique(sub_labels)) > 1

    def test_subset_rows_stay_paired(self):
        from repro.core.pipeline import assessment_subset

        images, labels = self._ordered_set()
        sub_images, sub_labels = assessment_subset(images, labels, 20, seed=3)
        lookup = {tuple(row): label for row, label in zip(images, labels)}
        for row, label in zip(sub_images, sub_labels):
            assert lookup[tuple(row)] == label

    def test_subset_deterministic_per_seed(self):
        from repro.core.pipeline import assessment_subset

        images, labels = self._ordered_set()
        a = assessment_subset(images, labels, 20, seed=5)
        b = assessment_subset(images, labels, 20, seed=5)
        c = assessment_subset(images, labels, 20, seed=6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_no_cap_returns_everything(self):
        from repro.core.pipeline import assessment_subset

        images, labels = self._ordered_set()
        assert assessment_subset(images, labels, None, None)[0] is images
        assert assessment_subset(images, labels, 1000, None)[0] is images


class TestPipelineWorkers:
    def test_workers_do_not_change_the_result(self, pruned_lenet300, small_dataset):
        _, test = small_dataset
        base = DeepSZ(
            DeepSZConfig(expected_accuracy_loss=0.01, topk=(1,), optimizer_resolution=50)
        ).compress(pruned_lenet300, test.images, test.labels)
        fanned = DeepSZ(
            DeepSZConfig(
                expected_accuracy_loss=0.01,
                topk=(1,),
                optimizer_resolution=50,
                workers=4,
            )
        ).compress(pruned_lenet300, test.images, test.labels)
        assert base.plan.error_bounds == fanned.plan.error_bounds
        assert base.assessment_tests == fanned.assessment_tests
        assert base.compressed_fc_bytes == fanned.compressed_fc_bytes

    def test_assessment_cache_wired_through_config(
        self, pruned_lenet300, small_dataset, tmp_path
    ):
        _, test = small_dataset
        config = DeepSZConfig(
            expected_accuracy_loss=0.01,
            topk=(1,),
            optimizer_resolution=50,
            assessment_cache=str(tmp_path / "cache"),
        )
        first = DeepSZ(config).compress(pruned_lenet300, test.images, test.labels)
        second = DeepSZ(config).compress(pruned_lenet300, test.images, test.labels)
        assert second.assessment.evaluations == 0
        assert second.assessment.cache_hits >= second.assessment.tests_performed
        assert first.plan.error_bounds == second.plan.error_bounds
