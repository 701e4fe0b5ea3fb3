"""Tests for the parallel activation-reuse assessment engine."""

import numpy as np
import pytest

from repro.core.assess_parallel import AssessmentEngine
from repro.core.assessment import (
    AssessmentConfig,
    assess_network,
    bound_key,
    evaluate_candidate,
)
from repro.core.optimizer import OptimizerConfig, optimize_error_bounds
from repro.store import AssessmentCache


CFG = AssessmentConfig(expected_accuracy_loss=0.02, max_fine_tests=8)


def _snapshot(result):
    """Everything the regression compares: exact points per layer."""
    return {
        name: [
            (p.error_bound, p.accuracy, p.degradation, p.compressed_bytes)
            for p in assessment.points
        ]
        for name, assessment in result.layers.items()
    }


def _plan(result):
    return optimize_error_bounds(
        result.candidates(), OptimizerConfig(expected_accuracy_loss=0.02)
    )


@pytest.fixture(scope="module")
def assessment_inputs(pruned_lenet300, small_dataset):
    _, test = small_dataset
    return pruned_lenet300.network, pruned_lenet300.sparse_layers, test


class TestSerialParallelParity:
    def test_workers_bit_identical(self, assessment_inputs):
        """The regression the engine is built around: every worker count
        returns bit-identical points, test counts, and optimizer plans."""
        network, sparse, test = assessment_inputs
        serial = assess_network(
            network, sparse, test.images, test.labels, config=CFG, workers=1
        )
        parallel = assess_network(
            network, sparse, test.images, test.labels, config=CFG, workers=4
        )
        assert _snapshot(serial) == _snapshot(parallel)
        assert serial.tests_performed == parallel.tests_performed
        assert serial.baseline_accuracy == parallel.baseline_accuracy
        plan_s, plan_p = _plan(serial), _plan(parallel)
        assert plan_s.error_bounds == plan_p.error_bounds
        assert plan_s.total_compressed_bytes == plan_p.total_compressed_bytes

    def test_engine_matches_legacy_serial_loop(self, assessment_inputs):
        """The engine (reuse, hoisted index sizes) must reproduce the
        historical evaluate_candidate loop exactly, not just approximately."""
        network, sparse, test = assessment_inputs
        legacy = assess_network(
            network, sparse, test.images, test.labels,
            config=CFG, evaluator=evaluate_candidate,
        )
        engine = assess_network(
            network, sparse, test.images, test.labels, config=CFG, workers=2
        )
        assert _snapshot(legacy) == _snapshot(engine)
        assert legacy.tests_performed == engine.tests_performed

    def test_non_decade_coarse_bounds_stay_bit_identical(self, assessment_inputs):
        """With non-1eN coarse bounds the fine schedule's floats are *near*
        but not bit-equal to the speculatively evaluated coarse bounds; the
        engine must re-evaluate at the exact schedule float rather than
        reuse a trimmed coarse result computed one ulp away."""
        network, sparse, test = assessment_inputs
        cfg = AssessmentConfig(
            expected_accuracy_loss=0.05,
            coarse_bounds=(3e-3, 3e-2, 3e-1),
            max_fine_tests=16,
        )
        serial = assess_network(
            network, sparse, test.images, test.labels, config=cfg, workers=1
        )
        parallel = assess_network(
            network, sparse, test.images, test.labels, config=cfg, workers=4
        )
        assert _snapshot(serial) == _snapshot(parallel)
        assert serial.tests_performed == parallel.tests_performed


class TestEnginePurity:
    def test_network_untouched(self, assessment_inputs):
        network, sparse, test = assessment_inputs
        before = network.state_dict()
        assess_network(network, sparse, test.images, test.labels, config=CFG, workers=4)
        after = network.state_dict()
        assert set(before) == set(after)
        for key in before:
            assert np.array_equal(before[key], after[key]), key

    def test_empty_layers_returns_empty_result(self, assessment_inputs):
        """Contract parity with the legacy evaluator path: no layers is an
        empty result, not an error."""
        network, _, test = assessment_inputs
        result = AssessmentEngine(CFG).run(network, {}, test.images, test.labels)
        assert result.layers == {}
        assert result.tests_performed == 0
        legacy = assess_network(
            network, {}, test.images, test.labels,
            config=CFG, evaluator=evaluate_candidate,
        )
        assert legacy.layers == result.layers
        assert legacy.baseline_accuracy == result.baseline_accuracy


class TestEngineStats:
    def test_serial_never_speculates(self, assessment_inputs):
        network, sparse, test = assessment_inputs
        engine = AssessmentEngine(CFG, workers=1)
        result = engine.run(network, sparse, test.images, test.labels)
        assert engine.stats.speculative_wasted == 0
        assert result.evaluations == result.tests_performed

    def test_parallel_speculation_is_trimmed_not_recorded(self, assessment_inputs):
        network, sparse, test = assessment_inputs
        engine = AssessmentEngine(CFG, workers=4)
        result = engine.run(network, sparse, test.images, test.labels)
        assert result.evaluations >= result.tests_performed
        assert (
            engine.stats.speculative_wasted
            == result.evaluations - result.tests_performed
        )

    def test_checkpoints_cover_dense_layers(self, assessment_inputs):
        network, sparse, test = assessment_inputs
        engine = AssessmentEngine(CFG, workers=1)
        engine.run(network, sparse, test.images, test.labels)
        assert engine.stats.checkpointed_layers == len(sparse)

    def test_checkpoint_budget_falls_back(self, assessment_inputs):
        """A zero budget disables reuse without changing any result."""
        network, sparse, test = assessment_inputs
        engine = AssessmentEngine(CFG, workers=1, checkpoint_budget_bytes=1)
        budget_result = engine.run(network, sparse, test.images, test.labels)
        assert engine.stats.checkpointed_layers == 0
        full = AssessmentEngine(CFG, workers=1).run(
            network, sparse, test.images, test.labels
        )
        assert _snapshot(budget_result) == _snapshot(full)


class TestPersistentCache:
    def test_second_run_is_all_hits(self, assessment_inputs, tmp_path):
        network, sparse, test = assessment_inputs
        cache = AssessmentCache(tmp_path / "cache")
        first = assess_network(
            network, sparse, test.images, test.labels,
            config=CFG, workers=2, cache=cache,
        )
        assert first.cache_hits == 0
        assert first.evaluations > 0
        second = assess_network(
            network, sparse, test.images, test.labels,
            config=CFG, workers=2, cache=cache,
        )
        assert second.evaluations == 0
        assert second.cache_hits >= second.tests_performed
        assert _snapshot(first) == _snapshot(second)

    def test_fully_cached_run_skips_shared_setup(self, assessment_inputs, tmp_path):
        """The expensive shared state (index lossless fits, the checkpoint
        forward pass) is lazy: an all-hits run must never build it."""
        network, sparse, test = assessment_inputs
        cache = AssessmentCache(tmp_path / "cache")
        AssessmentEngine(CFG, workers=2, cache=cache).run(
            network, sparse, test.images, test.labels
        )
        warm = AssessmentEngine(CFG, workers=2, cache=cache)
        warm.run(network, sparse, test.images, test.labels)
        assert warm.stats.checkpointed_layers == 0
        assert warm._index_fits == {}

    def test_cached_results_shared_between_worker_counts(
        self, assessment_inputs, tmp_path
    ):
        network, sparse, test = assessment_inputs
        cache = AssessmentCache(tmp_path / "cache")
        parallel = assess_network(
            network, sparse, test.images, test.labels,
            config=CFG, workers=4, cache=cache,
        )
        serial = assess_network(
            network, sparse, test.images, test.labels,
            config=CFG, workers=1, cache=cache,
        )
        assert serial.evaluations == 0
        assert _snapshot(parallel) == _snapshot(serial)

    def test_cache_key_distinguishes_error_bounds(self, assessment_inputs, tmp_path):
        network, sparse, test = assessment_inputs
        cache = AssessmentCache(tmp_path / "cache")
        assess_network(
            network, sparse, test.images, test.labels,
            config=CFG, workers=1, cache=cache,
        )
        keys = {p.name for p in (tmp_path / "cache" / "records").glob("*/*.json")}
        # One record per evaluated candidate: layer count x bounds, deduped.
        assert len(keys) == cache.stats.puts


class TestBoundKeyIntegration:
    def test_accumulated_bound_hits_same_key(self):
        acc = 0.0
        for _ in range(3):
            acc += 1e-3
        assert bound_key(acc) == bound_key(3e-3)

    def test_distinct_bounds_get_distinct_keys(self):
        assert bound_key(1e-3) != bound_key(2e-3)
        assert bound_key(1e-3) != bound_key(1e-4)

    def test_non_grid_bound_round_trips(self):
        assert bound_key(1.5e-3) == bound_key(float(repr(1.5e-3)))
