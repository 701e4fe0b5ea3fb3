"""The matrix runner: config loading, cell schema, and gating metrics."""

from __future__ import annotations

import json
import sys

import pytest

from repro.sim.matrix import (
    ARTIFACT_SCHEMA_VERSION,
    MatrixConfig,
    cell_key,
    flatten_metrics,
    load_config,
    matrix_artifact,
    normalize_policy,
    run_matrix,
)
from repro.serve.gateway import Gateway
from repro.utils.errors import ReproError, ValidationError

TINY_SPEC = "fc6=24x32:0.2,fc7=12x24:0.2"

_CELL_KEYS = {
    "scenario", "policy", "backend", "frontdoor", "replicas", "queue_depth",
    "trace_sha256", "cache_hit_rate", "mode", "offered", "completed",
    "rejected", "expired", "failures", "deadline_misses", "elapsed_s",
    "rps", "goodput_rps", "rejection_rate", "deadline_miss_rate",
    "latency_ms", "max_submit_lag_s",
}


def _tiny_config(**overrides):
    kwargs = dict(
        scenarios=("steady",),
        policies=("round-robin", "consistent-hash"),
        frontdoors=("sync",),
        models=2,
        tenants=4,
        duration_s=0.3,
        rate_rps=60.0,
        deadline_ms=200.0,
        seed=4,
        synthetic=TINY_SPEC,
        batch_size=4,
    )
    kwargs.update(overrides)
    return MatrixConfig(**kwargs)


class TestConfig:
    def test_validate_catches_bad_axes(self):
        for overrides, match in (
            (dict(scenarios=()), "scenario"),
            (dict(scenarios=("nope",)), "nope"),
            (dict(policies=()), "policy"),
            (dict(backends=("gpu",)), "gpu"),
            (dict(frontdoors=("grpc",)), "grpc"),
            (dict(replicas=(0,)), "replicas"),
            (dict(mode="laps"), "laps"),
            (dict(models=0), "model"),
            (dict(clients=0), "clients"),
            (dict(time_scale=-1.0), "time_scale"),
            (dict(time_scale=float("nan")), "time_scale"),
            (dict(time_scale=float("inf")), "time_scale"),
            (dict(scenario_params={"nope": {}}), "nope"),
        ):
            with pytest.raises(ValidationError, match=match):
                _tiny_config(**overrides).validate()
        _tiny_config(time_scale=0.0).validate()  # the all-at-t=0 flood

    def test_cell_count(self):
        config = _tiny_config(scenarios=("steady", "burst"), replicas=(1, 2))
        assert config.cell_count() == 2 * 2 * 1 * 1 * 2 * 1

    def test_normalize_policy(self):
        assert normalize_policy("least_loaded") == "least-loaded"
        assert normalize_policy(" round-robin ") == "round-robin"

    def test_load_json_config(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "matrix": {"scenarios": ["burst"], "policies": ["least_loaded"],
                       "replicas": [2], "queue_depths": [8]},
            "workload": {"models": 2, "duration_s": 0.5, "rate_rps": 40,
                         "scenario_params": {"burst": {"burst_x": 2.0}}},
            "serving": {"synthetic": TINY_SPEC},
        }))
        config = load_config(str(path))
        assert config.scenarios == ("burst",)
        assert config.policies == ("least-loaded",)  # normalized
        assert config.replicas == (2,)
        assert config.scenario_params == {"burst": {"burst_x": 2.0}}
        assert config.synthetic == TINY_SPEC

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": {"scenarois": ["steady"]}}))
        with pytest.raises(ValidationError, match="scenarois"):
            load_config(str(path))
        path.write_text(json.dumps({"martix": {}}))
        with pytest.raises(ValidationError, match="martix"):
            load_config(str(path))

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="stdlib tomllib")
    def test_load_toml_config(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            "[matrix]\n"
            'scenarios = ["steady"]\n'
            'policies = ["round_robin"]\n'
            "[workload]\n"
            "models = 2\n"
            "rate_rps = 25.0\n"
            f"[serving]\nsynthetic = \"{TINY_SPEC}\"\n"
        )
        config = load_config(str(path))
        assert config.policies == ("round-robin",)
        assert config.rate_rps == 25.0

    def test_toml_gated_when_tomllib_missing(self, tmp_path, monkeypatch):
        import builtins

        real_import = builtins.__import__

        def _no_tomllib(name, *args, **kwargs):
            if name == "tomllib":
                raise ModuleNotFoundError("No module named 'tomllib'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", _no_tomllib)
        path = tmp_path / "grid.toml"
        path.write_text("[matrix]\n")
        with pytest.raises(ValidationError, match="3.11"):
            load_config(str(path))


class TestRunMatrix:
    @pytest.fixture(scope="class")
    def result(self):
        return run_matrix(_tiny_config())

    def test_cell_schema_is_stable(self, result):
        assert result["cells"], "no cells produced"
        for cell in result["cells"]:
            assert set(cell) == _CELL_KEYS
            assert cell["completed"] > 0
            assert cell["failures"] == 0
            for stat in ("p50", "p90", "p99", "mean", "max"):
                assert stat in cell["latency_ms"]

    def test_same_scenario_cells_replay_identical_trace(self, result):
        digests = {c["trace_sha256"] for c in result["cells"]}
        assert len(digests) == 1  # one scenario -> one trace, every policy
        assert result["traces"]["steady"]["sha256"] in digests

    def test_thread_backend_reports_cache_hits(self, result):
        for cell in result["cells"]:
            cache = cell["cache_hit_rate"]
            assert cache["overall"] is not None
            assert 0.0 <= cache["overall"] <= 1.0
            assert set(cache["per_model"]) == {"m0", "m1"}

    def test_flatten_metrics_and_gate(self, result):
        metrics, gate, directions = flatten_metrics(result)
        key = cell_key(result["cells"][0])
        assert key == "steady_round_robin_thread_sync_r1_q64"
        for stat in ("rps", "goodput_rps", "p99_ms", "rejection_rate",
                     "deadline_miss_rate"):
            assert f"{key}_{stat}" in metrics
        assert metrics["cells_completed"] == len(result["cells"])
        assert gate[0] == "cells_completed"
        assert f"{key}_rps" in gate  # steady throughput is gated
        assert all(directions[name] == "higher" for name in gate)

    def test_artifact_envelope(self, result):
        artifact = matrix_artifact(result, mode="smoke")
        assert artifact["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert artifact["suite"] == "scenarios"
        assert artifact["mode"] == "smoke"
        assert artifact["host_cores"] >= 1
        assert set(artifact["gate"]) <= set(artifact["metrics"])
        assert set(artifact["gate"]) == set(artifact["directions"])

    def test_async_cell_runs(self):
        config = _tiny_config(
            policies=("round-robin",), frontdoors=("async",), duration_s=0.25
        )
        result = run_matrix(config)
        (cell,) = result["cells"]
        assert cell["frontdoor"] == "async"
        assert cell["completed"] > 0
        assert cell["failures"] == 0

    def test_async_deadline_cell_accounts_every_expiry(self):
        """A 1 µs budget, below the replica's minimum service time, expires
        most requests however fast the replica answers; the cell's
        exactly-once check holds the driver's expiries against the
        gateway's count."""
        config = _tiny_config(
            policies=("round-robin",), frontdoors=("async",), duration_s=0.25,
            deadline_ms=0.001,
        )
        (cell,) = run_matrix(config)["cells"]
        assert cell["expired"] > 0
        assert cell["completed"] + cell["expired"] + cell["rejected"] == cell["offered"]

    def test_accounting_mismatch_fails_the_cell(self, monkeypatch):
        real_stats = Gateway.stats

        def miscounted(self):
            stats = real_stats(self)
            stats.completed += 1
            return stats

        monkeypatch.setattr(Gateway, "stats", miscounted)
        with pytest.raises(ReproError, match="accounting broken"):
            run_matrix(_tiny_config(policies=("round-robin",), duration_s=0.25))

    def test_closed_loop_mode(self):
        config = _tiny_config(
            policies=("round-robin",), mode="closed", clients=2, duration_s=0.25
        )
        result = run_matrix(config)
        (cell,) = result["cells"]
        assert cell["mode"] == "closed"
        assert cell["completed"] > 0
