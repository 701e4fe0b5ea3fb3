"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main, parse_synthetic_spec, synthetic_sparse_layers
from repro.store import ModelStore
from repro.utils.errors import ValidationError

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture()
def archive_path(tmp_path):
    path = tmp_path / "model.dsz"
    code = main(
        [
            "compress",
            "--out", str(path),
            "--synthetic", "fc6=48x80:0.1,fc7=32x48:0.2",
            "--error-bound", "1e-3",
        ]
    )
    assert code == 0
    return path


class TestSpecParsing:
    def test_parse(self):
        layers = parse_synthetic_spec("a=4x8:0.5, b=16x2:1.0")
        assert layers == [("a", (4, 8), 0.5), ("b", (16, 2), 1.0)]

    def test_bad_specs(self):
        for spec in ("", "a=4x8", "a=4:0.5", "a=0x8:0.5", "a=4x8:0.0", "a=4x8:2"):
            with pytest.raises(ValidationError):
                parse_synthetic_spec(spec)

    def test_synthetic_layers_deterministic(self):
        spec = "fc=32x64:0.25"
        a = synthetic_sparse_layers(spec, seed=9)["fc"]
        b = synthetic_sparse_layers(spec, seed=9)["fc"]
        assert (a.data == b.data).all()
        assert (a.index == b.index).all()
        assert a.shape == (32, 64)


class TestCommands:
    def test_compress_inspect_verify_serve_bench(self, archive_path, capsys):
        assert archive_path.exists()
        capsys.readouterr()

        assert main(["inspect", str(archive_path)]) == 0
        out = capsys.readouterr().out
        assert "fc6" in out and "fc7" in out and "format v2" in out

        assert main(["verify", str(archive_path)]) == 0
        out = capsys.readouterr().out
        assert "all 2 layers verified" in out

        code = main(
            [
                "serve-bench", str(archive_path),
                "--requests", "20",
                "--warm-repeats", "2",
                "--concurrency", "1,2",
                "--json",
            ]
        )
        assert code == 0
        results = json.loads(capsys.readouterr().out)
        assert results["layers"] == 2
        assert results["warm_vs_cold_speedup"] > 1.0
        assert set(results["throughput_accesses_per_s"]) == {"1", "2"}

    def test_inspect_json(self, archive_path, capsys):
        assert main(["inspect", str(archive_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["archive_version"] == 2
        assert set(payload["layers"]) == {"fc6", "fc7"}

    def test_compress_into_store(self, tmp_path, capsys):
        out = tmp_path / "m.dsz"
        store_dir = tmp_path / "store"
        assert main(
            [
                "compress",
                "--out", str(out),
                "--synthetic", "fc=32x32:0.3",
                "--store", str(store_dir),
            ]
        ) == 0
        printed = capsys.readouterr().out
        digest = printed.strip().split("sha256:")[-1]
        store = ModelStore(store_dir)
        assert digest in store
        assert store.get_bytes(digest) == out.read_bytes()

    def test_verify_detects_corruption(self, archive_path, capsys):
        data = bytearray(archive_path.read_bytes())
        data[len(data) // 3] ^= 0xFF  # inside some segment
        archive_path.write_bytes(bytes(data))
        assert main(["verify", str(archive_path)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_checksums_only_verify(self, archive_path, capsys):
        assert main(["verify", str(archive_path), "--checksums-only"]) == 0
        assert "crc ok" in capsys.readouterr().out

    def test_gateway_bench_validation(self, capsys):
        # scenario-bench is the gateway load benchmark; an empty zoo or pool
        # is a usage error, not a crash.
        assert main(["scenario-bench", "--models", "0"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["scenario-bench", "--replicas", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.dsz"
        assert main(["inspect", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_synthetic_spec_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            ["compress", "--out", str(tmp_path / "x.dsz"), "--synthetic", "oops"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAssessCommand:
    @pytest.fixture()
    def fake_zoo(self, monkeypatch, pruned_lenet300, small_dataset):
        from repro.nn import zoo

        _, test = small_dataset
        monkeypatch.setattr(
            zoo, "pruned_model", lambda name, **kw: (pruned_lenet300, None, test)
        )

    def test_assess_table(self, fake_zoo, capsys):
        assert main(["assess", "--samples", "120", "--expected-loss", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "ip1" in out and "chosen eb" in out
        assert "assessment points" in out

    def test_assess_json_with_cache(self, fake_zoo, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = [
            "assess", "--samples", "120", "--expected-loss", "0.02",
            "--cache", cache, "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cache_hits"] == 0
        assert set(first["layers"]) == {"ip1", "ip2", "ip3"}
        assert set(first["plan"]["error_bounds"]) == {"ip1", "ip2", "ip3"}

        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["evaluations"] == 0
        assert second["layers"] == first["layers"]
        assert second["plan"] == first["plan"]


class TestScenarioBench:
    TINY = [
        "scenario-bench",
        "--scenario", "steady",
        "--policy", "round_robin",
        "--models", "2",
        "--tenants", "4",
        "--duration", "0.3",
        "--rate", "60",
        "--deadline-ms", "200",
        "--seed", "3",
        "--synthetic", "fc6=24x32:0.2,fc7=12x24:0.2",
    ]

    def test_list_scenarios(self, capsys):
        assert main(["scenario-bench", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "diurnal", "burst", "coldstart"):
            assert name in out

    def test_tiny_matrix_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_scenarios.json"
        assert main(self.TINY + ["--out", str(out_path), "--json"]) == 0
        artifact = json.loads(out_path.read_text())
        assert artifact["suite"] == "scenarios"
        assert len(artifact["cells"]) == 1
        cell = artifact["cells"][0]
        assert cell["policy"] == "round-robin"  # underscores normalized
        assert cell["offered"] == (
            cell["completed"] + cell["rejected"] + cell["expired"] + cell["failures"]
        )
        printed = json.loads(capsys.readouterr().out)
        assert printed["cells"] == artifact["cells"]

    def test_dump_trace_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            args = self.TINY + ["--dump-trace", str(path), "--trace-only"]
            assert main(args) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        traces = json.loads(a.read_text())
        assert set(traces) == {"steady"}
        assert traces["steady"]["scenario"] == "steady"

    def test_rejects_unknown_scenario(self, capsys):
        assert main(["scenario-bench", "--scenario", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_unknown_policy(self, capsys):
        assert main(["scenario-bench", "--policy", "fastest"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_bad_input_before_encoding(self, monkeypatch, capsys):
        import repro.sim.matrix as matrix

        def no_zoo(config):
            raise AssertionError("the zoo was encoded before validation")

        monkeypatch.setattr(matrix, "_build_zoo", no_zoo)
        for bad in (
            ["--models", "0"],
            ["--replicas", "0"],
            ["--clients", "0"],
            ["--time-scale", "-1"],
            ["--trace-sample", "0.5"],  # no --trace-out to write the spans to
        ):
            assert main(["scenario-bench"] + bad) == 1, bad
            assert "error:" in capsys.readouterr().err

    def test_obs_flags_pass_the_obs_validator(self, tmp_path, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        import validate_obs

        trace, prom = tmp_path / "obs.jsonl", tmp_path / "obs.prom"
        args = [
            "scenario-bench",
            "--scenario", "steady",
            "--policy", "round-robin",
            "--models", "1",
            "--tenants", "2",
            "--duration", "0.3",
            "--rate", "40",
            "--deadline-ms", "0",
            "--synthetic", "fc6=24x32:0.2,fc7=12x24:0.2",
            "--trace-sample", "1.0",
            "--trace-out", str(trace),
            "--metrics-out", str(prom),
            "--out", str(tmp_path / "BENCH_scenarios.json"),
            "--json",
        ]
        assert main(args) == 0
        (cell,) = json.loads(capsys.readouterr().out)["cells"]
        assert cell["completed"] == cell["offered"] > 0
        validate_obs.check_metrics(prom, expect_cache=True, expect_process=False)
        assert validate_obs.check_trace(trace, expect_process=False) == cell["offered"]
