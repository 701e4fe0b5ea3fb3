"""Benchmark-gate tooling: core-scaled expectation relaxation.

``compare_baselines.py`` is a script, not part of the ``repro`` package,
but its core-scaling arithmetic gates every CI run: a bug here either
flakes small runners or waves real collapses through.  These tests import
the script directly from ``benchmarks/`` and pin the contract.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

compare_baselines = pytest.importorskip("compare_baselines")


def _baseline(**overrides):
    base = {
        "host_cores": 8,
        "metrics": {"gateway_scaling_4v1": 3.2, "gateway_rps_4": 8000.0},
        "gate": ["gateway_scaling_4v1", "gateway_rps_4"],
        "directions": {
            "gateway_scaling_4v1": "higher",
            "gateway_rps_4": "higher",
        },
        "core_scaled": {"gateway_scaling_4v1": 4, "gateway_rps_4": 4},
    }
    base.update(overrides)
    return base


class TestCoreScaledGate:
    def test_small_runner_expectation_is_relaxed(self):
        # min(1, 4) / min(8, 4) = 0.25: an 8-core baseline asks a 1-core
        # runner for only a quarter of the recorded number.
        fresh = {
            "host_cores": 1,
            "metrics": {"gateway_scaling_4v1": 0.9, "gateway_rps_4": 2100.0},
        }
        rows, failures = compare_baselines.compare_suite(_baseline(), fresh, 30.0)
        assert failures == []
        verdicts = {row[0]: row[4] for row in rows}
        assert verdicts["gateway_scaling_4v1"] == "ok (core-adj x0.25)"
        assert verdicts["gateway_rps_4"] == "ok (core-adj x0.25)"

    def test_bigger_runner_is_never_held_to_extrapolation(self):
        # Relax-only: a 16-core fresh run compares against the raw 8-core
        # baseline, not a 2x-scaled fantasy of it.
        fresh = {
            "host_cores": 16,
            "metrics": {"gateway_scaling_4v1": 3.0, "gateway_rps_4": 7900.0},
        }
        rows, failures = compare_baselines.compare_suite(_baseline(), fresh, 30.0)
        assert failures == []
        assert all("core-adj" not in row[4] for row in rows)

    def test_collapse_on_small_runner_still_fails(self):
        fresh = {
            "host_cores": 1,
            "metrics": {"gateway_scaling_4v1": 0.2, "gateway_rps_4": 500.0},
        }
        _, failures = compare_baselines.compare_suite(_baseline(), fresh, 30.0)
        assert len(failures) == 2
        assert any("core-scaled" in message for message in failures)

    def test_no_host_cores_means_no_adjustment(self):
        # Old artifacts without the stamp keep the pre-existing behaviour.
        fresh = {"metrics": {"gateway_scaling_4v1": 0.9, "gateway_rps_4": 2100.0}}
        rows, failures = compare_baselines.compare_suite(
            _baseline(host_cores=None), fresh, 30.0
        )
        assert len(failures) == 2
        assert all("core-adj" not in row[4] for row in rows)

    def test_uncapped_metrics_are_untouched(self):
        baseline = _baseline(core_scaled={})
        fresh = {
            "host_cores": 1,
            "metrics": {"gateway_scaling_4v1": 3.1, "gateway_rps_4": 7800.0},
        }
        rows, failures = compare_baselines.compare_suite(baseline, fresh, 30.0)
        assert failures == []
        assert all("core-adj" not in row[4] for row in rows)


run_all = pytest.importorskip("run_all")


class TestSuiteSelection:
    """``run_all.py --suites`` must fail loudly, never run zero suites."""

    def test_unknown_suite_errors_with_available_list(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_all.main(["--suites", "serving,nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "nope" in err and "serving" in err

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_selection_errors_instead_of_running_nothing(self, value, capsys):
        # Regression: these used to parse to an empty list and "pass"
        # while producing no artifacts for the gate to check.
        with pytest.raises(SystemExit) as excinfo:
            run_all.main(["--suites", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "selected no suites" in err
        assert "scenarios" in err  # the valid list is printed

    def test_scenarios_suite_is_registered(self):
        script, raw, extract = run_all.SUITES["scenarios"]
        assert script == "bench_scenarios.py"
        raw_payload = {
            "metrics": {"cells_completed": 8.0},
            "gate": ["cells_completed"],
            "directions": {"cells_completed": "higher"},
            "grid": {}, "workload": {}, "traces": {}, "cells": [],
        }
        extracted = extract(raw_payload)
        assert extracted["gate"] == ["cells_completed"]
        assert extracted["metrics"]["cells_completed"] == 8.0


code_lines = pytest.importorskip("code_lines")

#: 17 lines: 3 docstrings on 4 lines (module, class, method), 1 comment
#: line, 4 blank lines — and 8 code lines: two span a multi-line (non-doc)
#: string literal and one is a continuation line.
_CODE_LINES_FIXTURE = '''"""Module docstring."""

# a comment line
import os


class Thing:
    """Class docstring,
    over two lines."""

    def method(self):
        """Method docstring."""
        value = os.sep  # trailing comments do not hide code
        text = """a
literal"""
        return (value,
                text)
'''


class TestCodeLines:
    def test_counts_code_only(self):
        assert code_lines.code_lines(_CODE_LINES_FIXTURE) == 8

    def test_main_prints_per_file_and_total(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(_CODE_LINES_FIXTURE)
        (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
        assert code_lines.main([str(tmp_path)]) == 9
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out] == ["8", "1", "9"]
        assert out[-1].split()[1] == "total"
