"""Tests of the benchmark itself (not collected by the repo's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

* every workload, at smoke size, prints every metric of BENCHMARK.json with
  its unit, traced and untraced;
* corrupting a reference output makes the run count failures, so the
  output checks are not vacuous;
* the same seed gives the same inputs, another seed other inputs;
* per-layer self times and the unattributed time add up to the op time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

harness.pin_environment()

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_catalog_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def _run(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    catalog = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == catalog
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compress", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _corrupted_outcome(workload):
    if workload.name == "compress":
        name = next(iter(workload.reference))
        workload.reference[name] = workload.reference[name] + 1.0
        return harness.run_ops(workload, 0.1)
    if workload.name == "cold-start":
        workload.references["v2"] = workload.references["v2"] + 1.0
        return harness.run_ops(workload, 0.1)
    refs = workload.proxy.references
    for model in refs:
        refs[model] = refs[model] + 1.0
    return workload.measure(0.5)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_reference_counts_failures(name):
    workload = run.build(name, seed=2, traced=False)
    try:
        workload.setup()
        outcome = _corrupted_outcome(workload)
    finally:
        workload.close()
    assert outcome.attempted >= 1
    assert outcome.failed_share > 0
    assert not outcome.correct


@pytest.mark.parametrize("name", ["cold-start", "serve-closed"])
def test_same_seed_same_input_digest(name):
    digests = []
    for seed in (3, 3, 4):
        workload = run.build(name, seed=seed, traced=False)
        try:
            workload.setup()
            digests.append(workload.input_digest())
        finally:
            workload.close()
    assert digests[0] == digests[1] != digests[2]


def test_compress_input_digest_follows_the_seed():
    from wl_compress import CompressWorkload

    a, b = CompressWorkload(3), CompressWorkload(4)
    a.setup()
    b.setup()
    assert a.input_digest() != b.input_digest()
    # The network is the seed's only non-input: both seeds compress it to
    # the same archive.
    assert a.expected_digest == b.expected_digest


def test_self_times_add_up_to_the_root():
    def span(name, sid, parent, start, end):
        return {"trace_id": "t", "span_id": sid, "parent_id": parent, "name": name,
                "start_s": start, "end_s": end, "duration_s": end - start}

    spans = [
        span("op", "r", None, 0.0, 10.0),
        span("a", "a", "r", 1.0, 4.0),
        span("b", "b", "r", 5.0, 9.0),
        span("b.inner", "c", "b", 6.0, 7.5),
        span("late", "d", "r", 9.5, 12.0),  # clipped to the root
    ]
    selfs = harness.self_times(spans)
    assert selfs["a"] == [3.0]
    assert selfs["b"] == [2.5]
    assert selfs["b.inner"] == [1.5]
    assert selfs["late"] == [0.5]
    assert selfs["<unattributed>"] == [2.5]
    assert sum(v[0] for k, v in selfs.items() if k not in ("<root>", "op")) == 10.0
