"""Trace-driven workload simulation for the serving stack.

The package splits into three layers:

* :mod:`repro.sim.workload` — deterministic, seedable trace generation: a
  registry of named scenarios (arrival process × popularity model ×
  tenant mix) that render to a :class:`~repro.sim.workload.WorkloadTrace`
  of timestamped requests.
* :mod:`repro.sim.driver` — open- and closed-loop clients that replay a
  trace against the sync :class:`~repro.serve.gateway.Gateway` or the
  :class:`~repro.serve.async_gateway.AsyncGateway` and reduce the
  outcomes to a :class:`~repro.sim.driver.DriveResult`, plus
  :func:`~repro.sim.driver.drive_gateway`, the one build/start/drive/close
  lifecycle the matrix and ``benchmarks/bench_serving.py`` share, and
  :func:`~repro.sim.driver.check_accounting`, the exactly-once check both
  run after every replay.  These drivers are the repo's only load
  generator.
* :mod:`repro.sim.matrix` — the config-driven scenario×policy matrix
  runner behind ``python -m repro scenario-bench`` and
  ``benchmarks/bench_scenarios.py``.

Every scenario registered here must be documented in
``docs/scenarios.md`` — a CI drift test enforces the catalog.
"""

from repro.sim.driver import (
    DriveResult,
    check_accounting,
    drive_closed_loop,
    drive_closed_loop_async,
    drive_gateway,
    drive_open_loop,
    drive_open_loop_async,
)
from repro.sim.matrix import (
    MatrixConfig,
    flatten_metrics,
    load_config,
    matrix_artifact,
    run_matrix,
)
from repro.sim.workload import (
    SCENARIOS,
    Scenario,
    SimRequest,
    WorkloadTrace,
    generate_trace,
    get_scenario,
    list_scenarios,
    zipf_weights,
)

__all__ = [
    "SCENARIOS",
    "DriveResult",
    "MatrixConfig",
    "Scenario",
    "SimRequest",
    "WorkloadTrace",
    "check_accounting",
    "drive_closed_loop",
    "drive_closed_loop_async",
    "drive_gateway",
    "drive_open_loop",
    "drive_open_loop_async",
    "flatten_metrics",
    "generate_trace",
    "get_scenario",
    "list_scenarios",
    "load_config",
    "matrix_artifact",
    "run_matrix",
    "zipf_weights",
]
