"""Open/closed-loop drivers against real (tiny) gateways.

Traces here are sub-second and time-compressed; the assertions are about
accounting invariants (offered = completed + rejected + expired +
failures) and mechanism (rejections under a depth-1 queue, deadline
misses under an impossible budget), never about absolute speed.
"""

from __future__ import annotations

import asyncio
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve.async_gateway import AsyncGateway
from repro.serve.gateway import Gateway
from repro.sim.driver import (
    DriveResult,
    check_accounting,
    drive_closed_loop,
    drive_closed_loop_async,
    drive_open_loop,
    drive_open_loop_async,
)
from repro.sim.workload import generate_trace
from repro.utils.errors import ReproError, ValidationError


def _trace(*, deadline_s=None, rate=120.0, duration=0.4, seed=2):
    return generate_trace(
        "steady",
        models=["tiny"],
        tenants=["t0", "t1", "t2"],
        duration_s=duration,
        rate_rps=rate,
        seed=seed,
        deadline_s=deadline_s,
    )


class GatedNetwork:
    """Forward passes block until ``gate`` is set: a replica held busy on
    purpose, so overload and queueing are certain instead of timed."""

    def __init__(self, gate: threading.Event):
        self.gate = gate

    def set_weights(self, name, weights):
        pass

    def set_sparse_weights(self, name, weight):
        pass

    def forward(self, x, training=False):
        assert self.gate.wait(timeout=30), "test never opened the gate"
        return np.zeros((x.shape[0], 4), dtype=np.float32)


class OpenGateAfter:
    """``submit`` proxy that opens ``gate`` right after the ``count``-th
    submit returns or raises, so no request completes before the last one
    of the trace has been offered."""

    def __init__(self, gateway, gate: threading.Event, count: int):
        self._gateway = gateway
        self._gate = gate
        self._left = count

    def submit(self, model, x, *, key=None):
        try:
            return self._gateway.submit(model, x, key=key)
        finally:
            self._left -= 1
            if self._left == 0:
                self._gate.set()


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for the gateway"
        time.sleep(0.002)


def _gated(gateway, tiny_archive, gate, **options):
    gateway.add_model(
        "tiny", tiny_archive, replicas=1, max_concurrency=1, batch_size=1,
        network_factory=lambda: GatedNetwork(gate), **options,
    )
    return gateway


@pytest.fixture
def gateway(tiny_archive):
    gw = Gateway()
    gw.add_model("tiny", tiny_archive, replicas=1, batch_size=4)
    gw.start()
    yield gw
    gw.close()


class TestSyncDrivers:
    def test_open_loop_accounting(self, gateway, tiny_input):
        trace = _trace()
        result = drive_open_loop(gateway, trace, {"tiny": tiny_input})
        assert result.offered == len(trace.requests) > 0
        assert result.completed + result.rejected + result.failures == result.offered
        assert result.expired == 0  # sync gateway never cancels in flight
        assert result.failures == 0
        assert len(result.latencies_s) == result.completed
        assert result.rps > 0
        stats = result.latency_ms()
        assert stats["p50"] <= stats["p99"] <= stats["max"]

    def test_open_loop_deadline_scoring(self, gateway, tiny_input):
        # A 1-microsecond budget: everything completes, everything is late.
        trace = _trace(deadline_s=1e-6)
        result = drive_open_loop(gateway, trace, {"tiny": tiny_input})
        assert result.completed > 0
        assert result.deadline_misses == result.completed
        assert result.goodput_rps == 0.0
        assert result.deadline_miss_rate > 0.0

    def test_open_loop_time_scale_compresses(self, gateway, tiny_input):
        trace = _trace(duration=1.0, rate=60.0)
        result = drive_open_loop(gateway, trace, {"tiny": tiny_input}, time_scale=0.2)
        assert result.elapsed_s < 0.8  # 1s trace replayed in ~0.2s + drain

    def test_closed_loop_accounting(self, gateway, tiny_input):
        trace = _trace()
        result = drive_closed_loop(gateway, trace, {"tiny": tiny_input}, clients=3)
        assert result.mode == "closed"
        assert result.completed + result.rejected + result.failures == result.offered
        assert result.failures == 0
        assert result.completed > 0

    def test_closed_loop_rejects_bad_clients(self, gateway, tiny_input):
        with pytest.raises(ValidationError):
            drive_closed_loop(gateway, _trace(), {"tiny": tiny_input}, clients=0)

    def test_missing_input_rejected(self, gateway):
        with pytest.raises(ValidationError, match="tiny"):
            drive_open_loop(gateway, _trace(), {})

    def test_overload_counts_rejections(self, tiny_archive, tiny_input):
        gate = threading.Event()
        gw = _gated(Gateway(), tiny_archive, gate, max_queue_depth=1)
        gw.start()
        try:
            # The first request holds the only slot and the second the only
            # queue place until the last submit opens the gate: every other
            # request must be fast-failed by admission control.
            trace = _trace(rate=1000.0, duration=0.05, seed=7)
            proxy = OpenGateAfter(gw, gate, len(trace.requests))
            result = drive_open_loop(proxy, trace, {"tiny": tiny_input})
        finally:
            gate.set()
            gw.close()
        assert result.rejected == result.offered - 2
        assert result.rejection_rate == result.rejected / result.offered
        assert result.completed + result.rejected + result.failures == result.offered

    def test_closed_loop_burst_keeps_clients_times_burst_outstanding(
        self, tiny_archive, tiny_input
    ):
        clients, burst = 3, 4
        gate = threading.Event()
        gw = _gated(Gateway(), tiny_archive, gate, max_queue_depth=64)
        gw.start()
        try:
            trace = _trace(rate=200.0, duration=0.2, seed=3)
            outcome = []
            runner = threading.Thread(
                target=lambda: outcome.append(drive_closed_loop(
                    gw, trace, {"tiny": tiny_input}, clients=clients, burst=burst,
                )),
            )
            runner.start()
            _wait_for(lambda: gw.stats().submitted >= clients * burst)
            held = gw.stats()
            gate.set()
            runner.join(timeout=30)
        finally:
            gate.set()
            gw.close()
        # One request in service, the rest parked; nothing has completed.
        assert held.submitted == clients * burst
        assert held.completed == 0
        assert held.models["tiny"].queue_depth == clients * burst - 1
        (result,) = outcome
        assert len(trace.requests) > clients * burst
        assert result.completed == result.offered == len(trace.requests)

    def test_closed_loop_rejects_bad_burst(self, gateway, tiny_input):
        with pytest.raises(ValidationError, match="burst"):
            drive_closed_loop(gateway, _trace(), {"tiny": tiny_input}, burst=0)


class TestAsyncDrivers:
    def _run(self, tiny_archive, coro_factory):
        async def _main():
            gw = AsyncGateway()
            gw.add_model("tiny", tiny_archive, replicas=1, batch_size=4)
            await gw.start()
            try:
                return await coro_factory(gw)
            finally:
                await gw.close()

        return asyncio.run(_main())

    def test_open_loop_accounting(self, tiny_archive, tiny_input):
        trace = _trace(deadline_s=5.0)

        result = self._run(
            tiny_archive,
            lambda gw: drive_open_loop_async(gw, trace, {"tiny": tiny_input}),
        )
        assert result.offered == len(trace.requests)
        settled = result.completed + result.rejected + result.expired + result.failures
        assert settled == result.offered
        assert result.failures == 0
        assert result.expired == 0  # 5s budget is bottomless here
        assert result.completed > 0

    def test_open_loop_enforced_deadline_expires(self, tiny_archive, tiny_input):
        # A 2ms budget against a replica held busy until the replay is
        # over: the one request in service and every request parked behind
        # it run out of time, however fast a free replica would answer.
        gate = threading.Event()
        trace = _trace(deadline_s=0.002, rate=400.0, duration=0.25, seed=9)

        async def _main():
            gw = _gated(AsyncGateway(), tiny_archive, gate, max_queue_depth=64)
            await gw.start()
            try:
                return await drive_open_loop_async(gw, trace, {"tiny": tiny_input})
            finally:
                gate.set()
                await gw.close()

        result = asyncio.run(_main())
        assert result.expired > 0
        assert result.deadline_misses >= result.expired
        settled = result.completed + result.rejected + result.expired + result.failures
        assert settled == result.offered
        assert result.goodput_rps <= result.rps

    def test_closed_loop_accounting(self, tiny_archive, tiny_input):
        trace = _trace(deadline_s=5.0)

        result = self._run(
            tiny_archive,
            lambda gw: drive_closed_loop_async(
                gw, trace, {"tiny": tiny_input}, clients=3
            ),
        )
        assert result.mode == "closed"
        settled = result.completed + result.rejected + result.expired + result.failures
        assert settled == result.offered
        assert result.completed > 0

    def test_closed_loop_burst_keeps_clients_times_burst_outstanding(
        self, tiny_archive, tiny_input
    ):
        clients, burst = 3, 4
        gate = threading.Event()
        trace = _trace(rate=200.0, duration=0.2, seed=3)

        async def _main():
            gw = _gated(AsyncGateway(), tiny_archive, gate, max_queue_depth=64)
            await gw.start()
            try:
                run = asyncio.ensure_future(drive_closed_loop_async(
                    gw, trace, {"tiny": tiny_input}, clients=clients, burst=burst,
                ))
                deadline = time.monotonic() + 10.0
                while gw.stats().submitted < clients * burst:
                    assert time.monotonic() < deadline, "burst never admitted"
                    await asyncio.sleep(0.002)
                held = gw.stats()
                gate.set()
                return held, await run
            finally:
                gate.set()
                await gw.close()

        held, result = asyncio.run(_main())
        assert held.submitted == clients * burst
        assert held.completed == 0
        assert held.models["tiny"].queue_depth == clients * burst - 1
        assert len(trace.requests) > clients * burst
        assert result.completed == result.offered == len(trace.requests)


class TestCheckAccounting:
    def test_gateway_deadline_count_must_match_expiries(self):
        result = DriveResult(
            mode="open", offered=5, completed=2, rejected=1, expired=2,
            failures=0, deadline_misses=2, elapsed_s=1.0,
        )
        counts = dict(submitted=4, completed=2, rejected=1, failures=0, deadline_exceeded=2)
        check_accounting("cell", result, SimpleNamespace(**counts))
        counts["deadline_exceeded"] = 1  # one expiry the gateway never counted
        with pytest.raises(ReproError, match="cell accounting broken"):
            check_accounting("cell", result, SimpleNamespace(**counts))
