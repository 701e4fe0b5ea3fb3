"""Tests for the asyncio front door: deadlines, cancellation, drain, HTTP.

Every test drives the event loop through ``asyncio.run`` (the container
ships no pytest-asyncio).  Determinism comes from ``BlockingNetwork``-style
release gates and ``asyncio``-native waits — never fixed thread sleeps.
The process-backend tests spawn real workers, so this module must stay
import-safe for the spawn start method (no module-level serving work).
"""

import asyncio
import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import BufferExporter, Tracer
from repro.serve import AsyncGateway, HttpFrontDoor
from repro.sim.driver import DriveResult, check_accounting
from repro.utils.errors import (
    DeadlineExceeded,
    GatewayOverloaded,
    ReplicaCrashed,
    ValidationError,
)

_INPUT_DIM = 160  # fc6 of the session model is 96x160
_OUTPUT_DIM = 32  # fc8 is 32x64


class BlockingNetwork:
    """Forward passes block until the test releases them — deterministic
    saturation without a single sleep (same pattern as test_gateway)."""

    def __init__(self, out_dim: int = _OUTPUT_DIM):
        self.out_dim = out_dim
        self.release = threading.Event()
        self.entered = threading.Event()

    def set_weights(self, name, weights):
        pass

    def set_sparse_weights(self, name, weight):
        pass

    def forward(self, x, training=False):
        self.entered.set()
        assert self.release.wait(timeout=30), "test never released the network"
        return np.zeros((x.shape[0], self.out_dim), dtype=np.float32)


def _blocking_gateway(archive_blob, *, max_queue_depth, tracer=None):
    """A thread-backed AsyncGateway whose single replica blocks on demand."""
    networks = []

    def factory():
        network = BlockingNetwork()
        networks.append(network)
        return network

    gateway = AsyncGateway(
        replica_backend="thread", tracer=tracer, metrics=MetricsRegistry()
    )
    gateway.add_model(
        "m", archive_blob, replicas=1, network_factory=factory,
        max_queue_depth=max_queue_depth, max_concurrency=1, batch_size=1,
    )
    return gateway, networks


def _live_thread_names():
    return [thread.name for thread in threading.enumerate() if thread.is_alive()]


class TestAsyncServing:
    def test_submit_gather_and_submit_many_process_backend(self, archive_blob):
        async def main():
            gateway = AsyncGateway(replica_backend="process")
            gateway.add_model("m", archive_blob, replicas=1, max_queue_depth=64)
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            async with gateway:
                y = await gateway.submit("m", x)
                assert y.shape == (_OUTPUT_DIM,)
                ys = await asyncio.gather(*[gateway.submit("m", x) for _ in range(16)])
                assert len(ys) == 16
                many = await gateway.submit_many("m", [x] * 4)
                assert [row.shape for row in many] == [(_OUTPUT_DIM,)] * 4
                # The replica reads worker responses on its receiver thread.
                assert "repro-replica-m/0" in _live_thread_names()
                stats = gateway.stats().models["m"]
                assert stats.completed == 21
                assert stats.failures == 0
            # Leaving the block awaited stop(), which joins that thread.
            assert not [
                name for name in _live_thread_names()
                if name.startswith("repro-replica-")
            ]
            await gateway.close()

        asyncio.run(main())

    def test_admission_validation_before_any_await(self, archive_blob):
        async def main():
            gateway = AsyncGateway(replica_backend="thread")
            gateway.add_model("m", archive_blob, replicas=1, max_queue_depth=8)
            async with gateway:
                with pytest.raises(ValidationError, match="features"):
                    await gateway.submit("m", np.ones(7, dtype=np.float32))
                with pytest.raises(ValidationError, match="deadline"):
                    await gateway.submit(
                        "m", np.ones(_INPUT_DIM, dtype=np.float32), deadline=-1.0
                    )
                # The bad submits left no queue slot behind.
                assert gateway._model("m").queued == 0
                y = await gateway.submit("m", np.ones(_INPUT_DIM, dtype=np.float32))
                assert y.shape == (_OUTPUT_DIM,)
            await gateway.close()

        asyncio.run(main())

    def test_sync_context_manager_rejected(self, archive_blob):
        gateway = AsyncGateway(replica_backend="thread")
        gateway.add_model("m", archive_blob, replicas=1)
        with pytest.raises(ValidationError, match="async with"):
            with gateway:
                pass

    def test_submit_from_foreign_loop_rejected(self, archive_blob):
        async def main():
            gateway = AsyncGateway(replica_backend="thread")
            gateway.add_model("m", archive_blob, replicas=1, max_queue_depth=8)
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            async with gateway:

                async def foreign():
                    with pytest.raises(ValidationError, match="event loop"):
                        await gateway.submit("m", x)

                # A second event loop on another thread must be turned away
                # at admission, not corrupt loop-owned state.
                await asyncio.to_thread(asyncio.run, foreign())
            await gateway.close()

        asyncio.run(main())


class TestDeadlines:
    def test_deadline_expiry_frees_admission_slot(self, archive_blob):
        """The acceptance regression: a deadline-expired request must give
        back its queue slot — with a depth-1 queue, traffic after the expiry
        is admitted where a leak would fast-fail it forever."""

        async def main():
            exporter = BufferExporter()
            gateway, networks = _blocking_gateway(
                archive_blob, max_queue_depth=1, tracer=Tracer(1.0, exporter)
            )
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            async with gateway:
                # First request enters service and blocks, pinning the
                # single concurrency slot.
                first = asyncio.ensure_future(gateway.submit("m", x))
                assert await asyncio.to_thread(networks[0].entered.wait, 10)
                # Second request fills the depth-1 admission queue...
                second = asyncio.ensure_future(
                    gateway.submit("m", x, deadline=0.15)
                )
                await asyncio.sleep(0)  # let it admit
                assert gateway._model("m").queued == 1
                # ...so a third fast-fails while the queue is full.
                with pytest.raises(GatewayOverloaded, match="saturated"):
                    await gateway.submit("m", x)
                # The queued request expires: its slot must free *now*.
                with pytest.raises(DeadlineExceeded):
                    await second
                assert gateway._model("m").queued == 0
                # Proof the slot came back: a new request is admitted even
                # though the blocking request still owns the service slot.
                fourth = asyncio.ensure_future(gateway.submit("m", x))
                await asyncio.sleep(0)
                assert gateway._model("m").queued == 1
                networks[0].release.set()
                assert (await first).shape == (_OUTPUT_DIM,)
                assert (await fourth).shape == (_OUTPUT_DIM,)
                stats = gateway.stats().models["m"]
                assert stats.completed == 2
                assert stats.deadline_exceeded == 1
                assert stats.rejected == 1
            await gateway.close()
            # Every admission attempt exported exactly one finished
            # gateway.request span with its terminal outcome.
            requests = [
                s for s in exporter.spans if s["name"] == "gateway.request"
            ]
            outcomes = sorted(s["attrs"]["outcome"] for s in requests)
            assert outcomes == [
                "completed", "completed", "deadline_exceeded", "rejected",
            ]
            assert all(s["end_s"] >= s["start_s"] for s in requests)

        asyncio.run(main())

    def test_deadline_racing_settlement_keeps_the_outcome(self, archive_blob):
        """A deadline that fires after the replica's answer settled the
        request returns that answer: the caller and the gateway's books
        must name the same outcome."""

        async def main():
            gateway, networks = _blocking_gateway(archive_blob, max_queue_depth=1)
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            async with gateway:
                entry = gateway._model("m")
                abandon = entry.abandon

                def abandon_after_settle(request, outcome):
                    # The deadline fired; let the answer settle first.
                    networks[0].release.set()
                    request.future.result(timeout=10)
                    return abandon(request, outcome)

                entry.abandon = abandon_after_settle
                y = await gateway.submit("m", x, deadline=0.05)
                assert y.shape == (_OUTPUT_DIM,)
                stats = gateway.stats().models["m"]
                assert stats.completed == 1
                assert stats.deadline_exceeded == 0
            await gateway.close()

        asyncio.run(main())

    def test_deadline_during_worker_sigkill(self, archive_blob):
        """Expiry racing a worker crash: the caller unblocks with a real
        error, the admission slot frees, and the respawned worker serves."""

        async def main():
            gateway = AsyncGateway(replica_backend="process")
            gateway.add_model("m", archive_blob, replicas=1, max_queue_depth=16)
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            async with gateway:
                y = await gateway.submit("m", x)
                assert y.shape == (_OUTPUT_DIM,)
                server = gateway._model("m").replicas[0].server
                os.kill(server.worker_pid, signal.SIGKILL)
                # Submitting into the dying worker must resolve promptly:
                # crash containment (ReplicaCrashed), the race with stop
                # bookkeeping (ValidationError), or the deadline itself.
                with pytest.raises(
                    (DeadlineExceeded, ReplicaCrashed, ValidationError)
                ):
                    await gateway.submit("m", x, deadline=0.5)
                assert gateway._model("m").queued == 0
                # The server respawns the worker; traffic recovers.
                recovered = False
                for _ in range(200):
                    try:
                        y = await gateway.submit("m", x, deadline=5.0)
                        assert y.shape == (_OUTPUT_DIM,)
                        recovered = True
                        break
                    except (DeadlineExceeded, ReplicaCrashed, ValidationError):
                        await asyncio.sleep(0.05)
                assert recovered, "gateway did not recover after worker SIGKILL"
                assert gateway._model("m").queued == 0
            await gateway.close()

        asyncio.run(main())

    def test_deadline_counts_from_admission(self, archive_blob):
        """A budget spent before the first await (the inline dispatch)
        expires the request even when the replica would answer at once."""

        async def main():
            gateway = AsyncGateway(replica_backend="thread")
            gateway.add_model("m", archive_blob, replicas=1)
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            async with gateway:
                for _ in range(20):
                    with pytest.raises(DeadlineExceeded):
                        await gateway.submit("m", x, deadline=1e-6)
                stats = gateway.stats()
            await gateway.close()
            result = DriveResult(
                mode="closed", offered=20, completed=0, rejected=0, expired=20,
                failures=0, deadline_misses=20, elapsed_s=0.0,
            )
            check_accounting("deadline", result, stats)
            assert stats.deadline_exceeded == 20

        asyncio.run(main())


class TestCancellation:
    def test_cancel_before_first_step_releases_admission(self, archive_blob):
        """Regression: a task cancelled before its coroutine ever runs must
        still decrement the queue gauge and count as cancelled.

        The replica blocks until released, so it cannot settle the request
        before the cancel lands; a replica that answered first would count
        the request completed while the caller still saw the cancel."""

        async def main():
            gateway, networks = _blocking_gateway(archive_blob, max_queue_depth=1)
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            async with gateway:
                task = asyncio.ensure_future(gateway.submit("m", x))
                await asyncio.sleep(0)  # admits; the request task has not run
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert gateway._model("m").queued == 0
                # The abandoned request holds the only service slot until its
                # (discarded) answer comes back.
                networks[0].release.set()
                # The depth-1 queue accepts new work — nothing leaked.
                y = await gateway.submit("m", x)
                assert y.shape == (_OUTPUT_DIM,)
                stats = gateway.stats().models["m"]
                assert stats.cancelled == 1
                assert stats.completed == 1
            await gateway.close()

        asyncio.run(main())

    def test_cancellation_vs_completion_race(self, archive_blob):
        """Cancel at every stage — unstarted, queued, in service, finished —
        and require the books to balance exactly."""

        async def main():
            total = 24
            gateway, networks = _blocking_gateway(archive_blob, max_queue_depth=total)
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            async with gateway:
                tasks = [
                    asyncio.ensure_future(gateway.submit("m", x))
                    for _ in range(total)
                ]
                # A third cancelled before any task steps, a third after the
                # head of the line is blocked in service, a third raced
                # against the release itself.
                for task in tasks[:8]:
                    task.cancel()
                assert await asyncio.to_thread(networks[0].entered.wait, 10)
                for task in tasks[8:16]:
                    task.cancel()
                networks[0].release.set()
                for task in tasks[16:]:
                    task.cancel()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                completed = sum(
                    1 for o in outcomes if isinstance(o, np.ndarray)
                )
                cancelled = sum(
                    1 for o in outcomes if isinstance(o, asyncio.CancelledError)
                )
                assert completed + cancelled == total
                stats = gateway.stats().models["m"]
                # Tasks cancelled before their submit coroutine ever stepped
                # were never admitted, so the gateway books cover admitted
                # requests only — and they must balance exactly.
                assert stats.submitted == stats.completed + stats.cancelled
                assert stats.completed >= completed
                assert stats.failures == 0
                assert gateway._model("m").queued == 0

                # An abandoned in-service request frees its slot when the
                # replica's (discarded) answer settles, which can land after
                # gather returns — so prove capacity by *using* it: this
                # submit parks until the slot comes back.
                y = await gateway.submit("m", x)
                assert y.shape == (_OUTPUT_DIM,)
                # Every concurrency slot came back.
                assert gateway._model("m").free == 1
            await gateway.close()

        asyncio.run(main())


class TestDrainOnStop:
    def test_stop_waits_for_inflight_and_deadlines_unblock_queued(
        self, archive_blob
    ):
        async def main():
            gateway, networks = _blocking_gateway(archive_blob, max_queue_depth=8)
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            await gateway.start()
            first = asyncio.ensure_future(gateway.submit("m", x))
            assert await asyncio.to_thread(networks[0].entered.wait, 10)
            queued = [
                asyncio.ensure_future(gateway.submit("m", x, deadline=0.15))
                for _ in range(3)
            ]
            await asyncio.sleep(0)  # all three admitted behind the blocker
            stop_task = asyncio.ensure_future(gateway.stop())
            await asyncio.sleep(0)
            # Admission is closed the moment stop begins.
            with pytest.raises(ValidationError, match="not running"):
                await gateway.submit("m", x)
            # The queued requests expire on their own deadlines; the drain
            # does not hold them hostage to the blocked head-of-line.
            outcomes = await asyncio.gather(*queued, return_exceptions=True)
            assert all(isinstance(o, DeadlineExceeded) for o in outcomes)
            # ...but stop still waits for the genuinely in-flight request.
            assert not stop_task.done()
            networks[0].release.set()
            assert (await first).shape == (_OUTPUT_DIM,)
            await stop_task
            stats = gateway.stats().models["m"]
            assert stats.completed == 1
            assert stats.deadline_exceeded == 3
            assert gateway._model("m").queued == 0
            # Stopped twice is a no-op; restart serves again.
            await gateway.stop()
            async with gateway:
                for network in networks:
                    network.release.set()
                y = await gateway.submit("m", x)
                assert y.shape == (_OUTPUT_DIM,)
            await gateway.close()

        asyncio.run(main())


async def _http_roundtrip(reader, writer, method, path, body=None, close=False):
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\n"
    )
    if close:
        head += "Connection: close\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    data = await reader.readexactly(length) if length else b""
    return status, headers, data


class TestHttpFrontDoor:
    def test_endpoints_keepalive_and_error_mapping(self, archive_blob):
        async def main():
            gateway = AsyncGateway(replica_backend="thread", metrics=MetricsRegistry())
            gateway.add_model("m", archive_blob, replicas=1, max_queue_depth=32)
            async with gateway:
                async with HttpFrontDoor(gateway, port=0) as front:
                    host, port = front.address
                    reader, writer = await asyncio.open_connection(host, port)
                    try:
                        # Keep-alive: the whole sequence rides one connection.
                        status, _headers, body = await _http_roundtrip(
                            reader, writer, "GET", "/healthz"
                        )
                        assert status == 200
                        assert json.loads(body) == {
                            "status": "ok", "models": ["m"],
                        }
                        x = [1.0] * _INPUT_DIM
                        status, _headers, body = await _http_roundtrip(
                            reader, writer, "POST", "/v1/infer/m", body={"x": x}
                        )
                        assert status == 200
                        reply = json.loads(body)
                        assert reply["model"] == "m"
                        assert len(reply["y"]) == _OUTPUT_DIM
                        # Admission-time validation surfaces as 400.
                        status, _headers, body = await _http_roundtrip(
                            reader, writer, "POST", "/v1/infer/m",
                            body={"x": [1.0, 2.0]},
                        )
                        assert status == 400
                        assert "features" in json.loads(body)["error"]
                        # Unknown model and unknown route are 404.
                        status, _headers, _body = await _http_roundtrip(
                            reader, writer, "POST", "/v1/infer/ghost",
                            body={"x": x},
                        )
                        assert status == 404
                        status, _headers, _body = await _http_roundtrip(
                            reader, writer, "GET", "/nope"
                        )
                        assert status == 404
                        # Wrong method is 405; malformed JSON is 400.
                        status, _headers, _body = await _http_roundtrip(
                            reader, writer, "GET", "/v1/infer/m"
                        )
                        assert status == 405
                        writer.write(
                            b"POST /v1/infer/m HTTP/1.1\r\nHost: t\r\n"
                            b"Content-Length: 3\r\n\r\n{{{"
                        )
                        await writer.drain()
                        status_line = await reader.readline()
                        assert int(status_line.split()[1]) == 400
                        length = 0
                        while True:
                            line = await reader.readline()
                            if line in (b"\r\n", b"\n"):
                                break
                            if line.lower().startswith(b"content-length:"):
                                length = int(line.split(b":")[1])
                        body = await reader.readexactly(length)
                        assert "JSON" in json.loads(body)["error"]
                    finally:
                        writer.close()
                    # A deadline too tight to meet maps onto 504, and the
                    # live /metrics scrape shows the outcome series moving.
                    reader, writer = await asyncio.open_connection(host, port)
                    try:
                        status, _headers, body = await _http_roundtrip(
                            reader, writer, "POST", "/v1/infer/m",
                            body={"x": x, "deadline": 1e-6},
                        )
                        assert status == 504
                        status, _headers, body = await _http_roundtrip(
                            reader, writer, "GET", "/metrics", close=True
                        )
                        assert status == 200
                        text = body.decode("utf-8")
                        assert "repro_gateway_requests_total" in text
                        assert "repro_gateway_deadline_exceeded_total" in text
                    finally:
                        writer.close()
            await gateway.close()

        asyncio.run(main())

    def test_front_door_requires_start_for_address(self, archive_blob):
        gateway = AsyncGateway(replica_backend="thread")
        front = HttpFrontDoor(gateway)
        with pytest.raises(ValidationError, match="not started"):
            front.address
