"""The replica batching loop, pinned identically on both backends.

The thread :class:`~repro.serve.server.Server` and the process worker run
one loop (:func:`repro.serve.server.serve_batches`), so every policy test
here is parametrized over ``thread`` and ``process``: whatever one backend
does with a batch, the other must do too.

The process backend builds its network inside a spawn-started worker, so
the test network comes from a picklable module-level factory whose gate
events are spawn-context ``multiprocessing`` events (they work in-process
for the thread backend as well).  No fixed sleeps: waits go through the
``wait_until`` deadline poll and event gates.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.serve.server import Server
from repro.serve.shm import shared_weight_store
from repro.serve.worker import ProcessServer

_SPAWN = multiprocessing.get_context("spawn")


class _IdentityNetwork:
    """Echoes its batch; optionally fails, or parks its first forward."""

    def __init__(self, fail, started, release):
        self._fail = fail
        self._started = started
        self._release = release

    def set_weights(self, name, weights):  # the archive's layers are ignored
        pass

    def set_sparse_weights(self, name, weights):
        pass

    def forward(self, x, training=False):
        if self._fail:
            raise RuntimeError("forward failed")
        if self._started is not None and not self._started.is_set():
            self._started.set()
            self._release.wait(60)
        return x


class _NetworkFactory:
    """Picklable ``network_factory``: spawn workers rebuild it by reference."""

    def __init__(self, *, fail=False, gated=False):
        self.fail = fail
        self.started = _SPAWN.Event() if gated else None
        self.release = _SPAWN.Event() if gated else None

    def __call__(self):
        return _IdentityNetwork(self.fail, self.started, self.release)


@pytest.fixture(params=["thread", "process"])
def start_replica(request, archive_blob):
    """``start_replica(factory, **options)`` -> a running replica server."""
    store = shared_weight_store()
    servers, shared = [], []

    def start(factory, **options):
        if request.param == "thread":
            server = Server(factory(), **options)
        else:
            shared.append(store.acquire(archive_blob))
            server = ProcessServer("m/0", network_factory=factory, **options)
            server.set_shared(shared[-1])
        servers.append(server)
        return server.start()

    yield start
    for server in servers:
        server.stop()
    for segment in shared:
        store.release(segment)


_X = np.arange(4, dtype=np.float32)


def test_failed_forward_counts_as_a_batch(start_replica):
    server = start_replica(_NetworkFactory(fail=True), batch_size=4, max_batch_delay=0.0)
    with pytest.raises(RuntimeError, match="forward failed"):
        server.submit(_X).result(timeout=60)
    stats = server.stats()
    assert stats.batches == 1
    assert stats.failures == 1
    assert stats.mean_batch_size == 1.0


def test_batch_deadline_runs_from_arrival(start_replica, wait_until):
    """A request that outwaited ``max_batch_delay`` behind a busy forward
    pass is served as soon as that pass ends, not after a second delay."""
    factory = _NetworkFactory(gated=True)
    server = start_replica(factory, batch_size=2, max_batch_delay=1.0)
    first = [server.submit(_X) for _ in range(2)]  # a full batch: no wait
    assert factory.started.wait(60)
    late = server.submit(_X)
    arrived = time.perf_counter()
    wait_until(
        lambda: time.perf_counter() - arrived >= 1.0,
        timeout=30,
        message="the late request to outwait max_batch_delay",
    )
    released = time.perf_counter()
    factory.release.set()
    np.testing.assert_array_equal(late.result(timeout=60), _X)
    assert time.perf_counter() - released < 0.5
    for future in first:
        np.testing.assert_array_equal(future.result(timeout=60), _X)


def test_lone_request_does_not_wait_for_batch_mates(start_replica):
    """Nothing else was sent, so the batch closes at once: the delay caps a
    wait for requests on the way, it is never paid for ones that are not."""
    server = start_replica(_NetworkFactory(), batch_size=16, max_batch_delay=1.0)
    submitted = time.perf_counter()
    np.testing.assert_array_equal(server.submit(_X).result(timeout=60), _X)
    assert time.perf_counter() - submitted < 0.5


def test_backlog_still_fills_a_batch(start_replica):
    """Requests queued behind a busy forward pass go out as one batch."""
    factory = _NetworkFactory(gated=True)
    server = start_replica(factory, batch_size=16, max_batch_delay=1.0)
    futures = [server.submit(_X)]
    assert factory.started.wait(60)
    futures += [server.submit(_X) for _ in range(16)]
    factory.release.set()
    for future in futures:
        np.testing.assert_array_equal(future.result(timeout=60), _X)
    stats = server.stats()
    assert stats.batches == 2
    assert stats.mean_batch_size == 8.5


def test_saturated_replica_waits_for_batch_mates(start_replica, wait_until):
    """Once a batch has filled, the next one waits for mates up to the
    delay even with nothing on the way: a front door writing one request
    at a time must not split a saturated load into one-request batches."""
    factory = _NetworkFactory(gated=True)
    server = start_replica(factory, batch_size=2, max_batch_delay=30.0)
    futures = [server.submit(_X)]
    assert factory.started.wait(60)
    futures += [server.submit(_X) for _ in range(2)]  # backlog: a full batch
    factory.release.set()
    for future in futures:
        future.result(timeout=60)
    lone = server.submit(_X)
    submitted = time.perf_counter()
    wait_until(
        lambda: time.perf_counter() - submitted >= 0.2,
        timeout=30,
        message="the lone request to wait",
    )
    assert not lone.done()
    mate = server.submit(_X)
    for future in (lone, mate):
        np.testing.assert_array_equal(future.result(timeout=60), _X)
    stats = server.stats()
    assert stats.batches == 3
    assert stats.mean_batch_size == 5 / 3
