"""Tests for the multi-model serving :class:`Gateway`.

Concurrency here is synchronised with ``threading.Event`` gates and the
``wait_until`` deadline-poll helper from ``conftest`` — never fixed sleeps
(see the conftest docstring).
"""

import json
import logging
import sys
import threading

import numpy as np
import pytest

from repro.serve import (
    ArchiveMLP,
    ConsistentHashPolicy,
    Gateway,
    LeastLoadedPolicy,
    ModelRuntime,
    RoundRobinPolicy,
    resolve_policy,
)
from repro.store import ModelStore
from repro.utils.errors import GatewayOverloaded, ValidationError

_INPUT_DIM = 160  # fc6 of the session model is 96x160
_OUTPUT_DIM = 32  # fc8 is 32x64


class BlockingNetwork:
    """Forward passes block until the test releases them — deterministic
    saturation and in-flight draining without a single sleep."""

    def __init__(self, out_dim: int = 4):
        self.out_dim = out_dim
        self.release = threading.Event()
        self.entered = threading.Event()

    # Runtime weight-install hooks (the gateway's server calls these).
    def set_weights(self, name, weights):
        pass

    def set_sparse_weights(self, name, weight):
        pass

    def forward(self, x, training=False):
        self.entered.set()
        assert self.release.wait(timeout=30), "test never released the network"
        return np.zeros((x.shape[0], self.out_dim), dtype=np.float32)


class _FakeReplica:
    def __init__(self, inflight):
        self.inflight = inflight


class TestPolicies:
    def test_round_robin_cycles(self):
        policy = RoundRobinPolicy()
        replicas = [_FakeReplica(0)] * 3
        assert [policy.choose(replicas) for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_least_loaded_picks_min_with_deterministic_ties(self):
        policy = LeastLoadedPolicy()
        replicas = [_FakeReplica(3), _FakeReplica(1), _FakeReplica(1)]
        assert policy.choose(replicas) == 1  # tie between 1 and 2 -> lowest
        replicas[1].inflight = 5
        assert policy.choose(replicas) == 2

    def test_consistent_hash_is_deterministic_across_instances(self):
        ids = [f"model/{i}" for i in range(4)]
        first, second = ConsistentHashPolicy(), ConsistentHashPolicy()
        first.bind(ids)
        second.bind(ids)
        keys = [f"user-{i}" for i in range(200)]
        mapping = [first.replica_for(k) for k in keys]
        assert mapping == [second.replica_for(k) for k in keys]
        # Repeated queries never move a key.
        assert mapping == [first.replica_for(k) for k in keys]
        # The ring spreads load: every replica owns part of the key space.
        assert set(mapping) == {0, 1, 2, 3}

    def test_consistent_hash_keyless_falls_back_to_round_robin(self):
        policy = ConsistentHashPolicy()
        policy.bind(["m/0", "m/1"])
        replicas = [_FakeReplica(0)] * 2
        assert [policy.choose(replicas, None) for _ in range(4)] == [0, 1, 0, 1]

    def test_consistent_hash_requires_bind(self):
        with pytest.raises(ValidationError, match="not bound"):
            ConsistentHashPolicy().replica_for("key")

    def test_resolve_policy(self):
        assert resolve_policy("least-loaded").name == "least-loaded"
        # Fresh state per resolution: two models must not share a cursor.
        assert resolve_policy("round-robin") is not resolve_policy("round-robin")
        own = ConsistentHashPolicy(vnodes=8)
        assert resolve_policy(own) is own
        with pytest.raises(ValidationError, match="unknown shard policy"):
            resolve_policy("random")


class TestArchiveMLP:
    def test_forward_matches_manual_stack(self, archive_blob):
        with ModelRuntime(archive_blob) as runtime:
            mlp = ArchiveMLP(runtime)
            assert mlp.input_dim == _INPUT_DIM
            assert mlp.output_dim == _OUTPUT_DIM
            rng = np.random.default_rng(0)
            x = rng.standard_normal((5, _INPUT_DIM)).astype(np.float32)
            expected = x
            for i, name in enumerate(runtime.layer_names):
                expected = expected @ runtime.layer(name).T
                if i < len(runtime.layer_names) - 1:
                    expected = np.maximum(expected, 0.0)
            np.testing.assert_allclose(mlp.forward(x), expected, rtol=1e-5)

    def test_sparse_runtime_parity(self, archive_blob):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, _INPUT_DIM)).astype(np.float32)
        with ModelRuntime(archive_blob) as dense_rt:
            dense = ArchiveMLP(dense_rt).forward(x)
        with ModelRuntime(archive_blob, sparse=True) as sparse_rt:
            sparse = ArchiveMLP(sparse_rt).forward(x)
        np.testing.assert_allclose(sparse, dense, atol=1e-5)

    def test_non_chaining_archive_rejected(self):
        from repro.cli import synthetic_sparse_layers
        from repro.core.encoder import DeepSZEncoder
        from repro.store import archive_bytes

        sparse = synthetic_sparse_layers("a=8x16:0.5,b=8x16:0.5", seed=0)
        model = DeepSZEncoder().encode("bad", sparse, {n: 1e-3 for n in sparse})
        with ModelRuntime(archive_bytes(model)) as runtime:
            with pytest.raises(ValidationError, match="do not chain"):
                ArchiveMLP(runtime)


class TestGatewayServing:
    def test_round_robin_spreads_exactly(self, archive_blob):
        gateway = Gateway()
        gateway.add_model("m", archive_blob, replicas=3, max_queue_depth=64)
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            futures = [gateway.submit("m", x) for _ in range(12)]
            rows = [f.result(timeout=30) for f in futures]
        stats = gateway.stats().models["m"]
        assert [r.dispatched for r in stats.replicas] == [4, 4, 4]
        assert stats.completed == 12
        assert stats.failures == 0
        for row in rows:
            # Identical input through identical weights; tolerance covers
            # batch-size-dependent BLAS kernel differences across replicas.
            np.testing.assert_allclose(row, rows[0], atol=1e-5)
        gateway.close()

    def test_consistent_hash_sticks_and_matches_policy_map(self, archive_blob):
        probe = ConsistentHashPolicy()
        probe.bind([f"m/{i}" for i in range(3)])
        expected_index = probe.replica_for("device-7")

        gateway = Gateway()
        gateway.add_model(
            "m", archive_blob, replicas=3, policy="consistent-hash",
            max_queue_depth=64,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            for future in [
                gateway.submit("m", x, key="device-7") for _ in range(9)
            ]:
                future.result(timeout=30)
        dispatched = [
            r.dispatched for r in gateway.stats().models["m"].replicas
        ]
        assert dispatched[expected_index] == 9
        assert sum(dispatched) == 9
        gateway.close()

    def test_concurrent_multi_model_mixed_dense_sparse(self, archive_blob):
        """Eight client threads against a dense pool and a sparse pool of
        the same archive: every response must match the single-runtime
        reference, and the sparse pool must sit at a fraction of the dense
        pool's resident bytes."""
        with ModelRuntime(archive_blob) as runtime:
            reference = ArchiveMLP(runtime)
            rng = np.random.default_rng(42)
            xs = rng.standard_normal((8, _INPUT_DIM)).astype(np.float32)
            expected = reference.forward(xs)

        gateway = Gateway()
        gateway.add_model("dense", archive_blob, replicas=2, max_queue_depth=512)
        gateway.add_model(
            "sparse", archive_blob, replicas=2, sparse=True,
            policy="consistent-hash", max_queue_depth=512,
        )
        errors = []
        with gateway:
            def client(thread_index):
                try:
                    for round_no in range(15):
                        name = "dense" if (thread_index + round_no) % 2 else "sparse"
                        row = gateway.infer(
                            name,
                            xs[thread_index],
                            key=f"client-{thread_index}",
                            timeout=30,
                        )
                        np.testing.assert_allclose(
                            row, expected[thread_index], atol=1e-4
                        )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = gateway.stats()
        assert not errors
        assert stats.completed == 8 * 15
        assert stats.failures == 0
        assert stats.rejected == 0
        assert stats.models["dense"].completed + stats.models["sparse"].completed == 120
        # Compressed-domain replicas are charged their true CSC footprint.
        assert 0 < stats.models["sparse"].cache_bytes < stats.models["dense"].cache_bytes / 2
        gateway.close()

    def test_store_digest_resolution(self, tmp_path, archive_blob):
        store = ModelStore(tmp_path / "store")
        digest = store.put_bytes(archive_blob)
        gateway = Gateway(store=store)
        gateway.add_model("by-prefix", digest=digest[:10], replicas=1)
        with gateway:
            row = gateway.infer("by-prefix", np.ones(_INPUT_DIM, dtype=np.float32))
        assert row.shape == (_OUTPUT_DIM,)
        gateway.close()

        with pytest.raises(ValidationError, match="no object"):
            other = Gateway(store=store)
            missing = "0000" if not digest.startswith("0000") else "ffff"
            other.add_model("nope", digest=missing)

    def test_validation(self, archive_blob, tmp_path):
        gateway = Gateway()
        with pytest.raises(ValidationError, match="exactly one"):
            gateway.add_model("m")
        with pytest.raises(ValidationError, match="exactly one"):
            gateway.add_model("m", archive_blob, digest="ab" * 32)
        with pytest.raises(ValidationError, match="needs a store"):
            gateway.add_model("m", digest="ab" * 32)
        with pytest.raises(ValidationError, match="replicas"):
            gateway.add_model("m", archive_blob, replicas=0)
        with pytest.raises(ValidationError, match="max_queue_depth"):
            gateway.add_model("m", archive_blob, max_queue_depth=0)
        with pytest.raises(ValidationError, match="unknown shard policy"):
            gateway.add_model("m", archive_blob, policy="alphabetical")
        with pytest.raises(ValidationError, match="no models"):
            gateway.start()

        gateway.add_model("m", archive_blob)
        with pytest.raises(ValidationError, match="already hosts"):
            gateway.add_model("m", archive_blob)
        with pytest.raises(ValidationError, match="not running"):
            gateway.submit("m", np.ones(_INPUT_DIM, dtype=np.float32))
        with gateway:
            with pytest.raises(ValidationError, match="while the gateway is running"):
                gateway.add_model("late", archive_blob)
            with pytest.raises(ValidationError, match="no model named"):
                gateway.submit("ghost", np.ones(_INPUT_DIM, dtype=np.float32))
        gateway.close()
        with pytest.raises(ValidationError, match="closed"):
            gateway.start()

    def test_stats_are_json_serializable(self, archive_blob):
        gateway = Gateway()
        gateway.add_model("m", archive_blob, replicas=2)
        with gateway:
            gateway.infer("m", np.ones(_INPUT_DIM, dtype=np.float32), timeout=30)
            payload = json.dumps(gateway.stats().as_dict())
        assert '"m"' in payload
        gateway.close()


class TestAdmissionControl:
    def test_fast_fail_rejection_under_saturation(self, archive_blob, wait_until):
        networks = []

        def factory():
            network = BlockingNetwork()
            networks.append(network)
            return network

        gateway = Gateway()
        gateway.add_model(
            "m", archive_blob, replicas=1, network_factory=factory,
            max_queue_depth=4, max_concurrency=1, batch_size=1,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            # One request enters service and blocks, pinning the single
            # concurrency slot.
            first = gateway.submit("m", x)
            assert networks[0].entered.wait(timeout=10)
            wait_until(
                lambda: gateway.queue_depth("m") == 0,
                message="first request to leave the gateway queue",
            )
            # Fill the admission queue exactly to its depth limit...
            queued = [gateway.submit("m", x) for _ in range(4)]
            # ...so the next submit fast-fails with the 429-style error.
            with pytest.raises(GatewayOverloaded, match="saturated"):
                gateway.submit("m", x)
            with pytest.raises(GatewayOverloaded):
                gateway.submit("m", x)
            stats = gateway.stats().models["m"]
            assert stats.rejected == 2
            assert stats.submitted == 5
            assert stats.queue_depth == 4
            assert 0 < stats.rejection_rate < 1

            # Releasing the network drains everything that was admitted.
            networks[0].release.set()
            for future in [first, *queued]:
                future.result(timeout=30)
            wait_until(
                lambda: gateway.stats().models["m"].completed == 5,
                message="all admitted requests to complete",
            )
            assert gateway.queue_depth("m") == 0
        final = gateway.stats().models["m"]
        assert final.completed == 5
        assert final.failures == 0
        assert final.rejected == 2
        gateway.close()

    def test_failing_policy_does_not_leak_admission_slots(self, archive_blob, wait_until):
        """Regression: a shard policy that raises must not leave the popped
        request counted against the queue forever (the model would reach its
        depth limit and reject everything after max_queue_depth failures)."""

        class ExplodingPolicy(RoundRobinPolicy):
            name = "exploding"

            def choose(self, replicas, key=None):
                if key == "boom":
                    raise RuntimeError("no shard for you")
                return super().choose(replicas, key)

        gateway = Gateway()
        gateway.add_model(
            "m", archive_blob, replicas=1, policy=ExplodingPolicy(),
            max_queue_depth=2,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            for _ in range(3):  # more failures than the depth limit
                with pytest.raises(RuntimeError, match="no shard"):
                    gateway.submit("m", x, key="boom").result(timeout=30)
            wait_until(
                lambda: gateway.queue_depth("m") == 0,
                message="failed requests to release their queue slots",
            )
            # Healthy traffic still flows after the failures.
            assert gateway.infer("m", x, timeout=30).shape == (_OUTPUT_DIM,)
            stats = gateway.stats().models["m"]
        assert stats.failures == 3
        assert stats.completed == 1
        assert stats.rejected == 0
        gateway.close()

    def test_submit_many_partial_admission_carries_admitted_futures(
        self, archive_blob, wait_until
    ):
        """Regression: a mid-sequence GatewayOverloaded must hand back the
        already-admitted futures via ``exc.admitted`` instead of orphaning
        them in the queue."""
        networks = []

        def factory():
            network = BlockingNetwork(out_dim=_OUTPUT_DIM)
            networks.append(network)
            return network

        gateway = Gateway()
        gateway.add_model(
            "m", archive_blob, replicas=1, network_factory=factory,
            max_queue_depth=2, max_concurrency=1, batch_size=1,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            first = gateway.submit("m", x)
            assert networks[0].entered.wait(timeout=10)
            wait_until(
                lambda: gateway.queue_depth("m") == 0,
                message="first request to leave the gateway queue",
            )
            with pytest.raises(GatewayOverloaded, match="saturated") as info:
                gateway.submit_many("m", [x] * 5)
            admitted = info.value.admitted
            assert isinstance(admitted, tuple)
            assert len(admitted) == 2  # the queue's depth limit
            networks[0].release.set()
            assert first.result(timeout=30).shape == (_OUTPUT_DIM,)
            for future in admitted:
                assert future.result(timeout=30).shape == (_OUTPUT_DIM,)
        stats = gateway.stats().models["m"]
        assert stats.completed == 3
        assert stats.rejected == 1
        gateway.close()

    def test_every_admission_attempt_exports_one_finished_span(
        self, archive_blob, wait_until
    ):
        """Regression: overload rejections used to leak unfinished
        ``gateway.request`` spans — every attempt, admitted or rejected,
        must export exactly one span with its terminal outcome."""
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import BufferExporter, Tracer

        networks = []

        def factory():
            network = BlockingNetwork()
            networks.append(network)
            return network

        exporter = BufferExporter()
        gateway = Gateway(tracer=Tracer(1.0, exporter), metrics=MetricsRegistry())
        gateway.add_model(
            "m", archive_blob, replicas=1, network_factory=factory,
            max_queue_depth=2, max_concurrency=1, batch_size=1,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            first = gateway.submit("m", x)
            assert networks[0].entered.wait(timeout=10)
            wait_until(
                lambda: gateway.queue_depth("m") == 0,
                message="first request to leave the gateway queue",
            )
            admitted = [gateway.submit("m", x) for _ in range(2)]
            for _ in range(2):
                with pytest.raises(GatewayOverloaded):
                    gateway.submit("m", x)
            with pytest.raises(ValidationError, match="1-D"):
                gateway.submit("m", np.ones((2, 2), dtype=np.float32))
            networks[0].release.set()
            for future in [first, *admitted]:
                future.result(timeout=30)
        gateway.close()
        requests = [s for s in exporter.spans if s["name"] == "gateway.request"]
        # 3 completed + 2 rejected; the invalid sample is turned away
        # before a span exists, so 5 attempts -> 5 finished spans.
        assert len(requests) == 5
        outcomes = sorted(s["attrs"]["outcome"] for s in requests)
        assert outcomes == [
            "completed", "completed", "completed", "rejected", "rejected",
        ]
        assert all(s["end_s"] >= s["start_s"] for s in requests)

    def test_free_slot_dispatches_inline_without_gateway_threads(
        self, archive_blob
    ):
        networks = []

        def factory():
            network = BlockingNetwork()
            networks.append(network)
            return network

        gateway = Gateway()
        gateway.add_model(
            "m", archive_blob, replicas=1, network_factory=factory,
            max_concurrency=1, batch_size=1,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            assert not [
                t for t in threading.enumerate()
                if t.name.startswith("repro-gateway")
            ]
            first = gateway.submit("m", x)
            # Handed to the replica before submit() returned.
            assert gateway.queue_depth("m") == 0
            assert gateway.stats().models["m"].replicas[0].dispatched == 1
            second = gateway.submit("m", x)
            assert gateway.queue_depth("m") == 1
            networks[0].release.set()
            for future in (first, second):
                assert future.result(timeout=30).shape == (4,)
        assert gateway.queue_depth("m") == 0
        gateway.close()

    def test_cancelled_queued_future_is_never_dispatched(
        self, archive_blob, caplog
    ):
        """Regression: ``Future.cancel()`` on a queued request returned
        True, yet the request was still dispatched, counted ``completed``,
        and its completion raised a logged ``InvalidStateError``."""
        networks = []

        def factory():
            network = BlockingNetwork()
            networks.append(network)
            return network

        gateway = Gateway()
        gateway.add_model(
            "m", archive_blob, replicas=1, network_factory=factory,
            max_queue_depth=4, max_concurrency=1, batch_size=1,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with caplog.at_level(logging.ERROR):
            with gateway:
                first = gateway.submit("m", x)
                assert networks[0].entered.wait(timeout=10)
                queued = gateway.submit("m", x)
                assert queued.cancel()
                networks[0].release.set()
                assert first.result(timeout=30).shape == (4,)
                # FIFO slots: this request is served after the cancelled one
                # has been skipped.
                assert gateway.infer("m", x, timeout=30).shape == (4,)
        stats = gateway.stats().models["m"]
        assert stats.submitted == 3
        assert stats.completed == 2
        assert stats.cancelled == 1
        assert stats.failures == 0
        assert [r.dispatched for r in stats.replicas] == [2]
        assert stats.replicas[0].server.requests == 2
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        gateway.close()

    def test_cancel_plus_dispatch_error_keeps_model_serving(
        self, archive_blob, wait_until
    ):
        """Regression: a cancelled future whose dispatch then failed killed
        the model's dispatcher thread (``set_exception`` on a cancelled
        future), stranding every later request and ``stop()``."""

        class ExplodingPolicy(RoundRobinPolicy):
            name = "exploding"

            def choose(self, replicas, key=None):
                if key == "boom":
                    raise RuntimeError("no shard for you")
                return super().choose(replicas, key)

        networks = []

        def factory():
            network = BlockingNetwork()
            networks.append(network)
            return network

        gateway = Gateway()
        gateway.add_model(
            "m", archive_blob, replicas=1, network_factory=factory,
            policy=ExplodingPolicy(), max_queue_depth=8, max_concurrency=1,
            batch_size=1,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        gateway.start()
        first = gateway.submit("m", x)
        assert networks[0].entered.wait(timeout=10)
        doomed = gateway.submit("m", x, key="boom")
        assert doomed.cancel()
        failing = gateway.submit("m", x, key="boom")
        later = [gateway.submit("m", x) for _ in range(3)]
        networks[0].release.set()
        assert first.result(timeout=30).shape == (4,)
        with pytest.raises(RuntimeError, match="no shard"):
            failing.result(timeout=30)
        for future in later:
            assert future.result(timeout=30).shape == (4,)
        # The model still serves, and stop() resolves everything accepted.
        networks[0].release.clear()
        networks[0].entered.clear()
        tail = [gateway.submit("m", x) for _ in range(3)]
        assert networks[0].entered.wait(timeout=10)
        stopper = threading.Thread(target=gateway.stop)
        stopper.start()
        wait_until(
            lambda: not gateway._models["m"].accepting,
            message="admission to close",
        )
        assert stopper.is_alive(), "stop() returned with requests still queued"
        networks[0].release.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        for future in tail:
            assert future.result(timeout=0).shape == (4,)
        stats = gateway.stats().models["m"]
        assert stats.submitted == 9
        assert stats.completed == 7
        assert stats.failures == 1
        assert stats.cancelled == 1
        assert stats.queue_depth == 0
        gateway.close()

    def test_concurrent_submit_and_cancel_keep_the_books(self, archive_blob):
        """Stress: more client threads than cores submit and cancel against
        two slots with a shortened switch interval.  Every admitted request
        ends exactly once — completed, or cancelled when its cancel won —
        and every slot comes back."""
        gateway = Gateway()
        gateway.add_model(
            "m", archive_blob, replicas=2, max_queue_depth=512,
            max_concurrency=2, batch_size=4,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        clients, per_client = 8, 40
        cancels = []
        errors = []

        def client(index):
            try:
                futures = [gateway.submit("m", x) for _ in range(per_client)]
                won = sum(f.cancel() for f in futures[index % 3::3])
                for future in futures:
                    if not future.cancelled():
                        assert future.result(timeout=30).shape == (_OUTPUT_DIM,)
                cancels.append(won)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with gateway:
                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        stats = gateway.stats().models["m"]
        assert stats.submitted == clients * per_client
        assert stats.cancelled == sum(cancels)
        assert stats.completed + stats.cancelled == stats.submitted
        assert stats.failures == 0
        assert sum(r.dispatched for r in stats.replicas) == stats.completed
        assert stats.queue_depth == 0
        assert gateway._model("m").free == 2
        gateway.close()

    def test_admission_reopens_after_drain(self, archive_blob):
        gateway = Gateway()
        gateway.add_model("m", archive_blob, replicas=1, max_queue_depth=2)
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        with gateway:
            # Closed-loop traffic never trips a depth-2 queue: each wave's
            # requests are drained before the next wave is admitted.
            for _ in range(5):
                for future in [gateway.submit("m", x), gateway.submit("m", x)]:
                    future.result(timeout=30)
        assert gateway.stats().models["m"].rejected == 0
        assert gateway.stats().models["m"].completed == 10
        gateway.close()


class TestStopRestart:
    def test_stop_drains_inflight_and_restart_resets(self, archive_blob, wait_until):
        networks = []

        def factory():
            network = BlockingNetwork()
            networks.append(network)
            return network

        gateway = Gateway()
        gateway.add_model(
            "m", archive_blob, replicas=2, network_factory=factory,
            max_queue_depth=64, max_concurrency=4,
        )
        x = np.ones(_INPUT_DIM, dtype=np.float32)
        gateway.start()
        futures = [gateway.submit("m", x) for _ in range(6)]
        assert networks[0].entered.wait(timeout=10)

        # stop() must block until every accepted request resolves, so it
        # runs on a helper thread while this thread releases the networks.
        stopper = threading.Thread(target=gateway.stop)
        stopper.start()
        # Admission closes at the head of stop(); peek the flag rather than
        # probing with real submits (which would mutate the request count).
        wait_until(
            lambda: not gateway._models["m"].accepting,
            message="admission to close",
        )
        with pytest.raises(ValidationError, match="not running"):
            gateway.submit("m", x)
        assert stopper.is_alive(), "stop() returned with requests still blocked"
        for network in networks:
            network.release.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        for future in futures:
            assert future.done()
            assert future.result().shape == (4,)

        stats = gateway.stats().models["m"]
        assert stats.completed == 6
        assert stats.queue_depth == 0

        # A restarted gateway serves again with fresh per-run stats.
        gateway.start()
        row = gateway.infer("m", x, timeout=30)
        assert row.shape == (4,)
        restarted = gateway.stats().models["m"]
        assert restarted.submitted == 1
        assert restarted.completed == 1
        gateway.stop()
        with pytest.raises(ValidationError, match="not running"):
            gateway.submit("m", x)
        gateway.close()
