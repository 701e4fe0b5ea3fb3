"""Process-backed replica pools: parity, shm lifecycle, crash containment.

The worker processes here are real (spawned via the default ``spawn`` start
method), so this file is the cross-process counterpart of ``test_shm.py``:
it proves the gateway serves identical outputs from worker processes
reconstructing weights out of the shared segment, that segments are created
once per model and provably unlinked on ``stop()`` — including after a
``SIGKILL``ed worker — and that a crash fails only the requests that were
in flight on the dead replica.

No fixed sleeps: synchronisation goes through ``poll_until`` and the
replica servers' cross-process ``inflight`` gauges.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Network
from repro.serve.gateway import Gateway
from repro.serve.shm import shared_weight_store
from repro.serve.worker import ProcessServer
from repro.utils.errors import ReplicaCrashed, ValidationError

_INPUT_DIM = 160  # fc6 of the session model is 96x160
_SPAWN = multiprocessing.get_context("spawn")


def _repro_segments() -> set:
    """This run's shared-memory segments, plus any ``psm_`` one.

    Both kinds of ``repro_`` segment carry the PID of the process that
    created them (``repro_obs_<pid>_<seq>``, ``repro_<digest>_<pid>_<seq>``),
    and the gateway creates them in this process, so a suite running
    alongside on the same host does not show up here.  The package never
    creates ``psm_`` segments, so any of those counts.
    """
    pid = str(os.getpid())
    return {
        f for f in os.listdir("/dev/shm")
        if f.startswith("psm_") or (f.startswith("repro_") and f.split("_")[2:3] == [pid])
    }


def make_session_network() -> Network:
    """Module-level so it pickles into spawn-started workers by reference."""
    return Network(
        [
            Dense("fc6", 160, 96), ReLU("relu6"),
            Dense("fc7", 96, 64), ReLU("relu7"),
            Dense("fc8", 64, 32),
        ],
        name="session-mlp",
    )


class _GatedSessionNetwork(Network):
    """The session network with every forward pass held at a gate."""

    def __init__(self, gate):
        super().__init__(make_session_network().layers, name="session-mlp")
        self._gate = gate

    def forward(self, x, training=False):
        if self._gate.acquire(timeout=60):
            self._gate.release()  # pass-through: once open, it stays open
        return super().forward(x, training)


class _GatedFactory:
    """Picklable ``network_factory`` whose networks wait for ``gate``.

    The gate is a semaphore, not an ``Event``: ``Event.set`` waits for every
    sleeper to wake, so a worker SIGKILLed mid-wait would wedge the opener.
    """

    def __init__(self):
        self.gate = _SPAWN.Semaphore(0)

    def __call__(self):
        return _GatedSessionNetwork(self.gate)


@pytest.fixture()
def inputs():
    rng = np.random.default_rng(11)
    return rng.standard_normal((24, _INPUT_DIM)).astype(np.float32)


def _run_gateway(archive_blob, inputs, backend, **model_kwargs):
    gateway = Gateway(replica_backend=backend)
    gateway.add_model("m", archive_blob, **model_kwargs)
    with gateway:
        futures = [gateway.submit("m", x) for x in inputs]
        outputs = np.stack([f.result(timeout=60) for f in futures])
        stats = gateway.stats()
    gateway.close()
    return outputs, stats


class TestProcessBackendParity:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_outputs_match_thread_backend(self, archive_blob, inputs, sparse):
        before = _repro_segments()
        thread_out, thread_stats = _run_gateway(
            archive_blob, inputs, "thread", replicas=2, sparse=sparse
        )
        process_out, process_stats = _run_gateway(
            archive_blob, inputs, "process", replicas=2, sparse=sparse,
            policy="least-loaded",
        )
        # Same weights, same kernels — only dynamic-batch composition may
        # differ between runs, which perturbs GEMM summation order at the
        # last-ulp level.
        np.testing.assert_allclose(process_out, thread_out, rtol=1e-5, atol=1e-7)

        model = process_stats.models["m"]
        assert model.backend == "process"
        assert thread_stats.models["m"].backend == "thread"
        assert model.completed == len(inputs)
        assert model.shared_bytes > 0
        assert process_stats.shared_bytes == model.shared_bytes
        for replica in model.replicas:
            assert replica.decodes == 0  # workers never decode
            assert replica.cache_bytes == 0  # weights alias the segment
            assert replica.inflight == 0
        assert sum(r.server.requests for r in model.replicas) == len(inputs)
        # stop() released the gateway's reference: segment unlinked.
        assert _repro_segments() == before

    def test_network_factory_runs_inside_workers(self, archive_blob, inputs):
        thread_out, _ = _run_gateway(
            archive_blob, inputs, "thread",
            replicas=1, network_factory=make_session_network,
        )
        process_out, _ = _run_gateway(
            archive_blob, inputs, "process",
            replicas=1, network_factory=make_session_network,
        )
        np.testing.assert_allclose(process_out, thread_out, rtol=1e-5, atol=1e-7)

    def test_stats_dict_is_json_ready(self, archive_blob, inputs):
        import json

        _, stats = _run_gateway(archive_blob, inputs, "process", replicas=1)
        payload = json.loads(json.dumps(stats.as_dict()))
        assert payload["models"]["m"]["backend"] == "process"
        assert payload["models"]["m"]["shared_bytes"] > 0


class TestSharedSegmentLifecycle:
    def test_segment_created_once_per_model(self, archive_blob, inputs, wait_until):
        before = _repro_segments()
        gateway = Gateway(replica_backend="process")
        gateway.add_model("m", archive_blob, replicas=3)
        with gateway:
            live = _repro_segments() - before
            # Replica metrics blocks are separate per-run segments; weight
            # sharing is what this test pins down.
            obs = {name for name in live if name.startswith("repro_obs_")}
            weights = live - obs
            # Three replicas, one weight segment: decode happened once per
            # model.  Each replica gets its own observability block.
            assert len(weights) == 1
            assert weights == set(shared_weight_store().active_segments())
            assert len(obs) == 3
            gateway.infer("m", inputs[0], timeout=60)
        gateway.close()
        assert _repro_segments() == before

    def test_restart_reacquires_segment(self, archive_blob, inputs):
        before = _repro_segments()
        gateway = Gateway(replica_backend="process")
        gateway.add_model("m", archive_blob, replicas=1)
        for _ in range(2):
            with gateway:
                out = gateway.infer("m", inputs[0], timeout=60)
                assert np.asarray(out).shape[-1] == 32
            # Unlinked between runs; the next start() re-acquires cleanly.
            assert _repro_segments() == before
        gateway.close()

    def test_submit_after_stop_raises(self, archive_blob, inputs):
        gateway = Gateway(replica_backend="process")
        gateway.add_model("m", archive_blob, replicas=1)
        with gateway:
            gateway.infer("m", inputs[0], timeout=60)
        with pytest.raises(ValidationError, match="not running"):
            gateway.submit("m", inputs[0])
        gateway.close()

    def test_open_archive_source_is_rejected(self, archive_blob):
        from repro.store.archive import ModelArchive

        gateway = Gateway(replica_backend="process")
        with pytest.raises(ValidationError, match="re-shareable"):
            gateway.add_model("m", ModelArchive.from_bytes(archive_blob))
        gateway.close()

    def test_unknown_backend_is_rejected(self, archive_blob):
        with pytest.raises(ValidationError, match="unknown replica backend"):
            Gateway(replica_backend="greenlet")
        gateway = Gateway()
        with pytest.raises(ValidationError, match="unknown replica backend"):
            gateway.add_model("m", archive_blob, replica_backend="fiber")
        gateway.close()


class TestCrashContainment:
    def test_killed_worker_fails_only_its_inflight_requests(
        self, archive_blob, inputs, wait_until
    ):
        before = _repro_segments()
        gateway = Gateway(replica_backend="process")
        # Gated forward passes park the requests inside the workers, holding
        # a deterministic kill window open; round-robin splits them 2/2
        # across the replicas.
        factory = _GatedFactory()
        gateway.add_model(
            "m", archive_blob, replicas=2, policy="round-robin",
            network_factory=factory,
        )
        with gateway:
            servers = [r.server for r in gateway._models["m"].replicas]
            futures = [gateway.submit("m", x) for x in inputs[:4]]
            wait_until(
                lambda: all(s.inflight == 2 for s in servers),
                message="two requests parked on each replica",
            )
            victim_pid = servers[0].worker_pid
            os.kill(victim_pid, signal.SIGKILL)
            # With the gate shut, only the killed replica's requests settle.
            wait_until(
                lambda: sum(f.done() for f in futures) == 2,
                message="the killed replica's requests to fail",
            )
            factory.gate.release()

            survived, crashed = [], 0
            for future in futures:
                try:
                    survived.append(future.result(timeout=60))
                except ReplicaCrashed:
                    crashed += 1
            # Exactly the two requests parked on the killed replica fail;
            # the survivor's batch completes untouched.
            assert crashed == 2
            assert len(survived) == 2
            assert survived[0].shape == (32,)

            # The replica respawned against the still-live segment and
            # serves again — no re-decode, same shared weights.
            wait_until(
                lambda: servers[0].worker_pid not in (None, victim_pid),
                message="replica respawn",
            )
            retry = [gateway.submit("m", x) for x in inputs[4:8]]
            for future in retry:
                assert future.result(timeout=60).shape == (32,)

            stats = gateway.stats().models["m"]
            assert stats.failures == 2
            assert stats.completed == 6
        gateway.close()
        # A crashed-and-respawned run must still unlink everything.
        assert _repro_segments() == before

    def test_respawn_budget_exhaustion_marks_replica_dead(self, archive_blob):
        store = shared_weight_store()
        shared = store.acquire(archive_blob)
        # The shut gate parks the request in the worker until the kill.
        server = ProcessServer(
            "m/0", network_factory=_GatedFactory(), max_respawns=0
        )
        server.set_shared(shared)
        try:
            server.start()
            x = np.ones(_INPUT_DIM, dtype=np.float32)
            future = server.submit(x)
            os.kill(server.worker_pid, signal.SIGKILL)
            with pytest.raises(ReplicaCrashed, match="died"):
                future.result(timeout=60)
            # Budget spent (max_respawns=0): the replica stays down and
            # rejects new work instead of crash-looping.
            with pytest.raises(ReplicaCrashed, match="not respawning"):
                server.submit(x)
            assert server.inflight == 0
        finally:
            server.stop()
            store.release(shared)

    def test_worker_death_before_ready_raises_cleanly(self, archive_blob):
        from types import SimpleNamespace

        store = shared_weight_store()
        shared = store.acquire(archive_blob)
        # Point the worker at a nonexistent segment so reconstruction fails:
        # start() must surface the worker's error, not hang or EOFError.
        broken = dict(shared.manifest, segment="repro_does_not_exist")
        server = ProcessServer("m/0")
        server.set_shared(SimpleNamespace(manifest=broken))
        try:
            with pytest.raises(ValidationError, match="failed to start"):
                server.start()
        finally:
            server.stop()
            store.release(shared)


#: 256 requests of 16 KB against one process replica whose 8 KB response
#: rows fill the response pipe while the request pipe is still filling.
_PIPE_FULL_SCRIPT = textwrap.dedent(
    """
    import asyncio
    import sys

    import numpy as np

    from repro.cli import synthetic_sparse_layers
    from repro.core.encoder import DeepSZEncoder
    from repro.serve import AsyncGateway, Gateway
    from repro.store import archive_bytes

    REQUESTS = 256


    def main(front_door):
        layers = synthetic_sparse_layers(
            "fc6=2048x4096:0.02,fc7=2048x2048:0.02", seed=0
        )
        model = DeepSZEncoder().encode("pipe-full", layers, {n: 1e-3 for n in layers})
        blob = archive_bytes(model)
        x = np.ones(4096, dtype=np.float32)
        options = dict(
            replicas=1, replica_backend="process", batch_size=16,
            max_concurrency=32, max_queue_depth=REQUESTS,
        )
        if front_door == "sync":
            gateway = Gateway()
            gateway.add_model("m", blob, **options)
            with gateway:
                futures = [gateway.submit("m", x) for _ in range(REQUESTS)]
                rows = [future.result(timeout=60) for future in futures]
            gateway.close()
        else:
            async def run():
                gateway = AsyncGateway()
                gateway.add_model("m", blob, **options)
                async with gateway:
                    out = await asyncio.gather(
                        *[gateway.submit("m", x) for _ in range(REQUESTS)]
                    )
                await gateway.close()
                return out

            rows = asyncio.run(run())
        assert len(rows) == REQUESTS
        assert all(row.shape == (2048,) for row in rows)
        print("served", len(rows))


    if __name__ == "__main__":
        main(sys.argv[1])
    """
)


class TestPipeBackpressure:
    @pytest.mark.parametrize("front_door", ["sync", "async"])
    def test_full_response_pipe_does_not_wedge_dispatch(self, tmp_path, front_door):
        """Regression: a thread that sends requests while it is the only
        reader of the replica's responses used to block in the request-pipe
        send while the worker blocked writing responses.  The replica's
        receiver thread is such a thread under both front doors: settling a
        response batch runs each future's done-callback, which dispatches
        the next parked request onto the request pipe.  A subprocess with a
        hard timeout turns a wedge into a failure instead of a hung suite."""
        before = _repro_segments()
        script = tmp_path / "pipe_full.py"
        script.write_text(_PIPE_FULL_SCRIPT)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        try:
            done = subprocess.run(
                [sys.executable, str(script), front_door],
                capture_output=True, text=True, timeout=120, env=env,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"{front_door} front door wedged on a full pipe")
        assert done.returncode == 0, done.stderr
        assert "served 256" in done.stdout
        assert _repro_segments() == before
