"""Archives whose index arrays are Huffman-coded, through every reader.

The ``huffman`` byte backend wins the best-fit index selection on the
larger layers of a ~10%-dense model; these tests check such an archive
decodes to the same bits through the full decoder, the lazy serving
runtime, and a decode in a spawned process, which also pickles the
registry's :class:`~repro.codecs.builtin.LosslessByteCodec`; and that a
process replica serves it.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.cli import synthetic_sparse_layers
from repro.codecs import get_codec
from repro.core.decoder import DeepSZDecoder
from repro.core.encoder import DeepSZEncoder
from repro.serve.gateway import Gateway
from repro.serve.runtime import ModelRuntime
from repro.store import archive_bytes

#: AlexNet fc6/fc7/fc8 at 0.15 scale, 10% dense: Huffman wins fc6 and fc7.
SPEC = "fc6=614x1382:0.1,fc7=614x614:0.1,fc8=150x614:0.1"


def _decode_in_worker(blob: bytes, codec, index_blob: bytes):
    """Spawned-process task: every layer's dense weights, and one index
    array decoded by a codec instance that crossed the process boundary."""
    weights = DeepSZDecoder().decode(blob).weights
    return weights, codec.decompress(index_blob)


@pytest.fixture(scope="module")
def huffman_archive():
    layers = synthetic_sparse_layers(SPEC, seed=1)
    model = DeepSZEncoder().encode("huffman-index", layers, {n: 1e-3 for n in layers})
    return model, archive_bytes(model)


def test_huffman_wins_the_large_indexes(huffman_archive):
    model, _ = huffman_archive
    backends = {name: layer.index_backend for name, layer in model.layers.items()}
    assert backends["fc6"] == backends["fc7"] == "huffman"


def test_every_reader_decodes_the_same_bits(huffman_archive):
    model, blob = huffman_archive
    want = DeepSZDecoder().decode(model).weights
    from_archive = DeepSZDecoder().decode(blob).weights
    runtime = ModelRuntime(blob)
    for name, weight in want.items():
        np.testing.assert_array_equal(from_archive[name], weight)
        np.testing.assert_array_equal(runtime.layer(name), weight)

    layer = model.layers["fc6"]
    codec = get_codec(layer.index_backend)
    assert pickle.loads(pickle.dumps(codec)).decompress(layer.index_payload) == (
        codec.decompress(layer.index_payload)
    )
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        weights, index = pool.submit(
            _decode_in_worker, blob, codec, layer.index_payload
        ).result(timeout=120)
    assert index == codec.decompress(layer.index_payload)
    for name, weight in want.items():
        np.testing.assert_array_equal(weights[name], weight)


def test_process_replica_serves_the_archive(huffman_archive):
    _, blob = huffman_archive
    inputs = np.random.default_rng(3).standard_normal((4, 1382)).astype(np.float32)
    outputs = {}
    for backend in ("thread", "process"):
        gateway = Gateway(replica_backend=backend)
        gateway.add_model("m", blob, replicas=1)
        with gateway:
            outputs[backend] = np.stack(
                [gateway.submit("m", x).result(timeout=60) for x in inputs]
            )
        gateway.close()
    np.testing.assert_allclose(outputs["process"], outputs["thread"], rtol=1e-5, atol=1e-7)
