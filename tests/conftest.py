"""Shared fixtures for the test suite.

Expensive artifacts (synthetic datasets, trained networks, pruned networks)
are built once per session and shared; tests that mutate a network must use
``.clone()`` or the function-scoped copies provided here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.encoder import DeepSZEncoder
from repro.data import mnist_like, train_test_split
from repro.nn import SGDConfig, SGDTrainer, models
from repro.nn.specs import PAPER_PRUNING_RATIOS
from repro.pruning import PruningConfig, encode_sparse, prune_network, prune_weights


@pytest.fixture(scope="session", autouse=True)
def _private_cache_root(tmp_path_factory):
    """Point ``REPRO_CACHE`` at a fresh directory for the session, so the
    compiled Huffman kernel is built here and never lands in the user's
    cache (spawned workers inherit the variable)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE", str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def fresh_rng() -> np.random.Generator:
    return np.random.default_rng(999)


@pytest.fixture(scope="session")
def small_compressed_model():
    """A three-layer encoded model shared by the store / serve / CLI tests
    (session cached; treat as immutable)."""
    rng = np.random.default_rng(777)
    layers = {}
    for name, shape, density in [
        ("fc6", (96, 160), 0.10),
        ("fc7", (64, 96), 0.12),
        ("fc8", (32, 64), 0.25),
    ]:
        weights = (rng.standard_normal(shape) * 0.05).astype(np.float32)
        pruned, _ = prune_weights(weights, density)
        layers[name] = encode_sparse(pruned)
    return DeepSZEncoder().encode(
        "store-net", layers, {name: 1e-3 for name in layers}
    )


@pytest.fixture(scope="session")
def v1_crc_blob() -> bytes:
    """``small_compressed_model`` as a v1 monolithic model blob with
    per-payload CRC32s (``tests/golden/golden_model_v1_crc.bin``, kept
    because nothing writes v1 blobs any more)."""
    return (Path(__file__).resolve().parent / "golden" / "golden_model_v1_crc.bin").read_bytes()


@pytest.fixture(scope="session")
def small_dataset():
    """A small MNIST-like dataset split into train/test (session cached)."""
    ds = mnist_like(samples_per_class=120, seed=7)
    return train_test_split(ds, test_fraction=0.3, seed=8)


@pytest.fixture(scope="session")
def trained_lenet300(small_dataset):
    """A LeNet-300-100 trained on the small dataset (session cached)."""
    train, _ = small_dataset
    net = models.lenet_300_100(seed=21)
    trainer = SGDTrainer(SGDConfig(epochs=6, learning_rate=0.03, weight_decay=1e-3, seed=22))
    trainer.train(net, train.images, train.labels)
    return net


@pytest.fixture(scope="session")
def pruned_lenet300(trained_lenet300, small_dataset):
    """The trained LeNet-300-100 pruned at the paper's ratios (session cached)."""
    train, _ = small_dataset
    net = trained_lenet300.clone()
    config = PruningConfig(
        ratios=PAPER_PRUNING_RATIOS["LeNet-300-100"],
        retrain=True,
        retrain_config=SGDConfig(epochs=3, learning_rate=0.02, weight_decay=1e-4, seed=23),
    )
    return prune_network(net, config, train_images=train.images, train_labels=train.labels)


@pytest.fixture()
def lenet300_copy(trained_lenet300):
    """A mutable copy of the trained network for tests that modify weights."""
    return trained_lenet300.clone()


@pytest.fixture(scope="session")
def weight_array(rng) -> np.ndarray:
    """A trained-looking 1-D float32 weight array for codec tests."""
    core = rng.normal(0.0, 0.012, 50_000)
    shoulder = rng.normal(0.0, 0.045, 50_000)
    mix = rng.random(50_000) < 0.2
    return np.where(mix, shoulder, core).astype(np.float32)
