"""A small "model zoo": train-once, cache-on-disk models for the experiments.

Every benchmark and example needs the same artifacts — a synthetic dataset,
a trained network, and its pruned counterpart — and training the conv models
on a CPU takes a minute or two.  The zoo builds each artifact once and caches
the parameters under the cache root (:func:`repro.utils.cache.cache_root`:
``REPRO_CACHE``, default ``~/.cache/repro-deepsz``), keyed by the model name and the recipe
hash, so that re-running a benchmark re-uses the trained weights.

The recipes (dataset sizes, epochs, pruning ratios) are the reproduction's
equivalent of the paper's "well-trained Caffe models": they are chosen so
that every network reaches its accuracy plateau on the synthetic task and
survives pruning at the paper's per-layer ratios without accuracy loss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.data import Dataset, imagenet_like, mnist_like, train_test_split
from repro.nn import models
from repro.nn.network import Network
from repro.nn.serialize import load_network, save_network
from repro.nn.specs import PAPER_PRUNING_RATIOS
from repro.nn.train import SGDConfig, SGDTrainer
from repro.pruning import PrunedNetwork, PruningConfig, prune_network
from repro.utils.cache import cache_root
from repro.utils.errors import ValidationError

__all__ = ["ModelRecipe", "RECIPES", "load_dataset", "trained_model", "pruned_model"]


@dataclass(frozen=True)
class ModelRecipe:
    """Everything needed to reproduce one trained + pruned model."""

    model: str  #: builder name accepted by repro.nn.models.build_model
    dataset: str  #: "mnist-like" or "imagenet-like"
    samples_per_class: int
    num_classes: int
    epochs: int
    learning_rate: float
    weight_decay: float = 1e-3
    batch_size: int = 64
    retrain_epochs: int = 4
    retrain_learning_rate: float = 0.02
    pruning_ratios: Dict[str, float] = field(default_factory=dict)
    seed: int = 100

    def fingerprint(self) -> str:
        """Stable hash of the recipe (cache key component)."""
        blob = json.dumps(self.__dict__, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


#: Recipes for the paper's four networks (mini variants for the conv nets).
RECIPES: Dict[str, ModelRecipe] = {
    "lenet-300-100": ModelRecipe(
        model="lenet-300-100",
        dataset="mnist-like",
        samples_per_class=300,
        num_classes=10,
        epochs=8,
        learning_rate=0.03,
        pruning_ratios=dict(PAPER_PRUNING_RATIOS["LeNet-300-100"]),
        seed=101,
    ),
    "lenet-5": ModelRecipe(
        model="lenet-5",
        dataset="mnist-like",
        samples_per_class=300,
        num_classes=10,
        epochs=5,
        learning_rate=0.03,
        retrain_epochs=3,
        pruning_ratios=dict(PAPER_PRUNING_RATIOS["LeNet-5"]),
        seed=102,
    ),
    "alexnet-mini": ModelRecipe(
        model="alexnet-mini",
        dataset="imagenet-like",
        samples_per_class=150,
        num_classes=15,
        epochs=9,
        learning_rate=0.04,
        batch_size=96,
        retrain_epochs=3,
        pruning_ratios=dict(PAPER_PRUNING_RATIOS["AlexNet"]),
        seed=103,
    ),
    "vgg-16-mini": ModelRecipe(
        model="vgg-16-mini",
        dataset="imagenet-like",
        samples_per_class=150,
        num_classes=15,
        epochs=11,
        learning_rate=0.045,
        batch_size=96,
        retrain_epochs=4,
        pruning_ratios=dict(PAPER_PRUNING_RATIOS["VGG-16"]),
        seed=104,
    ),
}

#: Map from zoo model names to the paper network whose role they play.
PAPER_NAME: Dict[str, str] = {
    "lenet-300-100": "LeNet-300-100",
    "lenet-5": "LeNet-5",
    "alexnet-mini": "AlexNet",
    "vgg-16-mini": "VGG-16",
}


def get_recipe(name: str) -> ModelRecipe:
    try:
        return RECIPES[name]
    except KeyError:
        raise ValidationError(f"unknown zoo model {name!r}; available: {sorted(RECIPES)}") from None


def load_dataset(recipe: ModelRecipe) -> Tuple[Dataset, Dataset]:
    """Build the recipe's dataset and split it into train / test parts."""
    if recipe.dataset == "mnist-like":
        ds = mnist_like(
            samples_per_class=recipe.samples_per_class,
            num_classes=recipe.num_classes,
            seed=recipe.seed,
        )
    elif recipe.dataset == "imagenet-like":
        ds = imagenet_like(
            samples_per_class=recipe.samples_per_class,
            num_classes=recipe.num_classes,
            seed=recipe.seed,
        )
    else:
        raise ValidationError(f"unknown dataset {recipe.dataset!r}")
    return train_test_split(ds, test_fraction=0.3, seed=recipe.seed + 1)


def _build(recipe: ModelRecipe) -> Network:
    return models.build_model(recipe.model, num_classes=recipe.num_classes, seed=recipe.seed + 2)


def trained_model(name: str, *, use_cache: bool = True) -> Tuple[Network, Dataset, Dataset]:
    """A trained network plus its train/test datasets (cached on disk)."""
    recipe = get_recipe(name)
    train, test = load_dataset(recipe)
    network = _build(recipe)
    path = cache_root() / f"{name}-{recipe.fingerprint()}-trained.bin"
    if use_cache and path.exists():
        load_network(path, network)
        return network, train, test
    trainer = SGDTrainer(
        SGDConfig(
            epochs=recipe.epochs,
            learning_rate=recipe.learning_rate,
            weight_decay=recipe.weight_decay,
            batch_size=recipe.batch_size,
            seed=recipe.seed + 3,
        )
    )
    trainer.train(network, train.images, train.labels)
    if use_cache:
        save_network(network, path)
    return network, train, test


def pruned_model(name: str, *, use_cache: bool = True) -> Tuple[PrunedNetwork, Dataset, Dataset]:
    """A trained-then-pruned network (masked-retrained), cached on disk."""
    recipe = get_recipe(name)
    network, train, test = trained_model(name, use_cache=use_cache)
    path = cache_root() / f"{name}-{recipe.fingerprint()}-pruned.bin"
    config = PruningConfig(
        ratios=recipe.pruning_ratios,
        retrain=True,
        retrain_config=SGDConfig(
            epochs=recipe.retrain_epochs,
            learning_rate=recipe.retrain_learning_rate,
            weight_decay=1e-4,
            batch_size=recipe.batch_size,
            seed=recipe.seed + 4,
        ),
    )
    if use_cache and path.exists():
        load_network(path, network)
        # The cached weights are already pruned; rebuild the masks and sparse
        # encodings from the stored zero pattern instead of re-thresholding.
        from repro.pruning.sparse_format import encode_sparse

        masks = {
            layer: network.get_weights(layer) != 0 for layer in recipe.pruning_ratios
        }
        sparse = {layer: encode_sparse(network.get_weights(layer)) for layer in recipe.pruning_ratios}
        pruned = PrunedNetwork(network=network, masks=masks, sparse_layers=sparse)
        return pruned, train, test
    pruned = prune_network(
        network, config, train_images=train.images, train_labels=train.labels
    )
    if use_cache:
        save_network(network, path)
    return pruned, train, test
