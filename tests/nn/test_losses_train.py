"""Tests for the loss function and the SGD trainer (incl. masked retraining)."""

import numpy as np
import pytest

from repro.nn import Dense, Flatten, Network, ReLU, SGDConfig, SGDTrainer, Softmax
from repro.nn.losses import softmax_cross_entropy
from repro.utils.errors import TrainingError, ValidationError


def make_blobs(n=200, dim=8, classes=3, seed=0):
    """A trivially separable classification problem."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, size=(classes, dim))
    labels = rng.integers(0, classes, n)
    x = centers[labels] + rng.normal(0, 0.5, size=(n, dim))
    return x.astype(np.float32).reshape(n, 1, 1, dim), labels


def blob_net(dim=8, classes=3, seed=0):
    return Network(
        [
            Flatten("flatten"),
            Dense("fc1", dim, 16, rng=seed),
            ReLU("r"),
            Dense("fc2", 16, classes, rng=seed + 1),
            Softmax("prob"),
        ],
        name="blob-net",
    )


class TestSoftmaxCrossEntropy:
    def test_loss_of_perfect_prediction_is_small(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-4

    def test_loss_of_uniform_prediction(self):
        logits = np.zeros((4, 10))
        loss, _ = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_gradient_matches_numerical(self, fresh_rng):
        logits = fresh_rng.normal(size=(5, 4))
        labels = fresh_rng.integers(0, 4, 5)
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-5
        num = np.zeros_like(logits)
        for i in range(5):
            for j in range(4):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                num[i, j] = (
                    softmax_cross_entropy(lp, labels)[0] - softmax_cross_entropy(lm, labels)[0]
                ) / (2 * eps)
        assert np.allclose(grad, num, atol=1e-5)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ValidationError):
            softmax_cross_entropy(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValidationError):
            softmax_cross_entropy(np.zeros((2, 2)), np.array([0, 5]))


class TestSGDConfig:
    def test_invalid_hyperparameters(self):
        with pytest.raises(ValidationError):
            SGDConfig(learning_rate=0)
        with pytest.raises(ValidationError):
            SGDConfig(momentum=1.0)
        with pytest.raises(ValidationError):
            SGDConfig(batch_size=0)
        with pytest.raises(ValidationError):
            SGDConfig(lr_decay=0)


class TestSGDTrainer:
    def test_learns_separable_problem(self):
        x, y = make_blobs(seed=1)
        net = blob_net(seed=2)
        result = SGDTrainer(SGDConfig(epochs=15, learning_rate=0.1, seed=3)).train(net, x, y)
        assert result.losses[-1] < result.losses[0]
        assert net.accuracy(x, y) > 0.95

    def test_records_validation_accuracy(self):
        x, y = make_blobs(seed=1)
        net = blob_net(seed=2)
        result = SGDTrainer(SGDConfig(epochs=3, learning_rate=0.1, seed=3)).train(
            net, x, y, x_val=x[:50], labels_val=y[:50]
        )
        assert len(result.val_accuracies) == 3
        assert 0.0 <= result.final_val_accuracy <= 1.0

    def test_empty_dataset_raises(self):
        net = blob_net()
        with pytest.raises(ValidationError):
            SGDTrainer().train(net, np.zeros((0, 1, 1, 8), dtype=np.float32), np.zeros(0, dtype=int))

    def test_mismatched_lengths_raise(self):
        net = blob_net()
        x, y = make_blobs(n=10)
        with pytest.raises(ValidationError):
            SGDTrainer().train(net, x, y[:5])

    def test_divergence_detected(self):
        x, y = make_blobs(seed=1)
        net = blob_net(seed=2)
        # A learning rate this large overflows the forward pass on purpose
        # (numpy warns of the overflow and of the NaNs that follow).
        with pytest.warns(RuntimeWarning):
            with pytest.raises(TrainingError):
                SGDTrainer(SGDConfig(epochs=5, learning_rate=1e4, seed=3)).train(net, x, y)

    def test_masked_training_keeps_pruned_weights_zero(self):
        x, y = make_blobs(seed=4)
        net = blob_net(seed=5)
        rng = np.random.default_rng(6)
        mask = rng.random(net.get_weights("fc1").shape) < 0.3
        net.set_weights("fc1", net.get_weights("fc1") * mask)
        SGDTrainer(SGDConfig(epochs=4, learning_rate=0.1, seed=7)).train(
            net, x, y, masks={"fc1": mask}
        )
        w = net.get_weights("fc1")
        assert not w[~mask].any()
        assert w[mask].any()

    def test_mask_shape_validated(self):
        x, y = make_blobs()
        net = blob_net()
        with pytest.raises(ValidationError):
            SGDTrainer().train(net, x, y, masks={"fc1": np.ones((2, 2), dtype=bool)})

    def test_deterministic_given_seed(self):
        x, y = make_blobs(seed=8)
        net_a, net_b = blob_net(seed=9), blob_net(seed=9)
        cfg = SGDConfig(epochs=3, learning_rate=0.05, seed=10)
        SGDTrainer(cfg).train(net_a, x, y)
        SGDTrainer(cfg).train(net_b, x, y)
        assert np.array_equal(net_a.get_weights("fc2"), net_b.get_weights("fc2"))
