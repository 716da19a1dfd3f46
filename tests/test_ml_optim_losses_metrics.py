"""Optimizers, losses, metrics."""

import numpy as np
import pytest

from repro.ml import Adam, accuracy, confusion_matrix, f1_score, weighted_cross_entropy
from repro.ml.losses import class_weights_from_labels


class TestAdam:
    def test_converges_on_quadratic(self):
        opt = Adam(lr=0.1)
        params = {"w": np.array([5.0])}
        for _ in range(300):
            opt.step(params, {"w": 2 * params["w"]})
        assert abs(params["w"][0]) < 1e-2

    def test_first_step_is_lr_sized(self):
        opt = Adam(lr=0.01)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([123.0])})
        # bias correction makes the first step ≈ lr regardless of grad scale
        assert params["w"][0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_weight_decay(self):
        opt = Adam(lr=0.01, weight_decay=1.0)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([0.0])})
        assert params["w"][0] < 1.0

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            Adam(lr=0.0)


class TestClassWeights:
    def test_balanced(self):
        w = class_weights_from_labels(np.array([0, 0, 1, 1]))
        assert np.allclose(w, 1.0)

    def test_minority_upweighted(self):
        w = class_weights_from_labels(np.array([0, 1, 1, 1, 1, 1]))
        assert w[0] > w[1]

    def test_mean_one(self):
        w = class_weights_from_labels(np.array([0, 1, 1, 1]))
        assert w.mean() == pytest.approx(1.0)


class TestWeightedCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        probs = np.array([[0.999, 0.001], [0.001, 0.999]])
        loss, _ = weighted_cross_entropy(probs, np.array([0, 1]))
        assert loss < 0.01

    def test_gradient_points_toward_labels(self):
        probs = np.array([[0.5, 0.5]])
        _, dlog = weighted_cross_entropy(probs, np.array([1]))
        assert dlog[0, 1] < 0 < dlog[0, 0]

    def test_mask_excludes_rows(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9]])
        loss, dlog = weighted_cross_entropy(
            probs, np.array([0, 0]), mask=np.array([True, False])
        )
        assert np.all(dlog[1] == 0)
        assert loss == pytest.approx(-np.log(0.9))

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            weighted_cross_entropy(np.array([[0.5, 0.5]]), np.array([0]), mask=np.array([False]))

    def test_class_weight_scales_loss(self):
        probs = np.array([[0.5, 0.5]])
        l1, _ = weighted_cross_entropy(probs, np.array([0]), np.array([1.0, 1.0]))
        l2, _ = weighted_cross_entropy(probs, np.array([0]), np.array([2.0, 1.0]))
        assert l1 == pytest.approx(l2)  # single sample: normalization cancels


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_masked(self):
        a = accuracy(np.array([1, 0]), np.array([1, 1]), mask=np.array([True, False]))
        assert a == 1.0

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_confusion(self):
        cm = confusion_matrix(np.array([1, 0, 1]), np.array([1, 1, 0]))
        assert cm[1, 1] == 1 and cm[1, 0] == 1 and cm[0, 1] == 1

    def test_f1_perfect(self):
        assert f1_score(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0

    def test_f1_degenerate(self):
        assert f1_score(np.array([0, 0]), np.array([1, 1])) == 0.0
