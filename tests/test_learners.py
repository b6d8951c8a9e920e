from __future__ import annotations

import math

import numpy as np
import pytest

from auss.errors import InsufficientDataError, UntrainedModelError
from auss.learners import (
    BaggedTreeRegressor,
    DecisionTreeRegressor,
    fit_logistic,
    sigmoid,
)


class TestDecisionTree:
    def test_learns_step_function(self):
        x = np.array([[0.0], [0.1], [0.2], [0.8], [0.9], [1.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        assert tree.predict_one([0.05]) == 0.0
        assert tree.predict_one([0.95]) == 1.0

    def test_depth_zero_predicts_mean(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        tree = DecisionTreeRegressor(max_depth=0).fit(x, y)
        assert tree.predict_one([0.3]) == pytest.approx(0.5)

    def test_refit_is_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.random((60, 3))
        y = rng.random(60)
        a = DecisionTreeRegressor(max_depth=4).fit(x, y).predict(x)
        b = DecisionTreeRegressor(max_depth=4).fit(x, y).predict(x)
        assert np.array_equal(a, b)

    def test_predict_before_fit_raises(self):
        with pytest.raises(UntrainedModelError):
            DecisionTreeRegressor().predict_one([0.0])


class TestBaggedTrees:
    def test_same_seed_same_model(self):
        rng = np.random.default_rng(1)
        x = rng.random((80, 2))
        y = (x[:, 0] > 0.5).astype(float)
        a = BaggedTreeRegressor(n_trees=10, seed=4).fit(x, y).predict(x)
        b = BaggedTreeRegressor(n_trees=10, seed=4).fit(x, y).predict(x)
        assert np.array_equal(a, b)

    def test_learns_smooth_signal_better_than_mean(self):
        rng = np.random.default_rng(2)
        x = rng.random((150, 2))
        y = np.clip(x[:, 0], 0, 1)
        model = BaggedTreeRegressor(n_trees=15, max_depth=4, seed=0).fit(x, y)
        pred = model.predict(x)
        mae_model = np.mean(np.abs(pred - y))
        mae_mean = np.mean(np.abs(y.mean() - y))
        assert mae_model < mae_mean

    def test_unfitted_predict_raises(self):
        with pytest.raises(UntrainedModelError):
            BaggedTreeRegressor().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(InsufficientDataError):
            BaggedTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))


class TestLogistic:
    def test_sigmoid_log_odds(self):
        assert sigmoid(math.log(9)) == pytest.approx(0.9, abs=1e-12)
        assert sigmoid(0.0) == 0.5

    def test_separates_linear_data(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (200, 2))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float)
        model = fit_logistic(x, y)
        accuracy = np.mean((model.predict_proba(x) >= 0.5) == (y == 1.0))
        assert accuracy >= 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, (100, 3))
        y = (x[:, 0] > 0).astype(float)
        a = fit_logistic(x, y)
        b = fit_logistic(x, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_single_class_rejected(self):
        x = np.zeros((20, 2))
        y = np.ones(20)
        with pytest.raises(InsufficientDataError):
            fit_logistic(x, y)

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic(np.zeros((4, 1)), np.array([0.0, 1.0, 2.0, 0.0]))
