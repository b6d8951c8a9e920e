from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auss.errors import (
    ConfigError,
    InsufficientDataError,
    MetricInputError,
    UntrainedModelError,
)
from auss.learners import _GROUP_ROWS, BaggedTreeRegressor, fit_logistic, sigmoid
from oracles import DecisionTreeRegressor, recursive_forest_predict


class TestDecisionTree:
    """The recursive tree that the forest is held to."""

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_input_rejected(self, bad, where):
        x = np.arange(20.0).reshape(10, 2)
        y = np.arange(10.0)
        (x if where == "x" else y)[3] = bad
        with pytest.raises(MetricInputError, match="finite"):
            BaggedTreeRegressor(n_trees=2).fit(x, y)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricInputError, match="shapes"):
            BaggedTreeRegressor().fit(np.zeros((4, 2)), np.zeros(3))

    @pytest.mark.parametrize(
        "kwargs", [{"n_trees": 0}, {"max_depth": -1}, {"min_samples_leaf": 0}]
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BaggedTreeRegressor(**kwargs)


def _forest_case(n, n_features, x_kind, y_kind, seed):
    rng = np.random.default_rng(seed)
    if x_kind == "ties":
        x = rng.integers(0, 4, (n, n_features)).astype(float)
    elif x_kind == "adjacent":
        # neighbouring doubles: a midpoint threshold rounds onto one of them
        x = 1.0 + rng.integers(0, 4, (n, n_features)) * np.spacing(1.0)
    else:
        x = rng.normal(0.0, 1.0, (n, n_features)).round(2)
    if y_kind == "constant":
        y = np.full(n, 0.7)
    elif y_kind == "ties":
        # small integers make equal squared errors at different splits
        y = rng.integers(0, 3, n).astype(float)
    elif y_kind == "offset":
        # sums far from zero round at every step, so summation order shows
        y = 1e9 + rng.random(n)
    else:
        y = rng.random(n)
    return x, y


class TestForestMatchesRecursiveOracle:
    """The level-wise forest predicts what trees grown node by node predict, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 3),
        st.sampled_from(["ties", "adjacent", "continuous"]),
        st.sampled_from(["constant", "ties", "offset", "continuous"]),
        # Bootstrap sample sizes: 0.8 n, or a size at which a group holds
        # four trees, two trees, one tree at the row budget, or one past it.
        st.sampled_from(
            [None, _GROUP_ROWS // 4, _GROUP_ROWS // 3 + 1, _GROUP_ROWS, _GROUP_ROWS + 1]
        ),
        st.integers(0, 5),
        st.integers(1, 3),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    def test_predictions_equal_oracle(
        self, n, n_features, x_kind, y_kind, sample_size, max_depth, min_leaf, n_trees, seed
    ):
        x, y = _forest_case(n, n_features, x_kind, y_kind, seed)
        fraction = 0.8 if sample_size is None else sample_size / n
        probes = np.concatenate([x, x + 0.5, x - 0.005])
        params = dict(
            n_trees=n_trees,
            max_depth=max_depth,
            bootstrap_fraction=fraction,
            min_samples_leaf=min_leaf,
            seed=seed,
        )
        got = BaggedTreeRegressor(**params).fit(x, y).predict(probes)
        assert got.tobytes() == recursive_forest_predict(x, y, probes, **params).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_errors_split_at_the_first_threshold(self, seed):
        # Splitting a run 0, 1, 0 after either of its first two rows gives
        # the same squared error, so the trees meet ties at many nodes.
        x = np.arange(12.0)[:, None]
        y = np.tile([0.0, 1.0, 0.0], 4)
        params = dict(
            n_trees=30, max_depth=5, bootstrap_fraction=1.0, min_samples_leaf=1, seed=seed
        )
        got = BaggedTreeRegressor(**params).fit(x, y).predict(x)
        assert got.tobytes() == recursive_forest_predict(x, y, x, **params).tobytes()

    def test_midpoint_of_neighbouring_doubles_leaves_no_empty_leaf(self):
        # The midpoint of 1 + ulp and 1 + 2 ulp rounds onto 1 + 2 ulp, so a
        # midpoint threshold would send every row left and leave the right
        # leaf empty, with the NaN mean of no rows.
        ulp = np.spacing(1.0)
        x = np.array([1.0, 1.0, 1.0, 1.0 + ulp, 1.0 + ulp, 1.0 + 2 * ulp])[:, None]
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        params = dict(n_trees=3, max_depth=2, min_samples_leaf=1)
        probes = np.array([[2.0], *x])
        got = BaggedTreeRegressor(**params).fit(x, y).predict(probes)
        assert not np.isnan(got).any()
        assert got.tobytes() == recursive_forest_predict(
            x, y, probes, bootstrap_fraction=0.8, seed=0, **params
        ).tobytes()

    def test_seed_42_predictor_split_equals_oracle(self):
        rng = np.random.default_rng(42)
        x = np.column_stack([rng.integers(6, 30, 700).astype(float), rng.random(700) * 4.0])
        y = np.clip(x[:, 1] / 4.0 + rng.normal(0.0, 0.1, 700), 0.0, 1.0)
        params = dict(
            n_trees=25, max_depth=4, bootstrap_fraction=0.8, min_samples_leaf=2, seed=42
        )
        got = BaggedTreeRegressor(**params).fit(x, y).predict(x[:300])
        assert got.tobytes() == recursive_forest_predict(x, y, x[:300], **params).tobytes()


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
        with pytest.raises(MetricInputError):
            fit_logistic(np.zeros((4, 1)), np.array([0.0, 1.0, 2.0, 0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricInputError, match="shapes"):
            fit_logistic(np.zeros((4, 1)), np.array([0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.arange(8.0).reshape(4, 2)
        x[1, 1] = bad
        with pytest.raises(MetricInputError, match="finite"):
            fit_logistic(x, np.array([0.0, 1.0, 1.0, 0.0]))
        with pytest.raises(MetricInputError, match="finite"):
            fit_logistic(np.zeros((4, 1)), np.array([0.0, 1.0, bad, 0.0]))
