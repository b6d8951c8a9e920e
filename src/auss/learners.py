"""From-scratch learners backing the prediction and risk models.

Kept deliberately small: variance-reduction regression trees with bagging
for static features, and batch-gradient-descent logistic regression for
temporal / risk scoring. Everything is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, UntrainedModelError


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


# -- regression trees --------------------------------------------------------


@dataclass
class TreeNode:
    """Internal node splits on feature <= threshold; leaves carry a value."""

    value: float
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _best_split(x: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[int, float] | None:
    """Scan every feature for the split minimizing total squared error.

    Ties resolve to the lowest feature index, then the lowest threshold,
    so refitting the same data always builds the same tree.
    """
    n = len(y)
    if n < 2 * min_leaf:
        return None
    best: tuple[float, int, float] | None = None
    total_sum = float(y.sum())
    total_sq = float((y * y).sum())
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        # candidate split after position i (left gets i+1 rows)
        positions = np.arange(min_leaf - 1, n - min_leaf)
        valid = xs[positions] != xs[positions + 1]
        positions = positions[valid]
        if len(positions) == 0:
            continue
        n_left = positions + 1.0
        n_right = n - n_left
        left_sum = csum[positions]
        left_sq = csq[positions]
        sse = (left_sq - left_sum * left_sum / n_left) + (
            (total_sq - left_sq) - (total_sum - left_sum) ** 2 / n_right
        )
        k = int(np.argmin(sse))  # first minimum: lowest threshold wins ties
        if best is None or sse[k] < best[0] - 1e-12:
            pos = positions[k]
            best = (float(sse[k]), j, float((xs[pos] + xs[pos + 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2]


def _grow(x: np.ndarray, y: np.ndarray, depth: int, max_depth: int, min_leaf: int) -> TreeNode:
    node = TreeNode(value=float(y.mean()))
    if depth >= max_depth or len(y) < 2 * min_leaf or np.all(y == y[0]):
        return node
    split = _best_split(x, y, min_leaf)
    if split is None:
        return node
    j, threshold = split
    mask = x[:, j] <= threshold
    node.feature = j
    node.threshold = threshold
    node.left = _grow(x[mask], y[mask], depth + 1, max_depth, min_leaf)
    node.right = _grow(x[~mask], y[~mask], depth + 1, max_depth, min_leaf)
    return node


class DecisionTreeRegressor:
    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 2):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.root: TreeNode | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(y) == 0:
            raise InsufficientDataError("cannot fit a tree on zero samples")
        self.root = _grow(x, y, 0, self.max_depth, self.min_samples_leaf)
        return self

    def predict_one(self, row: Sequence[float]) -> float:
        if self.root is None:
            raise UntrainedModelError("tree is not fitted; call fit first")
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([self.predict_one(row) for row in x])


class BaggedTreeRegressor:
    """Bootstrap-aggregated depth-limited trees; predictions are tree means."""

    def __init__(
        self,
        n_trees: int = 25,
        max_depth: int = 4,
        bootstrap_fraction: float = 0.8,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.bootstrap_fraction = bootstrap_fraction
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.trees: list[DecisionTreeRegressor] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BaggedTreeRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(y) == 0:
            raise InsufficientDataError("cannot fit an ensemble on zero samples")
        rng = np.random.default_rng(self.seed)
        sample_size = max(1, int(round(self.bootstrap_fraction * len(y))))
        self.trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, len(y), size=sample_size)
            tree = DecisionTreeRegressor(self.max_depth, self.min_samples_leaf)
            tree.fit(x[idx], y[idx])
            self.trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise UntrainedModelError("ensemble is not fitted; call fit first")
        x = np.asarray(x, dtype=float)
        acc = np.zeros(len(x))
        for tree in self.trees:
            acc += tree.predict(x)
        return acc / len(self.trees)


# -- logistic regression -----------------------------------------------------


@dataclass
class LogisticModel:
    """Fitted weights plus the standardization applied before them."""

    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = (x - self.feature_means) / self.feature_stds
        return np.asarray(sigmoid(z @ self.weights + self.bias))

    def predict_proba_one(self, row: Sequence[float]) -> float:
        return float(self.predict_proba(np.asarray(row, dtype=float).reshape(1, -1))[0])

    def predict_proba_rows(self, x: np.ndarray) -> np.ndarray:
        """predict_proba for a (k, d) matrix with each row equal to predict_proba_one's bits.

        A plain ``z @ weights`` runs one matrix-vector kernel over all rows,
        which can round the last bit differently from a 1-row call; the
        stacked (k, 1, d) product takes one 1-row product per row instead.
        """
        z = (np.asarray(x, dtype=float) - self.feature_means) / self.feature_stds
        return np.asarray(sigmoid((z[:, None, :] @ self.weights)[:, 0] + self.bias))


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    *,
    learning_rate: float = 0.5,
    n_iterations: int = 500,
    l2: float = 1e-4,
) -> LogisticModel:
    """Batch gradient descent on cross-entropy with standardized features.

    Weights start at zero, so the fit is deterministic; a small L2 term
    keeps separable problems from running the weights off to infinity.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError(f"bad shapes: x {x.shape}, y {y.shape}")
    if len(y) == 0:
        raise InsufficientDataError("cannot fit logistic regression on zero samples")
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValueError(f"labels must be binary 0/1, got {classes}")
    if len(classes) < 2:
        raise InsufficientDataError("labels contain a single class; need both outcomes")

    means = x.mean(axis=0)
    stds = x.std(axis=0)
    stds[stds == 0.0] = 1.0
    xs = (x - means) / stds

    n = len(y)
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(n_iterations):
        p = sigmoid(xs @ w + b)
        error = p - y
        grad_w = xs.T @ error / n + l2 * w
        grad_b = float(error.mean())
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    return LogisticModel(weights=w, bias=b, feature_means=means, feature_stds=stds)
