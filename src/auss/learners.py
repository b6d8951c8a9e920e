"""From-scratch learners backing the prediction and risk models.

Kept deliberately small: variance-reduction regression trees with bagging
for static features, and batch-gradient-descent logistic regression for
temporal / risk scoring. Everything is deterministic given its seed, and
non-finite inputs are a :class:`~auss.errors.MetricInputError`.

The bagged trees are grown without a Python call per node's split. The
bootstrap samples are drawn tree by tree from one generator; the trees
then grow in groups of about ``_GROUP_ROWS`` sample rows, a level at a
time. Each feature is sorted once per group, ties in sample order, and a
stable sort on node ids groups every open node's rows of a level by that
feature, which equals a stable argsort of the node's own rows. The
squared-error scan, the first-minimum pick, the thresholds and the routing
of rows to the children then run over all nodes of the level at once.
Two sums stay one numpy call per node, because their rounding depends on
what is summed together: a node's total (and total of squares) is numpy's
pairwise sum of its targets in sample order, which padding or reordering
the rows would change, and its cumulative sums must restart at the node,
as a cumulative sum run across nodes would carry the earlier nodes'
rounding. So the forest equals, bit for bit, growing each tree
recursively (``tests/oracles.py`` keeps that recursive tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError, MetricInputError, UntrainedModelError


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _finite_inputs(x: np.ndarray, y: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) as float arrays; a shape mismatch or a non-finite entry is a MetricInputError."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise MetricInputError(f"{what}: bad shapes: x {x.shape}, y {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise MetricInputError(f"{what}: x and y must be finite")
    return x, y


# -- regression trees --------------------------------------------------------

#: Sample rows grown together: a group holds ``max(1, _GROUP_ROWS //
#: sample_size)`` trees, and prediction walks ``max(1, _GROUP_ROWS //
#: n_rows)`` trees at a time. A group's level arrays take about 200 bytes
#: a row, so they stay under 0.5 MB, small beside a run's peak RSS.
_GROUP_ROWS = 2**11


def _group_rows(labels: np.ndarray, n_labels: int) -> np.ndarray:
    """Stable argsort of node labels in -1..n_labels-1 (a radix sort while they fit 16 bits)."""
    return np.argsort(labels.astype(np.int16) if n_labels < 2**15 else labels, kind="stable")


def _node_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of each node's run of ``values``, a pairwise sum like ``values[run].sum()``."""
    stops = np.cumsum(counts).tolist()
    return np.array(
        [np.add.reduce(values[stop - count : stop]) for stop, count in zip(stops, counts.tolist())]
    )


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in the sorted array ``ids``."""
    return np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))


def _level_splits(
    x: np.ndarray,
    y: np.ndarray,
    presorted: np.ndarray,
    node_of_row: np.ndarray,
    counts: np.ndarray,
    totals: np.ndarray,
    total_sqs: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best split of each of a level's open nodes: (found, feature, threshold).

    ``node_of_row`` gives each row's open node (0..k-1), -1 for any other
    row; ``presorted[j]`` lists the rows by (tree, ``x[:, j]``, row). A
    node splits after a row whose feature value differs from the next one,
    with at least ``min_leaf`` rows on each side, where the children's
    total squared error is least: the first minimum per feature, and a
    later feature only when lower by more than 1e-12.
    """
    n_features = x.shape[1]
    starts = np.cumsum(counts) - counts
    order = np.empty((n_features, int(counts.sum())), dtype=np.intp)
    for j in range(n_features):
        rows = presorted[j][node_of_row[presorted[j]] >= 0]
        order[j] = rows[_group_rows(node_of_row[rows], len(counts))]
    # Per feature, the targets in its order and their squares, then each
    # node's cumulative sums of both, in place.
    cumulative = np.empty((2 * n_features, order.shape[1]))
    ys = np.take(y, order, out=cumulative[:n_features])
    np.multiply(ys, ys, out=cumulative[n_features:])
    for start, stop in zip(starts.tolist(), (starts + counts).tolist()):
        np.add.accumulate(cumulative[:, start:stop], axis=1, out=cumulative[:, start:stop])

    # Position p is the split after row p of the grouped order.
    node = np.repeat(np.arange(len(counts)), counts)[:-1]
    local = np.arange(len(node)) - starts[node]
    in_range = (local >= min_leaf - 1) & (local <= counts[node] - min_leaf - 1)
    found = np.zeros(len(counts), dtype=bool)
    best_sse = np.zeros(len(counts))
    feature = np.zeros(len(counts), dtype=np.intp)
    threshold = np.zeros(len(counts))
    for j in range(n_features):
        xs = x[order[j], j]
        positions = np.flatnonzero(in_range & (xs[:-1] != xs[1:]))
        if len(positions) == 0:
            continue
        at = node[positions]
        n_left = local[positions] + 1.0
        n_right = counts[at] - n_left
        left_sum = cumulative[j, positions]
        left_sq = cumulative[n_features + j, positions]
        sse = (left_sq - left_sum * left_sum / n_left) + (
            (total_sqs[at] - left_sq) - (totals[at] - left_sum) ** 2 / n_right
        )
        # Each node's first minimum, as argmin picks it: the first NaN (an
        # overflow) if there is one.
        runs = _run_starts(at)
        low = np.empty(len(counts))
        low[at[runs]] = np.minimum.reduceat(sse, runs)
        low = low[at]
        candidate = np.flatnonzero(np.where(np.isnan(low), np.isnan(sse), sse == low))
        first = candidate[_run_starts(at[candidate])]
        nodes, sse, pos = at[first], sse[first], positions[first]
        take = ~found[nodes] | (sse < best_sse[nodes] - 1e-12)
        nodes, pos = nodes[take], pos[take]
        found[nodes] = True
        best_sse[nodes] = sse[take]
        feature[nodes] = j
        # The midpoint, unless it rounds onto the upper value (neighbouring
        # doubles, or a sum past the float range): then the lower value, so
        # each child keeps the rows on its side of the split.
        lower, upper = xs[pos], xs[pos + 1]
        midpoint = (lower + upper) / 2.0
        threshold[nodes] = np.where(midpoint < upper, midpoint, lower)
    return found, feature, threshold


def _grow_group(
    x: np.ndarray, y: np.ndarray, n_trees: int, max_depth: int, min_leaf: int, base: int
) -> tuple[tuple[np.ndarray, ...], int]:
    """Grow ``n_trees`` trees, one on each equal consecutive run of ``(x, y)``'s rows.

    Returns the node columns (feature, threshold, left, right, value), with
    ids from ``base`` in level order and, within a level, in tree order, so
    the first ``n_trees`` nodes are the roots; and the depth grown. A leaf
    is its own left and right child.
    """
    n_rows, n_features = x.shape
    size = n_rows // n_trees
    by_tree = np.argsort(x.reshape(n_trees, size, n_features), axis=1, kind="stable")
    presorted = (by_tree + (np.arange(n_trees) * size)[:, None, None]).transpose(2, 0, 1)
    presorted = presorted.reshape(n_features, n_rows)
    node_of_row = np.repeat(np.arange(n_trees), size)
    columns: list[list[np.ndarray]] = [[], [], [], [], []]
    n_level, depth = n_trees, 0
    while True:
        ys = y[_group_rows(node_of_row, n_level)[np.count_nonzero(node_of_row < 0) :]]
        counts = np.bincount(node_of_row[node_of_row >= 0], minlength=n_level)
        totals = _node_sums(ys, counts)
        found = np.zeros(n_level, dtype=bool)
        feature = np.zeros(n_level, dtype=np.intp)
        threshold = np.zeros(n_level)
        if depth < max_depth:
            level_node = np.repeat(np.arange(n_level), counts)
            first = (np.cumsum(counts) - counts)[level_node]
            uneven = np.bincount(level_node, ys != ys[first], minlength=n_level)
            open_ = (counts >= 2 * min_leaf) & (uneven > 0)
            if open_.any():
                total_sqs = _node_sums((ys * ys)[open_[level_node]], counts[open_])
                open_id = np.where(open_, np.cumsum(open_) - 1, -1)
                found[open_], feature[open_], threshold[open_] = _level_splits(
                    x, y, presorted, np.where(node_of_row >= 0, open_id[node_of_row], -1),
                    counts[open_], totals[open_], total_sqs, min_leaf,
                )
        ids = base + np.arange(n_level)
        left = np.where(found, base + n_level + 2 * (np.cumsum(found) - 1), ids)
        columns[0].append(feature)
        columns[1].append(threshold)
        columns[2].append(left)
        columns[3].append(np.where(found, left + 1, ids))
        columns[4].append(totals / counts)
        if not found.any():
            return tuple(np.concatenate(column) for column in columns), depth
        split_rows = np.flatnonzero(node_of_row >= 0)
        split_rows = split_rows[found[node_of_row[split_rows]]]
        at = node_of_row[split_rows]
        right = ~(x[split_rows, feature[at]] <= threshold[at])
        node_of_row = np.full(n_rows, -1)
        node_of_row[split_rows] = left[at] - (base + n_level) + right
        base += n_level
        n_level = 2 * int(found.sum())
        depth += 1


class BaggedTreeRegressor:
    """Bootstrap-aggregated depth-limited regression trees; predictions are tree means.

    A tree node holds the mean of its rows. While it is shallower than
    ``max_depth``, holds at least ``2 * min_samples_leaf`` rows and not
    all-equal targets, it splits at the threshold that minimises the
    children's total squared error, ties to the lowest feature and then
    the lowest threshold; a row goes left when ``x[feature] <= threshold``.
    The threshold is the midpoint of the two values either side of the
    split, or the lower one where the midpoint rounds onto the upper, so
    no child is empty.
    """

    def __init__(
        self,
        n_trees: int = 25,
        max_depth: int = 4,
        bootstrap_fraction: float = 0.8,
        min_samples_leaf: int = 2,
        seed: int = 0,
    ):
        if n_trees < 1 or max_depth < 0 or min_samples_leaf < 1:
            raise ConfigError(
                "bagged trees need n_trees >= 1, max_depth >= 0 and min_samples_leaf >= 1, "
                f"got {n_trees}, {max_depth} and {min_samples_leaf}"
            )
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.bootstrap_fraction = bootstrap_fraction
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        # Node columns (feature, threshold, left, right, value) of the whole
        # forest, each tree's root, and the depth of the deepest tree.
        self._nodes: tuple[np.ndarray, ...] | None = None
        self._roots = np.zeros(0, dtype=np.intp)
        self._depth = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BaggedTreeRegressor":
        x, y = _finite_inputs(x, y, "bagged trees")
        if len(y) == 0:
            raise InsufficientDataError("cannot fit an ensemble on zero samples")
        rng = np.random.default_rng(self.seed)
        sample_size = max(1, int(round(self.bootstrap_fraction * len(y))))
        per_group = max(1, _GROUP_ROWS // sample_size)
        groups, roots, depth, n_nodes = [], [], 0, 0
        for first in range(0, self.n_trees, per_group):
            n_trees = min(per_group, self.n_trees - first)
            # one draw per tree, in tree order
            index = np.concatenate(
                [rng.integers(0, len(y), size=sample_size) for _ in range(n_trees)]
            )
            group, group_depth = _grow_group(
                x[index], y[index], n_trees, self.max_depth, self.min_samples_leaf, n_nodes
            )
            groups.append(group)
            roots.append(n_nodes + np.arange(n_trees))
            depth = max(depth, group_depth)
            n_nodes += len(group[0])
        self._nodes = tuple(np.concatenate(column) for column in zip(*groups))
        self._roots = np.concatenate(roots)
        self._depth = depth
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._nodes is None:
            raise UntrainedModelError("ensemble is not fitted; call fit first")
        x = np.asarray(x, dtype=float)
        feature, threshold, left, right, value = self._nodes
        rows = np.arange(len(x))
        acc = np.zeros(len(x))
        per_group = max(1, _GROUP_ROWS // max(1, len(x)))
        for first in range(0, len(self._roots), per_group):
            node = np.repeat(self._roots[first : first + per_group, None], len(x), axis=1)
            for _ in range(self._depth):
                node = np.where(x[rows, feature[node]] <= threshold[node], left[node], right[node])
            for tree_values in value[node]:
                acc += tree_values
        return acc / len(self._roots)


# -- logistic regression -----------------------------------------------------


@dataclass
class LogisticModel:
    """Fitted weights plus the standardization applied before them."""

    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """One probability per row of ``x``, each equal to ``predict_proba_one``'s bits.

        A plain ``z @ weights`` runs one matrix-vector kernel over all rows,
        which can round the last bit differently from a 1-row call; the
        stacked (k, 1, d) product takes one 1-row product per row instead.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = (x - self.feature_means) / self.feature_stds
        return np.asarray(sigmoid((z[:, None, :] @ self.weights)[:, 0] + self.bias))

    def predict_proba_one(self, row: Sequence[float]) -> float:
        return float(self.predict_proba(np.asarray(row, dtype=float).reshape(1, -1))[0])


#: ``fit_logistic``'s step size, number of steps and L2 weight.
_LEARNING_RATE = 0.5
_N_ITERATIONS = 500
_L2 = 1e-4


def fit_logistic(x: np.ndarray, y: np.ndarray) -> LogisticModel:
    """Batch gradient descent on cross-entropy with standardized features.

    Weights start at zero, so the fit is deterministic; a small L2 term
    keeps separable problems from running the weights off to infinity.
    """
    x, y = _finite_inputs(x, y, "logistic regression")
    if len(y) == 0:
        raise InsufficientDataError("cannot fit logistic regression on zero samples")
    # Plain comparisons: np.unique would import numpy.ma on every fit.
    if not np.all((y == 0.0) | (y == 1.0)):
        raise MetricInputError(f"labels must be binary 0/1, got {np.unique(y)}")
    if np.all(y == y[0]):
        raise InsufficientDataError("labels contain a single class; need both outcomes")

    means = x.mean(axis=0)
    stds = x.std(axis=0)
    stds[stds == 0.0] = 1.0
    xs = (x - means) / stds

    n = len(y)
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(_N_ITERATIONS):
        p = sigmoid(xs @ w + b)
        error = p - y
        grad_w = xs.T @ error / n + _L2 * w
        grad_b = float(error.mean())
        w -= _LEARNING_RATE * grad_w
        b -= _LEARNING_RATE * grad_b
    return LogisticModel(weights=w, bias=b, feature_means=means, feature_stds=stds)
