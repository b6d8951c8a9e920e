"""Student-level personalization: user-based collaborative filtering,
blended performance prediction, and learning-gap detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bus import AgentName, TriggerKind
from .domain import Cohort, EventColumns, window_feature_rows
from .errors import ConfigError, InsufficientDataError, UnknownStudentError
from .institution import WINDOW_LEN, FeatureSnapshot
from .learners import BaggedTreeRegressor, fit_logistic
from .runtime import Action, Agent, Publisher, TickView

# -- interaction matrix and collaborative filtering ---------------------------


@dataclass(frozen=True)
class InteractionMatrix:
    """Sparse student x resource engagement scores; missing cells are unobserved.

    For similarity, unobserved cells count as 0; for scoring, they are
    excluded from the weighted-average denominator. A cell may hold 0.0
    and still be observed. Construction validates the cells and builds the
    dense arrays the CF kernel reads: scores, observed mask, row norms and
    the id ranks that break ties.

    A matrix from :meth:`from_counts` holds only the dense arrays. Its
    ``cells`` are built from them on first access: the observed pairs in
    row-major order, each valued at its dense score.
    """

    student_ids: tuple[str, ...]
    resource_ids: tuple[str, ...]
    cells: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        row_of, col_of = _id_indexes(self.student_ids, self.resource_ids)
        rows: list[int] = []
        cols: list[int] = []
        for (sid, rid), value in self.cells.items():
            if sid not in row_of or rid not in col_of:
                raise ValueError(f"cell ({sid!r}, {rid!r}) outside declared ids")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"cell ({sid!r}, {rid!r}) value {value!r} outside [0, 1]")
            rows.append(row_of[sid])
            cols.append(col_of[rid])
        shape = (len(self.student_ids), len(self.resource_ids))
        dense = np.zeros(shape)
        observed = np.zeros(shape, dtype=bool)
        dense[rows, cols] = list(self.cells.values())
        observed[rows, cols] = True
        self._set_arrays(row_of, dense, observed)

    def _set_arrays(self, row_of: dict[str, int], dense: np.ndarray, observed: np.ndarray) -> None:
        norms = np.linalg.norm(dense, axis=1)
        for name, value in (
            ("_twins", _duplicate_rows(dense)),
            ("_row_of", row_of),
            ("_dense", dense),
            ("_observed", observed),
            # Row norms, inf for a zero row: a similarity is the dot product
            # over two of these, so a zero row's similarities are 0.0.
            ("_divisors", np.where(norms == 0.0, np.inf, norms)),
            ("_sid_rank", _sort_ranks(self.student_ids)),
            ("_rid_rank", _sort_ranks(self.resource_ids)),
            ("_popularity_cache", None),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def from_cohort(cls, cohort: Cohort) -> "InteractionMatrix":
        """Cells are relative interaction frequency: per student, the count
        of events touching a resource divided by that student's maximum
        per-resource count, giving scores in (0, 1]."""
        student_ids, resource_ids = cohort.student_ids, cohort.resource_ids
        _id_indexes(student_ids, resource_ids)  # rejects duplicate ids
        counts = np.zeros((len(student_ids), len(resource_ids)), dtype=np.int64)
        _add_interactions(counts, cohort.event_columns)
        return cls.from_counts(counts, student_ids, resource_ids)

    @classmethod
    def from_counts(
        cls, counts: np.ndarray, student_ids: Sequence[str], resource_ids: Sequence[str]
    ) -> "InteractionMatrix":
        """Matrix of an (n_students, n_resources) integer count array.

        A cell is observed where its count is positive; its value is the
        count over the row's maximum count. Values lie in (0, 1] by
        construction. ``cells`` is built on first access.
        """
        student_ids, resource_ids = tuple(student_ids), tuple(resource_ids)
        row_of, _col_of = _id_indexes(student_ids, resource_ids)
        counts = np.asarray(counts)
        if counts.shape != (len(student_ids), len(resource_ids)):
            raise ValueError(
                f"count array shape {counts.shape} does not match "
                f"{len(student_ids)} students x {len(resource_ids)} resources"
            )
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        observed = counts > 0
        row_max = counts.max(axis=1, initial=0)
        dense = np.zeros(counts.shape)
        np.divide(counts, row_max[:, None], out=dense, where=observed)
        # Skip __post_init__: its per-cell checks hold by construction here.
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "student_ids", student_ids)
        object.__setattr__(matrix, "resource_ids", resource_ids)
        matrix._set_arrays(row_of, dense, observed)
        return matrix

    def __getattr__(self, name: str):
        # Only reached for attributes not set on the instance: build the
        # cells of a from_counts matrix once.
        if name != "cells":
            raise AttributeError(name)
        rows, cols = np.nonzero(self._observed)
        keys = zip(
            [self.student_ids[i] for i in rows.tolist()],
            [self.resource_ids[j] for j in cols.tolist()],
        )
        cells = dict(zip(keys, self._dense[rows, cols].tolist()))
        object.__setattr__(self, "cells", cells)
        return cells

    def observed(self, student_id: str) -> frozenset[str]:
        row = self._row_of.get(student_id)
        if row is None:
            return frozenset()
        return frozenset(self.resource_ids[j] for j in np.flatnonzero(self._observed[row]).tolist())

    def dense(self) -> np.ndarray:
        """Unobserved-as-zero dense array, students x resources."""
        return self._dense

    def _popularity(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean observed score, observed count) per resource, summed in row order."""
        if self._popularity_cache is None:
            counts = self._observed.sum(axis=0)
            sums = np.cumsum(self._dense, axis=0)[-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                means = sums / counts
            object.__setattr__(self, "_popularity_cache", (means, counts))
        return self._popularity_cache


def _id_indexes(
    student_ids: Sequence[str], resource_ids: Sequence[str]
) -> tuple[dict[str, int], dict[str, int]]:
    """(row of each student id, column of each resource id); duplicates are rejected."""
    indexes = []
    for ids, what in ((student_ids, "student"), (resource_ids, "resource")):
        index = {value: i for i, value in enumerate(ids)}
        if len(index) != len(ids):
            raise ValueError(f"duplicate {what} ids in interaction matrix")
        indexes.append(index)
    return indexes[0], indexes[1]


def _duplicate_rows(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows equal to an earlier row, the first row equal to each); -0.0 counts as 0.0."""
    n, m = dense.shape
    if m == 0:
        return np.arange(1, n), np.zeros(max(0, n - 1), dtype=np.intp)
    rows = np.ascontiguousarray(dense + 0.0)  # -0.0 + 0.0 is 0.0, so equal rows have equal bytes
    keys = rows.view(np.dtype((np.void, rows.itemsize * m))).ravel()
    _keys, first, group = np.unique(keys, return_index=True, return_inverse=True)
    firsts = first[group]
    twins = np.flatnonzero(firsts != np.arange(n))
    return twins, firsts[twins]


def _sort_ranks(ids: Sequence[str]) -> np.ndarray:
    """Rank of each id in string order, so ties break the same for any row order."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _add_interactions(counts: np.ndarray, events: EventColumns) -> None:
    """counts[student, resource] += 1 for every event that touches a resource.

    ``counts`` has one row per leading entry of ``events.student_ids`` and
    one column per leading entry of ``events.resource_ids``; an event
    outside them is a ValueError naming the id (students checked first).
    """
    touched = events.resource >= 0
    rows, cols = events.student[touched], events.resource[touched]
    for index, limit, ids in (
        (rows, counts.shape[0], events.student_ids),
        (cols, counts.shape[1], events.resource_ids),
    ):
        outside = np.flatnonzero(index >= limit)
        if outside.size:
            raise ValueError(f"interaction with {ids[index[outside[0]]]!r} outside declared ids")
    np.add.at(counts, (rows, cols), 1)


@dataclass(frozen=True)
class Recommendation:
    student_id: str
    items: tuple[tuple[str, float], ...]  # (resource_id, score), descending score

    @property
    def resource_ids(self) -> tuple[str, ...]:
        return tuple(rid for rid, _ in self.items)


#: Similarity cells one query block may hold: a block is
#: ``max(1, _BLOCK_CELLS // n_students)`` queries (64 at 1k students).
_BLOCK_CELLS = 2**16


def recommend_top_k(
    matrix: InteractionMatrix, student_ids: str | Sequence[str], k: int, neighborhood: int
) -> Recommendation | tuple[Recommendation, ...]:
    """User-based CF over cosine-similar peers, for one student or a sequence.

    One id returns its :class:`Recommendation`; a sequence of ids returns a
    tuple of them in input order (``()`` for an empty sequence). Every id
    is checked before any work: the first unknown one raises
    :class:`UnknownStudentError`.

    Peers are ranked by similarity (ties: student id ascending) and the top
    ``neighborhood`` with strictly positive similarity vote on the query
    student's unobserved resources: score = sum(sim * peer score) / sum(sim)
    over voting peers that observed the resource. Students with no positive
    peer fall back to global popularity (mean observed score per resource).
    Candidates are ranked by score descending, resource id ascending.

    Blocks: the queries run ``max(1, 2**16 // n_students)`` at a time (64
    at 1k students, 16 at 4k, 6 at 10k), so a block's similarity array
    holds about 2**16 floats; one id is a block of one. After the products,
    each step is one numpy operation over the whole block, and the peer
    arrays are at most ``min(neighborhood, n_students)`` wide.

    Exactness: each result equals a scalar loop over peers and candidates
    bit for bit, in any block. Each query's similarities come from its own
    matrix-vector product ``dense @ dense[i]`` (one ``gemv``), written into
    its block row; one matrix-matrix product for the block would round
    differently. Everything after the product is elementwise or per row,
    so no value depends on the other queries of the block. A zero row
    divides by an infinite norm, so its similarities are 0.0. An
    exact-duplicate row takes the similarity of the first row equal to it.
    The neighbour cut keeps every tie before the (-sim, student id) sort.
    Each score's sums add the peers' terms one at a time in peer order,
    with 0.0 for peers that did not observe the resource; a query with
    fewer peers than the block's widest adds -0.0 for each missing one,
    which leaves every sum unchanged. Popularity sums each resource's
    observed scores in student (row) order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if neighborhood < 1:
        raise ValueError(f"neighborhood must be >= 1, got {neighborhood}")
    single = isinstance(student_ids, str)
    ids = (student_ids,) if single else tuple(student_ids)
    rows = []
    for sid in ids:
        row = matrix._row_of.get(sid)
        if row is None:
            raise UnknownStudentError(f"student {sid!r} not in interaction matrix")
        rows.append(row)
    size = max(1, _BLOCK_CELLS // max(1, len(matrix.student_ids)))
    recommendations: list[Recommendation] = []
    for start in range(0, len(rows), size):
        block = slice(start, start + size)
        recommendations.extend(_recommend_block(matrix, ids[block], rows[block], k, neighborhood))
    return recommendations[0] if single else tuple(recommendations)


def _recommend_block(
    matrix: InteractionMatrix, ids: Sequence[str], rows: list[int], k: int, neighborhood: int
) -> list[Recommendation]:
    """The recommendations of one block of queries, ``rows[r]`` the row of ``ids[r]``."""
    peers, weights, counts = _neighbours(matrix, rows, neighborhood)
    # Per peer place, query and resource: sim * peer score and, where the
    # peer observed it, sim. Padding terms are -0.0, and x + -0.0 is x.
    places = peers.T
    terms = np.stack((matrix._dense[places], matrix._observed[places]), axis=2)
    terms *= weights.T[:, :, None, None]
    terms[np.arange(len(places))[:, None] >= counts] = -0.0
    sums = terms[0].copy()
    for place_terms in terms[1:]:
        sums += place_terms
    numerators, denominators = sums[:, 0], sums[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = numerators / denominators  # NaN where no peer observed the resource
    means, _counts = matrix._popularity()
    scores[counts == 0] = means  # NaN where no student observed it
    scores[matrix._observed[rows]] = np.nan
    ranks = matrix._rid_rank[None].repeat(len(rows), axis=0)
    order = np.lexsort((ranks, -scores))[:, :k]  # NaN sorts last
    top = scores[np.arange(len(rows))[:, None], order].tolist()
    resource_ids = matrix.resource_ids
    return [
        Recommendation(sid, tuple((resource_ids[j], v) for j, v in zip(cols, values) if v == v))
        for sid, cols, values in zip(ids, order.tolist(), top)
    ]


#: The least positive float: ``x >= max(cut, _LEAST_POSITIVE)`` is ``x > 0 and x >= cut``.
_LEAST_POSITIVE = np.finfo(float).smallest_subnormal


def _neighbours(
    matrix: InteractionMatrix, rows: Sequence[int], neighborhood: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(peer rows, their similarities, peer counts) for a block of query rows.

    The first ``counts[r]`` entries of row r are the top ``neighborhood``
    positive cosine similarities to row ``rows[r]``, by similarity
    descending then student id ascending; the entries after them are
    padding. The arrays are at least 1 wide.
    """
    dense, divisors = matrix._dense, matrix._divisors
    n_queries, n_students = len(rows), len(divisors)
    sims = np.empty((n_queries, n_students))
    for r, index in enumerate(rows):
        np.matmul(dense, dense[index], out=sims[r])
    sims /= divisors * divisors[rows][:, None]
    # The product can round identical rows differently by position; each
    # row takes the similarity of the first row equal to it, so exact
    # duplicates tie and break by student id.
    twins, firsts = matrix._twins
    sims[:, twins] = sims[:, firsts]
    queries = np.arange(n_queries)
    sims[queries, rows] = 0.0  # never a peer of itself
    width = min(neighborhood, n_students)
    cut = np.partition(sims, n_students - width, axis=1)[:, n_students - width]
    # Every positive similarity at or above the cut, ties included, in row-major order.
    flat = np.flatnonzero(sims >= np.maximum(cut, _LEAST_POSITIVE)[:, None])
    query, peer = np.divmod(flat, n_students)
    slot = np.arange(flat.size) - np.searchsorted(query, query)  # place in the query's run
    found = np.bincount(query, minlength=n_queries)
    shape = (n_queries, max(1, int(found.max())))
    # numpy orders complex numbers by real part, then imaginary part: by
    # (-sim, student id rank) here, with the 0j padding after every -sim < 0.
    keys, candidates = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=np.intp)
    keys[query, slot] = -sims.ravel()[flat] + 1j * matrix._sid_rank[peer]
    candidates[query, slot] = peer
    column = queries[:, None]
    peers = candidates[column, np.argsort(keys, axis=1)[:, :width]]
    weights = sims[column, peers]
    counts = np.minimum(found, width)
    return peers, weights, counts


# -- performance prediction ----------------------------------------------------


def holdout_split(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train rows, test rows) of a seeded permutation of range(n); each side keeps >= 1 row."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = min(n - 1, max(1, int(round(train_fraction * n))))
    return order[:n_train], order[n_train:]


def fit_predictors(
    cohort: Cohort,
    split: float = 0.7,
    seed: int = 0,
    *,
    window_len: int = 10,
    blend_weight: float = 0.5,
) -> float:
    """Held-out accuracy of a blend of a bagged-tree static model and a
    logistic temporal model, both fitted on a deterministic train split.

    The static model reads the students' static features, the temporal
    model their lag features (:func:`~auss.domain.window_feature_rows`)
    at the last event tick. The blended score, thresholded at 0.5, is
    scored against the binarized ability label (ability >= 0.5).
    """
    if not 0.0 < split < 1.0:
        raise ConfigError(f"train fraction must be in (0, 1), got {split}")
    if not 0.0 <= blend_weight <= 1.0:
        raise ConfigError(f"blend weight must be in [0, 1], got {blend_weight}")
    truth = cohort.ground_truth
    if truth is None or not truth.abilities:
        raise InsufficientDataError("cohort has no ground-truth performance labels")
    labeled = [i for i, s in enumerate(cohort.students) if s.student_id in truth.abilities]
    if len(labeled) < 10:
        raise InsufficientDataError(
            f"need at least 10 labeled students to fit predictors, got {len(labeled)}"
        )

    students = [cohort.students[i] for i in labeled]
    feature_names = sorted({name for s in students for name in s.static_features})
    x_static = np.array(
        [[float(s.static_features.get(name, 0.0)) for name in feature_names] for s in students]
    )
    lag_rows = window_feature_rows(
        cohort.event_columns, cohort.event_columns.last_tick(), window_len
    )
    x_lag = lag_rows[cohort.student_rows[labeled]]
    ability = np.array([truth.abilities[s.student_id] for s in students])
    binary = (ability >= 0.5).astype(float)
    train, test = holdout_split(len(labeled), split, seed)

    static_model = BaggedTreeRegressor(seed=seed).fit(x_static[train], ability[train])
    temporal_model = fit_logistic(x_lag[train], binary[train])
    static_pred = np.clip(static_model.predict(x_static[test]), 0.0, 1.0)
    temporal_pred = temporal_model.predict_proba(x_lag[test])
    blended = blend_weight * static_pred + (1.0 - blend_weight) * temporal_pred
    return float(np.mean((blended >= 0.5) == (binary[test] == 1.0)))


# -- learning-gap detection ------------------------------------------------------


@dataclass(frozen=True)
class GapSignal:
    kind: TriggerKind
    student_id: str
    value: float


#: Gap kinds by hit-mask column: disengagement before decline.
_GAP_KINDS = (TriggerKind.DISENGAGEMENT, TriggerKind.PERFORMANCE_DECLINE)


class GapDetector:
    """The two learning-gap rules over a tick's snapshot, with a per-(row, kind) cooldown.

    Disengagement: a non-empty engagement window whose mean is below
    ``engagement_threshold``. Performance decline: a windowed score slope
    below ``slope_threshold`` (the slope is 0.0 below two score points, so
    those never fire). A (student, kind) fires at most once per
    ``window_len`` ticks: the cooldown is an ``(n_students, 2)`` array of
    the last tick each row fired each kind, starting at ``-window_len`` so
    any tick >= 0 may fire first.
    """

    engagement_threshold = 0.33
    slope_threshold = -0.01

    def __init__(self, n_students: int, window_len: int = WINDOW_LEN):
        self.window_len = window_len
        self._last_fired = np.full((n_students, len(_GAP_KINDS)), -window_len, dtype=np.int64)

    def update_many(
        self,
        tick: int,
        rows: np.ndarray,
        student_ids: Sequence[str],
        snapshot: FeatureSnapshot,
    ) -> list[GapSignal]:
        """Both rules and the cooldown for the snapshot rows ``rows`` at once.

        ``rows`` are distinct cohort rows and ``student_ids`` the cohort's
        ids, one per row. Signals follow ``rows``, disengagement before
        decline within a row; the value is the window mean or the slope.
        """
        means = snapshot.engagement_mean[rows]
        slopes = snapshot.window_score_slope[rows]
        hits = np.column_stack(
            (
                (snapshot.engagement_fill[rows] > 0) & (means < self.engagement_threshold),
                slopes < self.slope_threshold,
            )
        )
        hits &= tick - self._last_fired[rows] >= self.window_len
        found, kinds = np.nonzero(hits)  # row-major: row order, then kind
        fired = rows[found]
        self._last_fired[fired, kinds] = tick
        values = np.column_stack((means, slopes))[found, kinds]
        return [
            GapSignal(_GAP_KINDS[kind], student_ids[row], value)
            for row, kind, value in zip(fired.tolist(), kinds.tolist(), values.tolist())
        ]


# -- the student agent -------------------------------------------------------------


class StudentAgent(Agent):
    """Watches per-student signals, raises gap triggers, serves recommendations."""

    name = AgentName.STUDENT
    subscriptions = frozenset(
        {TriggerKind.AT_RISK_FLAG, TriggerKind.INTERVENTION_REQUEST, TriggerKind.GRADE_POSTED}
    )

    top_k = 3
    neighborhood = 10

    def __init__(self, cohort: Cohort):
        self.cohort = cohort
        _id_indexes(cohort.student_ids, cohort.resource_ids)  # rejects duplicate ids
        self.detector = GapDetector(len(cohort.students))
        self._interaction_counts = np.zeros(
            (len(cohort.students), len(cohort.resources)), dtype=np.int64
        )
        self._last_recommended: dict[str, int] = {}

    def reason(self, percepts: dict) -> dict:
        view: TickView = percepts["view"]
        _add_interactions(
            self._interaction_counts,
            view.events.reindexed(self.cohort.student_ids, self.cohort.resource_ids),
        )
        gaps = self.detector.update_many(
            view.tick, view.active_rows, self.cohort.student_ids, view.snapshot
        )

        requests: list[str] = []
        for event in percepts["inbox"]:
            target = event.payload.get("student_id")
            if target is None:
                continue
            if event.kind is TriggerKind.AT_RISK_FLAG:
                requests.append(target)
            elif (
                event.kind is TriggerKind.INTERVENTION_REQUEST
                and event.payload.get("action") == "send_recommendation"
            ):
                requests.append(target)
        cooled_down = [
            last is None or view.tick - last >= self.detector.window_len
            for last in map(self._last_recommended.get, requests)
        ]
        # Cooled-down requests in first-occurrence order, once each.
        recommend = list(dict.fromkeys(sid for sid, ok in zip(requests, cooled_down) if ok))
        return {"tick": view.tick, "gaps": gaps, "recommend": recommend}

    def act(self, decisions: dict, publish: Publisher) -> list[Action]:
        """Publish the gap triggers, then the recommendations, each as one batch."""
        gaps = decisions["gaps"]
        payloads = [{"student_id": gap.student_id, "value": gap.value} for gap in gaps]
        publish.publish_many([gap.kind for gap in gaps], payloads)
        actions = [
            Action(kind=gap.kind.value, student_id=gap.student_id, detail=payload)
            for gap, payload in zip(gaps, payloads)
        ]
        requested = decisions["recommend"]
        if requested:
            matrix = InteractionMatrix.from_counts(
                self._interaction_counts, self.cohort.student_ids, self.cohort.resource_ids
            )
            recommendations = recommend_top_k(matrix, requested, self.top_k, self.neighborhood)
            self._last_recommended.update(dict.fromkeys(requested, decisions["tick"]))
            issued = [
                {"student_id": sid, "resource_ids": list(recommendation.resource_ids)}
                for sid, recommendation in zip(requested, recommendations)
                if recommendation.items
            ]
            publish.publish_many([TriggerKind.RECOMMENDATION_ISSUED] * len(issued), issued)
            actions += [
                Action(kind="recommend", student_id=payload["student_id"], detail=payload)
                for payload in issued
            ]
        return actions
