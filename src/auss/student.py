"""Student-level personalization: user-based collaborative filtering,
blended performance prediction, and learning-gap detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bus import AgentName, Event, TriggerKind
from .domain import (
    Cohort,
    StudentRecord,
    least_squares_slope,
    window_features,
)
from .errors import ConfigError, InsufficientDataError, UnknownStudentError, UntrainedModelError
from .learners import BaggedTreeRegressor, LogisticModel, fit_logistic
from .runtime import Action, Agent, Publisher, TickOutcome, TickView

# -- interaction matrix and collaborative filtering ---------------------------


@dataclass(frozen=True)
class InteractionMatrix:
    """Sparse student x resource engagement scores; missing cells are unobserved.

    For similarity, unobserved cells count as 0; for scoring, they are
    excluded from the weighted-average denominator.
    """

    student_ids: tuple[str, ...]
    resource_ids: tuple[str, ...]
    cells: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        if len(set(self.student_ids)) != len(self.student_ids):
            raise ValueError("duplicate student ids in interaction matrix")
        if len(set(self.resource_ids)) != len(self.resource_ids):
            raise ValueError("duplicate resource ids in interaction matrix")
        students = set(self.student_ids)
        resources = set(self.resource_ids)
        for (sid, rid), value in self.cells.items():
            if sid not in students or rid not in resources:
                raise ValueError(f"cell ({sid!r}, {rid!r}) outside declared ids")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"cell ({sid!r}, {rid!r}) value {value!r} outside [0, 1]")

    @classmethod
    def from_cohort(cls, cohort: Cohort) -> "InteractionMatrix":
        """Cells are relative interaction frequency: per student, the count
        of events touching a resource divided by that student's maximum
        per-resource count, giving scores in (0, 1]."""
        counts: dict[tuple[str, str], int] = {}
        for event in cohort.events:
            if event.resource_id is not None:
                key = (event.student_id, event.resource_id)
                counts[key] = counts.get(key, 0) + 1
        return cls.from_counts(counts, cohort.student_ids, cohort.resource_ids)

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[tuple[str, str], int],
        student_ids: Sequence[str],
        resource_ids: Sequence[str],
    ) -> "InteractionMatrix":
        max_per_student: dict[str, int] = {}
        for (sid, _rid), count in counts.items():
            max_per_student[sid] = max(max_per_student.get(sid, 0), count)
        cells = {
            (sid, rid): count / max_per_student[sid]
            for (sid, rid), count in counts.items()
            if count > 0
        }
        return cls(tuple(student_ids), tuple(resource_ids), cells)

    def observed(self, student_id: str) -> frozenset[str]:
        return self._index()[3].get(student_id, frozenset())

    def dense(self) -> np.ndarray:
        """Unobserved-as-zero dense array, students x resources."""
        return self._index()[0]

    def _index(self):
        """Cached (dense, norms, sid_rank, observed_by_student) structures.

        sid_rank ranks rows by student id string so similarity ties break
        identically no matter how the row order was given.
        """
        cached = getattr(self, "_index_cache", None)
        if cached is not None:
            return cached
        dense = np.zeros((len(self.student_ids), len(self.resource_ids)))
        row_index = {sid: i for i, sid in enumerate(self.student_ids)}
        col_index = {rid: j for j, rid in enumerate(self.resource_ids)}
        observed: dict[str, set[str]] = {}
        for (sid, rid), value in self.cells.items():
            dense[row_index[sid], col_index[rid]] = value
            observed.setdefault(sid, set()).add(rid)
        norms = np.linalg.norm(dense, axis=1)
        sid_rank = np.empty(len(self.student_ids), dtype=int)
        for rank, i in enumerate(sorted(range(len(self.student_ids)), key=lambda i: self.student_ids[i])):
            sid_rank[i] = rank
        frozen = {sid: frozenset(rids) for sid, rids in observed.items()}
        cached = (dense, norms, sid_rank, frozen)
        object.__setattr__(self, "_index_cache", cached)
        return cached


@dataclass(frozen=True)
class Recommendation:
    student_id: str
    items: tuple[tuple[str, float], ...]  # (resource_id, score), descending score

    @property
    def resource_ids(self) -> tuple[str, ...]:
        return tuple(rid for rid, _ in self.items)


def cosine_similarity(u: Sequence[float], v: Sequence[float]) -> float:
    """dot(u, v) / (|u| |v|); defined as 0 when either norm is zero."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"vector lengths differ: {u.shape} vs {v.shape}")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return float(np.dot(u, v) / (norm_u * norm_v))


def recommend_top_k(
    matrix: InteractionMatrix, student_id: str, k: int, neighborhood: int
) -> Recommendation:
    """User-based CF over cosine-similar peers.

    Peers are ranked by similarity (ties: student id ascending) and the top
    ``neighborhood`` with strictly positive similarity vote on the query
    student's unobserved resources: score = sum(sim * peer score) / sum(sim)
    over voting peers that observed the resource. Students with no positive
    peer fall back to global popularity (mean observed score per resource).
    Candidates are ranked by score descending, resource id ascending.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if neighborhood < 1:
        raise ValueError(f"neighborhood must be >= 1, got {neighborhood}")
    if student_id not in matrix.student_ids:
        raise UnknownStudentError(f"student {student_id!r} not in interaction matrix")

    dense, norms, sid_rank, observed_map = matrix._index()
    index = matrix.student_ids.index(student_id)
    query = dense[index]
    observed = observed_map.get(student_id, frozenset())
    candidates = [rid for rid in matrix.resource_ids if rid not in observed]
    if not candidates:
        return Recommendation(student_id, ())

    query_norm = float(norms[index])
    peers: list[tuple[float, str]] = []
    if query_norm > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = (dense @ query) / (norms * query_norm)
        sims[norms == 0.0] = 0.0
        sims[index] = 0.0  # never a peer of itself
        positive = np.flatnonzero(sims > 0.0)
        # rank peers by similarity descending, student id ascending
        order = positive[np.lexsort((sid_rank[positive], -sims[positive]))]
        peers = [(float(sims[i]), matrix.student_ids[i]) for i in order[:neighborhood]]

    scored: list[tuple[str, float]] = []
    if peers:
        for rid in candidates:
            numerator = 0.0
            denominator = 0.0
            for sim, sid in peers:
                value = matrix.cells.get((sid, rid))
                if value is not None:
                    numerator += sim * value
                    denominator += sim
            if denominator > 0.0:
                scored.append((rid, numerator / denominator))
    else:
        by_resource: dict[str, list[float]] = {}
        for (_sid, rid), value in matrix.cells.items():
            by_resource.setdefault(rid, []).append(value)
        for rid in candidates:
            values = by_resource.get(rid)
            if values:
                scored.append((rid, sum(values) / len(values)))

    scored.sort(key=lambda item: (-item[1], item[0]))
    return Recommendation(student_id, tuple(scored[:k]))


# -- performance prediction ----------------------------------------------------


@dataclass(frozen=True)
class PerformancePrediction:
    student_id: str
    predicted_score: float
    static_score: float
    temporal_score: float
    blend_weight: float


@dataclass
class PerformanceModel:
    """Blend of a bagged-tree static model and a logistic temporal model."""

    static_model: BaggedTreeRegressor
    temporal_model: LogisticModel
    blend_weight: float
    static_feature_names: tuple[str, ...]
    window_len: int

    def static_vector(self, record: StudentRecord) -> list[float]:
        return [float(record.static_features.get(name, 0.0)) for name in self.static_feature_names]

    def predict(self, record: StudentRecord, lag_features: Sequence[float]) -> PerformancePrediction:
        if not self.static_model.is_fitted:
            raise UntrainedModelError("performance model is not fitted; call fit_predictors first")
        static_score = float(np.clip(self.static_model.predict_one(self.static_vector(record)), 0.0, 1.0))
        temporal_score = float(self.temporal_model.predict_proba_one(lag_features))
        w = self.blend_weight
        blended = float(np.clip(w * static_score + (1.0 - w) * temporal_score, 0.0, 1.0))
        return PerformancePrediction(
            student_id=record.student_id,
            predicted_score=blended,
            static_score=static_score,
            temporal_score=temporal_score,
            blend_weight=w,
        )


def predict_performance(
    model: PerformanceModel | None, record: StudentRecord, lag_features: Sequence[float]
) -> PerformancePrediction:
    if model is None:
        raise UntrainedModelError("no performance model available; call fit_predictors first")
    return model.predict(record, lag_features)


def lag_feature_rows(cohort: Cohort, tick: int, window_len: int) -> dict[str, list[float]]:
    """Lag-feature vectors for every student, via one pass over the events."""
    per_student: dict[str, list] = {s.student_id: [] for s in cohort.students}
    for event in cohort.events:
        if event.student_id in per_student:
            per_student[event.student_id].append(event)
    return {
        sid: window_features(events, tick, window_len) for sid, events in per_student.items()
    }


def fit_predictors(
    cohort: Cohort,
    split: float = 0.7,
    seed: int = 0,
    *,
    window_len: int = 10,
    blend_weight: float = 0.5,
    n_trees: int = 25,
    max_depth: int = 4,
    bootstrap_fraction: float = 0.8,
) -> tuple[PerformanceModel, float]:
    """Fit both sub-models on a deterministic train split; report held-out
    accuracy of the blended score thresholded at 0.5 against the binarized
    ability label (ability >= 0.5).
    """
    if not 0.0 < split < 1.0:
        raise ConfigError(f"train fraction must be in (0, 1), got {split}")
    if not 0.0 <= blend_weight <= 1.0:
        raise ConfigError(f"blend weight must be in [0, 1], got {blend_weight}")
    truth = cohort.ground_truth
    if truth is None or not truth.abilities:
        raise InsufficientDataError("cohort has no ground-truth performance labels")
    labeled = [s for s in cohort.students if s.student_id in truth.abilities]
    if len(labeled) < 10:
        raise InsufficientDataError(
            f"need at least 10 labeled students to fit predictors, got {len(labeled)}"
        )

    feature_names = tuple(sorted({name for s in labeled for name in s.static_features}))
    last_tick = max((e.tick for e in cohort.events), default=0)
    lag_rows = lag_feature_rows(cohort, last_tick, window_len)

    x_static = np.array(
        [[float(s.static_features.get(name, 0.0)) for name in feature_names] for s in labeled]
    )
    x_lag = np.array([lag_rows[s.student_id] for s in labeled])
    ability = np.array([truth.abilities[s.student_id] for s in labeled])
    binary = (ability >= 0.5).astype(float)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labeled))
    n_train = min(len(labeled) - 1, max(1, int(round(split * len(labeled)))))
    train, test = order[:n_train], order[n_train:]

    static_model = BaggedTreeRegressor(
        n_trees=n_trees,
        max_depth=max_depth,
        bootstrap_fraction=bootstrap_fraction,
        seed=seed,
    ).fit(x_static[train], ability[train])
    temporal_model = fit_logistic(x_lag[train], binary[train])

    model = PerformanceModel(
        static_model=static_model,
        temporal_model=temporal_model,
        blend_weight=blend_weight,
        static_feature_names=feature_names,
        window_len=window_len,
    )

    static_pred = np.clip(static_model.predict(x_static[test]), 0.0, 1.0)
    temporal_pred = temporal_model.predict_proba(x_lag[test])
    blended = blend_weight * static_pred + (1.0 - blend_weight) * temporal_pred
    accuracy = float(np.mean((blended >= 0.5) == (binary[test] == 1.0)))
    return model, accuracy


# -- learning-gap detection ------------------------------------------------------


@dataclass(frozen=True)
class GapSignal:
    kind: TriggerKind
    student_id: str
    value: float


def detect_learning_gap(
    engagement_window: Sequence[float],
    score_points: Sequence[tuple[float, float]],
    *,
    engagement_threshold: float = 0.33,
    slope_threshold: float = -0.01,
) -> list[tuple[TriggerKind, float]]:
    """Pure check of the two gap rules on one student's windowed signals."""
    gaps: list[tuple[TriggerKind, float]] = []
    if engagement_window:
        mean = sum(engagement_window) / len(engagement_window)
        if mean < engagement_threshold:
            gaps.append((TriggerKind.DISENGAGEMENT, mean))
    if len(score_points) >= 2:
        slope = least_squares_slope(list(score_points))
        if slope < slope_threshold:
            gaps.append((TriggerKind.PERFORMANCE_DECLINE, slope))
    return gaps


class GapDetector:
    """Applies the gap rules with an at-most-once-per-window cooldown."""

    def __init__(self, window_len: int = 5, engagement_threshold: float = 0.33, slope_threshold: float = -0.01):
        self.window_len = window_len
        self.engagement_threshold = engagement_threshold
        self.slope_threshold = slope_threshold
        self._last_emitted: dict[tuple[str, TriggerKind], int] = {}

    def update(
        self,
        student_id: str,
        tick: int,
        engagement_window: Sequence[float],
        score_points: Sequence[tuple[float, float]],
    ) -> list[GapSignal]:
        signals = []
        for kind, value in detect_learning_gap(
            engagement_window,
            score_points,
            engagement_threshold=self.engagement_threshold,
            slope_threshold=self.slope_threshold,
        ):
            last = self._last_emitted.get((student_id, kind))
            if last is None or tick - last >= self.window_len:
                self._last_emitted[(student_id, kind)] = tick
                signals.append(GapSignal(kind=kind, student_id=student_id, value=value))
        return signals


# -- the student agent -------------------------------------------------------------


class StudentAgent(Agent):
    """Watches per-student signals, raises gap triggers, serves recommendations."""

    name = AgentName.STUDENT
    subscriptions = frozenset(
        {TriggerKind.AT_RISK_FLAG, TriggerKind.INTERVENTION_REQUEST, TriggerKind.GRADE_POSTED}
    )

    def __init__(self, cohort: Cohort, *, top_k: int = 3, neighborhood: int = 10):
        super().__init__()
        self.cohort = cohort
        self.top_k = top_k
        self.neighborhood = neighborhood
        self.detector: GapDetector | None = None
        self._interaction_counts: dict[tuple[str, str], int] = {}
        self._last_recommended: dict[str, int] = {}
        self.memory.data["gap_signals"] = 0
        self.memory.data["recommendations_issued"] = 0

    def perceive(self, view: TickView, inbox: Sequence[Event]) -> dict:
        return {"view": view, "inbox": tuple(inbox)}

    def reason(self, percepts: dict) -> dict:
        view: TickView = percepts["view"]
        tracker = view.tracker
        if self.detector is None:
            # Gap and recommendation cooldowns last one window of the tracker.
            self.detector = GapDetector(window_len=tracker.window_len)
        for event in view.events:
            if event.resource_id is not None:
                key = (event.student_id, event.resource_id)
                self._interaction_counts[key] = self._interaction_counts.get(key, 0) + 1

        gaps: list[GapSignal] = []
        for sid in sorted(view.active_students):
            gaps.extend(
                self.detector.update(
                    sid,
                    view.tick,
                    tracker.window_engagement_values(sid),
                    tracker.window_score_points(sid),
                )
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
        recommend: list[str] = []
        for sid in requests:
            last = self._last_recommended.get(sid)
            cooled_down = last is None or view.tick - last >= self.detector.window_len
            if cooled_down and sid not in recommend:
                recommend.append(sid)
        return {"tick": view.tick, "gaps": gaps, "recommend": recommend}

    def act(self, decisions: dict, publish: Publisher) -> list[Action]:
        actions: list[Action] = []
        for gap in decisions["gaps"]:
            payload = {"student_id": gap.student_id, "value": gap.value}
            publish.publish(gap.kind, payload)
            actions.append(Action(kind=gap.kind.value, student_id=gap.student_id, detail=payload))
        if decisions["recommend"]:
            matrix = InteractionMatrix.from_counts(
                self._interaction_counts, self.cohort.student_ids, self.cohort.resource_ids
            )
            for sid in decisions["recommend"]:
                recommendation = recommend_top_k(matrix, sid, self.top_k, self.neighborhood)
                self._last_recommended[sid] = decisions["tick"]
                if not recommendation.items:
                    continue
                payload = {
                    "student_id": sid,
                    "resource_ids": list(recommendation.resource_ids),
                }
                publish.publish(TriggerKind.RECOMMENDATION_ISSUED, payload)
                actions.append(Action(kind="recommend", student_id=sid, detail=payload))
        return actions

    def evaluate(self, outcome: TickOutcome) -> None:
        gaps = sum(1 for a in outcome.actions if a.kind != "recommend")
        recs = sum(1 for a in outcome.actions if a.kind == "recommend")
        self.memory.data["gap_signals"] += gaps
        self.memory.data["recommendations_issued"] += recs
