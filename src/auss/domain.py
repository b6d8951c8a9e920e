"""Core educational entities: students, engagement events, assessments,
resources, and the cohort container every agent consumes.

All types are immutable values after construction; time is a discrete
non-negative tick. Scores and event intensities live in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import UnknownStudentError


class EventKind(str, Enum):
    LOGIN = "login"
    RESOURCE_VIEW = "resource_view"
    SUBMISSION = "submission"
    FORUM_POST = "forum_post"
    ABSENCE = "absence"


@dataclass(frozen=True)
class StudentRecord:
    """Static, per-learner profile (e.g. prior_gpa in [0,4], credits_attempted)."""

    student_id: str
    static_features: Mapping[str, float]
    enrollment_tick: int = 0


@dataclass(frozen=True)
class EngagementEvent:
    """One timestamped behavioral observation for a student.

    ``value`` records the student's engagement intensity in [0, 1] at the
    tick the event occurred, for every kind including absences (an absence
    is encoded by the event's presence, not its value).
    """

    student_id: str
    tick: int
    kind: EventKind
    value: float
    resource_id: str | None = None


@dataclass(frozen=True)
class AssessmentRecord:
    student_id: str
    item_id: str
    response: str
    score: float | None = None  # normalized to [0,1]; None means ungraded


@dataclass(frozen=True)
class LearningResource:
    resource_id: str
    topic_tag: str
    difficulty: float  # in [0,1]


@dataclass(frozen=True)
class GroundTruth:
    """Per-student latent labels attached to synthetic cohorts.

    ``dropout_ticks`` maps every student to the first tick with no events
    (None for students that never drop out).
    """

    abilities: Mapping[str, float]
    preference_rankings: Mapping[str, tuple[str, ...]]
    dropout_ticks: Mapping[str, int | None]

    def dropped(self, student_id: str) -> bool:
        return self.dropout_ticks.get(student_id) is not None

    @property
    def dropped_students(self) -> frozenset[str]:
        return frozenset(s for s, t in self.dropout_ticks.items() if t is not None)


@dataclass(frozen=True)
class Cohort:
    """Container for one dataset: students plus their behavioral streams."""

    students: tuple[StudentRecord, ...]
    events: tuple[EngagementEvent, ...]
    assessments: tuple[AssessmentRecord, ...] = ()
    resources: tuple[LearningResource, ...] = ()
    ground_truth: GroundTruth | None = None

    def __post_init__(self) -> None:
        # Accept any sequence at construction, store as tuples.
        for name in ("students", "events", "assessments", "resources"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    @property
    def student_ids(self) -> tuple[str, ...]:
        return tuple(s.student_id for s in self.students)

    @property
    def resource_ids(self) -> tuple[str, ...]:
        return tuple(r.resource_id for r in self.resources)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, naming the offending entity and the rule."""

    entity_id: str
    rule: str
    message: str


def _is_finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate_cohort(cohort: Cohort) -> list[Violation]:
    """Check every cohort invariant; an empty list means the data is clean.

    Violations are data, not errors: callers decide whether to proceed.
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()
    for student in cohort.students:
        if student.student_id in seen_ids:
            violations.append(
                Violation(student.student_id, "unique_student_id", "duplicate student id")
            )
        seen_ids.add(student.student_id)
        for name, value in student.static_features.items():
            if not _is_finite(value):
                violations.append(
                    Violation(
                        student.student_id,
                        "finite_static_feature",
                        f"static feature {name!r} is not finite: {value!r}",
                    )
                )

    student_ids = set(seen_ids)
    resource_ids = set()
    for resource in cohort.resources:
        resource_ids.add(resource.resource_id)
        if not (_is_finite(resource.difficulty) and 0.0 <= resource.difficulty <= 1.0):
            violations.append(
                Violation(
                    resource.resource_id,
                    "resource_difficulty_range",
                    f"difficulty {resource.difficulty!r} outside [0, 1]",
                )
            )

    last_tick: dict[str, int] = {}
    for event in cohort.events:
        if event.student_id not in student_ids:
            violations.append(
                Violation(event.student_id, "unknown_student", "event references unknown student")
            )
        if event.resource_id is not None and event.resource_id not in resource_ids:
            violations.append(
                Violation(
                    event.resource_id, "unknown_resource", "event references unknown resource"
                )
            )
        if event.tick < 0:
            violations.append(
                Violation(event.student_id, "event_tick_nonnegative", f"tick {event.tick} < 0")
            )
        if not (_is_finite(event.value) and 0.0 <= event.value <= 1.0):
            violations.append(
                Violation(
                    event.student_id,
                    "event_value_range",
                    f"value {event.value!r} outside [0, 1]",
                )
            )
        prev = last_tick.get(event.student_id)
        if prev is not None and event.tick < prev:
            violations.append(
                Violation(
                    event.student_id,
                    "event_tick_order",
                    f"tick {event.tick} after tick {prev} for the same student",
                )
            )
        last_tick[event.student_id] = event.tick

    for assessment in cohort.assessments:
        if assessment.student_id not in student_ids:
            violations.append(
                Violation(
                    assessment.student_id, "unknown_student", "assessment references unknown student"
                )
            )
        if assessment.score is not None and not (
            _is_finite(assessment.score) and 0.0 <= assessment.score <= 1.0
        ):
            violations.append(
                Violation(
                    assessment.student_id,
                    "assessment_score_range",
                    f"score {assessment.score!r} outside [0, 1]",
                )
            )

    truth = cohort.ground_truth
    if truth is not None:
        for student_id, ranking in truth.preference_rankings.items():
            if sorted(ranking) != sorted(resource_ids):
                violations.append(
                    Violation(
                        student_id,
                        "ground_truth_ranking",
                        "preference ranking is not a permutation of the resources",
                    )
                )
    return violations


class SeriesStats:
    """Running sums for a series of (x, y) points: mean of y plus least-squares slope."""

    __slots__ = ("n", "sum_y", "sum_x", "sum_xy", "sum_xx")

    def __init__(self) -> None:
        self.n = 0
        self.sum_y = 0.0
        self.sum_x = 0.0
        self.sum_xy = 0.0
        self.sum_xx = 0.0

    def add(self, x: float, y: float) -> None:
        self.n += 1
        self.sum_y += y
        self.sum_x += x
        self.sum_xy += x * y
        self.sum_xx += x * x

    @property
    def mean(self) -> float:
        return self.sum_y / self.n if self.n else 0.0

    @property
    def slope(self) -> float:
        """Fewer than two distinct x values yield 0 (insufficient-points convention)."""
        if self.n < 2:
            return 0.0
        denom = self.n * self.sum_xx - self.sum_x * self.sum_x
        if denom == 0.0:
            return 0.0
        return (self.n * self.sum_xy - self.sum_x * self.sum_y) / denom


def series_mean_slope(
    count: np.ndarray,
    sum_y: np.ndarray,
    sum_x: np.ndarray,
    sum_xy: np.ndarray,
    sum_xx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:attr:`SeriesStats.mean` and :attr:`SeriesStats.slope` over arrays of running sums.

    Element by element the same operations in the same order as the
    scalar properties, so each (mean, slope) equals theirs bit for bit.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(count > 0, sum_y / np.maximum(count, 1), 0.0)
        denom = count * sum_xx - sum_x * sum_x
        slope = np.where(
            (count >= 2) & (denom != 0.0),
            (count * sum_xy - sum_x * sum_y) / np.where(denom == 0.0, 1.0, denom),
            0.0,
        )
    return mean, slope


def least_squares_slope(points: Sequence[tuple[float, float]]) -> float:
    """Slope of the least-squares line through (x, y) points; see :attr:`SeriesStats.slope`."""
    stats = SeriesStats()
    for x, y in points:
        stats.add(x, y)
    return stats.slope


#: Output layout of feature_window: one (count, mean, slope) triple per kind.
FEATURE_WINDOW_LENGTH = 3 * len(EventKind)


def feature_window_labels() -> list[str]:
    labels = []
    for kind in EventKind:
        labels.extend([f"{kind.value}_count", f"{kind.value}_mean", f"{kind.value}_slope"])
    return labels


def window_features(
    events: Sequence[EngagementEvent], tick: int, window_len: int
) -> list[float]:
    """Lag features from one student's events over (tick - window_len, tick].

    Per event kind, in enum order: event count, mean event value, and the
    least-squares slope of per-tick mean values against tick. Ticks without
    events contribute nothing; an empty window yields all zeros.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be >= 1, got {window_len}")
    low = tick - window_len  # exclusive
    per_kind: dict[EventKind, list[EngagementEvent]] = {k: [] for k in EventKind}
    for event in events:
        if low < event.tick <= tick:
            per_kind[event.kind].append(event)

    features: list[float] = []
    for kind in EventKind:
        kind_events = per_kind[kind]
        count = float(len(kind_events))
        mean = sum(e.value for e in kind_events) / len(kind_events) if kind_events else 0.0
        by_tick: dict[int, list[float]] = {}
        for e in kind_events:
            by_tick.setdefault(e.tick, []).append(e.value)
        points = [(float(t), sum(vs) / len(vs)) for t, vs in sorted(by_tick.items())]
        features.extend([count, mean, least_squares_slope(points)])
    return features


def feature_window(
    cohort: Cohort, student_id: str, tick: int, window_len: int
) -> list[float]:
    """Lag features for one cohort student; see :func:`window_features`.

    Raises UnknownStudentError for ids outside the cohort, which signals an
    ingestion bug rather than an empty history (those yield zeros).
    """
    known = {s.student_id for s in cohort.students}
    if student_id not in known:
        raise UnknownStudentError(
            f"student {student_id!r} not in cohort (ingestion bug upstream?)"
        )
    own = [e for e in cohort.events if e.student_id == student_id]
    return window_features(own, tick, window_len)
