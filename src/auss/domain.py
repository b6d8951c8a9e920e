"""Core educational entities: students, engagement events, assessments,
resources, and the cohort container every agent consumes.

All types are immutable values after construction; time is a discrete
non-negative tick. Scores and event intensities live in [0, 1].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import starmap
from typing import Iterable, Mapping, Sequence

import numpy as np


class EventKind(str, Enum):
    LOGIN = "login"
    RESOURCE_VIEW = "resource_view"
    SUBMISSION = "submission"
    FORUM_POST = "forum_post"
    ABSENCE = "absence"

    @property
    def code(self) -> int:
        """Position in EventKind order: the kind column's value for this kind."""
        return _KIND_CODES[self]


_KINDS = tuple(EventKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}


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


@dataclass(frozen=True, slots=True)
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


_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


class EventColumnsBuilder:
    """Appends events into the lists an :class:`EventColumns` is built from.

    The id tables start with the given ids; an id they lack is appended
    the first time an event names it. A tick must be an integer in the
    64-bit range and a value a real number.
    """

    def __init__(self, student_ids: Sequence = (), resource_ids: Sequence = ()):
        self.student_ids = list(student_ids)
        self.resource_ids = list(resource_ids)
        self._student_row = {sid: i for i, sid in enumerate(self.student_ids)}
        self._resource_row = {rid: j for j, rid in enumerate(self.resource_ids)}
        self._resource_row[None] = -1  # an event that touches no resource
        self.student: list[int] = []
        self.tick: list[int] = []
        self.kind: list[int] = []
        self.value: list[float] = []
        self.resource: list[int] = []

    @staticmethod
    def _row(table: list, rows: dict, key: object) -> int:
        row = rows.get(key)
        if row is None:
            row = rows[key] = len(table)
            table.append(key)
        return row

    @classmethod
    def _rows(cls, table: list, rows: dict, keys: Sequence) -> list[int]:
        """``_row`` of each key in order, with one C-level lookup pass when every key is known."""
        found = list(map(rows.get, keys))
        if None in found:
            found = [cls._row(table, rows, key) for key in keys]
        return found

    def append(
        self, student_id: object, tick: int, kind_code: int, value: float, resource_id: object
    ) -> None:
        if not _INT64_MIN <= tick <= _INT64_MAX:
            raise ValueError(f"tick {tick} is outside the 64-bit integer range")
        self.student.append(self._row(self.student_ids, self._student_row, student_id))
        self.tick.append(tick)
        self.kind.append(kind_code)
        self.value.append(value)
        self.resource.append(self._row(self.resource_ids, self._resource_row, resource_id))

    def extend(
        self,
        student_ids: Sequence,
        ticks: Sequence[int],
        kind_codes: Sequence[int],
        values: Sequence[float],
        resource_ids: Sequence,
    ) -> None:
        """``append`` of many events, given as equal-length columns in stream order.

        Ids enter the tables in the order ``append`` would add them. A tick
        outside the 64-bit range is a ValueError, and then no event of the
        call is added.
        """
        if ticks and not (_INT64_MIN <= min(ticks) and max(ticks) <= _INT64_MAX):
            tick = next(t for t in ticks if not _INT64_MIN <= t <= _INT64_MAX)
            raise ValueError(f"tick {tick} is outside the 64-bit integer range")
        self.student.extend(self._rows(self.student_ids, self._student_row, student_ids))
        self.tick.extend(ticks)
        self.kind.extend(kind_codes)
        self.value.extend(values)
        self.resource.extend(self._rows(self.resource_ids, self._resource_row, resource_ids))

    def build(self) -> "EventColumns":
        return EventColumns(
            np.array(self.student, dtype=np.intp),
            np.array(self.tick, dtype=np.int64),
            np.array(self.kind, dtype=np.int8),
            np.array(self.value, dtype=float),
            np.array(self.resource, dtype=np.intp),
            tuple(self.student_ids),
            tuple(self.resource_ids),
        )


class EventColumns:
    """An engagement event stream as numpy columns, one entry per event.

    Columns, in stream order: ``student`` (index into ``student_ids``),
    ``tick``, ``kind`` (the :attr:`EventKind.code`), ``value`` and
    ``resource`` (index into ``resource_ids``, -1 for an event that
    touches no resource). A cohort's id tables start with its own student
    and resource ids in cohort order; an id an event names that the cohort
    lacks follows, in first-seen order, so validation can still name it.
    Duplicate ids in a table resolve to their last position.

    A stable by-tick order with per-tick offsets is built on first use:
    ``window`` and ``tick_slices`` hand out sub-streams that keep stream
    order, and for a stream already sorted by tick (every
    generated cohort) they are views, not copies.
    """

    __slots__ = (
        "student", "tick", "kind", "value", "resource", "student_ids", "resource_ids", "_by_tick"
    )

    def __init__(
        self,
        student: np.ndarray,
        tick: np.ndarray,
        kind: np.ndarray,
        value: np.ndarray,
        resource: np.ndarray,
        student_ids: tuple,
        resource_ids: tuple,
    ):
        self.student = student
        self.tick = tick
        self.kind = kind
        self.value = value
        self.resource = resource
        self.student_ids = student_ids
        self.resource_ids = resource_ids
        self._by_tick: tuple[np.ndarray | None, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_events(
        cls,
        events: Iterable[EngagementEvent],
        student_ids: Sequence = (),
        resource_ids: Sequence = (),
    ) -> "EventColumns":
        """Columns of EngagementEvent objects, with id tables that start with the given ids."""
        builder = EventColumnsBuilder(student_ids, resource_ids)
        for event in events:
            if not isinstance(event.value, (int, float)):
                raise TypeError(f"event value {event.value!r} is not a number")
            builder.append(
                event.student_id,
                operator.index(event.tick),
                EventKind(event.kind).code,
                event.value,
                event.resource_id,
            )
        return builder.build()

    def __len__(self) -> int:
        return len(self.tick)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.student, self.tick, self.kind, self.value, self.resource)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventColumns):
            return NotImplemented
        return (
            self.student_ids == other.student_ids
            and self.resource_ids == other.resource_ids
            and all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))
        )

    __hash__ = None  # type: ignore[assignment]

    def take(self, index: slice | np.ndarray) -> "EventColumns":
        """The events at ``index`` (a slice, positions or a mask), with the same id tables."""
        return EventColumns(
            *(column[index] for column in self._columns()), self.student_ids, self.resource_ids
        )

    def to_events(self) -> tuple[EngagementEvent, ...]:
        """The stream as EngagementEvent objects, in stream order."""
        students = [self.student_ids[i] for i in self.student.tolist()]
        kinds = [_KINDS[code] for code in self.kind.tolist()]
        resources = [None if j < 0 else self.resource_ids[j] for j in self.resource.tolist()]
        ticks, values = self.tick.tolist(), self.value.tolist()
        return tuple(map(EngagementEvent, students, ticks, kinds, values, resources))

    def reindexed(self, student_ids: Sequence, resource_ids: Sequence = ()) -> "EventColumns":
        """These events with id tables that start with the given ids (self when they already do)."""
        if (
            self.student_ids[: len(student_ids)] == tuple(student_ids)
            and self.resource_ids[: len(resource_ids)] == tuple(resource_ids)
        ):
            return self
        return EventColumns.from_events(self.to_events(), student_ids, resource_ids)

    def last_tick(self) -> int:
        """The largest tick, or 0 for an empty stream."""
        return int(self.tick.max()) if len(self.tick) else 0

    def _tick_index(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """(stable by-tick order or None for the identity, distinct ticks, offsets)."""
        if self._by_tick is None:
            tick = self.tick
            order = None
            if np.any(tick[1:] < tick[:-1]):
                order = np.argsort(tick, kind="stable")
                tick = tick[order]
            starts = np.flatnonzero(tick[1:] != tick[:-1]) + 1
            ticks = tick[np.concatenate(([0], starts))] if len(tick) else tick
            offsets = np.concatenate(([0], starts, [len(tick)]))
            self._by_tick = (order, ticks, offsets)
        return self._by_tick

    def ticks(self) -> np.ndarray:
        """The distinct ticks, ascending."""
        return self._tick_index()[1]

    def window(self, low: int, high: int) -> "EventColumns":
        """The events with low <= tick <= high, in stream order."""
        order, ticks, offsets = self._tick_index()
        first = offsets[np.searchsorted(ticks, low, side="left")]
        stop = offsets[np.searchsorted(ticks, high, side="right")]
        if order is None:
            return self.take(slice(first, stop))
        return self.take(np.sort(order[first:stop]))

    def tick_slices(self) -> dict[int, "EventColumns"]:
        """Each tick's events in stream order, by tick ascending.

        Within one tick the stable by-tick order already is stream order.
        """
        order, ticks, offsets = self._tick_index()
        spans = zip(ticks.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
        if order is None:
            return {tick: self.take(slice(first, stop)) for tick, first, stop in spans}
        return {tick: self.take(order[first:stop]) for tick, first, stop in spans}


@dataclass(eq=False, slots=True)
class AssessmentColumns:
    """A cohort's assessments as columns, one entry per record, in record order.

    ``student`` indexes ``student_ids``, a table built as for
    :class:`EventColumns`; ``score`` is 0.0 where ``ungraded``. Records
    given as objects or read from a file keep their item ids and responses
    in ``stored``. A generated cohort stores none: its item is
    ``exam-{tick:03d}`` and its response the score to 4 places, spelled
    only when a file is written or the records are read.
    """

    student: np.ndarray
    score: np.ndarray
    ungraded: np.ndarray
    student_ids: tuple
    tick: np.ndarray | None = None
    stored: tuple[Sequence[str], Sequence[str]] | None = None  # (item ids, responses)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple], student_ids: Sequence = ()) -> "AssessmentColumns":
        """Columns of (student id, item id, response, score or None) rows, with an id
        table that starts with the given ids. A score must be a number or None."""
        sids, items, responses, scores = list(zip(*rows)) or ((),) * 4
        bad = [s for s in scores if s is not None and not isinstance(s, (int, float))]
        if bad:
            raise TypeError(f"assessment score {bad[0]!r} is not a number")
        ids = EventColumnsBuilder(student_ids)
        return cls(
            np.array(ids._rows(ids.student_ids, ids._student_row, sids), dtype=np.intp),
            np.array([0.0 if s is None else s for s in scores], dtype=float),
            np.array([s is None for s in scores], dtype=bool),
            tuple(ids.student_ids),
            stored=(items, responses),
        )

    def __len__(self) -> int:
        return len(self.student)

    def rows(self) -> Iterable[tuple]:
        """(student id, item id, response, score or None) per record, in record order."""
        if self.stored is None:
            items = [f"exam-{t:03d}" for t in self.tick.tolist()]
            responses = [f"{s:.4f}" for s in self.score.tolist()]
        else:
            items, responses = self.stored
        students = [self.student_ids[i] for i in self.student.tolist()]
        scores = [None if u else s for s, u in zip(self.score.tolist(), self.ungraded.tolist())]
        return zip(students, items, responses, scores)

    def to_records(self) -> tuple[AssessmentRecord, ...]:
        return tuple(starmap(AssessmentRecord, self.rows()))

    def __eq__(self, other: object) -> bool:
        # Equal when the records are, however each side holds its strings.
        if not isinstance(other, AssessmentColumns):
            return NotImplemented
        return len(self) == len(other) and list(self.rows()) == list(other.rows())

    def reindexed(self, student_ids: Sequence) -> "AssessmentColumns":
        """These assessments with an id table that starts with the given ids (self when it does)."""
        if self.student_ids[: len(student_ids)] == tuple(student_ids):
            return self
        return AssessmentColumns.from_rows(self.rows(), student_ids)


@dataclass(frozen=True, eq=False)
class Cohort:
    """Container for one dataset: students plus their behavioral streams.

    ``events`` may be given as a sequence of :class:`EngagementEvent` or
    as :class:`EventColumns`; the cohort keeps only the columns, as
    ``event_columns``, with id tables that start with ``student_ids`` and
    ``resource_ids`` (the ids in cohort order). ``student_rows`` holds
    each student's row in those tables. ``assessments`` may likewise be
    records or :class:`AssessmentColumns`, kept as ``assessment_columns``
    with a student table that starts with ``student_ids``.
    ``cohort.events`` and ``cohort.assessments`` are tuple views of the
    columns, built on first access and cached; nothing in a run reads
    them.

    Order and exactness rules for everything that reads the columns:
    events keep stream order (for a generated cohort: tick-major, then
    student order, and within one student's tick the absence, or login,
    view, forum post and submission). Every per-student float sum adds
    values in stream order (``np.bincount`` and a sequential
    ``np.cumsum`` do), per-tick means enter a least-squares slope in
    ascending tick order, and a class-wide mean is summed in roster
    order. So every result equals the one-event-at-a-time loop it
    replaces bit for bit. Two cohorts are equal when their students,
    event columns, assessments, resources and ground truth are.
    """

    students: tuple[StudentRecord, ...]
    events: Sequence[EngagementEvent] | EventColumns = field(repr=False)
    # A default factory leaves no class attribute, so the view reaches __getattr__.
    assessments: Sequence[AssessmentRecord] | AssessmentColumns = field(default_factory=tuple)
    resources: tuple[LearningResource, ...] = ()
    ground_truth: GroundTruth | None = None

    def __post_init__(self) -> None:
        # Accept any sequence at construction, store as tuples.
        for name in ("students", "resources"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        student_ids = tuple(s.student_id for s in self.students)
        resource_ids = tuple(r.resource_id for r in self.resources)
        events = vars(self).pop("events")
        if isinstance(events, EventColumns):
            columns = events.reindexed(student_ids, resource_ids)
        else:
            columns = EventColumns.from_events(events, student_ids, resource_ids)
        assessments = vars(self).pop("assessments")
        if isinstance(assessments, AssessmentColumns):
            assessments = assessments.reindexed(student_ids)
        else:
            assessments = AssessmentColumns.from_rows(
                ((a.student_id, a.item_id, a.response, a.score) for a in assessments), student_ids
            )
        row_of = {sid: i for i, sid in enumerate(student_ids)}
        object.__setattr__(self, "student_ids", student_ids)
        object.__setattr__(self, "resource_ids", resource_ids)
        object.__setattr__(self, "event_columns", columns)
        object.__setattr__(self, "assessment_columns", assessments)
        object.__setattr__(
            self,
            "student_rows",
            np.fromiter((row_of[sid] for sid in student_ids), np.intp, len(student_ids)),
        )

    def __getattr__(self, name: str):
        # Only reached for attributes not set on the instance: build the
        # events or assessments view once.
        if name == "events":
            view = self.event_columns.to_events()
        elif name == "assessments":
            view = self.assessment_columns.to_records()
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, view)
        return view

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = ("students", "event_columns", "assessment_columns", "resources", "ground_truth")
        return all(getattr(self, name) == getattr(other, name) for name in names)

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Violation:
    """One broken invariant, naming the offending entity and the rule."""

    entity_id: str
    rule: str
    message: str


def _is_finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _flagged(flags: np.ndarray) -> list[tuple[int, int]]:
    """(row, rule column) of every set flag, row by row; a clean table skips ``nonzero``."""
    if not flags.any():
        return []
    return list(zip(*(axis.tolist() for axis in np.nonzero(flags))))


def _event_violations(cohort: Cohort) -> list[Violation]:
    """The event rules over the columns, event by event and in rule order per event."""
    events = cohort.event_columns
    student, tick, value = events.student, events.tick, events.value
    previous = np.zeros(len(events), dtype=np.int64)
    regress = np.zeros(len(events), dtype=bool)
    # The previous tick of the same student, in stream order; none goes back in
    # a stream in tick order, as every generated cohort is.
    if not (tick[1:] >= tick[:-1]).all():
        order = np.argsort(student, kind="stable")
        same_student = student[order][1:] == student[order][:-1]
        back = np.flatnonzero(same_student & (tick[order][1:] < tick[order][:-1]))
        previous[order[back + 1]] = tick[order][back]
        regress[order[back + 1]] = True
    flags = np.column_stack(
        [
            student >= len(cohort.students),
            events.resource >= len(cohort.resources),
            tick < 0,
            ~(np.isfinite(value) & (value >= 0.0) & (value <= 1.0)),
            regress,
        ]
    )
    violations = []
    for i, rule in _flagged(flags):
        sid = events.student_ids[student[i]]
        if rule == 0:
            violations.append(Violation(sid, "unknown_student", "event references unknown student"))
        elif rule == 1:
            violations.append(
                Violation(
                    events.resource_ids[events.resource[i]],
                    "unknown_resource",
                    "event references unknown resource",
                )
            )
        elif rule == 2:
            violations.append(Violation(sid, "event_tick_nonnegative", f"tick {tick[i]} < 0"))
        elif rule == 3:
            violations.append(
                Violation(sid, "event_value_range", f"value {float(value[i])!r} outside [0, 1]")
            )
        else:
            violations.append(
                Violation(
                    sid,
                    "event_tick_order",
                    f"tick {tick[i]} after tick {previous[i]} for the same student",
                )
            )
    return violations


def validate_cohort(cohort: Cohort) -> list[Violation]:
    """Check every cohort invariant; an empty list means the data is clean.

    Violations are data, not errors: callers decide whether to proceed.
    Events and assessments are checked with array predicates over their
    columns; their violations come record by record, in rule order within
    one record.
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()
    for student in cohort.students:
        if student.student_id in seen_ids:
            violations.append(
                Violation(student.student_id, "unique_student_id", "duplicate student id")
            )
        seen_ids.add(student.student_id)
        if student.enrollment_tick < 0:
            violations.append(
                Violation(
                    student.student_id,
                    "enrollment_tick_nonnegative",
                    f"enrollment_tick {student.enrollment_tick} < 0",
                )
            )
        for name, value in student.static_features.items():
            if not _is_finite(value):
                violations.append(
                    Violation(
                        student.student_id,
                        "finite_static_feature",
                        f"static feature {name!r} is not finite: {value!r}",
                    )
                )

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

    violations.extend(_event_violations(cohort))

    assessments = cohort.assessment_columns
    score = assessments.score
    flags = np.column_stack(
        [
            assessments.student >= len(cohort.students),
            ~assessments.ungraded & ~(np.isfinite(score) & (score >= 0.0) & (score <= 1.0)),
        ]
    )
    for i, rule in _flagged(flags):
        sid = assessments.student_ids[assessments.student[i]]
        if rule == 0:
            violations.append(
                Violation(sid, "unknown_student", "assessment references unknown student")
            )
        else:
            violations.append(
                Violation(
                    sid, "assessment_score_range", f"score {float(score[i])!r} outside [0, 1]"
                )
            )

    truth = cohort.ground_truth
    if truth is not None:
        all_resources = sorted(resource_ids)
        for student_id, ranking in truth.preference_rankings.items():
            if sorted(ranking) != all_resources:
                violations.append(
                    Violation(
                        student_id,
                        "ground_truth_ranking",
                        "preference ranking is not a permutation of the resources",
                    )
                )
    return violations


def series_mean_slope(
    count: np.ndarray,
    sum_y: np.ndarray,
    sum_x: np.ndarray,
    sum_xy: np.ndarray,
    sum_xx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean of y and least-squares slope of y on x, from arrays of running sums.

    Each entry is one series' ``(n, sum y, sum x, sum xy, sum xx)``, the
    points added in series order. The mean is ``sum_y / n``, 0 for an
    empty series. The slope is ``(n sum_xy - sum_x sum_y) / (n sum_xx -
    sum_x**2)``, 0 for fewer than two points or a zero denominator (as
    when every x is equal).
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


def row_sums(values: np.ndarray) -> np.ndarray:
    """Each row summed left to right, one column at a time, as ``sum(row)`` adds it."""
    total = np.zeros(values.shape[0])
    for column in values.T:
        total += column
    return total


#: Output layout of window_feature_rows: one (count, mean, slope) triple per kind.
FEATURE_WINDOW_LENGTH = 3 * len(EventKind)


def window_feature_rows(events: EventColumns, tick: int, window_len: int) -> np.ndarray:
    """Lag features over (tick - window_len, tick], one row per entry of ``events.student_ids``.

    Per event kind, in enum order: event count, mean event value, and the
    least-squares slope of per-tick mean values against tick. Ticks without
    events contribute nothing; an empty window yields all zeros.

    Exactness: each value sum runs in stream order (``np.bincount`` over
    the window's events), and each slope's running sums add the per-tick
    means in ascending tick order, so every entry equals the scalar
    per-student computation bit for bit.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be >= 1, got {window_len}")
    n_kinds = len(EventKind)
    size = len(events.student_ids) * n_kinds
    window = events.window(tick - window_len + 1, tick)
    group = window.student * n_kinds + window.kind
    count = np.bincount(group, minlength=size)
    total = np.bincount(group, weights=window.value, minlength=size)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(count > 0, total / np.maximum(count, 1), 0.0)

    # One point per (group, tick): lexsort is stable, so each point's events
    # stay in stream order and the points of a group in ascending tick order.
    order = np.lexsort((window.tick, group))
    group, point_tick = group[order], window.tick[order]
    new_point = np.ones(len(order), dtype=bool)
    new_point[1:] = (group[1:] != group[:-1]) | (point_tick[1:] != point_tick[:-1])
    point = np.cumsum(new_point) - 1
    point_sum = np.bincount(point, weights=window.value[order])
    point_count = np.bincount(point)
    y = point_sum / point_count
    x = point_tick[new_point].astype(float)
    point_group = group[new_point]
    _mean, slope = series_mean_slope(
        np.bincount(point_group, minlength=size),
        *(np.bincount(point_group, weights=w, minlength=size) for w in (y, x, x * y, x * x)),
    )
    rows = np.stack([count.astype(float), mean, slope], axis=1)
    return rows.reshape(len(events.student_ids), FEATURE_WINDOW_LENGTH)
