"""Institution-level intelligence: aggregate features, dropout-risk scoring,
precision/recall/F1 evaluation, and per-agent load accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bus import AgentName, TriggerKind
from .domain import Cohort, EventColumns, EventKind, row_sums, series_mean_slope
from .errors import (
    InsufficientDataError,
    MetricInputError,
    TranscriptError,
    UnknownStudentError,
)
from .learners import LogisticModel, fit_logistic
from .runtime import Action, Agent, Publisher, SimulationTranscript, TickView

#: Canonical ordering of the aggregate feature vector.
FEATURE_ORDER = (
    "mean_engagement",
    "engagement_slope",
    "mean_score",
    "score_slope",
    "absence_rate",
    "credits_attempted",
)

#: Ticks in each rolling window of a run: the tracker's engagement and
#: score windows, and the student agent's gap and recommendation cooldowns.
WINDOW_LEN = 5


@dataclass(frozen=True)
class LoadReport:
    """Events processed per agent, as counts and fractional shares."""

    counts: Mapping[str, int]
    shares: Mapping[str, float]


# -- streaming per-student statistics -----------------------------------------


class _SeriesColumns:
    """Running sums (n, sum y, sum x, sum xy, sum xx) of one (x, y) series per student.

    One array per sum; :func:`~auss.domain.series_mean_slope` reads them.
    """

    def __init__(self, n: int):
        self.count = np.zeros(n, dtype=np.int64)
        self.sum_y = np.zeros(n)
        self.sum_x = np.zeros(n)
        self.sum_xy = np.zeros(n)
        self.sum_xx = np.zeros(n)

    def add(self, rows: np.ndarray, x: float, y: np.ndarray) -> None:
        """Add the point (x, y[i]) to student rows[i]'s series; rows are distinct."""
        self.count[rows] += 1
        self.sum_y[rows] += y
        self.sum_x[rows] += x
        self.sum_xy[rows] += x * y
        self.sum_xx[rows] += x * x

    def mean_slope(self) -> tuple[np.ndarray, np.ndarray]:
        return series_mean_slope(self.count, self.sum_y, self.sum_x, self.sum_xy, self.sum_xx)


class _Windows:
    """Rolling windows of the last ``width`` values per student, right-aligned."""

    def __init__(self, n: int, width: int):
        self.window = np.zeros((n, width))
        self.fill = np.zeros(n, dtype=np.int64)

    def push(self, rows: np.ndarray, values: np.ndarray | float) -> None:
        """Append values[i] to student rows[i]'s window, dropping its oldest when full."""
        width = self.window.shape[1]
        if width == 0:
            return
        self.window[rows, :-1] = self.window[rows, 1:]
        self.window[rows, -1] = values
        self.fill[rows] = np.minimum(self.fill[rows] + 1, width)


#: Sentinel for "no event yet" in the last-event-tick column.
_NO_EVENT = np.iinfo(np.int64).min


@dataclass(frozen=True)
class FeatureSnapshot:
    """Every student's signals at one tick, one row per student in cohort order.

    - ``features``: the FEATURE_ORDER rows of ``FeatureTracker.feature_matrix``.
    - ``risk``: ``monitor.predict_proba_one`` of each ``features`` row, bit
      for bit.
    - ``engagement_mean``: each engagement window's ``sum(window) /
      len(window)`` over its filled columns, 0.0 for an empty window.
    - ``engagement_fill``: how many per-tick engagement means each window
      holds, at most ``window_len``.
    - ``window_score_slope``: the least-squares slope of each score window's
      (tick, score) points, :func:`~auss.domain.series_mean_slope` of their
      running sums added oldest first; 0.0 below two points. It equals that
      scalar fit over the window's points bit for bit, and unlike the
      cumulative ``score_slope`` feature it forgets points that left the
      window.

    Each row is computed on its own, so a reader that takes a subset of the
    rows gets the floats a computation over that subset alone would give.
    """

    features: np.ndarray
    risk: np.ndarray
    engagement_mean: np.ndarray
    engagement_fill: np.ndarray
    window_score_slope: np.ndarray

    def signals(self, row: int) -> tuple[float, float, float]:
        """(windowed engagement mean, cumulative score slope, monitor risk) of one row."""
        slope = self.features[row, FEATURE_ORDER.index("score_slope")]
        return float(self.engagement_mean[row]), float(slope), float(self.risk[row])


class FeatureTracker:
    """Incremental per-student aggregates fed one tick of events at a time.

    Engagement and score series are per-tick means; slopes are cumulative
    least-squares fits against tick. The aggregates are numpy columns in
    ``cohort.students`` order: the running sums of both series, absence
    ticks, last event tick, enrollment tick and credits. ``ingest`` updates
    them in one vectorised pass per tick, and ``feature_matrix`` reads
    every student in one call. A short rolling window of per-tick
    engagement means and score points backs reactive monitoring (policy
    state, learning-gap detection).

    The windows are right-aligned ``(n, window_len)`` arrays plus a fill
    count per student: the newest value sits in the last column and the
    unfilled columns on the left hold 0.0. A left-to-right sum over a
    padded row therefore equals ``sum()`` of its filled columns bit for
    bit (0.0 + 0.0 stays 0.0, and 0.0 + v is v), which is what lets
    ``policy_signals`` reduce every student's windows at once. The
    snapshot carries the reduced windows; the layout stays in this module.

    A simulation run has one tracker. Per tick the scheduler ingests the
    tick's events, then puts one ``policy_signals`` snapshot and the
    tick's ``active_rows`` on the TickView, and every reader indexes those
    by row; ``id_order`` (the rows sorted by student id) is their common
    tie-break order. Ingesting a student outside the cohort raises
    UnknownStudentError.
    """

    def __init__(self, cohort: Cohort, window_len: int = WINDOW_LEN):
        self.monitor = monitor_model()
        self._ids = cohort.student_ids
        n = len(cohort.students)
        self.id_order = np.array(sorted(range(n), key=self._ids.__getitem__), dtype=np.intp)
        self._enrollment = np.array([s.enrollment_tick for s in cohort.students], dtype=np.int64)
        self._credits = np.array(
            [float(s.static_features.get("credits_attempted", 0.0)) for s in cohort.students]
        )
        self._engagement = _SeriesColumns(n)
        self._scores = _SeriesColumns(n)
        self._absence_ticks = np.zeros(n, dtype=np.int64)
        self._last_event_tick = np.full(n, _NO_EVENT, dtype=np.int64)
        self._window_engagement = _Windows(n, window_len)
        self._window_score_ticks = _Windows(n, window_len)
        self._window_scores = _Windows(n, window_len)

    def ingest(self, tick: int, events: EventColumns) -> None:
        """Fold one tick's events, a tick slice of the cohort's event columns, in."""
        if not len(events):
            return
        events = events.reindexed(self._ids)
        rows = events.student
        unknown = np.flatnonzero(rows >= len(self._ids))
        if unknown.size:
            sid = events.student_ids[rows[unknown[0]]]
            raise UnknownStudentError(f"student {sid!r} is not in the cohort")
        values = events.value
        absent = events.kind == EventKind.ABSENCE.code
        submission = events.kind == EventKind.SUBMISSION.code

        self._last_event_tick[rows] = np.maximum(self._last_event_tick[rows], tick)
        # A row mask: np.unique would import numpy.ma on the first ingest.
        absentees = np.zeros(len(self._ids), dtype=bool)
        absentees[rows[absent]] = True
        self._absence_ticks[absentees] += 1
        x = float(tick)
        engaged, engagement_means = self._tick_means(rows[~absent], values[~absent])
        self._engagement.add(engaged, x, engagement_means)
        scored, score_means = self._tick_means(rows[submission], values[submission])
        self._scores.add(scored, x, score_means)

        self._window_engagement.push(engaged, engagement_means)
        self._window_score_ticks.push(scored, x)
        self._window_scores.push(scored, score_means)

    def _tick_means(self, rows: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(students with values, their mean value); bincount sums in event order."""
        n = len(self._ids)
        counts = np.bincount(rows, minlength=n)
        sums = np.bincount(rows, weights=values, minlength=n)
        hit = np.flatnonzero(counts)
        return hit, sums[hit] / counts[hit]

    def active_rows(self, events: EventColumns) -> np.ndarray:
        """The rows of the students with an event in ``events``, in student-id order."""
        active = np.zeros(len(self._ids), dtype=bool)
        active[events.reindexed(self._ids).student] = True
        return self.id_order[active[self.id_order]]

    def feature_matrix(self) -> np.ndarray:
        """One FEATURE_ORDER row per student, in cohort order."""
        mean_engagement, engagement_slope = self._engagement.mean_slope()
        mean_score, score_slope = self._scores.mean_slope()
        last = self._last_event_tick
        seen = last != _NO_EVENT
        enrollment = self._enrollment
        elapsed = np.maximum(1, np.where(seen, last, enrollment) - enrollment + 1)
        absence_rate = np.where(seen, np.minimum(1.0, self._absence_ticks / elapsed), 0.0)
        return np.column_stack(
            [
                mean_engagement,
                engagement_slope,
                mean_score,
                score_slope,
                absence_rate,
                self._credits,
            ]
        )

    def policy_signals(self) -> FeatureSnapshot:
        """The snapshot of every student's features, monitor risk and window signals."""
        features = self.feature_matrix()
        engagement, scores = self._window_engagement, self._window_scores
        fill = engagement.fill.copy()
        filled = fill > 0
        engagement_mean = np.zeros(len(fill))
        engagement_mean[filled] = row_sums(engagement.window)[filled] / fill[filled]
        ticks, values = self._window_score_ticks.window, scores.window
        _mean, score_slope = series_mean_slope(
            scores.fill,
            row_sums(values),
            row_sums(ticks),
            row_sums(ticks * values),
            row_sums(ticks * ticks),
        )
        risk = self.monitor.predict_proba(features)
        return FeatureSnapshot(features, risk, engagement_mean, fill, score_slope)


def aggregate_features(cohort: Cohort, tick: int) -> np.ndarray:
    """Batch aggregates over every event with event.tick <= tick.

    One FEATURE_ORDER row per student, in cohort.students order. Equivalent
    to feeding a FeatureTracker tick by tick and reading features at ``tick``.
    """
    tracker = FeatureTracker(cohort, window_len=1)
    for t, events in cohort.event_columns.tick_slices().items():
        if t > tick:
            break
        tracker.ingest(t, events)
    return tracker.feature_matrix()


# -- risk model ---------------------------------------------------------------

#: Fixed-weight logistic monitor used for in-run flagging before any model
#: is fitted; weights follow FEATURE_ORDER on raw (unstandardized) features.
MONITOR_WEIGHTS = (-3.0, -1.0, -3.0, -1.0, 2.0, 0.0)
MONITOR_BIAS = 1.5


def monitor_model() -> LogisticModel:
    n = len(MONITOR_WEIGHTS)
    return LogisticModel(
        weights=np.array(MONITOR_WEIGHTS, dtype=float),
        bias=MONITOR_BIAS,
        feature_means=np.zeros(n),
        feature_stds=np.ones(n),
    )


def fit_risk_model(x: np.ndarray, y: np.ndarray) -> LogisticModel:
    """Logistic regression of dropout labels ``y`` on FEATURE_ORDER rows ``x``.

    Deterministic: :func:`~auss.learners.fit_logistic`'s zero-initialized
    batch gradient descent, 500 steps at rate 0.5 with L2 weight 1e-4. A
    single-class ``y`` is an InsufficientDataError.
    """
    if len(x) < 10:
        raise InsufficientDataError(
            f"need at least 10 labeled students to fit a risk model, got {len(x)}"
        )
    return fit_logistic(x, y)


def assess_risk(
    model: LogisticModel, x: np.ndarray, threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """(risk scores, flags) for FEATURE_ORDER rows ``x``, one of each per row.

    Each score equals ``model.predict_proba_one`` of its row bit for bit; a
    row is flagged when its score is at or above the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(model.weights):
        raise MetricInputError(
            f"feature rows of shape {x.shape} do not match the model's "
            f"{len(model.weights)} weights"
        )
    scores = model.predict_proba(x)
    return scores, scores >= threshold


# -- metrics -------------------------------------------------------------------


@dataclass(frozen=True)
class F1Result:
    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int


def f1_score(predicted: Mapping[str, bool], actual: Mapping[str, bool]) -> F1Result:
    """Standard precision/recall/F1 over per-student boolean flags.

    Zero-division conventions: with no predicted positives but some actual,
    precision and F1 are 0; with neither predicted nor actual positives,
    all three are 1.
    """
    if set(predicted) != set(actual):
        missing = sorted(set(actual) ^ set(predicted))
        raise MetricInputError(f"prediction/truth student sets differ: {missing[:10]}")
    students = list(predicted)
    return flags_f1(
        np.array([bool(predicted[s]) for s in students], dtype=bool),
        np.array([bool(actual[s]) for s in students], dtype=bool),
    )


def flags_f1(predicted: np.ndarray, actual: np.ndarray) -> F1Result:
    """:func:`f1_score` over aligned boolean arrays, one entry per student."""
    if predicted.shape != actual.shape:
        raise MetricInputError(
            f"prediction/truth flag shapes differ: {predicted.shape} and {actual.shape}"
        )
    if not predicted.size:
        raise MetricInputError("cannot score empty label sets")
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    if tp + fp == 0 and tp + fn == 0:
        return F1Result(1.0, 1.0, 1.0, tp, fp, fn)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return F1Result(precision, recall, f1, tp, fp, fn)


def load_report(transcript: SimulationTranscript) -> LoadReport:
    """Per-agent share of delivered (processed) bus events over a run."""
    if not transcript.records:
        raise TranscriptError("cannot build a load report from an empty transcript")
    agents = list(transcript.header.get("agents", []))
    counts: dict[str, int] = {agent: 0 for agent in agents}
    for record in transcript.of_type("delivery"):
        subscriber = record["subscriber"]
        counts[subscriber] = counts.get(subscriber, 0) + len(record["event_ids"])
    total = sum(counts.values())
    if total > 0:
        shares = {agent: count / total for agent, count in counts.items()}
    else:
        shares = {agent: 0.0 for agent in counts}
    return LoadReport(counts=counts, shares=shares)


# -- the institution agent -------------------------------------------------------


class InstitutionAgent(Agent):
    """Aggregates cohort data, flags at-risk students, tracks its own load."""

    name = AgentName.INSTITUTION
    subscriptions = frozenset(TriggerKind)

    risk_every = 5
    risk_threshold = 0.5

    def __init__(self):
        self.flagged: set[str] = set()

    def reason(self, percepts: dict) -> dict:
        """Every ``risk_every`` ticks, one at_risk_flag payload per newly flagged student.

        Students are scored from the tick's snapshot, in student-id order.
        """
        view: TickView = percepts["view"]
        decisions: dict = {"tick": view.tick, "new_flags": []}
        if (view.tick + 1) % self.risk_every == 0:
            order = view.tracker.id_order
            risk = view.snapshot.risk[order]
            hit = risk >= self.risk_threshold
            ids = view.cohort.student_ids
            decisions["new_flags"] = [
                {"student_id": ids[row], "risk_score": score}
                for row, score in zip(order[hit].tolist(), risk[hit].tolist())
                if ids[row] not in self.flagged
            ]
        return decisions

    def act(self, decisions: dict, publish: Publisher) -> list[Action]:
        """Publish the new flags as one batch."""
        flags = decisions["new_flags"]
        self.flagged.update(payload["student_id"] for payload in flags)
        publish.publish_many([TriggerKind.AT_RISK_FLAG] * len(flags), flags)
        return [
            Action(kind="flag_at_risk", student_id=payload["student_id"], detail=payload)
            for payload in flags
        ]
