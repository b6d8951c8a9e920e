"""Institution-level intelligence: aggregate features, dropout-risk scoring,
precision/recall/F1 evaluation, and per-agent load accounting.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bus import AgentName, Event, TriggerKind
from .domain import Cohort, EngagementEvent, EventKind, SeriesStats
from .errors import InsufficientDataError, MetricInputError, TranscriptError
from .learners import LogisticModel, fit_logistic
from .runtime import Action, Agent, Publisher, SimulationTranscript, TickOutcome, TickView

#: Canonical ordering of the aggregate feature vector.
FEATURE_ORDER = (
    "mean_engagement",
    "engagement_slope",
    "mean_score",
    "score_slope",
    "absence_rate",
    "credits_attempted",
)


@dataclass(frozen=True)
class InstitutionalFeatures:
    """Per-student aggregates over the full history up to a tick."""

    student_id: str
    mean_engagement: float
    engagement_slope: float
    mean_score: float
    score_slope: float
    absence_rate: float
    credits_attempted: float

    def as_vector(self) -> list[float]:
        return [getattr(self, name) for name in FEATURE_ORDER]


@dataclass(frozen=True)
class RiskAssessment:
    student_id: str
    risk_score: float
    flagged: bool


@dataclass(frozen=True)
class LoadReport:
    """Events processed per agent, as counts and fractional shares."""

    counts: Mapping[str, int]
    shares: Mapping[str, float]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


# -- streaming per-student statistics -----------------------------------------


class FeatureTracker:
    """Incremental per-student aggregates fed one tick of events at a time.

    Engagement and score series are per-tick means; slopes are cumulative
    least-squares fits against tick. A short rolling window of per-tick
    engagement means and score points backs reactive monitoring (policy
    state, learning-gap detection).

    A simulation run has one tracker: the scheduler ingests each tick into
    it and the agents and the policy driver read it from the TickView.
    """

    def __init__(self, cohort: Cohort, window_len: int = 5, monitor: LogisticModel | None = None):
        self.window_len = window_len
        self.monitor = monitor if monitor is not None else monitor_model()
        self._enrollment = {s.student_id: s.enrollment_tick for s in cohort.students}
        self._credits = {
            s.student_id: float(s.static_features.get("credits_attempted", 0.0))
            for s in cohort.students
        }
        self._engagement: dict[str, SeriesStats] = {}
        self._scores: dict[str, SeriesStats] = {}
        self._absence_ticks: dict[str, int] = {}
        self._last_event_tick: dict[str, int] = {}
        self._window_engagement: dict[str, deque] = {}
        self._window_scores: dict[str, deque] = {}

    def student_ids(self) -> Iterable[str]:
        return self._enrollment.keys()

    def ingest(self, tick: int, events: Sequence[EngagementEvent]) -> None:
        engagement_acc: dict[str, list[float]] = {}
        score_acc: dict[str, list[float]] = {}
        absent: set[str] = set()
        for event in events:
            sid = event.student_id
            self._last_event_tick[sid] = max(self._last_event_tick.get(sid, tick), tick)
            if event.kind is EventKind.ABSENCE:
                absent.add(sid)
            else:
                engagement_acc.setdefault(sid, []).append(event.value)
                if event.kind is EventKind.SUBMISSION:
                    score_acc.setdefault(sid, []).append(event.value)
        for sid in absent:
            self._absence_ticks[sid] = self._absence_ticks.get(sid, 0) + 1
        for sid, values in engagement_acc.items():
            mean = sum(values) / len(values)
            self._engagement.setdefault(sid, SeriesStats()).add(float(tick), mean)
            self._window_engagement.setdefault(sid, deque(maxlen=self.window_len)).append(mean)
        for sid, values in score_acc.items():
            mean = sum(values) / len(values)
            self._scores.setdefault(sid, SeriesStats()).add(float(tick), mean)
            self._window_scores.setdefault(sid, deque(maxlen=self.window_len)).append(
                (float(tick), mean)
            )

    def features(self, student_id: str) -> InstitutionalFeatures:
        engagement = self._engagement.get(student_id, SeriesStats())
        scores = self._scores.get(student_id, SeriesStats())
        last = self._last_event_tick.get(student_id)
        if last is None:
            absence_rate = 0.0
        else:
            elapsed = max(1, last - self._enrollment.get(student_id, 0) + 1)
            absence_rate = min(1.0, self._absence_ticks.get(student_id, 0) / elapsed)
        return InstitutionalFeatures(
            student_id=student_id,
            mean_engagement=engagement.mean,
            engagement_slope=engagement.slope,
            mean_score=scores.mean,
            score_slope=scores.slope,
            absence_rate=absence_rate,
            credits_attempted=self._credits.get(student_id, 0.0),
        )

    def window_engagement_values(self, student_id: str) -> list[float]:
        return list(self._window_engagement.get(student_id, ()))

    def window_engagement_mean(self, student_id: str) -> float:
        window = self._window_engagement.get(student_id)
        if not window:
            return 0.0
        return sum(window) / len(window)

    def window_score_points(self, student_id: str) -> list[tuple[float, float]]:
        return list(self._window_scores.get(student_id, ()))

    def policy_signals(self, student_id: str) -> tuple[float, float, float]:
        """(windowed engagement mean, cumulative score slope, monitor risk)."""
        features = self.features(student_id)
        risk = float(self.monitor.predict_proba_one(features.as_vector()))
        return self.window_engagement_mean(student_id), features.score_slope, risk


def aggregate_features(cohort: Cohort, tick: int) -> list[InstitutionalFeatures]:
    """Batch aggregates over every event with event.tick <= tick.

    Output order follows cohort.students. Equivalent to feeding a
    FeatureTracker tick by tick and reading features at ``tick``.
    """
    tracker = FeatureTracker(cohort, window_len=1)
    by_tick: dict[int, list[EngagementEvent]] = {}
    for event in cohort.events:
        if event.tick <= tick:
            by_tick.setdefault(event.tick, []).append(event)
    for t in sorted(by_tick):
        tracker.ingest(t, by_tick[t])
    return [tracker.features(s.student_id) for s in cohort.students]


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


@dataclass(frozen=True)
class RiskModel:
    """Fitted dropout-risk scorer over the FEATURE_ORDER vector."""

    logistic: LogisticModel
    feature_names: tuple[str, ...]
    seed: int

    def score(self, features: InstitutionalFeatures) -> float:
        vector = features.as_vector()
        if len(vector) != len(self.logistic.weights):
            raise MetricInputError(
                f"feature length {len(vector)} does not match model ({len(self.logistic.weights)})"
            )
        return float(self.logistic.predict_proba_one(vector))

    def to_json(self, path: str | Path) -> None:
        data = {"feature_names": list(self.feature_names), "seed": self.seed}
        data.update(self.logistic.to_dict())
        Path(path).write_text(json.dumps(data, indent=2, sort_keys=True), encoding="utf-8")

    @classmethod
    def from_json(cls, path: str | Path) -> "RiskModel":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            logistic=LogisticModel.from_dict(data),
            feature_names=tuple(data["feature_names"]),
            seed=int(data["seed"]),
        )


def fit_risk_model(
    features: Sequence[InstitutionalFeatures],
    labels: Mapping[str, bool],
    seed: int = 0,
    *,
    learning_rate: float = 0.5,
    n_iterations: int = 500,
) -> RiskModel:
    """Logistic regression on aggregate features against dropout labels.

    Deterministic: zero-initialized batch gradient descent with a fixed
    iteration budget; the seed is recorded for provenance.
    """
    labeled = [f for f in features if f.student_id in labels]
    if len(labeled) < 10:
        raise InsufficientDataError(
            f"need at least 10 labeled students to fit a risk model, got {len(labeled)}"
        )
    x = np.array([f.as_vector() for f in labeled])
    y = np.array([1.0 if labels[f.student_id] else 0.0 for f in labeled])
    if len(np.unique(y)) < 2:
        raise InsufficientDataError("labels contain a single class; need both outcomes")
    logistic = fit_logistic(x, y, learning_rate=learning_rate, n_iterations=n_iterations)
    return RiskModel(logistic=logistic, feature_names=FEATURE_ORDER, seed=seed)


def assess_risk(
    model: RiskModel | LogisticModel,
    features: Sequence[InstitutionalFeatures],
    threshold: float = 0.5,
    *,
    already_flagged: frozenset[str] | set[str] = frozenset(),
    tick: int = 0,
) -> tuple[list[RiskAssessment], list[Event]]:
    """Score students and flag those at or above the threshold.

    Returns the assessments plus one at_risk_flag event per newly flagged
    student (students in ``already_flagged`` never produce another event).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    scorer = model if isinstance(model, RiskModel) else RiskModel(model, FEATURE_ORDER, seed=0)
    assessments: list[RiskAssessment] = []
    events: list[Event] = []
    for feats in features:
        score = scorer.score(feats)
        flagged = score >= threshold
        assessments.append(RiskAssessment(feats.student_id, score, flagged))
        if flagged and feats.student_id not in already_flagged:
            events.append(
                Event(
                    tick=tick,
                    source_agent=AgentName.INSTITUTION,
                    kind=TriggerKind.AT_RISK_FLAG,
                    payload={"student_id": feats.student_id, "risk_score": score},
                )
            )
    return assessments, events


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
    if not predicted:
        raise MetricInputError("cannot score empty label sets")
    tp = sum(1 for s, p in predicted.items() if p and actual[s])
    fp = sum(1 for s, p in predicted.items() if p and not actual[s])
    fn = sum(1 for s, p in predicted.items() if not p and actual[s])
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

    def __init__(self, *, risk_every: int = 5, risk_threshold: float = 0.5):
        super().__init__()
        self.risk_every = risk_every
        self.risk_threshold = risk_threshold
        self.flagged: set[str] = set()
        self.memory.data["events_processed"] = 0
        self.memory.data["flags_raised"] = 0

    def perceive(self, view: TickView, inbox: Sequence[Event]) -> dict:
        return {"view": view, "inbox": tuple(inbox)}

    def reason(self, percepts: dict) -> dict:
        view: TickView = percepts["view"]
        tracker = view.tracker
        self.memory.data["events_processed"] += len(percepts["inbox"])
        decisions: dict = {"tick": view.tick, "new_flags": []}
        if (view.tick + 1) % self.risk_every == 0:
            seen = [s for s in sorted(tracker.student_ids()) if s not in self.flagged]
            features = [tracker.features(s) for s in seen]
            _, events = assess_risk(
                tracker.monitor,
                features,
                self.risk_threshold,
                already_flagged=self.flagged,
                tick=view.tick,
            )
            decisions["new_flags"] = events
        return decisions

    def act(self, decisions: dict, publish: Publisher) -> list[Action]:
        actions: list[Action] = []
        for event in decisions["new_flags"]:
            sid = event.payload["student_id"]
            self.flagged.add(sid)
            publish.publish(event.kind, event.payload)
            actions.append(Action(kind="flag_at_risk", student_id=sid, detail=event.payload))
        return actions

    def evaluate(self, outcome: TickOutcome) -> None:
        self.memory.data["flags_raised"] += len(outcome.actions)
