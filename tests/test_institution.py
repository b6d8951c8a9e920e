from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auss.domain import EngagementEvent, EventColumns, EventKind, StudentRecord
from auss.errors import (
    InsufficientDataError,
    MetricInputError,
    TranscriptError,
    UnknownStudentError,
)
from auss.experiment import ExperimentSpec, load_experiment_cohort, simulate
from auss.institution import (
    FEATURE_ORDER,
    FeatureTracker,
    aggregate_features,
    assess_risk,
    f1_score,
    fit_risk_model,
    load_report,
    monitor_model,
)
from auss.learners import LogisticModel
from auss.policy import PolicyConfig
from auss.runtime import SchedulerConfig, SimulationTranscript
from auss.synthetic import GeneratorConfig

from conftest import make_cohort, make_student
from oracles import DictFeatureTracker, confusion_f1


def features(**overrides) -> list[float]:
    """One FEATURE_ORDER row: neutral values, with ``overrides`` by feature name."""
    values = {
        "mean_engagement": 0.5,
        "engagement_slope": 0.0,
        "mean_score": 0.5,
        "score_slope": 0.0,
        "absence_rate": 0.0,
        "credits_attempted": 12.0,
    }
    values.update(overrides)
    return [values[name] for name in FEATURE_ORDER]


def zero_model() -> LogisticModel:
    return LogisticModel(
        weights=np.zeros(len(FEATURE_ORDER)),
        bias=0.0,
        feature_means=np.zeros(len(FEATURE_ORDER)),
        feature_stds=np.ones(len(FEATURE_ORDER)),
    )


def aggregate_row(cohort, tick) -> dict[str, float]:
    """The one student's ``aggregate_features`` row, by feature name."""
    [row] = aggregate_features(cohort, tick).tolist()
    return dict(zip(FEATURE_ORDER, row))


class TestAggregateFeatures:
    def test_no_absences_means_zero_rate(self):
        events = [EngagementEvent("s1", t, EventKind.LOGIN, 0.8) for t in range(3)]
        cohort = make_cohort(students=[make_student("s1")], events=events)
        feats = aggregate_row(cohort, 2)
        assert feats["absence_rate"] == 0.0
        assert feats["mean_engagement"] == pytest.approx(0.8)

    def test_score_slope_least_squares(self):
        events = [
            EngagementEvent("s1", 0, EventKind.SUBMISSION, 0.8),
            EngagementEvent("s1", 1, EventKind.SUBMISSION, 0.6),
            EngagementEvent("s1", 2, EventKind.SUBMISSION, 0.4),
        ]
        cohort = make_cohort(students=[make_student("s1")], events=events)
        feats = aggregate_row(cohort, 2)
        assert feats["score_slope"] == pytest.approx(-0.2, abs=1e-12)
        assert feats["mean_score"] == pytest.approx(0.6)

    def test_single_tick_slope_convention(self):
        events = [EngagementEvent("s1", 0, EventKind.SUBMISSION, 0.9)]
        cohort = make_cohort(students=[make_student("s1")], events=events)
        feats = aggregate_row(cohort, 0)
        assert feats["score_slope"] == 0.0
        assert feats["engagement_slope"] == 0.0

    def test_absence_rate_over_elapsed_ticks(self):
        events = [
            EngagementEvent("s1", 0, EventKind.LOGIN, 0.5),
            EngagementEvent("s1", 1, EventKind.ABSENCE, 0.5),
            EngagementEvent("s1", 2, EventKind.LOGIN, 0.5),
            EngagementEvent("s1", 3, EventKind.ABSENCE, 0.5),
        ]
        cohort = make_cohort(students=[make_student("s1")], events=events)
        feats = aggregate_row(cohort, 3)
        assert feats["absence_rate"] == pytest.approx(0.5)

    def test_events_after_tick_ignored(self):
        events = [
            EngagementEvent("s1", 0, EventKind.LOGIN, 0.2),
            EngagementEvent("s1", 5, EventKind.LOGIN, 1.0),
        ]
        cohort = make_cohort(students=[make_student("s1")], events=events)
        feats = aggregate_row(cohort, 1)
        assert feats["mean_engagement"] == pytest.approx(0.2)

    def test_matches_incremental_tracker(self):
        rng = random.Random(9)
        students = [make_student(f"s{i}") for i in range(5)]
        events = []
        for t in range(10):
            for s in students:
                if rng.random() < 0.8:
                    kind = rng.choice(list(EventKind))
                    events.append(EngagementEvent(s.student_id, t, kind, rng.random()))
        cohort = make_cohort(students=students, events=events)
        tracker = FeatureTracker(cohort, window_len=3)
        oracle = DictFeatureTracker(students, window_len=3)
        by_tick: dict[int, list] = {}
        for e in events:
            by_tick.setdefault(e.tick, []).append(e)
        for t in sorted(by_tick):
            tracker.ingest(t, EventColumns.from_events(by_tick[t], cohort.student_ids))
            oracle.ingest(t, by_tick[t])
        ids = cohort.student_ids
        rows = [tuple(row) for row in tracker.feature_matrix().tolist()]
        assert rows == [tuple(row) for row in aggregate_features(cohort, 9).tolist()]
        assert rows == [oracle.features(sid) for sid in ids]
        assert window_signals(tracker.policy_signals()) == oracle_window_signals(oracle, ids)

    def test_feature_matrix_rows_follow_the_cohort_order(self):
        events = [
            EngagementEvent("s1", 0, EventKind.LOGIN, 0.2),
            EngagementEvent("s2", 0, EventKind.LOGIN, 0.9),
        ]
        cohort = make_cohort(students=[make_student("s2"), make_student("s1")], events=events)
        tracker = FeatureTracker(cohort)
        tracker.ingest(0, EventColumns.from_events(events, cohort.student_ids))
        matrix = tracker.feature_matrix()
        assert matrix.shape == (2, len(FEATURE_ORDER))
        assert matrix[:, 0].tolist() == [0.9, 0.2]
        empty = FeatureTracker(make_cohort(students=[]))
        assert empty.feature_matrix().shape == (0, len(FEATURE_ORDER))

    def test_active_rows_are_distinct_and_in_student_id_order(self):
        ids = ("s2", "s10", "s1", "s3")
        cohort = make_cohort(
            students=[make_student(sid) for sid in ids],
            events=[
                EngagementEvent(sid, 0, EventKind.LOGIN, 0.5) for sid in ("s3", "s1", "s10", "s1")
            ],
        )
        tracker = FeatureTracker(cohort)
        assert [ids[row] for row in tracker.id_order.tolist()] == sorted(ids)
        active = tracker.active_rows(cohort.event_columns)
        assert [ids[row] for row in active.tolist()] == ["s1", "s10", "s3"]
        assert tracker.active_rows(cohort.event_columns.take(slice(0, 0))).tolist() == []

    def test_event_outside_cohort_is_unknown_student(self):
        cohort = make_cohort()
        tracker = FeatureTracker(cohort)
        events = [EngagementEvent("ghost", 0, EventKind.LOGIN, 0.5)]
        with pytest.raises(UnknownStudentError, match="ghost"):
            tracker.ingest(0, EventColumns.from_events(events, cohort.student_ids))

    def test_credits_taken_from_static_features(self):
        cohort = make_cohort(students=[make_student("s1", credits=21.0)])
        feats = aggregate_row(cohort, 0)
        assert feats["credits_attempted"] == 21.0


_TIED_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0])
#: Full-mantissa values in [0, 1), whose sums depend on the order of addition.
_ROUNDING_VALUES = st.integers(0, 2**53 - 1).map(lambda k: k / 2**53)
_VALUES = st.one_of(_TIED_VALUES, _ROUNDING_VALUES)
#: Up to four events of one student at one tick.
_TICK_EVENTS = st.lists(st.tuples(st.sampled_from(list(EventKind)), _VALUES), max_size=4)


@st.composite
def tracked_cohorts(draw):
    """(students, per-tick event lists) covering the tracker's degenerate cases.

    Besides random streams there is always a twin of the first stream
    (tied features and risks), an absence-only student, a one-tick
    student, a student with a submission at every tick (whose score window
    rolls once there are more ticks than the window holds) and a student
    with no events, in a drawn cohort order.
    """
    n_ticks = draw(st.integers(1, 6))
    streams: dict[str, dict[int, list]] = {}
    for i in range(draw(st.integers(1, 4))):
        streams[f"r{i}"] = {t: draw(_TICK_EVENTS) for t in range(n_ticks)}
    streams["twin"] = streams["r0"]
    streams["absent"] = {
        t: [(EventKind.ABSENCE, draw(_VALUES))] * draw(st.integers(0, 2)) for t in range(n_ticks)
    }
    one_tick = draw(st.integers(0, n_ticks - 1))
    streams["once"] = {one_tick: draw(_TICK_EVENTS.filter(bool))}
    submissions = st.lists(st.tuples(st.just(EventKind.SUBMISSION), _VALUES), min_size=1, max_size=2)
    streams["scored"] = {t: draw(submissions) for t in range(n_ticks)}
    streams["silent"] = {}
    credits = st.sampled_from([0.0, 6.0, 12.5])
    profiles = {
        sid: ({"credits_attempted": draw(credits)}, draw(st.integers(0, 2))) for sid in streams
    }
    profiles["twin"] = profiles["r0"]
    students = [
        StudentRecord(sid, *profiles[sid]) for sid in draw(st.permutations(sorted(streams)))
    ]
    ticks = []
    for t in range(n_ticks):
        tick_events = [
            EngagementEvent(sid, t, kind, value)
            for sid, stream in streams.items()
            for kind, value in stream.get(t, ())
        ]
        # Interleave the students at random, keeping each student's own order.
        own = {sid: iter([e for e in tick_events if e.student_id == sid]) for sid in streams}
        ticks.append([next(own[e.student_id]) for e in draw(st.permutations(tick_events))])
    return students, ticks


def window_signals(snapshot):
    """Per student in cohort order, (engagement window fill, windowed score slope)."""
    return list(zip(snapshot.engagement_fill.tolist(), snapshot.window_score_slope.tolist()))


def oracle_window_signals(oracle, ids):
    """``window_signals`` from the oracle's windows: their length, and the
    slope of the score points' running sums added oldest first."""
    signals = []
    for sid in ids:
        sums = [0, 0.0, 0.0, 0.0, 0.0]
        for x, y in oracle.window_score_points(sid):
            DictFeatureTracker._add(sums, x, y)
        _mean, slope = DictFeatureTracker._mean_slope(sums)
        signals.append((len(oracle.window_engagement_values(sid)), slope))
    return signals


class TestTrackerMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(tracked_cohorts())
    def test_columns_equal_dict_tracker_after_every_tick(self, drawn):
        students, ticks = drawn
        cohort = make_cohort(students=students)
        ids = cohort.student_ids
        tracker = FeatureTracker(cohort, window_len=3)
        oracle = DictFeatureTracker(students, window_len=3)
        monitor = monitor_model()
        for tick, events in enumerate(ticks):
            tracker.ingest(tick, EventColumns.from_events(events, ids))
            oracle.ingest(tick, events)
            snapshot = tracker.policy_signals()
            rows = [oracle.features(sid) for sid in ids]
            assert [tuple(row) for row in snapshot.features.tolist()] == rows
            assert snapshot.risk.tolist() == [monitor.predict_proba_one(row) for row in rows]
            assert window_signals(snapshot) == oracle_window_signals(oracle, ids)
            for i, (sid, row) in enumerate(zip(ids, rows)):
                window = oracle.window_engagement_values(sid)
                mean = sum(window) / len(window) if window else 0.0
                slope = row[FEATURE_ORDER.index("score_slope")]
                assert snapshot.signals(i) == (mean, slope, monitor.predict_proba_one(row))
        row_of = {sid: i for i, sid in enumerate(ids)}
        twin, r0 = row_of["twin"], row_of["r0"]
        assert snapshot.features[twin].tolist() == snapshot.features[r0].tolist()
        assert snapshot.risk[twin] == snapshot.risk[r0]
        absence_rate = snapshot.features[row_of["silent"], FEATURE_ORDER.index("absence_rate")]
        assert absence_rate == 0.0


class TestRiskModel:
    def _training_set(self, n=40):
        engagement = np.where(np.arange(n) % 2 == 0, 0.1, 0.9)
        x = np.array([features(mean_engagement=e, mean_score=e) for e in engagement])
        return x, engagement < 0.5

    def test_separable_training_accuracy(self):
        x, dropped = self._training_set()
        model = fit_risk_model(x, dropped)
        _scores, flags = assess_risk(model, x, 0.5)
        assert np.mean(flags == dropped) >= 0.95

    def test_same_seed_identical_weights(self):
        x, dropped = self._training_set()
        a = fit_risk_model(x, dropped)
        b = fit_risk_model(x, dropped)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_too_few_students_rejected(self):
        x, dropped = self._training_set(n=8)
        with pytest.raises(InsufficientDataError):
            fit_risk_model(x, dropped)

    def test_single_class_rejected(self):
        x, dropped = self._training_set()
        with pytest.raises(InsufficientDataError):
            fit_risk_model(x, np.ones_like(dropped))

    def test_risk_monotonic_in_positive_weight_feature(self):
        x, dropped = self._training_set()
        model = fit_risk_model(x, dropped)
        # use whichever learned weight is positive to keep the check honest.
        name = FEATURE_ORDER[int(np.argmax(model.weights))]
        (low, high), _flags = assess_risk(
            model, np.array([features(**{name: 0.0}), features(**{name: 0.5})])
        )
        assert high >= low


class TestAssessRisk:
    def test_zero_weights_score_half(self):
        scores, flags = assess_risk(zero_model(), np.array([features(), features()]), 0.6)
        assert scores.tolist() == [0.5, 0.5]
        assert not flags.any()

    def test_log_odds_nine_to_one(self):
        logistic = LogisticModel(
            weights=np.array([np.log(9.0), 0, 0, 0, 0, 0]),
            bias=0.0,
            feature_means=np.zeros(6),
            feature_stds=np.ones(6),
        )
        [score], _flags = assess_risk(logistic, np.array([features(mean_engagement=1.0)]), 0.5)
        assert score == pytest.approx(0.9, abs=1e-12)

    def test_threshold_boundary(self):
        # score is exactly 0.5; flagged at threshold 0.5, not at 0.51
        x = np.array([features()])
        assert assess_risk(zero_model(), x, 0.5)[1].tolist() == [True]
        assert assess_risk(zero_model(), x, 0.51)[1].tolist() == [False]

    def test_scores_equal_one_row_predictions(self):
        rng = np.random.default_rng(4)
        x = rng.random((200, len(FEATURE_ORDER)))
        model = fit_risk_model(x, x[:, 0] + rng.normal(0.0, 0.2, 200) < 0.5)
        scores, flags = assess_risk(model, x, 0.4)
        one_row = [model.predict_proba_one(row) for row in x]
        assert scores.tolist() == one_row
        assert flags.tolist() == [score >= 0.4 for score in one_row]

    def test_bad_threshold_and_row_width_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            assess_risk(zero_model(), np.array([features()]), 1.0)
        with pytest.raises(MetricInputError):
            assess_risk(zero_model(), np.zeros((2, 5)), 0.5)


class TestF1:
    def test_perfect_predictions(self):
        labels = {"a": True, "b": False, "c": True}
        result = f1_score(labels, labels)
        assert result.f1 == 1.0

    def test_hand_counted_example(self):
        predicted = {}
        actual = {}
        for i in range(8):  # true positives
            predicted[f"tp{i}"] = True
            actual[f"tp{i}"] = True
        for i in range(2):  # false positives
            predicted[f"fp{i}"] = True
            actual[f"fp{i}"] = False
        for i in range(2):  # false negatives
            predicted[f"fn{i}"] = False
            actual[f"fn{i}"] = True
        result = f1_score(predicted, actual)
        assert result.precision == pytest.approx(0.8)
        assert result.recall == pytest.approx(0.8)
        assert result.f1 == pytest.approx(0.8)

    def test_no_predicted_positives_convention(self):
        predicted = {"a": False, "b": False}
        actual = {"a": True, "b": False}
        result = f1_score(predicted, actual)
        assert result.precision == 0.0
        assert result.f1 == 0.0

    def test_both_empty_convention(self):
        predicted = {"a": False}
        actual = {"a": False}
        assert f1_score(predicted, actual).f1 == 1.0

    def test_mismatched_sets_rejected(self):
        with pytest.raises(MetricInputError):
            f1_score({"a": True}, {"b": True})

    def test_oracle_equivalence_on_random_labels(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 30)
            keys = [f"s{i}" for i in range(n)]
            predicted = {k: bool(rng.getrandbits(1)) for k in keys}
            actual = {k: bool(rng.getrandbits(1)) for k in keys}
            ours = f1_score(predicted, actual)
            precision, recall, f1 = confusion_f1(predicted, actual)
            assert ours.precision == pytest.approx(precision, abs=1e-12)
            assert ours.recall == pytest.approx(recall, abs=1e-12)
            assert ours.f1 == pytest.approx(f1, abs=1e-12)


def transcript_with_deliveries(counts: dict[str, int]) -> SimulationTranscript:
    transcript = SimulationTranscript(
        {"type": "header", "format_version": 1, "agents": sorted(counts)}
    )
    event_id = 1
    for agent, n in counts.items():
        for _ in range(n):
            transcript.record_delivery(0, agent, [event_id])
            event_id += 1
    return transcript


class TestLoadReport:
    def test_single_agent_takes_everything(self):
        report = load_report(transcript_with_deliveries({"a": 5, "b": 0}))
        assert report.shares == {"a": 1.0, "b": 0.0}

    def test_hand_computed_shares(self):
        report = load_report(
            transcript_with_deliveries({"a": 26, "b": 26, "c": 48})
        )
        assert report.shares["a"] == pytest.approx(0.26)
        assert report.shares["c"] == pytest.approx(0.48)

    def test_shares_sum_to_one(self):
        rng = random.Random(3)
        for _ in range(20):
            counts = {f"agent{i}": rng.randint(0, 40) for i in range(3)}
            if sum(counts.values()) == 0:
                counts["agent0"] = 1
            report = load_report(transcript_with_deliveries(counts))
            assert sum(report.shares.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(share >= 0 for share in report.shares.values())

    def test_empty_transcript_rejected(self):
        with pytest.raises(TranscriptError):
            load_report(SimulationTranscript())


class TestMonitor:
    def test_monitor_scores_low_engagement_higher(self):
        monitor = monitor_model()
        risky = monitor.predict_proba_one(features(mean_engagement=0.1, mean_score=0.1))
        safe = monitor.predict_proba_one(features(mean_engagement=0.9, mean_score=0.9))
        assert risky > safe


class TestInstitutionAgent:
    def test_new_flags_only_once_per_run(self):
        spec = ExperimentSpec(
            generator=GeneratorConfig(n_students=60, n_resources=6, n_ticks=30, seed=3),
            scheduler=SchedulerConfig(max_ticks=30, rng_seed=3),
            policy=PolicyConfig(rng_seed=3),
        )
        transcript = simulate(load_experiment_cohort(spec), spec)
        students = [
            record["payload"]["student_id"]
            for record in transcript.of_type("event")
            if record["kind"] == "at_risk_flag"
        ]
        assert students
        assert len(set(students)) == len(students)
