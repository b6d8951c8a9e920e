from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from auss.domain import (
    EngagementEvent,
    EventKind,
    FEATURE_WINDOW_LENGTH,
    LearningResource,
    StudentRecord,
    series_mean_slope,
    validate_cohort,
    window_feature_rows,
)

from conftest import make_cohort, make_student
from oracles import polyfit_slope


def least_squares_slope(points) -> float:
    """``series_mean_slope`` of one series' running sums, the points added in order."""
    sums = [0, 0.0, 0.0, 0.0, 0.0]  # n, sum y, sum x, sum xy, sum xx
    for x, y in points:
        for i, term in enumerate((1, y, x, x * y, x * x)):
            sums[i] += term
    _mean, slope = series_mean_slope(*(np.array([total]) for total in sums))
    return float(slope[0])


class TestValidateCohort:
    def test_well_formed_cohort_is_clean(self, two_student_cohort):
        assert validate_cohort(two_student_cohort) == []

    def test_event_for_unknown_student_named(self, two_student_cohort):
        bad = two_student_cohort.events + (
            EngagementEvent("s9", 0, EventKind.LOGIN, 0.5),
        )
        cohort = make_cohort(
            students=two_student_cohort.students,
            events=bad,
            assessments=two_student_cohort.assessments,
            resources=two_student_cohort.resources,
        )
        violations = validate_cohort(cohort)
        assert len(violations) == 1
        assert violations[0].entity_id == "s9"
        assert violations[0].rule == "unknown_student"

    def test_out_of_range_value_names_rule(self):
        cohort = make_cohort(events=[EngagementEvent("s1", 0, EventKind.LOGIN, 1.5)])
        violations = validate_cohort(cohort)
        assert [v.rule for v in violations] == ["event_value_range"]

    def test_duplicate_student_id(self):
        cohort = make_cohort(students=[make_student("s1"), make_student("s1")])
        assert any(v.rule == "unique_student_id" for v in validate_cohort(cohort))

    def test_nonfinite_static_feature(self):
        cohort = make_cohort(students=[make_student("s1", gpa=float("nan"))])
        assert any(v.rule == "finite_static_feature" for v in validate_cohort(cohort))

    def test_static_feature_past_the_float_range(self):
        cohort = make_cohort(students=[StudentRecord("s1", {"prior_gpa": 10**400})])
        assert [(v.entity_id, v.rule) for v in validate_cohort(cohort)] == [
            ("s1", "finite_static_feature")
        ]

    def test_resource_difficulty_past_the_float_range(self):
        cohort = make_cohort(resources=[LearningResource("r1", "t", 10**400)])
        assert [(v.entity_id, v.rule) for v in validate_cohort(cohort)] == [
            ("r1", "resource_difficulty_range")
        ]

    def test_negative_enrollment_tick(self):
        # Far enough below zero that the tracker's elapsed-tick count would wrap.
        students = [StudentRecord("s1", {}, -9223372036854775803), StudentRecord("s2", {}, 0)]
        assert [(v.entity_id, v.rule, v.message) for v in validate_cohort(make_cohort(students))] == [
            ("s1", "enrollment_tick_nonnegative", "enrollment_tick -9223372036854775803 < 0")
        ]

    def test_event_tick_regression_per_student(self):
        events = [
            EngagementEvent("s1", 3, EventKind.LOGIN, 0.5),
            EngagementEvent("s1", 1, EventKind.LOGIN, 0.5),
        ]
        cohort = make_cohort(events=events)
        assert any(v.rule == "event_tick_order" for v in validate_cohort(cohort))

    def test_unknown_resource_reference(self):
        events = [EngagementEvent("s1", 0, EventKind.RESOURCE_VIEW, 0.5, resource_id="rX")]
        cohort = make_cohort(events=events)
        assert any(v.rule == "unknown_resource" for v in validate_cohort(cohort))

    def test_assessment_score_range(self, two_student_cohort):
        from auss.domain import AssessmentRecord

        cohort = make_cohort(assessments=[AssessmentRecord("s1", "i1", "x", 1.2)])
        assert any(v.rule == "assessment_score_range" for v in validate_cohort(cohort))


def lag_features(cohort, student_id, tick, window_len) -> list[float]:
    """One cohort student's row of ``window_feature_rows``."""
    rows = window_feature_rows(cohort.event_columns, tick, window_len)
    return rows[cohort.student_rows[cohort.student_ids.index(student_id)]].tolist()


class TestFeatureWindow:
    def test_empty_window_is_all_zeros(self, two_student_cohort):
        features = lag_features(two_student_cohort, "s1", tick=50, window_len=3)
        assert features == [0.0] * FEATURE_WINDOW_LENGTH

    def test_constant_login_series(self):
        events = [EngagementEvent("s1", t, EventKind.LOGIN, 1.0) for t in range(1, 6)]
        cohort = make_cohort(events=events)
        features = lag_features(cohort, "s1", tick=5, window_len=5)
        count, mean, slope = features[0], features[1], features[2]
        assert count == 5.0
        assert mean == 1.0
        assert slope == 0.0

    def test_rising_login_slope_is_least_squares(self):
        # values 0.2, 0.4, 0.6 over three consecutive ticks: slope 0.2/tick
        events = [
            EngagementEvent("s1", 1, EventKind.LOGIN, 0.2),
            EngagementEvent("s1", 2, EventKind.LOGIN, 0.4),
            EngagementEvent("s1", 3, EventKind.LOGIN, 0.6),
        ]
        cohort = make_cohort(events=events)
        features = lag_features(cohort, "s1", tick=3, window_len=3)
        assert features[2] == pytest.approx(0.2, abs=1e-12)

    def test_window_len_must_be_positive(self, two_student_cohort):
        with pytest.raises(ValueError):
            window_feature_rows(two_student_cohort.event_columns, tick=3, window_len=0)

    def test_window_excludes_lower_bound(self):
        events = [
            EngagementEvent("s1", 0, EventKind.LOGIN, 1.0),
            EngagementEvent("s1", 1, EventKind.LOGIN, 0.5),
        ]
        cohort = make_cohort(events=events)
        features = lag_features(cohort, "s1", tick=1, window_len=1)
        # window is (0, 1]: only the tick-1 event counts
        assert features[0] == 1.0
        assert features[1] == 0.5

    def test_deterministic_and_fixed_length(self, two_student_cohort):
        a = lag_features(two_student_cohort, "s1", tick=2, window_len=4)
        b = lag_features(two_student_cohort, "s1", tick=2, window_len=4)
        assert a == b
        assert len(a) == FEATURE_WINDOW_LENGTH

    def test_slope_matches_independent_fit(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 8)
            points = [(float(t), rng.random()) for t in range(n)]
            assert least_squares_slope(points) == pytest.approx(
                polyfit_slope(points), abs=1e-9
            )

    def test_slope_insufficient_points_convention(self):
        assert least_squares_slope([]) == 0.0
        assert least_squares_slope([(1.0, 5.0)]) == 0.0
        assert least_squares_slope([(1.0, 5.0), (1.0, 6.0)]) == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000).map(float), st.floats(0.0, 1.0)),
            max_size=30,
        )
    )
    def test_slope_agrees_with_oracle(self, points):
        slope = least_squares_slope(points)
        if len(points) < 2 or len({x for x, _ in points}) == 1:
            assert slope == 0.0
        else:
            assert slope == pytest.approx(polyfit_slope(points), rel=1e-6, abs=1e-9)
