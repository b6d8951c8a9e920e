from __future__ import annotations

import math
import random

import numpy as np
import pytest

from auss.bus import TriggerKind
from auss.errors import InsufficientDataError, UnknownStudentError, UntrainedModelError
from auss.learners import BaggedTreeRegressor, LogisticModel
from auss.student import (
    GapDetector,
    InteractionMatrix,
    PerformanceModel,
    cosine_similarity,
    detect_learning_gap,
    fit_predictors,
    lag_feature_rows,
    predict_performance,
    recommend_top_k,
)

from conftest import constant_engagement_cohort
from oracles import brute_force_recommend


def matrix_from_rows(rows: dict[str, list[float]], resource_ids=None) -> InteractionMatrix:
    resource_ids = resource_ids or [f"r{j+1}" for j in range(len(next(iter(rows.values()))))]
    cells = {}
    for sid, values in rows.items():
        for rid, value in zip(resource_ids, values):
            if value != 0.0:
                cells[(sid, rid)] = value
    return InteractionMatrix(tuple(rows), tuple(resource_ids), cells)


class TestCosine:
    def test_identical_vectors(self):
        assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_computed_value(self):
        # dot=4, norms sqrt(5) each: 4/5
        assert cosine_similarity([1, 2, 0], [2, 1, 0]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_norm_convention(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0], [1.0, 2.0])

    def test_symmetry_and_bounds(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 6)
            u = [rng.uniform(-2, 2) for _ in range(n)]
            v = [rng.uniform(-2, 2) for _ in range(n)]
            ab = cosine_similarity(u, v)
            ba = cosine_similarity(v, u)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert -1.0 - 1e-12 <= ab <= 1.0 + 1e-12


class TestRecommend:
    def test_spec_worked_example(self):
        matrix = matrix_from_rows(
            {
                "s1": [1.0, 1.0, 0.0, 0.0],
                "s2": [1.0, 1.0, 1.0, 0.0],
                "s3": [0.0, 0.0, 1.0, 1.0],
            }
        )
        rec = recommend_top_k(matrix, "s1", k=1, neighborhood=2)
        assert rec.resource_ids == ("r3",)
        assert rec.items[0][1] == pytest.approx(1.0)

    def test_single_student_matrix_yields_empty(self):
        matrix = matrix_from_rows({"s1": [1.0, 0.0]})
        rec = recommend_top_k(matrix, "s1", k=3, neighborhood=2)
        assert rec.items == ()

    def test_student_who_saw_everything_gets_nothing(self):
        matrix = matrix_from_rows({"s1": [0.5, 0.5], "s2": [1.0, 0.0]})
        assert recommend_top_k(matrix, "s1", k=2, neighborhood=1).items == ()

    def test_unknown_student(self):
        matrix = matrix_from_rows({"s1": [1.0]})
        with pytest.raises(UnknownStudentError):
            recommend_top_k(matrix, "ghost", k=1, neighborhood=1)

    def test_k_larger_than_candidates_shortens(self):
        matrix = matrix_from_rows({"s1": [1.0, 0.0], "s2": [1.0, 0.8]})
        rec = recommend_top_k(matrix, "s1", k=10, neighborhood=1)
        assert len(rec.items) == 1

    def test_popularity_fallback_without_positive_peers(self):
        # s1's row is orthogonal to everyone: falls back to mean popularity
        matrix = matrix_from_rows(
            {
                "s1": [1.0, 0.0, 0.0, 0.0],
                "s2": [0.0, 0.9, 0.1, 0.0],
                "s3": [0.0, 0.7, 0.0, 0.0],
            }
        )
        rec = recommend_top_k(matrix, "s1", k=2, neighborhood=2)
        assert rec.resource_ids == ("r2", "r3")
        assert rec.items[0][1] == pytest.approx(0.8)

    def test_never_recommends_observed(self):
        rng = random.Random(21)
        for _ in range(30):
            matrix = _random_matrix(rng)
            for sid in matrix.student_ids:
                rec = recommend_top_k(matrix, sid, k=5, neighborhood=3)
                assert set(rec.resource_ids).isdisjoint(matrix.observed(sid))

    def test_scaling_cells_preserves_ranking(self):
        rng = random.Random(22)
        for _ in range(20):
            matrix = _random_matrix(rng, allow_empty_rows=False)
            scaled = InteractionMatrix(
                matrix.student_ids,
                matrix.resource_ids,
                {key: 0.25 * value for key, value in matrix.cells.items()},
            )
            for sid in matrix.student_ids:
                a = recommend_top_k(matrix, sid, k=4, neighborhood=3)
                b = recommend_top_k(scaled, sid, k=4, neighborhood=3)
                assert a.resource_ids == b.resource_ids

    def test_matches_brute_force_oracle(self):
        rng = random.Random(23)
        for _ in range(50):
            matrix = _random_matrix(rng)
            k = rng.randint(1, 5)
            neighborhood = rng.randint(1, 4)
            for sid in matrix.student_ids:
                ours = recommend_top_k(matrix, sid, k, neighborhood)
                oracle = brute_force_recommend(
                    matrix.student_ids, matrix.resource_ids, matrix.cells, sid, k, neighborhood
                )
                assert ours.resource_ids == tuple(r for r, _ in oracle), (
                    f"ranking diverged for {sid}: {ours.items} vs {oracle}"
                )


def _random_matrix(rng: random.Random, allow_empty_rows: bool = True) -> InteractionMatrix:
    n_students = rng.randint(1, 10)
    n_resources = rng.randint(1, 10)
    student_ids = tuple(f"s{i}" for i in range(n_students))
    resource_ids = tuple(f"r{j}" for j in range(n_resources))
    cells = {}
    for sid in student_ids:
        for rid in resource_ids:
            if rng.random() < 0.4:
                cells[(sid, rid)] = rng.uniform(0.05, 1.0)
        if not allow_empty_rows and not any(s == sid for (s, _r) in cells):
            cells[(sid, resource_ids[0])] = rng.uniform(0.05, 1.0)
    return InteractionMatrix(student_ids, resource_ids, cells)


class TestInteractionMatrix:
    def test_cell_range_enforced(self):
        with pytest.raises(ValueError):
            InteractionMatrix(("s1",), ("r1",), {("s1", "r1"): 1.5})

    def test_from_counts_normalizes_per_student(self):
        matrix = InteractionMatrix.from_counts(
            {("s1", "r1"): 4, ("s1", "r2"): 2, ("s2", "r1"): 1},
            ("s1", "s2"),
            ("r1", "r2"),
        )
        assert matrix.cells[("s1", "r1")] == 1.0
        assert matrix.cells[("s1", "r2")] == 0.5
        assert matrix.cells[("s2", "r1")] == 1.0


class TestPrediction:
    def test_blend_of_equal_submodels(self):
        static = BaggedTreeRegressor(n_trees=3, seed=0).fit(
            np.array([[0.0], [1.0]]), np.array([0.5, 0.5])
        )
        temporal = LogisticModel(
            weights=np.zeros(2), bias=0.0, feature_means=np.zeros(2), feature_stds=np.ones(2)
        )
        for w in (0.0, 0.25, 0.5, 1.0):
            model = PerformanceModel(static, temporal, w, ("prior_gpa",), 5)
            from conftest import make_student

            pred = model.predict(make_student("s1"), [0.0, 0.0])
            assert pred.predicted_score == pytest.approx(0.5)

    def test_blend_arithmetic(self):
        static = BaggedTreeRegressor(n_trees=3, seed=0).fit(
            np.array([[0.0], [1.0]]), np.array([1.0, 1.0])
        )
        temporal = LogisticModel(
            weights=np.zeros(1), bias=-600.0, feature_means=np.zeros(1), feature_stds=np.ones(1)
        )
        model = PerformanceModel(static, temporal, 0.25, ("prior_gpa",), 5)
        from conftest import make_student

        pred = model.predict(make_student("s1"), [0.0])
        assert pred.static_score == pytest.approx(1.0)
        assert pred.temporal_score == pytest.approx(0.0, abs=1e-100)
        assert pred.predicted_score == pytest.approx(0.25, abs=1e-12)

    def test_untrained_model_raises(self):
        from conftest import make_student

        with pytest.raises(UntrainedModelError):
            predict_performance(None, make_student("s1"), [0.0])

    def test_separable_cohort_reaches_perfect_holdout(self):
        cohort = constant_engagement_cohort(n_students=24, n_ticks=8)
        model, accuracy = fit_predictors(cohort, split=0.5, seed=3)
        assert accuracy == 1.0
        # and predictions stay in range
        lag = lag_feature_rows(cohort, 7, model.window_len)
        for student in cohort.students:
            pred = model.predict(student, lag[student.student_id])
            assert 0.0 <= pred.predicted_score <= 1.0

    def test_shuffled_labels_fall_to_baseline(self):
        cohort = constant_engagement_cohort(n_students=60, n_ticks=6)
        truth = cohort.ground_truth
        rng = random.Random(17)
        values = list(truth.abilities.values())
        rng.shuffle(values)
        shuffled = dict(zip(truth.abilities.keys(), values))
        from auss.domain import Cohort, GroundTruth

        scrambled = Cohort(
            students=cohort.students,
            events=cohort.events,
            assessments=cohort.assessments,
            resources=cohort.resources,
            ground_truth=GroundTruth(
                abilities=shuffled,
                preference_rankings=truth.preference_rankings,
                dropout_ticks=truth.dropout_ticks,
            ),
        )
        _model, accuracy = fit_predictors(scrambled, split=0.5, seed=3)
        assert 0.2 <= accuracy <= 0.8  # near the coin-flip baseline, not 1.0

    def test_same_seed_reproduces(self):
        cohort = constant_engagement_cohort(n_students=30, n_ticks=6)
        model_a, acc_a = fit_predictors(cohort, split=0.6, seed=11)
        model_b, acc_b = fit_predictors(cohort, split=0.6, seed=11)
        assert acc_a == acc_b
        assert [t.root for t in model_a.static_model.trees] == [
            t.root for t in model_b.static_model.trees
        ]
        assert np.array_equal(model_a.temporal_model.weights, model_b.temporal_model.weights)

    def test_too_few_students(self):
        cohort = constant_engagement_cohort(n_students=6, n_ticks=4)
        with pytest.raises(InsufficientDataError):
            fit_predictors(cohort, split=0.5, seed=0)


class TestGapDetection:
    def test_healthy_engagement_is_quiet(self):
        assert detect_learning_gap([0.9, 0.9, 0.9], []) == []

    def test_low_engagement_triggers_disengagement(self):
        gaps = detect_learning_gap([0.2, 0.1, 0.1], [])
        assert [kind for kind, _ in gaps] == [TriggerKind.DISENGAGEMENT]

    def test_falling_scores_trigger_decline(self):
        points = [(0.0, 0.8), (1.0, 0.6), (2.0, 0.4)]
        gaps = detect_learning_gap([0.9], points)
        assert [kind for kind, _ in gaps] == [TriggerKind.PERFORMANCE_DECLINE]
        assert gaps[0][1] == pytest.approx(-0.2, abs=1e-12)

    def test_detector_cooldown_once_per_window(self):
        detector = GapDetector(window_len=5)
        emitted = []
        for tick in range(10):
            emitted.extend(detector.update("s1", tick, [0.1, 0.1], []))
        assert len(emitted) == 2  # ticks 0 and 5 only

    def test_detector_tracks_students_independently(self):
        detector = GapDetector(window_len=5)
        a = detector.update("s1", 0, [0.1], [])
        b = detector.update("s2", 0, [0.1], [])
        assert len(a) == len(b) == 1
