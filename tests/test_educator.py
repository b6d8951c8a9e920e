from __future__ import annotations

import math
import random

import pytest

from auss.domain import AssessmentRecord, EngagementEvent, EventKind
from auss.educator import (
    ARITHMETIC_TEMPLATE,
    AnswerKey,
    ItemKind,
    QuizTemplate,
    auto_grade,
    generate_class_report,
    generate_quiz,
    grading_match_rate,
    match_fraction,
    normalize_answer,
)
from auss.errors import ConfigError, MetricInputError

from conftest import make_cohort, make_student
from oracles import match_rate_oracle


def submission(sid: str, item: str, response: str) -> AssessmentRecord:
    return AssessmentRecord(sid, item, response)


class TestAutoGrade:
    def test_exact_choice_match(self):
        key = AnswerKey("q1", ItemKind.MULTIPLE_CHOICE, "B")
        result = auto_grade(submission("s1", "q1", "B"), key)
        assert result.matched and result.awarded == 1.0

    def test_normalization_forgives_case_and_whitespace(self):
        key = AnswerKey("q1", ItemKind.MULTIPLE_CHOICE, "B")
        assert auto_grade(submission("s1", "q1", " b "), key).matched
        key2 = AnswerKey("q2", ItemKind.SHORT_TEXT, "Newton's   second law")
        assert auto_grade(submission("s1", "q2", "newton's second LAW"), key2).matched

    def test_numeric_tolerance(self):
        key = AnswerKey("q1", ItemKind.NUMERIC, "3.14", tolerance=0.01)
        assert auto_grade(submission("s1", "q1", "3.141"), key).matched
        assert not auto_grade(submission("s1", "q1", "3.16"), key).matched

    def test_unparsable_numeric_is_recorded_not_raised(self):
        key = AnswerKey("q1", ItemKind.NUMERIC, "7", tolerance=0.0)
        result = auto_grade(submission("s1", "q1", "seven"), key)
        assert not result.matched
        assert result.awarded == 0.0
        assert result.note == "unparsable numeric response"

    def test_item_id_mismatch_raises(self):
        key = AnswerKey("q1", ItemKind.NUMERIC, "7", tolerance=0.0)
        with pytest.raises(MetricInputError):
            auto_grade(submission("s1", "q2", "7"), key)

    def test_awarded_follows_points(self):
        key = AnswerKey("q1", ItemKind.SHORT_TEXT, "yes", points=2.5)
        assert auto_grade(submission("s1", "q1", "yes"), key).awarded == 2.5
        assert auto_grade(submission("s1", "q1", "no"), key).awarded == 0.0

    def test_key_invariants(self):
        with pytest.raises(ConfigError):
            AnswerKey("q1", ItemKind.NUMERIC, "7")  # missing tolerance
        with pytest.raises(ConfigError):
            AnswerKey("q1", ItemKind.SHORT_TEXT, "x", tolerance=0.1)
        with pytest.raises(ConfigError):
            AnswerKey("q1", ItemKind.SHORT_TEXT, "x", points=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_key_rejects_non_finite_points_and_tolerance(self, bad):
        with pytest.raises(ConfigError, match="points"):
            AnswerKey("q1", ItemKind.NUMERIC, "3", tolerance=0.0, points=bad)
        with pytest.raises(ConfigError, match="tolerance"):
            AnswerKey("q1", ItemKind.NUMERIC, "3", tolerance=bad)
        with pytest.raises(ConfigError, match="points"):
            AnswerKey("q1", ItemKind.SHORT_TEXT, "x", points=bad)

    def test_normalize_answer(self):
        assert normalize_answer("  A  B\tC ") == "a b c"


class TestMatchRate:
    def _grades(self, awarded: list[float]):
        from auss.educator import GradeResult

        return [
            GradeResult(f"s{i}", "q1", a, matched=a > 0) for i, a in enumerate(awarded)
        ]

    def test_self_comparison_is_one(self):
        grades = self._grades([1.0, 0.0, 1.0])
        assert grading_match_rate(grades, grades) == 1.0

    def test_nine_of_ten(self):
        ours = self._grades([1.0] * 10)
        reference = self._grades([1.0] * 9 + [0.0])
        assert grading_match_rate(ours, reference) == pytest.approx(0.9)

    def test_empty_lists_rejected(self):
        with pytest.raises(MetricInputError):
            grading_match_rate([], [])

    def test_mismatched_pairs_rejected(self):
        ours = self._grades([1.0, 0.0])
        reference = self._grades([1.0])
        with pytest.raises(MetricInputError):
            grading_match_rate(ours, reference)

    def test_agrees_with_oracle_on_random_grades(self):
        from auss.educator import GradeResult

        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 40)
            pairs = [(f"s{i}", f"q{rng.randint(1, 3)}-{i}") for i in range(n)]
            ours = [
                GradeResult(s, q, rng.choice([0.0, 1.0]), matched=bool(rng.getrandbits(1)))
                for s, q in pairs
            ]
            theirs = [
                GradeResult(s, q, rng.choice([0.0, 1.0]), matched=bool(rng.getrandbits(1)))
                for s, q in pairs
            ]
            expected = match_rate_oracle(
                {(g.student_id, g.item_id): g.awarded for g in ours},
                {(g.student_id, g.item_id): g.awarded for g in theirs},
            )
            assert grading_match_rate(ours, theirs) == pytest.approx(expected, abs=1e-12)


class TestClassReport:
    def _cohort(self, scores_by_student: dict[str, list[float]]):
        students = [make_student(sid) for sid in scores_by_student]
        events = []
        for sid, scores in scores_by_student.items():
            for t, score in enumerate(scores):
                events.append(EngagementEvent(sid, t, EventKind.SUBMISSION, score))
        return make_cohort(students=students, events=events)

    def test_single_student(self):
        cohort = self._cohort({"s1": [0.5]})
        report = generate_class_report(cohort, (0, 5))
        assert report.class_mean == 0.5

    def test_three_students_mean(self):
        cohort = self._cohort({"s1": [0.2], "s2": [0.4], "s3": [0.9]})
        report = generate_class_report(cohort, (0, 5))
        assert report.class_mean == pytest.approx(0.5)

    def test_empty_window_rejected(self):
        cohort = self._cohort({"s1": [0.5]})
        with pytest.raises(MetricInputError):
            generate_class_report(cohort, (3, 2))

    def test_risk_flags_copied(self):
        cohort = self._cohort({"s1": [0.5], "s2": [0.6]})
        report = generate_class_report(cohort, (0, 5), risk_flags={"s2", "ghost"})
        assert report.at_risk_count == 1

    def test_aggregates_match_independent_recomputation(self):
        rng = random.Random(8)
        scores = {f"s{i}": [rng.random() for _ in range(rng.randint(1, 4))] for i in range(9)}
        cohort = self._cohort(scores)
        report = generate_class_report(cohort, (0, 10))
        means = sorted(sum(v) / len(v) for v in scores.values())
        assert report.class_mean == pytest.approx(sum(means) / len(means), abs=1e-12)


class TestQuiz:
    def test_deterministic_given_seed(self):
        a = generate_quiz(ARITHMETIC_TEMPLATE, seed=5, n_items=10)
        b = generate_quiz(ARITHMETIC_TEMPLATE, seed=5, n_items=10)
        assert a == b
        c = generate_quiz(ARITHMETIC_TEMPLATE, seed=6, n_items=10)
        assert a != c

    def test_question_and_answer_share_parameters(self):
        template = QuizTemplate(
            template_id="t",
            topic_tag="arith",
            question_pattern="{a}+{b}",
            answer_expr="a + b",
            slots={"a": (3, 3), "b": (4, 4)},
        )
        [(question, key)] = generate_quiz(template, seed=0, n_items=1)
        assert question == "3+4"
        assert key.answer == "7"

    def test_item_count_and_unique_ids(self):
        items = generate_quiz(ARITHMETIC_TEMPLATE, seed=1, n_items=5)
        assert len(items) == 5
        ids = [key.item_id for _q, key in items]
        assert len(set(ids)) == 5

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            QuizTemplate(
                template_id="t",
                topic_tag="x",
                question_pattern="{a}",
                answer_expr="a",
                slots={"a": (5, 4)},
            )

    def test_canonical_answers_self_grade(self):
        rng = random.Random(77)
        for trial in range(10):
            template = QuizTemplate(
                template_id=f"t{trial}",
                topic_tag="arith",
                question_pattern="{a} op {b}",
                answer_expr=rng.choice(["a + b", "a - b", "a * b", "a + 2 * b"]),
                slots={"a": (1, 30), "b": (1, 30)},
            )
            for _question, key in generate_quiz(template, seed=trial, n_items=20):
                result = auto_grade(AssessmentRecord("s1", key.item_id, key.answer), key)
                assert result.matched, (template.answer_expr, key.answer)

    def test_match_fraction(self):
        quiz = generate_quiz(ARITHMETIC_TEMPLATE, seed=2, n_items=4)
        results = [
            auto_grade(AssessmentRecord("s1", key.item_id, key.answer), key) for _q, key in quiz
        ]
        assert match_fraction(results) == 1.0
        with pytest.raises(MetricInputError):
            match_fraction([])
