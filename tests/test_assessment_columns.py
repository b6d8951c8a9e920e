"""Assessments held as columns: the validation rules against the per-record
oracle, equality across the ways a cohort gets its records, and the
guarantee that a run spells no assessment record."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auss.cli import main
from auss.cohort_files import ASSESSMENTS_FILE, read_cohort, write_cohort
from auss.domain import AssessmentColumns, AssessmentRecord, Cohort, StudentRecord, validate_cohort
from auss.experiment import reference_spec, run_experiment
from auss.synthetic import GeneratorConfig, generate_cohort

from oracles import scalar_validate_assessments

_KNOWN = ("s0", "s1", "s2")
#: Ids no cohort lists; one needs CSV quoting.
_UNKNOWN = ("ghost", 'g,h"o')
_EDGE_SCORES = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0.0,
    1.0,
    1.0000000000000002,
    -5e-324,
    5e-324,
    0.9999999999999999,
]
_SCORES = st.one_of(
    st.none(), st.sampled_from(_EDGE_SCORES), st.floats(allow_nan=True, allow_infinity=True)
)
_FINITE_SCORES = st.one_of(
    st.none(), st.sampled_from([s for s in _EDGE_SCORES if math.isfinite(s)]), st.floats(-2, 2)
)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


def found(cohort: Cohort) -> list[tuple[str, str, str]]:
    return [(v.entity_id, v.rule, v.message) for v in validate_cohort(cohort)]


def records(scores=_SCORES, text=_TEXT):
    return st.lists(
        st.builds(
            AssessmentRecord, st.sampled_from(_KNOWN + _UNKNOWN), text, text, scores
        ),
        max_size=25,
    )


def student_records(ids=_KNOWN) -> list[StudentRecord]:
    return [StudentRecord(sid, {}) for sid in ids]


class TestRulesMatchThePerRecordOracle:
    @settings(max_examples=300, deadline=None)
    @given(records(), st.integers(0, len(_KNOWN)))
    def test_records_built_cohort(self, assessments, n_students):
        cohort = Cohort(student_records(_KNOWN[:n_students]), (), assessments)
        assert found(cohort) == scalar_validate_assessments(cohort.student_ids, assessments)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.data(),
    )
    def test_generated_columns_with_broken_scores_and_students(self, seed, data):
        cohort, _truth = generate_cohort(
            GeneratorConfig(n_students=6, n_resources=3, n_ticks=11, seed=seed)
        )
        columns = cohort.assessment_columns
        n = len(columns)
        score = columns.score.copy()
        student = columns.student.copy()
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=6)):
            score[i] = data.draw(st.sampled_from(_EDGE_SCORES) | st.floats())
        student_ids = columns.student_ids + _UNKNOWN
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
            student[i] = data.draw(st.sampled_from([len(student_ids) - 2, len(student_ids) - 1]))
        broken = AssessmentColumns(
            student, score, columns.ungraded, student_ids, tick=columns.tick
        )
        mutated = Cohort(cohort.students, cohort.event_columns, broken, cohort.resources)
        assert found(mutated) == scalar_validate_assessments(
            cohort.student_ids, broken.to_records()
        )

    @settings(max_examples=100, deadline=None)
    @given(records(scores=_FINITE_SCORES, text=st.sampled_from(["", "q1", "a,b", '"x"', "é"])))
    def test_cohort_read_from_files(self, tmp_path_factory, assessments):
        directory = tmp_path_factory.mktemp("cohort")
        write_cohort(Cohort(student_records(), (), assessments), directory)
        cohort = read_cohort(directory)
        assert cohort.assessments == tuple(assessments)
        assert found(cohort) == scalar_validate_assessments(_KNOWN, assessments)

    def test_a_record_breaking_both_rules_reports_them_in_rule_order(self):
        assessments = [
            AssessmentRecord("s0", "q", "r", 0.5),
            AssessmentRecord("ghost", "q", "r", math.nan),
            AssessmentRecord("s1", "q", "r", -5e-324),
            AssessmentRecord("ghost", "q", "r", None),
        ]
        cohort = Cohort(student_records(), (), assessments)
        assert found(cohort) == [
            ("ghost", "unknown_student", "assessment references unknown student"),
            ("ghost", "assessment_score_range", "score nan outside [0, 1]"),
            ("s1", "assessment_score_range", "score -5e-324 outside [0, 1]"),
            ("ghost", "unknown_student", "assessment references unknown student"),
        ]


class TestScoresOutsideTheAnnotation:
    """A score is a float or None. An int or bool is kept as its float; any
    other value is refused when the cohort is built, as an event value is."""

    def test_int_score_is_checked_and_spelled_as_its_float(self):
        cohort = Cohort(student_records(), (), [AssessmentRecord("s0", "q", "r", 2)])
        assert found(cohort) == [("s0", "assessment_score_range", "score 2.0 outside [0, 1]")]
        assert cohort.assessments == (AssessmentRecord("s0", "q", "r", 2.0),)
        assert type(cohort.assessments[0].score) is float

    def test_bool_score_is_a_valid_float(self):
        cohort = Cohort(student_records(), (), [AssessmentRecord("s0", "q", "r", True)])
        assert found(cohort) == []
        assert cohort.assessments[0].score == 1.0

    @pytest.mark.parametrize("score", ["0.5", b"1", [0.5]])
    def test_non_number_score_is_refused(self, score):
        with pytest.raises(TypeError, match="assessment score .* is not a number"):
            Cohort(student_records(), (), [AssessmentRecord("s0", "q", "r", score)])


@st.composite
def tick_records(draw):
    """(student rows, ticks, scores) of assessments spelled from their ticks."""
    rows = draw(st.lists(st.integers(0, len(_KNOWN) - 1), max_size=15))
    ticks = draw(st.lists(st.integers(0, 1500), min_size=len(rows), max_size=len(rows)))
    scores = draw(
        st.lists(
            st.floats(0.0, 1.0) | st.sampled_from([-0.0, 1.0000000000000002]),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    return rows, ticks, scores


class TestEquality:
    @settings(max_examples=200, deadline=None)
    @given(tick_records())
    def test_records_built_and_columns_built_cohorts_are_equal(self, drawn):
        rows, ticks, scores = drawn
        columns = AssessmentColumns(
            np.array(rows, dtype=np.intp),
            np.array(scores, dtype=float),
            np.zeros(len(rows), dtype=bool),
            _KNOWN,
            tick=np.array(ticks, dtype=np.int64),
        )
        assessments = [
            AssessmentRecord(_KNOWN[i], f"exam-{t:03d}", f"{score:.4f}", score)
            for i, t, score in zip(rows, ticks, scores)
        ]
        from_columns = Cohort(student_records(), (), columns)
        from_records = Cohort(student_records(), (), assessments)
        assert from_columns == from_records
        assert from_columns.assessments == tuple(assessments)
        if assessments:
            changed = [*assessments[:-1], AssessmentRecord(_KNOWN[rows[-1]], "other", "", None)]
            assert Cohort(student_records(), (), changed) != from_columns

    def test_columns_of_another_roster_are_reindexed(self):
        cohort, _truth = generate_cohort(GeneratorConfig(n_students=8, n_ticks=11, seed=4))
        roster = list(reversed(cohort.students[2:]))  # drops s0000 and s0001
        moved = Cohort(roster, (), cohort.assessment_columns)
        assert moved.assessment_columns.student_ids[: len(roster)] == moved.student_ids
        assert moved.assessments == cohort.assessments
        assert found(moved) == scalar_validate_assessments(moved.student_ids, cohort.assessments)
        named = {entity for entity, _rule, _message in found(moved)}
        assert named and named <= {"s0000", "s0001"}

    def test_generated_exported_and_read_cohorts_are_equal(self, tmp_path):
        cohort, _truth = generate_cohort(GeneratorConfig(n_students=30, n_ticks=16, seed=5))
        write_cohort(cohort, tmp_path)
        restored = read_cohort(tmp_path)
        assert restored.assessment_columns.stored is not None  # kept as read
        assert cohort.assessment_columns.stored is None  # spelled from ticks
        assert restored == cohort
        rebuilt = Cohort(cohort.students, cohort.event_columns, cohort.assessments)
        assert rebuilt.assessment_columns == cohort.assessment_columns

    def test_view_is_built_once_and_counted_from_the_columns(self):
        cohort, _truth = generate_cohort(GeneratorConfig(n_students=20, n_ticks=12, seed=2))
        assert len(cohort.assessment_columns) == len(cohort.assessments) > 0
        assert cohort.assessments is cohort.assessments

    def test_file_rows_are_kept_as_read(self, tmp_path):
        cohort, _truth = generate_cohort(GeneratorConfig(n_students=5, n_ticks=11, seed=1))
        write_cohort(cohort, tmp_path)
        path = tmp_path / ASSESSMENTS_FILE
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][1:3] = ["exam-5", "0.5"]  # not how the generator spells them
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        restored = read_cohort(tmp_path)
        first = restored.assessments[0]
        assert (first.item_id, first.response) == ("exam-5", "0.5")
        assert restored != cohort


class TestNoRecordIsSpelled:
    @pytest.fixture
    def spelled(self, monkeypatch):
        calls = []
        to_records = AssessmentColumns.to_records

        def counting(self):
            calls.append(len(self))
            return to_records(self)

        monkeypatch.setattr(AssessmentColumns, "to_records", counting)
        return calls

    def test_reference_run(self, spelled):
        report, _transcript = run_experiment(reference_spec())
        assert report.metadata["n_events"] > 0
        assert spelled == []

    def test_auss_generate(self, spelled, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["assessments"] == 5513
        assert (tmp_path / ASSESSMENTS_FILE).stat().st_size > 0
        assert spelled == []
