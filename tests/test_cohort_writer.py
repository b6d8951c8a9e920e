"""Writing cohort files: the bytes of the json and csv modules, at orjson speed."""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from auss import cohort_files
from auss.cohort_files import GROUND_TRUTH_FILE, STUDENTS_FILE, write_cohort
from auss.domain import (
    AssessmentRecord,
    Cohort,
    EventColumns,
    EventKind,
    GroundTruth,
    LearningResource,
    StudentRecord,
)
from auss.errors import CohortFormatError
from auss.experiment import reference_spec
from auss.orjson_guard import spell_floats
from auss.synthetic import GeneratorConfig, export_cohort, generate_cohort, import_cohort

from oracles import json_cohort_writer

#: sha256 of each file ``export_cohort`` writes for the seed-42 reference
#: cohort (1000 students × 20 resources × 50 ticks), as the json and csv
#: modules wrote them before orjson spelled any of it.
REFERENCE_EXPORT_SHA256 = {
    "assessments.csv": "d88441d60604e3d79bc8599fa8159f48f28dfcc60ee71bca14a1ff25c6b2b311",
    "events.jsonl": "4e010af6bdcf64baa5551a993942b10d07a29cef0231a8c44fb54b9a7a1c3d64",
    "ground_truth.json": "5e92248804fc26b4e0095df7e69b319ed3f336702ef27f8885ace5f44a7936e3",
    "resources.csv": "8ce528ef294b5519e25d0c0e02bf21900ed7dc6603fd1c42cf588879695e3539",
    "students.csv": "58b12830d905f59fc99ab5eb34839df4300b6288bb512937b9e2093f8f811ce2",
}

#: Floats whose orjson spelling is guarded, or sits next to a guarded one.
EDGE_FLOATS = [
    1e-05, 9.999e-05, 0.0001, 0.00012, 1.5e-07, 1e15, 1e16, 1e22, 1.2345678901234568e17,
    5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
    0.0, -0.0, 10.00001, 0.1, math.nan, math.inf, -math.inf,
]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
#: Ids with the characters json escapes: a quote, a backslash, U+007F, U+2028, non-ASCII.
ids = st.text(st.sampled_from(list("abs01_-,") + ['"', "\\", "\x7f", "\u2028", "é", "雪"]))


@st.composite
def cohorts(draw) -> Cohort:
    student_ids = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    resource_ids = draw(st.lists(ids, max_size=3, unique=True))
    feature = st.none() | floats | floats.map(np.float64)
    students = [
        StudentRecord(
            sid,
            draw(st.dictionaries(st.sampled_from("gcx"), feature)),
            draw(st.integers(-(2**63), 2**63 - 1)),
        )
        for sid in student_ids
    ]
    resources = [
        LearningResource(rid, draw(ids), draw(floats | floats.map(np.float64)))
        for rid in resource_ids
    ]
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(student_ids) - 1),
                st.integers(-(2**63), 2**63 - 1),
                st.sampled_from(list(EventKind)),
                floats,
                st.integers(-1, len(resource_ids) - 1),
            ),
            max_size=12,
        )
    )
    student, tick, kind, value, resource = zip(*rows) if rows else ((),) * 5
    events = EventColumns(
        np.array(student, dtype=np.intp),
        np.array(tick, dtype=np.int64),
        np.array([k.code for k in kind], dtype=np.int8),
        np.array(value, dtype=float),
        np.array(resource, dtype=np.intp),
        tuple(student_ids),
        tuple(resource_ids),
    )
    assessments = [
        AssessmentRecord(draw(st.sampled_from(student_ids)), draw(ids), draw(ids), score)
        for score in draw(st.lists(st.none() | floats, max_size=4))
    ]
    truth = None
    if draw(st.booleans()):
        truth = GroundTruth(
            abilities={sid: draw(floats | floats.map(np.float64)) for sid in student_ids},
            preference_rankings={
                sid: tuple(draw(st.permutations(resource_ids))) for sid in student_ids
            },
            dropout_ticks={
                sid: draw(st.none() | st.integers(0, 60)) for sid in student_ids
            },
        )
    return Cohort(students, events, assessments, resources, truth)


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _one_student(ability: float, dropout: int | None) -> Cohort:
    """A one-student cohort with ASCII ids, whose ground truth orjson may write."""
    columns = ([0, 0], [0, 1], [0, 4], [0.25, 1e-05], [0, -1])
    return Cohort(
        [StudentRecord("s0", {"g": 3.5}, 0)],
        EventColumns(*map(np.array, columns), ("s0",), ("r0",)),
        [AssessmentRecord("s0", "q", "1", 0.5), AssessmentRecord("s0", "q", "", None)],
        [LearningResource("r0", "t", np.float64(0.5))],
        GroundTruth({"s0": ability}, {"s0": ("r0",)}, {"s0": dropout}),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cohort=cohorts(), chunk=st.sampled_from([1, 2, 3, cohort_files._EVENT_CHUNK]))
@example(cohort=_one_student(0.5, None), chunk=1)
@example(cohort=_one_student(np.float64(0.5), None), chunk=2)
@example(cohort=_one_student(math.nan, 3), chunk=1)
@example(cohort=_one_student(math.inf, None), chunk=1)
def test_writer_matches_the_json_and_csv_oracle(cohort, chunk):
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohort_files, "_EVENT_CHUNK", chunk)
        written, expected = Path(root, "written"), Path(root, "expected")
        write_cohort(cohort, written)
        json_cohort_writer(cohort, expected)
        assert _files(written) == _files(expected)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(floats, max_size=20))
@example(values=EDGE_FLOATS)
def test_spell_floats_is_repr_and_json_dumps(values):
    assert spell_floats(values, repr) == list(map(repr, values))
    assert spell_floats(values, json.dumps) == list(map(json.dumps, values))


def test_seed_42_reference_export_is_pinned(tmp_path):
    cohort, _truth = generate_cohort(reference_spec().generator)
    export_cohort(cohort, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == REFERENCE_EXPORT_SHA256


def test_export_without_ground_truth_removes_a_stale_one(tmp_path):
    cohort, _truth = generate_cohort(
        GeneratorConfig(n_students=20, n_resources=4, n_ticks=6, seed=1)
    )
    export_cohort(cohort, tmp_path)
    assert (tmp_path / GROUND_TRUTH_FILE).exists()
    stripped = Cohort(
        cohort.students, cohort.event_columns, cohort.assessment_columns, cohort.resources
    )
    export_cohort(stripped, tmp_path)
    assert not (tmp_path / GROUND_TRUTH_FILE).exists()
    assert import_cohort(tmp_path) == stripped


@pytest.mark.parametrize("under", [False, True], ids=["directory", "parent"])
def test_file_in_place_of_the_directory_cannot_be_written(tmp_path, under):
    blocker = tmp_path / "F"
    blocker.write_text("")
    directory = blocker / "cohort" if under else blocker
    cohort, _truth = generate_cohort(GeneratorConfig(n_students=5, n_resources=2, n_ticks=3))
    with pytest.raises(CohortFormatError) as raised:
        write_cohort(cohort, directory)
    assert str(raised.value).startswith(f"{directory}: cannot write: ")


@pytest.mark.parametrize("name", [STUDENTS_FILE, GROUND_TRUTH_FILE])
def test_directory_in_place_of_a_file_cannot_be_written(tmp_path, name):
    cohort, _truth = generate_cohort(GeneratorConfig(n_students=5, n_resources=2, n_ticks=3))
    (tmp_path / name).mkdir()
    with pytest.raises(CohortFormatError) as raised:
        write_cohort(cohort, tmp_path)
    assert str(raised.value).startswith(f"{tmp_path / name}: cannot write: ")
