from __future__ import annotations

import os

import pytest

from auss.domain import (
    AssessmentRecord,
    Cohort,
    EngagementEvent,
    EventKind,
    GroundTruth,
    LearningResource,
    StudentRecord,
)


def assert_no_child_process() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def make_student(sid: str, gpa: float = 3.0, credits: float = 12.0) -> StudentRecord:
    return StudentRecord(sid, {"prior_gpa": gpa, "credits_attempted": credits})


def make_cohort(
    students=None, events=(), assessments=(), resources=(), ground_truth=None
) -> Cohort:
    if students is None:
        students = (make_student("s1"), make_student("s2"))
    return Cohort(
        students=tuple(students),
        events=tuple(events),
        assessments=tuple(assessments),
        resources=tuple(resources),
        ground_truth=ground_truth,
    )


@pytest.fixture
def two_student_cohort() -> Cohort:
    resources = (
        LearningResource("r1", "topic-0", 0.2),
        LearningResource("r2", "topic-1", 0.8),
    )
    events = (
        EngagementEvent("s1", 0, EventKind.LOGIN, 0.5),
        EngagementEvent("s1", 1, EventKind.RESOURCE_VIEW, 0.6, resource_id="r1"),
        EngagementEvent("s2", 0, EventKind.LOGIN, 0.9),
        EngagementEvent("s2", 2, EventKind.SUBMISSION, 0.7),
    )
    assessments = (AssessmentRecord("s2", "exam-002", "0.7000", 0.7),)
    return make_cohort(events=events, assessments=assessments, resources=resources)


def constant_engagement_cohort(
    n_students: int = 12,
    n_ticks: int = 12,
    abilities=None,
) -> Cohort:
    """Hand-built cohort: every student logs in and submits their ability
    value each tick; static prior_gpa is 4x ability. Noiseless and separable."""
    if abilities is None:
        abilities = [0.0 if i % 2 == 0 else 1.0 for i in range(n_students)]
    students = []
    events = []
    resources = (LearningResource("r1", "topic-0", 0.5),)
    for i, ability in enumerate(abilities):
        sid = f"s{i:03d}"
        students.append(
            StudentRecord(sid, {"prior_gpa": 4.0 * ability, "credits_attempted": 12.0})
        )
        for t in range(n_ticks):
            events.append(EngagementEvent(sid, t, EventKind.LOGIN, ability))
            events.append(EngagementEvent(sid, t, EventKind.SUBMISSION, ability))
    truth = GroundTruth(
        abilities={f"s{i:03d}": a for i, a in enumerate(abilities)},
        preference_rankings={f"s{i:03d}": ("r1",) for i in range(n_students)},
        dropout_ticks={f"s{i:03d}": None for i in range(n_students)},
    )
    return Cohort(
        students=tuple(students),
        events=tuple(sorted(events, key=lambda e: (e.tick, e.student_id))),
        resources=resources,
        ground_truth=truth,
    )
