"""Educator-level automation: objective-item grading, class reports, and
deterministic template quiz generation.

Grading is all-or-nothing per item and limited to objective kinds
(multiple choice, numeric with tolerance, normalized short text).
"""

from __future__ import annotations

import ast
import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .bus import AgentName, TriggerKind
from .domain import AssessmentRecord, Cohort, EventKind
from .errors import ConfigError, MetricInputError
from .runtime import Action, Agent, Publisher, TickView


class ItemKind(str, Enum):
    MULTIPLE_CHOICE = "multiple_choice"
    NUMERIC = "numeric"
    SHORT_TEXT = "short_text"


@dataclass(frozen=True)
class AnswerKey:
    item_id: str
    kind: ItemKind
    answer: str
    tolerance: float | None = None  # numeric items only
    points: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.points < math.inf:
            raise ConfigError(f"points must be a finite number > 0, got {self.points}")
        if self.kind is ItemKind.NUMERIC:
            if self.tolerance is None or not 0 <= self.tolerance < math.inf:
                raise ConfigError(
                    f"numeric item {self.item_id!r} needs a finite tolerance >= 0, "
                    f"got {self.tolerance}"
                )
            float(self.answer)  # must itself be parseable
        elif self.tolerance is not None:
            raise ConfigError(f"non-numeric item {self.item_id!r} must not set tolerance")


@dataclass(frozen=True, slots=True)
class GradeResult:
    student_id: str
    item_id: str
    awarded: float
    matched: bool
    note: str | None = None


_WHITESPACE = re.compile(r"\s+")


def normalize_answer(text: str) -> str:
    """Trim, case-fold, and collapse internal whitespace."""
    return _WHITESPACE.sub(" ", text.strip()).casefold()


def grade_response(response: str, key: AnswerKey) -> tuple[bool, str | None]:
    """The grading rule: whether ``response`` matches ``key``, and a note.

    Numeric items match within |response - answer| <= tolerance; an
    unparsable numeric response does not match, and the note says so.
    Other kinds match on :func:`normalize_answer` equality.
    """
    if key.kind is ItemKind.NUMERIC:
        try:
            response_value = float(response.strip())
        except ValueError:
            return False, "unparsable numeric response"
        return abs(response_value - float(key.answer)) <= (key.tolerance or 0.0), None
    return normalize_answer(response) == normalize_answer(key.answer), None


def auto_grade(submission: AssessmentRecord, key: AnswerKey) -> GradeResult:
    """Grade one objective submission against its key (all-or-nothing).

    The rule is :func:`grade_response`; an unparsable numeric response
    scores zero with the failure noted rather than raising.
    """
    if submission.item_id != key.item_id:
        raise MetricInputError(
            f"submission item {submission.item_id!r} does not match key {key.item_id!r}"
        )
    matched, note = grade_response(submission.response, key)
    return GradeResult(
        student_id=submission.student_id,
        item_id=key.item_id,
        awarded=key.points if matched else 0.0,
        matched=matched,
        note=note,
    )


def match_fraction(results: Sequence[GradeResult]) -> float:
    """Fraction of results whose answer matched its key."""
    if not results:
        raise MetricInputError("cannot compute a match fraction over zero results")
    return sum(1 for r in results if r.matched) / len(results)


def grading_match_rate(
    results: Sequence[GradeResult], reference: Sequence[GradeResult]
) -> float:
    """Fraction of (student, item) pairs graded identically to the reference."""
    if not results or not reference:
        raise MetricInputError("match rate over empty grade lists is undefined")
    ours = {(r.student_id, r.item_id): r.awarded for r in results}
    theirs = {(r.student_id, r.item_id): r.awarded for r in reference}
    if len(ours) != len(results) or len(theirs) != len(reference):
        raise MetricInputError("duplicate (student, item) pairs in grade lists")
    if set(ours) != set(theirs):
        missing = sorted(set(ours) ^ set(theirs))
        raise MetricInputError(f"grade lists cover different pairs: {missing[:10]}")
    agreed = sum(1 for pair, awarded in ours.items() if awarded == theirs[pair])
    return agreed / len(ours)


# -- class reports ---------------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    window_start: int
    window_end: int
    class_mean: float | None
    at_risk_count: int


def generate_class_report(
    cohort: Cohort,
    window: tuple[int, int],
    *,
    risk_flags: frozenset[str] | set[str] = frozenset(),
) -> ClassReport:
    """Aggregate scores over a tick window (both ends inclusive).

    Scores come from submission events, read from the window's slice of
    the cohort's event columns. The class mean covers the roster's
    students with at least one score: each student's mean sums their
    scores in stream order (``np.bincount``), and the class mean sums the
    student means in roster order. ``at_risk_count`` counts roster
    students in ``risk_flags``.
    """
    start, end = window
    if start > end or end < 0:
        raise MetricInputError(f"window {window} is empty")
    roster = cohort.student_ids
    events = cohort.event_columns.window(start, end)
    submitted = events.kind == EventKind.SUBMISSION.code
    rows = events.student[submitted]
    size = len(events.student_ids)
    counts = np.bincount(rows, minlength=size)[cohort.student_rows]
    sums = np.bincount(rows, weights=events.value[submitted], minlength=size)[cohort.student_rows]
    scored = counts > 0
    student_means = (sums[scored] / counts[scored]).tolist()
    return ClassReport(
        window_start=start,
        window_end=end,
        class_mean=sum(student_means) / len(student_means) if student_means else None,
        at_risk_count=sum(1 for sid in roster if sid in risk_flags),
    )


# -- quiz generation ---------------------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


def _eval_arithmetic(expr: str, variables: Mapping[str, float]) -> float:
    """Evaluate a small arithmetic expression over named parameters."""

    def walk(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id in variables:
                return float(variables[node.id])
            raise ConfigError(f"unknown parameter {node.id!r} in answer expression")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.Mod):
                return left % right
            return left**right
        raise ConfigError(f"unsupported syntax in answer expression: {ast.dump(node)}")

    return walk(ast.parse(expr, mode="eval"))


@dataclass(frozen=True)
class QuizTemplate:
    """Parameterized item family; the canonical answer is computed from the
    same drawn parameters as the question text."""

    template_id: str
    topic_tag: str
    question_pattern: str
    answer_expr: str
    slots: Mapping[str, tuple[int, int]]
    kind: ItemKind = ItemKind.NUMERIC
    tolerance: float = 0.0
    points: float = 1.0

    def __post_init__(self) -> None:
        if not self.slots:
            raise ConfigError(f"template {self.template_id!r} declares no parameter slots")
        for name, (low, high) in self.slots.items():
            if low > high:
                raise ConfigError(
                    f"template {self.template_id!r} slot {name!r} has empty range ({low}, {high})"
                )
        if self.kind is ItemKind.MULTIPLE_CHOICE:
            raise ConfigError("template-generated items must be numeric or short_text")


ARITHMETIC_TEMPLATE = QuizTemplate(
    template_id="arith-add",
    topic_tag="arithmetic",
    question_pattern="What is {a} + {b}?",
    answer_expr="a + b",
    slots={"a": (2, 99), "b": (2, 99)},
)


def generate_quiz(
    template: QuizTemplate, seed: int, n_items: int
) -> list[tuple[str, AnswerKey]]:
    """Render n question/key pairs deterministically from the seed."""
    if n_items < 1:
        raise ConfigError(f"n_items must be >= 1, got {n_items}")
    rng = random.Random(seed)
    items: list[tuple[str, AnswerKey]] = []
    for i in range(n_items):
        params = {name: rng.randint(low, high) for name, (low, high) in sorted(template.slots.items())}
        question = template.question_pattern.format(**params)
        value = _eval_arithmetic(template.answer_expr, params)
        answer = repr(value) if value != int(value) else str(int(value))
        key = AnswerKey(
            item_id=f"{template.template_id}-{i + 1:03d}",
            kind=template.kind,
            answer=answer,
            tolerance=template.tolerance if template.kind is ItemKind.NUMERIC else None,
            points=template.points,
        )
        items.append((question, key))
    return items


# -- the educator agent ---------------------------------------------------------------


class EducatorAgent(Agent):
    """Posts grades for incoming submissions and periodic class reports."""

    name = AgentName.EDUCATOR
    # Only at-risk flags are read; the other kinds still decide the run's
    # delivery records and load counts.
    subscriptions = frozenset(
        {
            TriggerKind.DISENGAGEMENT,
            TriggerKind.PERFORMANCE_DECLINE,
            TriggerKind.AT_RISK_FLAG,
            TriggerKind.INTERVENTION_REQUEST,
        }
    )

    report_every = 10

    def __init__(self):
        self.flagged: set[str] = set()

    def reason(self, percepts: dict) -> dict:
        view: TickView = percepts["view"]
        for event in percepts["inbox"]:
            if event.kind is TriggerKind.AT_RISK_FLAG:
                self.flagged.add(event.payload.get("student_id"))
        events = view.events
        submitted = events.kind == EventKind.SUBMISSION.code
        rows, values = events.student[submitted].tolist(), events.value[submitted].tolist()
        submissions = [(events.student_ids[i], value) for i, value in zip(rows, values)]
        report = None
        if (view.tick + 1) % self.report_every == 0:
            window = (max(0, view.tick - self.report_every + 1), view.tick)
            report = generate_class_report(
                view.cohort, window, risk_flags=frozenset(self.flagged)
            )
        return {"tick": view.tick, "submissions": submissions, "report": report}

    def act(self, decisions: dict, publish: Publisher) -> list[Action]:
        actions: list[Action] = []
        submissions = decisions["submissions"]
        if submissions:
            student_ids = sorted({sid for sid, _ in submissions})
            mean_score = sum(v for _, v in submissions) / len(submissions)
            payload = {
                "student_ids": student_ids,
                "count": len(submissions),
                "mean_score": mean_score,
            }
            publish.publish(TriggerKind.GRADE_POSTED, payload)
            actions.append(Action(kind="post_grades", detail=payload))
        report = decisions["report"]
        if report is not None:
            payload = {
                "window_start": report.window_start,
                "window_end": report.window_end,
                "class_mean": report.class_mean,
                "at_risk_count": report.at_risk_count,
            }
            publish.publish(TriggerKind.REPORT_READY, payload)
            actions.append(Action(kind="publish_report", detail=payload))
        return actions
