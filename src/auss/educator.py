"""Educator-level automation: objective-item grading, class reports, and
deterministic template quiz generation.

Grading is all-or-nothing per item and limited to objective kinds
(multiple choice, numeric with tolerance, normalized short text).
"""

from __future__ import annotations

import ast
import csv
import random
import re
import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .bus import AgentName, Event, TriggerKind
from .domain import AssessmentRecord, Cohort, EventKind
from .errors import ConfigError, MetricInputError
from .runtime import Action, Agent, Publisher, TickOutcome, TickView


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
        if self.points <= 0:
            raise ConfigError(f"points must be > 0, got {self.points}")
        if self.kind is ItemKind.NUMERIC:
            if self.tolerance is None or self.tolerance < 0:
                raise ConfigError(f"numeric item {self.item_id!r} needs tolerance >= 0")
            float(self.answer)  # must itself be parseable
        elif self.tolerance is not None:
            raise ConfigError(f"non-numeric item {self.item_id!r} must not set tolerance")


@dataclass(frozen=True)
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


def auto_grade(submission: AssessmentRecord, key: AnswerKey) -> GradeResult:
    """Grade one objective submission against its key (all-or-nothing).

    Numeric items match within |response - answer| <= tolerance; an
    unparsable numeric response scores zero with the failure noted rather
    than raising.
    """
    if submission.item_id != key.item_id:
        raise MetricInputError(
            f"submission item {submission.item_id!r} does not match key {key.item_id!r}"
        )
    note = None
    if key.kind is ItemKind.NUMERIC:
        try:
            response_value = float(submission.response.strip())
        except ValueError:
            matched = False
            note = "unparsable numeric response"
        else:
            matched = abs(response_value - float(key.answer)) <= (key.tolerance or 0.0)
    else:
        matched = normalize_answer(submission.response) == normalize_answer(key.answer)
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


def write_answer_keys(keys: Sequence[AnswerKey], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "kind", "answer", "tolerance", "points"])
        for key in keys:
            writer.writerow(
                [
                    key.item_id,
                    key.kind.value,
                    key.answer,
                    "" if key.tolerance is None else repr(key.tolerance),
                    repr(key.points),
                ]
            )


def read_answer_keys(path: str | Path) -> list[AnswerKey]:
    keys = []
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            tolerance = row["tolerance"]
            keys.append(
                AnswerKey(
                    item_id=row["item_id"],
                    kind=ItemKind(row["kind"]),
                    answer=row["answer"],
                    tolerance=None if tolerance == "" else float(tolerance),
                    points=float(row["points"]),
                )
            )
    return keys


# -- class reports ---------------------------------------------------------------


@dataclass(frozen=True)
class StudentSummary:
    student_id: str
    mean_score: float | None
    engagement_mean: float | None
    at_risk: bool


@dataclass(frozen=True)
class ClassReport:
    class_id: str
    window_start: int
    window_end: int
    per_student: tuple[StudentSummary, ...]
    class_mean: float | None
    class_median: float | None
    at_risk_count: int

    def to_json_dict(self) -> dict:
        return {
            "class_id": self.class_id,
            "window": [self.window_start, self.window_end],
            "per_student": [
                {
                    "student_id": s.student_id,
                    "mean_score": s.mean_score,
                    "engagement_mean": s.engagement_mean,
                    "at_risk": s.at_risk,
                }
                for s in self.per_student
            ],
            "class_mean": self.class_mean,
            "class_median": self.class_median,
            "at_risk_count": self.at_risk_count,
        }

    def format_text(self) -> str:
        lines = [
            f"Class report: {self.class_id} (ticks {self.window_start}-{self.window_end})",
            f"  students: {len(self.per_student)}  at-risk: {self.at_risk_count}",
            f"  class mean: {self.class_mean}  median: {self.class_median}",
        ]
        for s in self.per_student:
            lines.append(
                f"  {s.student_id}: score={s.mean_score} engagement={s.engagement_mean}"
                f"{' AT-RISK' if s.at_risk else ''}"
            )
        return "\n".join(lines)


def generate_class_report(
    cohort: Cohort,
    window: tuple[int, int],
    *,
    class_id: str = "all",
    rosters: Mapping[str, Sequence[str]] | None = None,
    risk_flags: frozenset[str] | set[str] = frozenset(),
) -> ClassReport:
    """Aggregate scores and engagement over a tick window (both ends inclusive).

    Scores come from submission events; engagement from every non-absence
    event. Class aggregates cover students with at least one score.
    """
    start, end = window
    if start > end or end < 0:
        raise MetricInputError(f"window {window} is empty")
    if rosters is None:
        rosters = {"all": list(cohort.student_ids)}
    if class_id not in rosters:
        raise MetricInputError(f"unknown class id {class_id!r}")
    roster = list(rosters[class_id])

    scores: dict[str, list[float]] = {sid: [] for sid in roster}
    engagement: dict[str, list[float]] = {sid: [] for sid in roster}
    for event in cohort.events:
        if event.student_id not in scores or not start <= event.tick <= end:
            continue
        if event.kind is EventKind.ABSENCE:
            continue
        engagement[event.student_id].append(event.value)
        if event.kind is EventKind.SUBMISSION:
            scores[event.student_id].append(event.value)

    per_student = tuple(
        StudentSummary(
            student_id=sid,
            mean_score=sum(scores[sid]) / len(scores[sid]) if scores[sid] else None,
            engagement_mean=(
                sum(engagement[sid]) / len(engagement[sid]) if engagement[sid] else None
            ),
            at_risk=sid in risk_flags,
        )
        for sid in roster
    )
    student_means = [s.mean_score for s in per_student if s.mean_score is not None]
    return ClassReport(
        class_id=class_id,
        window_start=start,
        window_end=end,
        per_student=per_student,
        class_mean=sum(student_means) / len(student_means) if student_means else None,
        class_median=statistics.median(student_means) if student_means else None,
        at_risk_count=sum(1 for s in per_student if s.at_risk),
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
    subscriptions = frozenset(
        {
            TriggerKind.DISENGAGEMENT,
            TriggerKind.PERFORMANCE_DECLINE,
            TriggerKind.AT_RISK_FLAG,
            TriggerKind.INTERVENTION_REQUEST,
        }
    )

    def __init__(self, cohort: Cohort, *, report_every: int = 10):
        super().__init__()
        self.cohort = cohort
        self.report_every = report_every
        self.flagged: set[str] = set()
        self.memory.data["grades_posted"] = 0
        self.memory.data["reports_generated"] = 0
        self.memory.data["alerts_received"] = 0

    def perceive(self, view: TickView, inbox: Sequence[Event]) -> dict:
        return {"view": view, "inbox": tuple(inbox)}

    def reason(self, percepts: dict) -> dict:
        view: TickView = percepts["view"]
        for event in percepts["inbox"]:
            if event.kind is TriggerKind.AT_RISK_FLAG:
                self.flagged.add(event.payload.get("student_id"))
            elif event.kind is TriggerKind.INTERVENTION_REQUEST:
                if event.payload.get("action") in ("send_alert", "escalate_to_educator"):
                    self.memory.data["alerts_received"] += 1
        submissions = [
            (e.student_id, e.value) for e in view.events if e.kind is EventKind.SUBMISSION
        ]
        report = None
        if self.report_every > 0 and (view.tick + 1) % self.report_every == 0:
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

    def evaluate(self, outcome: TickOutcome) -> None:
        for action in outcome.actions:
            if action.kind == "post_grades":
                self.memory.data["grades_posted"] += action.detail["count"]
            elif action.kind == "publish_report":
                self.memory.data["reports_generated"] += 1
