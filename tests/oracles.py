"""Independent reference implementations used to check the package.

Everything here is written straight from the definitions (pure Python,
no shared code with the package) so the two sides can disagree. Two
exceptions: ``scalar_recommend`` keeps numpy's matrix-vector product for
similarity so that its floats can be compared with ``==``;
``object_grading_rate`` grades through the package's public grading
objects, which the fast evaluator no longer builds; and
``object_risk_evaluation`` fits with the package's ``fit_logistic`` and
scores with its dict-based ``f1_score``; ``json_events_reader`` raises the
package's ``CohortFormatError`` so that messages can be compared; and the
recursive regression tree (``DecisionTreeRegressor``, grown one node at a
time) sums with numpy, as the rounding of those sums is what the
level-wise forest must reproduce.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from auss.domain import AssessmentRecord, EventKind
from auss.educator import (
    ARITHMETIC_TEMPLATE,
    GradeResult,
    auto_grade,
    generate_quiz,
    grading_match_rate,
)
from auss.errors import CohortFormatError, InsufficientDataError, UntrainedModelError
from auss.experiment import derive_seed
from auss.institution import f1_score
from auss.learners import fit_logistic


def python_cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """dot(u, v) / (|u| |v|), summed left to right; 0 when either norm is zero."""
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def brute_force_recommend(
    student_ids: Sequence[str],
    resource_ids: Sequence[str],
    cells: Mapping[tuple[str, str], float],
    student_id: str,
    k: int,
    neighborhood: int,
) -> list[tuple[str, float]]:
    """Score every unseen resource directly from the CF definition."""

    def row(sid: str) -> list[float]:
        return [cells.get((sid, rid), 0.0) for rid in resource_ids]

    query = row(student_id)
    observed = {rid for (sid, rid) in cells if sid == student_id}
    candidates = [rid for rid in resource_ids if rid not in observed]

    sims = []
    for sid in student_ids:
        if sid == student_id:
            continue
        sims.append((python_cosine(query, row(sid)), sid))
    peers = sorted([p for p in sims if p[0] > 0.0], key=lambda p: (-p[0], p[1]))[:neighborhood]

    scored = []
    if peers:
        for rid in candidates:
            num = 0.0
            den = 0.0
            for sim, sid in peers:
                if (sid, rid) in cells:
                    num += sim * cells[(sid, rid)]
                    den += sim
            if den > 0.0:
                scored.append((rid, num / den))
    else:
        for rid in candidates:
            values = [v for (sid, r), v in cells.items() if r == rid]
            if values:
                scored.append((rid, sum(values) / len(values)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def scalar_recommend(
    student_ids: Sequence[str],
    resource_ids: Sequence[str],
    cells: Mapping[tuple[str, str], float],
    student_id: str,
    k: int,
    neighborhood: int,
) -> list[tuple[str, float]]:
    """User-based CF, one peer and one candidate at a time: the exact reference.

    Similarities are numpy's ``(dense @ query) / (norms * query_norm)``,
    as in the package, and each row takes the similarity of the first row
    equal to it; everything after that is scalar Python. Peers are
    sorted by (-similarity, student id); each score adds ``sim * value``
    over the peers in that order; the popularity fallback sums each
    resource's values in ``cells`` order.
    """
    row_of = {sid: i for i, sid in enumerate(student_ids)}
    col_of = {rid: j for j, rid in enumerate(resource_ids)}
    dense = np.zeros((len(student_ids), len(resource_ids)))
    for (sid, rid), value in cells.items():
        dense[row_of[sid], col_of[rid]] = value
    norms = np.linalg.norm(dense, axis=1)
    index = row_of[student_id]
    observed = {rid for (sid, rid) in cells if sid == student_id}
    candidates = [rid for rid in resource_ids if rid not in observed]
    if not candidates:
        return []

    query_norm = float(norms[index])
    peers: list[tuple[float, str]] = []
    if query_norm > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = (dense @ dense[index]) / (norms * query_norm)
        first_equal: dict[tuple[float, ...], int] = {}
        ranked = []
        for i, sid in enumerate(student_ids):
            sim = float(sims[first_equal.setdefault(tuple(dense[i].tolist()), i)])
            if i != index and norms[i] != 0.0 and sim > 0.0:
                ranked.append((sim, sid))
        ranked.sort(key=lambda peer: (-peer[0], peer[1]))
        peers = ranked[:neighborhood]

    scored: list[tuple[str, float]] = []
    if peers:
        for rid in candidates:
            numerator = 0.0
            denominator = 0.0
            for sim, sid in peers:
                value = cells.get((sid, rid))
                if value is not None:
                    numerator += sim * value
                    denominator += sim
            if denominator > 0.0:
                scored.append((rid, numerator / denominator))
    else:
        by_resource: dict[str, list[float]] = {}
        for (_sid, rid), value in cells.items():
            by_resource.setdefault(rid, []).append(value)
        for rid in candidates:
            values = by_resource.get(rid)
            if values:
                scored.append((rid, sum(values) / len(values)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def value_iteration(
    next_states: Sequence[Sequence[int]],
    rewards: Sequence[Sequence[float]],
    terminal: frozenset[int] | set[int],
    gamma: float,
    tol: float = 1e-12,
    max_iters: int = 1_000_000,
) -> list[list[float]]:
    """Optimal Q values of a deterministic finite MDP."""
    n_states = len(next_states)
    n_actions = len(next_states[0])
    q = [[0.0] * n_actions for _ in range(n_states)]
    for _ in range(max_iters):
        delta = 0.0
        for s in range(n_states):
            if s in terminal:
                continue
            for a in range(n_actions):
                s2 = next_states[s][a]
                if s2 in terminal:
                    target = rewards[s][a]
                else:
                    target = rewards[s][a] + gamma * max(q[s2])
                delta = max(delta, abs(target - q[s][a]))
                q[s][a] = target
        if delta < tol:
            break
    return q


def numpy_train_on_mdp(
    mdp, config, episodes: int, *, max_steps_per_episode: int = 50
) -> tuple[np.ndarray, list[float]]:
    """Epsilon-greedy Q-learning on a numpy table, with its own greedy choice
    (``np.argmax``), epsilon draw and terminal-case TD target (r alone).

    ``policy.train_on_mdp`` must give the same Q bytes and return curve.
    """
    q = np.zeros((mdp.n_states, mdp.n_actions))
    rng = random.Random(config.rng_seed)
    epsilon = config.epsilon
    curve: list[float] = []
    for _ in range(episodes):
        state = mdp.start_state
        episode_return = 0.0
        for _ in range(max_steps_per_episode):
            if state in mdp.terminal_states:
                break
            if rng.random() < epsilon:
                action = rng.randrange(mdp.n_actions)
            else:
                action = int(np.argmax(q[state]))
            next_state = mdp.next_states[state][action]
            reward = mdp.rewards[state][action]
            episode_return += reward
            if next_state in mdp.terminal_states:
                target = reward
            else:
                target = reward + config.gamma * float(np.max(q[next_state]))
            q[state, action] += config.alpha * (target - q[state, action])
            state = next_state
        curve.append(episode_return)
        epsilon *= config.epsilon_decay
    return q, curve


def confusion_f1(
    predicted: Mapping[str, bool], actual: Mapping[str, bool]
) -> tuple[float, float, float]:
    """Precision/recall/F1 by explicit confusion-matrix counting."""
    tp = fp = fn = 0
    for key in predicted:
        p, a = predicted[key], actual[key]
        if p and a:
            tp += 1
        elif p and not a:
            fp += 1
        elif not p and a:
            fn += 1
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def polyfit_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope via the closed form, coded independently."""
    n = len(points)
    if n < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, _ in points)
    if den == 0.0:
        return 0.0
    return num / den


def match_rate_oracle(
    ours: Mapping[tuple[str, str], float], theirs: Mapping[tuple[str, str], float]
) -> float:
    agreed = sum(1 for pair in ours if ours[pair] == theirs[pair])
    return agreed / len(ours)


def object_grading_rate(
    abilities: Mapping[str, float], quiz_items: int, sloppy_answer_rate: float, seed: int
) -> float:
    """Grading match rate with one ``AssessmentRecord`` and two ``GradeResult``s
    per (student, item), compared by ``grading_match_rate``: the object-based
    form of ``experiment.evaluate_grading``."""
    quiz = generate_quiz(ARITHMETIC_TEMPLATE, derive_seed(seed, "quiz"), quiz_items)
    rng = random.Random(derive_seed(seed, "responses"))
    auto: list[GradeResult] = []
    reference: list[GradeResult] = []
    for sid in sorted(abilities):
        ability = abilities[sid]
        for _question, key in quiz:
            canonical = float(key.answer)
            is_correct = rng.random() < ability
            if is_correct:
                if rng.random() < sloppy_answer_rate:
                    response = f"{key.answer} points"
                else:
                    response = rng.choice([key.answer, f" {key.answer} ", f"{canonical:.1f}"])
            else:
                response = repr(canonical + (key.tolerance or 0.0) + 1.0 + rng.random())
            submission = AssessmentRecord(sid, key.item_id, response)
            auto.append(auto_grade(submission, key))
            reference.append(
                GradeResult(
                    student_id=sid,
                    item_id=key.item_id,
                    awarded=key.points if is_correct else 0.0,
                    matched=is_correct,
                )
            )
    return grading_match_rate(auto, reference)


def object_risk_evaluation(
    cohort, split: float, threshold: float, seed: int
) -> tuple[float, float, float]:
    """Held-out dropout-risk precision/recall/F1 one student at a time: the
    object form of ``experiment.evaluate_risk``.

    Feature rows come from a ``DictFeatureTracker`` fed every event; the
    test students are scored one ``predict_proba_one`` call each, and their
    flags and labels go to ``f1_score`` as dicts.
    """
    tracker = DictFeatureTracker(cohort.students, window_len=1)
    grouped = group_events_by_tick(cohort.events)
    for tick in sorted(grouped):
        tracker.ingest(tick, grouped[tick])
    ids = [s.student_id for s in cohort.students]
    features = {sid: tracker.features(sid) for sid in ids}
    dropped = {sid: cohort.ground_truth.dropped(sid) for sid in ids}
    order = np.random.default_rng(derive_seed(seed, "risk-split")).permutation(len(ids))
    n_train = min(len(ids) - 1, max(1, int(round(split * len(ids)))))
    train = [ids[i] for i in order[:n_train].tolist()]
    test = [ids[i] for i in order[n_train:].tolist()]
    model = fit_logistic(
        np.array([features[sid] for sid in train]),
        np.array([1.0 if dropped[sid] else 0.0 for sid in train]),
    )
    predicted = {sid: model.predict_proba_one(features[sid]) >= threshold for sid in test}
    result = f1_score(predicted, {sid: dropped[sid] for sid in test})
    return result.precision, result.recall, result.f1


class DictFeatureTracker:
    """Per-student dict tracker: one Python pass over every event per tick.

    The slow reference for ``institution.FeatureTracker``. ``features``
    returns the FEATURE_ORDER tuple; engagement and score series are
    per-tick means summed in event order, slopes are least-squares fits
    against tick from running sums (n, sum_y, sum_x, sum_xy, sum_xx).
    """

    def __init__(self, students: Sequence, window_len: int = 5) -> None:
        self.window_len = window_len
        self._enrollment = {s.student_id: s.enrollment_tick for s in students}
        self._credits = {
            s.student_id: float(s.static_features.get("credits_attempted", 0.0)) for s in students
        }
        self._engagement: dict[str, list] = {}
        self._scores: dict[str, list] = {}
        self._absence_ticks: dict[str, int] = {}
        self._last_event_tick: dict[str, int] = {}
        self._window_engagement: dict[str, deque] = {}
        self._window_scores: dict[str, deque] = {}

    @staticmethod
    def _add(sums: list, x: float, y: float) -> None:
        sums[0] += 1
        sums[1] += y
        sums[2] += x
        sums[3] += x * y
        sums[4] += x * x

    @staticmethod
    def _mean_slope(sums: list) -> tuple[float, float]:
        n, sum_y, sum_x, sum_xy, sum_xx = sums
        mean = sum_y / n if n else 0.0
        if n < 2:
            return mean, 0.0
        denom = n * sum_xx - sum_x * sum_x
        if denom == 0.0:
            return mean, 0.0
        return mean, (n * sum_xy - sum_x * sum_y) / denom

    def ingest(self, tick: int, events: Sequence) -> None:
        engagement_acc: dict[str, list[float]] = {}
        score_acc: dict[str, list[float]] = {}
        absent: set[str] = set()
        for event in events:
            sid = event.student_id
            self._last_event_tick[sid] = max(self._last_event_tick.get(sid, tick), tick)
            if event.kind.value == "absence":
                absent.add(sid)
            else:
                engagement_acc.setdefault(sid, []).append(event.value)
                if event.kind.value == "submission":
                    score_acc.setdefault(sid, []).append(event.value)
        for sid in absent:
            self._absence_ticks[sid] = self._absence_ticks.get(sid, 0) + 1
        for sid, values in engagement_acc.items():
            mean = sum(values) / len(values)
            self._add(self._engagement.setdefault(sid, [0, 0.0, 0.0, 0.0, 0.0]), float(tick), mean)
            self._window_engagement.setdefault(sid, deque(maxlen=self.window_len)).append(mean)
        for sid, values in score_acc.items():
            mean = sum(values) / len(values)
            self._add(self._scores.setdefault(sid, [0, 0.0, 0.0, 0.0, 0.0]), float(tick), mean)
            self._window_scores.setdefault(sid, deque(maxlen=self.window_len)).append(
                (float(tick), mean)
            )

    def features(self, student_id: str) -> tuple[float, ...]:
        mean_engagement, engagement_slope = self._mean_slope(
            self._engagement.get(student_id, [0, 0.0, 0.0, 0.0, 0.0])
        )
        mean_score, score_slope = self._mean_slope(
            self._scores.get(student_id, [0, 0.0, 0.0, 0.0, 0.0])
        )
        last = self._last_event_tick.get(student_id)
        if last is None:
            absence_rate = 0.0
        else:
            elapsed = max(1, last - self._enrollment[student_id] + 1)
            absence_rate = min(1.0, self._absence_ticks.get(student_id, 0) / elapsed)
        return (
            mean_engagement,
            engagement_slope,
            mean_score,
            score_slope,
            absence_rate,
            self._credits[student_id],
        )

    def window_engagement_values(self, student_id: str) -> list[float]:
        return list(self._window_engagement.get(student_id, ()))

    def window_score_points(self, student_id: str) -> list[tuple[float, float]]:
        return list(self._window_scores.get(student_id, ()))


class ScalarGapDetector:
    """The two learning-gap rules, one student at a time, with a dict cooldown.

    Disengagement: ``sum(window) / len(window)`` below the engagement
    threshold. Performance decline: at least two score points and a
    least-squares slope (running sums, as ``DictFeatureTracker``) below the
    slope threshold. A (student, kind) fires at most once per
    ``window_len`` ticks. Signals are (kind, student id, value).
    """

    def __init__(
        self, window_len: int = 5, engagement_threshold: float = 0.33, slope_threshold: float = -0.01
    ) -> None:
        self.window_len = window_len
        self.engagement_threshold = engagement_threshold
        self.slope_threshold = slope_threshold
        self._last_emitted: dict[tuple[str, str], int] = {}

    def gaps(
        self, engagement_window: Sequence[float], score_points: Sequence[tuple[float, float]]
    ) -> list[tuple[str, float]]:
        found = []
        if engagement_window:
            mean = sum(engagement_window) / len(engagement_window)
            if mean < self.engagement_threshold:
                found.append(("disengagement", mean))
        if len(score_points) >= 2:
            sums = [0, 0.0, 0.0, 0.0, 0.0]
            for x, y in score_points:
                DictFeatureTracker._add(sums, x, y)
            _mean, slope = DictFeatureTracker._mean_slope(sums)
            if slope < self.slope_threshold:
                found.append(("performance_decline", slope))
        return found

    def update(
        self,
        student_id: str,
        tick: int,
        engagement_window: Sequence[float],
        score_points: Sequence[tuple[float, float]],
    ) -> list[tuple[str, str, float]]:
        signals = []
        for kind, value in self.gaps(engagement_window, score_points):
            last = self._last_emitted.get((student_id, kind))
            if last is None or tick - last >= self.window_len:
                self._last_emitted[(student_id, kind)] = tick
                signals.append((kind, student_id, value))
        return signals


# -- event streams, one event object at a time ----------------------------------


def group_events_by_tick(events: Sequence) -> dict[int, list]:
    """Events per tick in stream order, ticks in first-seen order."""
    grouped: dict[int, list] = {}
    for event in events:
        grouped.setdefault(event.tick, []).append(event)
    return grouped


def window_features(events: Sequence, tick: int, window_len: int, kinds: Sequence) -> list[float]:
    """Lag features from one student's events over (tick - window_len, tick].

    Per kind, in the order given: event count, mean event value, and the
    least-squares slope (running sums, as ``DictFeatureTracker``) of
    per-tick mean values against tick, ticks ascending. An empty window
    yields all zeros.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be >= 1, got {window_len}")
    features: list[float] = []
    for kind in kinds:
        values: list[float] = []
        values_by_tick: dict[int, list[float]] = {}
        for event in events:
            if event.kind is kind and tick - window_len < event.tick <= tick:
                values.append(event.value)
                values_by_tick.setdefault(event.tick, []).append(event.value)
        sums = [0, 0.0, 0.0, 0.0, 0.0]
        for t in sorted(values_by_tick):
            DictFeatureTracker._add(sums, float(t), sum(values_by_tick[t]) / len(values_by_tick[t]))
        _mean, slope = DictFeatureTracker._mean_slope(sums)
        features.extend([float(len(values)), sum(values) / len(values) if values else 0.0, slope])
    return features


def scalar_validate_events(
    student_ids: Sequence[str], resource_ids: Sequence[str], events: Sequence
) -> list[tuple[str, str, str]]:
    """The event rules, one event at a time: (entity id, rule, message) per violation."""
    students, resources = set(student_ids), set(resource_ids)
    found = []
    last_tick: dict[str, int] = {}
    for event in events:
        if event.student_id not in students:
            found.append((event.student_id, "unknown_student", "event references unknown student"))
        if event.resource_id is not None and event.resource_id not in resources:
            found.append(
                (event.resource_id, "unknown_resource", "event references unknown resource")
            )
        if event.tick < 0:
            found.append((event.student_id, "event_tick_nonnegative", f"tick {event.tick} < 0"))
        if not (math.isfinite(event.value) and 0.0 <= event.value <= 1.0):
            found.append(
                (event.student_id, "event_value_range", f"value {event.value!r} outside [0, 1]")
            )
        previous = last_tick.get(event.student_id)
        if previous is not None and event.tick < previous:
            found.append(
                (
                    event.student_id,
                    "event_tick_order",
                    f"tick {event.tick} after tick {previous} for the same student",
                )
            )
        last_tick[event.student_id] = event.tick
    return found


def scalar_validate_assessments(
    student_ids: Sequence[str], assessments: Sequence[AssessmentRecord]
) -> list[tuple[str, str, str]]:
    """The assessment rules, one record at a time: (entity id, rule, message) per violation."""
    students = set(student_ids)
    found = []
    for assessment in assessments:
        if assessment.student_id not in students:
            found.append(
                (assessment.student_id, "unknown_student", "assessment references unknown student")
            )
        score = assessment.score
        if score is not None and not (
            isinstance(score, (int, float)) and math.isfinite(score) and 0.0 <= score <= 1.0
        ):
            found.append(
                (assessment.student_id, "assessment_score_range", f"score {score!r} outside [0, 1]")
            )
    return found


def scalar_class_report(
    roster: Sequence[str], events: Sequence, window: tuple[int, int], risk_flags
) -> tuple[float | None, int]:
    """(class mean, at-risk count): mean of per-student mean submission scores in the window."""
    start, end = window
    scores: dict[str, list[float]] = {sid: [] for sid in roster}
    for event in events:
        if event.student_id in scores and start <= event.tick <= end:
            if event.kind.value == "submission":
                scores[event.student_id].append(event.value)
    means = [sum(scores[sid]) / len(scores[sid]) for sid in roster if scores[sid]]
    mean = sum(means) / len(means) if means else None
    return mean, sum(1 for sid in roster if sid in risk_flags)


def json_events_reader(
    path, student_ids: Sequence[str], resource_ids: Sequence[str]
) -> tuple[list[int], list[int], list[int], list[float], list[int], list, list]:
    """The events of an events.jsonl file, one ``json.loads`` per line.

    Returns the student, tick, kind-code, value and resource columns as
    lists (-1 for no resource) and the two id tables, which start with the
    given ids and gain an unknown id the first time a line names it. A line
    that breaks the format raises ``CohortFormatError`` with the message and
    line the package's reader gives; the first check that fails names it. A
    byte that is not UTF-8 is one too, once the text reader's block holding
    it is decoded, so a line error in an earlier block comes first.
    """
    fields = {"student_id", "tick", "kind", "value", "resource_id"}
    kinds = [kind.value for kind in EventKind]
    students, resources = list(student_ids), list(resource_ids)
    student_row = {sid: i for i, sid in enumerate(students)}
    resource_row = {rid: j for j, rid in enumerate(resources)}
    columns: tuple[list, ...] = ([], [], [], [], [])

    def row(table: list, rows: dict, key) -> int:
        if key not in rows:
            rows[key] = len(table)
            table.append(key)
        return rows[key]

    def fail(message: str, line_no: int):
        raise CohortFormatError(message, path=str(path), line=line_no)

    def text_lines():
        """(line number, line) of the file read as text, which decodes it in
        blocks; a byte that is not UTF-8 fails at the line of the file's first."""
        with open(path, encoding="utf-8") as fh:
            try:
                yield from enumerate(fh, start=1)
            except UnicodeDecodeError:
                data = open(path, "rb").read()
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    fail(f"not valid UTF-8 ({exc.reason})", data.count(b"\n", 0, exc.start) + 1)

    for line_no, line in text_lines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except (ValueError, RecursionError) as exc:
            fail(f"invalid JSON: {getattr(exc, 'msg', exc)}", line_no)
        if not isinstance(data, dict):
            fail("an event must be a JSON object", line_no)
        if set(data) != fields:
            unknown, missing = sorted(set(data) - fields), sorted(fields - set(data))
            parts = [f"unknown fields {unknown}"] if unknown else []
            parts += [f"missing fields {missing}"] if missing else []
            fail("; ".join(parts), line_no)
        if data["kind"] not in kinds:
            fail(f"unknown event kind {data['kind']!r}", line_no)
        student = str(data["student_id"])
        tick = data["tick"]
        if isinstance(tick, float) and tick.is_integer():
            tick = int(tick)
        elif isinstance(tick, bool) or not isinstance(tick, int):
            fail(f"tick {tick!r} is not an integer", line_no)
        value = data["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"value {value!r} is not a number", line_no)
        try:
            value = float(value)
        except OverflowError:
            fail("value is an integer too large for a float", line_no)
        if not -(2**63) <= tick < 2**63:
            fail(f"tick {tick} is outside the 64-bit integer range", line_no)
        columns[0].append(row(students, student_row, student))
        columns[1].append(tick)
        columns[2].append(kinds.index(data["kind"]))
        columns[3].append(value)
        resource = data["resource_id"]
        if resource is not None:
            resource = row(resources, resource_row, str(resource))
        columns[4].append(-1 if resource is None else resource)
    return (*columns, students, resources)


def json_cohort_writer(cohort, directory) -> None:
    """The five cohort files as the json and csv modules spell them.

    One ``json.dumps(record, sort_keys=True, separators=(",", ":"))`` per
    event, read from ``cohort.events``; ground_truth.json (if the cohort has
    ground truth) as ``json.dumps(data, indent=2, sort_keys=True)``; and CSV
    rows whose float cells are each value's ``repr`` (of the value as a
    float: a ``np.float64`` reprs as ``np.float64(0.5)``).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    names = sorted({name for student in cohort.students for name in student.static_features})
    with open(directory / "students.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "enrollment_tick", *names])
        for student in cohort.students:
            row = [student.student_id, str(student.enrollment_tick)]
            for name in names:
                value = student.static_features.get(name)
                row.append("" if value is None else repr(float(value)))
            writer.writerow(row)

    with open(directory / "resources.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resource_id", "topic_tag", "difficulty"])
        for resource in cohort.resources:
            difficulty = repr(float(resource.difficulty))
            writer.writerow([resource.resource_id, resource.topic_tag, difficulty])

    with open(directory / "events.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for event in cohort.events:
            record = {
                "student_id": event.student_id,
                "tick": event.tick,
                "kind": event.kind.value,
                "value": event.value,
                "resource_id": event.resource_id,
            }
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")

    with open(directory / "assessments.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "item_id", "response", "score"])
        for a in cohort.assessments:
            writer.writerow(
                [a.student_id, a.item_id, a.response, "" if a.score is None else repr(a.score)]
            )

    truth = cohort.ground_truth
    if truth is not None:
        data = {
            "abilities": dict(truth.abilities),
            "preference_rankings": {sid: list(r) for sid, r in truth.preference_rankings.items()},
            "dropout_ticks": dict(truth.dropout_ticks),
        }
        with open(directory / "ground_truth.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True))


# -- regression trees, one node at a time -----------------------------------------


@dataclass
class TreeNode:
    """Internal node splits on feature <= threshold; leaves carry a value."""

    value: float
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _best_split(x: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[int, float] | None:
    """Scan every feature for the split minimizing total squared error.

    Ties resolve to the lowest feature index, then the lowest threshold,
    so refitting the same data always builds the same tree.
    """
    n = len(y)
    if n < 2 * min_leaf:
        return None
    best: tuple[float, int, float] | None = None
    total_sum = float(y.sum())
    total_sq = float((y * y).sum())
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        # candidate split after position i (left gets i+1 rows)
        positions = np.arange(min_leaf - 1, n - min_leaf)
        valid = xs[positions] != xs[positions + 1]
        positions = positions[valid]
        if len(positions) == 0:
            continue
        n_left = positions + 1.0
        n_right = n - n_left
        left_sum = csum[positions]
        left_sq = csq[positions]
        sse = (left_sq - left_sum * left_sum / n_left) + (
            (total_sq - left_sq) - (total_sum - left_sum) ** 2 / n_right
        )
        k = int(np.argmin(sse))  # first minimum: lowest threshold wins ties
        if best is None or sse[k] < best[0] - 1e-12:
            lower, upper = xs[positions[k]], xs[positions[k] + 1]
            midpoint = (lower + upper) / 2.0
            best = (float(sse[k]), j, float(midpoint if midpoint < upper else lower))
    if best is None:
        return None
    return best[1], best[2]


def _grow(x: np.ndarray, y: np.ndarray, depth: int, max_depth: int, min_leaf: int) -> TreeNode:
    node = TreeNode(value=float(y.mean()))
    if depth >= max_depth or len(y) < 2 * min_leaf or np.all(y == y[0]):
        return node
    split = _best_split(x, y, min_leaf)
    if split is None:
        return node
    j, threshold = split
    mask = x[:, j] <= threshold
    node.feature = j
    node.threshold = threshold
    node.left = _grow(x[mask], y[mask], depth + 1, max_depth, min_leaf)
    node.right = _grow(x[~mask], y[~mask], depth + 1, max_depth, min_leaf)
    return node


class DecisionTreeRegressor:
    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 2):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.root: TreeNode | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(y) == 0:
            raise InsufficientDataError("cannot fit a tree on zero samples")
        self.root = _grow(x, y, 0, self.max_depth, self.min_samples_leaf)
        return self

    def predict_one(self, row: Sequence[float]) -> float:
        if self.root is None:
            raise UntrainedModelError("tree is not fitted; call fit first")
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([self.predict_one(row) for row in x])


def recursive_forest_predict(
    x: np.ndarray,
    y: np.ndarray,
    x_test: np.ndarray,
    *,
    n_trees: int,
    max_depth: int,
    bootstrap_fraction: float,
    min_samples_leaf: int,
    seed: int,
) -> np.ndarray:
    """``BaggedTreeRegressor(...).fit(x, y).predict(x_test)`` with each tree grown recursively.

    The bootstrap samples come tree by tree from ``default_rng(seed)``, and
    the trees' predictions are added one by one from zeros, in tree order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    sample_size = max(1, int(round(bootstrap_fraction * len(y))))
    trees = []
    for _ in range(n_trees):
        idx = rng.integers(0, len(y), size=sample_size)
        trees.append(DecisionTreeRegressor(max_depth, min_samples_leaf).fit(x[idx], y[idx]))
    acc = np.zeros(len(x_test))
    for tree in trees:
        acc += tree.predict(x_test)
    return acc / n_trees
