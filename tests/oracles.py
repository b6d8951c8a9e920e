"""Independent reference implementations used to check the package.

Everything here is written straight from the definitions (pure Python,
no shared code with the package) so the two sides can disagree.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Mapping, Sequence


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

    def cosine(u: list[float], v: list[float]) -> float:
        dot = sum(a * b for a, b in zip(u, v))
        nu = math.sqrt(sum(a * a for a in u))
        nv = math.sqrt(sum(b * b for b in v))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return dot / (nu * nv)

    query = row(student_id)
    observed = {rid for (sid, rid) in cells if sid == student_id}
    candidates = [rid for rid in resource_ids if rid not in observed]

    sims = []
    for sid in student_ids:
        if sid == student_id:
            continue
        sims.append((cosine(query, row(sid)), sid))
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
