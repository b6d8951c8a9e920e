"""Synthetic cohort generation with known ground truth.

The generative model is documented so every downstream learner has a
matched, analyzable target:

- latent ability per student ~ Beta(alpha, beta), fixed for the run;
- engagement follows an AR(1) pull toward ability,
  e_t = clip(rho * e_{t-1} + (1 - rho) * ability + noise);
- every event's value carries the student's engagement intensity e_t
  (submissions carry the assessment score, itself ability plus noise);
- resource views pick resources with probability decaying in
  |difficulty - ability| (softmax with view_temperature), which makes
  peer view patterns encode preferences;
- absences occur with probability absence_rate * (1 - e_t); an absent
  student emits only the absence event that tick;
- assessments land every assess_every ticks as a submission event plus an
  AssessmentRecord with the same score;
- dropout is evaluated every dropout_check_every ticks with probability
  logistic(hazard_bias + hazard_weights . aggregate features so far);
  dropped students emit no further events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cohort_files import read_cohort, write_cohort
from .domain import (
    AssessmentRecord,
    Cohort,
    EngagementEvent,
    EventKind,
    GroundTruth,
    LearningResource,
    StudentRecord,
)
from .errors import ConfigError
from .institution import FEATURE_ORDER
from .learners import sigmoid


@dataclass(frozen=True)
class GeneratorConfig:
    n_students: int = 1000
    n_resources: int = 20
    n_ticks: int = 50
    seed: int = 42
    ability_alpha: float = 2.0
    ability_beta: float = 2.0
    engagement_persistence: float = 0.6  # AR(1) rho
    noise_scale: float = 0.05
    hazard_bias: float = 2.0
    hazard_weights: tuple[float, ...] = (-8.0, 0.0, -8.0, 0.0, 2.0, 0.0)
    dropout_check_every: int = 5
    assess_every: int = 5
    view_temperature: float = 0.1
    forum_rate: float = 0.3
    absence_rate: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "hazard_weights", tuple(float(w) for w in self.hazard_weights))
        for name in ("n_students", "n_resources", "n_ticks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.engagement_persistence < 1.0:
            raise ConfigError(
                f"engagement_persistence must be in [0, 1), got {self.engagement_persistence}"
            )
        if self.noise_scale < 0.0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.ability_alpha <= 0.0 or self.ability_beta <= 0.0:
            raise ConfigError("ability_alpha and ability_beta must be > 0")
        if len(self.hazard_weights) != len(FEATURE_ORDER):
            raise ConfigError(
                f"hazard_weights needs {len(FEATURE_ORDER)} entries (order {FEATURE_ORDER}), "
                f"got {len(self.hazard_weights)}"
            )
        for name in ("dropout_check_every", "assess_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.view_temperature <= 0.0:
            raise ConfigError(f"view_temperature must be > 0, got {self.view_temperature}")
        for name in ("forum_rate", "absence_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return {
            "n_students": self.n_students,
            "n_resources": self.n_resources,
            "n_ticks": self.n_ticks,
            "seed": self.seed,
            "ability_alpha": self.ability_alpha,
            "ability_beta": self.ability_beta,
            "engagement_persistence": self.engagement_persistence,
            "noise_scale": self.noise_scale,
            "hazard_bias": self.hazard_bias,
            "hazard_weights": list(self.hazard_weights),
            "dropout_check_every": self.dropout_check_every,
            "assess_every": self.assess_every,
            "view_temperature": self.view_temperature,
            "forum_rate": self.forum_rate,
            "absence_rate": self.absence_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorConfig":
        known = set(cls().to_dict())
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown generator config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "hazard_weights" in kwargs:
            kwargs["hazard_weights"] = tuple(kwargs["hazard_weights"])
        return cls(**kwargs)


def _clip01(values: np.ndarray) -> np.ndarray:
    return np.clip(values, 0.0, 1.0)


def _cumulative_series_stats(
    values: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-student cumulative (count, sum_y, sum_x, sum_xy, sum_xx) along ticks."""
    # Apart from domain.SeriesStats: one numpy formula for both would slow each policy_signals call.
    ticks = np.arange(values.shape[1], dtype=float)
    masked = np.where(mask, values, 0.0)
    count = np.cumsum(mask, axis=1)
    sum_y = np.cumsum(masked, axis=1)
    sum_x = np.cumsum(np.where(mask, ticks, 0.0), axis=1)
    sum_xy = np.cumsum(masked * ticks, axis=1)
    sum_xx = np.cumsum(np.where(mask, ticks * ticks, 0.0), axis=1)
    return count, sum_y, sum_x, sum_xy, sum_xx


def _stats_at(
    cumulative: tuple[np.ndarray, ...], column: int
) -> tuple[np.ndarray, np.ndarray]:
    """(mean, slope) per student from cumulative sums up to ``column``."""
    count, sum_y, sum_x, sum_xy, sum_xx = (c[:, column] for c in cumulative)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(count > 0, sum_y / np.maximum(count, 1), 0.0)
        denom = count * sum_xx - sum_x * sum_x
        slope = np.where(
            (count >= 2) & (denom != 0.0),
            (count * sum_xy - sum_x * sum_y) / np.where(denom == 0.0, 1.0, denom),
            0.0,
        )
    return mean, slope


def generate_cohort(config: GeneratorConfig) -> tuple[Cohort, GroundTruth]:
    """Deterministically synthesize a cohort plus its ground truth."""
    n, t_max, m = config.n_students, config.n_ticks, config.n_resources
    rng = np.random.default_rng(config.seed)

    ability = rng.beta(config.ability_alpha, config.ability_beta, n)
    gpa_noise = rng.normal(0.0, config.noise_scale, n)
    credits = rng.integers(6, 30, n)

    width = max(4, len(str(n - 1)))
    student_ids = [f"s{i:0{width}d}" for i in range(n)]
    students = tuple(
        StudentRecord(
            student_id=student_ids[i],
            static_features={
                "prior_gpa": float(4.0 * min(1.0, max(0.0, ability[i] + gpa_noise[i]))),
                "credits_attempted": float(credits[i]),
            },
            enrollment_tick=0,
        )
        for i in range(n)
    )

    difficulties = np.array([0.5]) if m == 1 else np.arange(m) / (m - 1)
    resources = tuple(
        LearningResource(f"r{j:03d}", f"topic-{j % 5}", float(difficulties[j])) for j in range(m)
    )

    # Engagement process and all random draws, laid out up front so the
    # draw order is independent of dropout outcomes.
    rho, sigma = config.engagement_persistence, config.noise_scale
    noise = rng.normal(0.0, sigma, (n, t_max))
    engagement = np.empty((n, t_max))
    engagement[:, 0] = _clip01(ability + noise[:, 0])
    for t in range(1, t_max):
        engagement[:, t] = _clip01(rho * engagement[:, t - 1] + (1.0 - rho) * ability + noise[:, t])

    u_absent = rng.random((n, t_max))
    u_forum = rng.random((n, t_max))
    u_view = rng.random((n, t_max))
    score_noise = rng.normal(0.0, sigma, (n, t_max))
    u_drop = rng.random((n, t_max))

    absent = u_absent < config.absence_rate * (1.0 - engagement)
    forum = (u_forum < config.forum_rate * engagement) & ~absent
    scores = _clip01(ability[:, None] + score_noise)
    assess_tick = np.array(
        [t > 0 and t % config.assess_every == 0 for t in range(t_max)], dtype=bool
    )

    # Preference-weighted resource choice, fixed weights per student.
    affinity = np.exp(-np.abs(difficulties[None, :] - ability[:, None]) / config.view_temperature)
    cum_weights = np.cumsum(affinity, axis=1)
    cum_weights /= cum_weights[:, -1:]
    view_choice = np.empty((n, t_max), dtype=int)
    for i in range(n):
        view_choice[i] = np.searchsorted(cum_weights[i], u_view[i], side="right")
    view_choice = np.minimum(view_choice, m - 1)

    # Per-tick engagement mean over the non-absence events a tick will emit:
    # login + view always, forum when drawn, submission on assessment ticks.
    n_parts = 2.0 + forum.astype(float) + (assess_tick[None, :] & ~absent).astype(float)
    value_sum = engagement * (2.0 + forum.astype(float)) + np.where(
        assess_tick[None, :] & ~absent, scores, 0.0
    )
    tick_mean = np.where(~absent, value_sum / n_parts, 0.0)

    engagement_stats = _cumulative_series_stats(tick_mean, ~absent)
    score_stats = _cumulative_series_stats(scores, assess_tick[None, :] & ~absent)
    absent_cum = np.cumsum(absent, axis=1)

    hazard_w = np.array(config.hazard_weights)
    dropout_tick = np.full(n, -1, dtype=int)  # -1 means never
    active = np.ones(n, dtype=bool)
    for t in range(1, t_max):
        if t % config.dropout_check_every != 0:
            continue
        if t <= config.assess_every:
            # No assessment signal exists yet; hazard on all-zero score
            # features would just be noise, so the first check waits.
            continue
        mean_eng, slope_eng = _stats_at(engagement_stats, t - 1)
        mean_score, slope_score = _stats_at(score_stats, t - 1)
        absence_frac = absent_cum[:, t - 1] / t
        features = np.column_stack(
            [mean_eng, slope_eng, mean_score, slope_score, absence_frac, credits.astype(float)]
        )
        p_drop = sigmoid(config.hazard_bias + features @ hazard_w)
        dropping = active & (u_drop[:, t] < p_drop)
        dropout_tick[dropping] = t
        active &= ~dropping

    events: list[EngagementEvent] = []
    assessments: list[AssessmentRecord] = []
    for t in range(t_max):
        for i in range(n):
            if dropout_tick[i] != -1 and t >= dropout_tick[i]:
                continue
            sid = student_ids[i]
            e_value = float(engagement[i, t])
            if absent[i, t]:
                events.append(EngagementEvent(sid, t, EventKind.ABSENCE, e_value))
                continue
            events.append(EngagementEvent(sid, t, EventKind.LOGIN, e_value))
            events.append(
                EngagementEvent(
                    sid, t, EventKind.RESOURCE_VIEW, e_value,
                    resource_id=resources[view_choice[i, t]].resource_id,
                )
            )
            if forum[i, t]:
                events.append(EngagementEvent(sid, t, EventKind.FORUM_POST, e_value))
            if assess_tick[t]:
                score = float(scores[i, t])
                events.append(EngagementEvent(sid, t, EventKind.SUBMISSION, score))
                assessments.append(
                    AssessmentRecord(sid, f"exam-{t:03d}", f"{score:.4f}", score)
                )

    rankings = {}
    for i in range(n):
        order = sorted(resources, key=lambda r: (abs(r.difficulty - ability[i]), r.resource_id))
        rankings[student_ids[i]] = tuple(r.resource_id for r in order)
    truth = GroundTruth(
        abilities={student_ids[i]: float(ability[i]) for i in range(n)},
        preference_rankings=rankings,
        dropout_ticks={
            student_ids[i]: (None if dropout_tick[i] == -1 else int(dropout_tick[i]))
            for i in range(n)
        },
    )

    cohort = Cohort(
        students=students,
        events=tuple(events),
        assessments=tuple(assessments),
        resources=resources,
        ground_truth=truth,
    )
    return cohort, truth


def export_cohort(cohort: Cohort, directory: str | Path) -> None:
    """Write the interchange files; ground truth is included when present."""
    write_cohort(cohort, directory)


def import_cohort(directory: str | Path) -> Cohort:
    """Read a cohort back; import(export(c)) reproduces c field for field."""
    return read_cohort(directory)
