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
- assessments land every assess_every ticks as a submission event; the
  cohort's assessment columns are those events (item exam-{tick:03d}, the
  score to 4 places as the response);
- dropout is evaluated every dropout_check_every ticks with probability
  logistic(hazard_bias + hazard_weights . aggregate features so far);
  dropped students emit no further events.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cohort_files import read_cohort, write_cohort
from .domain import (
    AssessmentColumns,
    Cohort,
    EventColumns,
    EventKind,
    GroundTruth,
    LearningResource,
    StudentRecord,
    series_mean_slope,
)
from .errors import ConfigError, check_config_types
from .institution import FEATURE_ORDER
from .learners import sigmoid


#: The largest size numpy accepts for an array dimension.
_MAX_SIZE = np.iinfo(np.intp).max


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
        check_config_types("generator", self)
        object.__setattr__(self, "hazard_weights", tuple(float(w) for w in self.hazard_weights))
        for name in ("n_students", "n_resources", "n_ticks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
            if getattr(self, name) > _MAX_SIZE:
                raise ConfigError(
                    f"{name} must be at most {_MAX_SIZE}, the largest numpy array size, "
                    f"got {getattr(self, name)}"
                )
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
        return {**asdict(self), "hazard_weights": list(self.hazard_weights)}


def _clip01(values: np.ndarray) -> np.ndarray:
    return np.clip(values, 0.0, 1.0)


def _cumulative_series_stats(
    values: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-student cumulative (count, sum_y, sum_x, sum_xy, sum_xx) along ticks."""
    ticks = np.arange(values.shape[1], dtype=float)
    masked = np.where(mask, values, 0.0)
    count = np.cumsum(mask, axis=1)
    sum_y = np.cumsum(masked, axis=1)
    sum_x = np.cumsum(np.where(mask, ticks, 0.0), axis=1)
    sum_xy = np.cumsum(masked * ticks, axis=1)
    sum_xx = np.cumsum(np.where(mask, ticks * ticks, 0.0), axis=1)
    return count, sum_y, sum_x, sum_xy, sum_xx


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
        StudentRecord(sid, {"prior_gpa": gpa, "credits_attempted": float(c)})
        for sid, gpa, c in zip(student_ids, (4.0 * _clip01(ability + gpa_noise)).tolist(), credits)
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
    view_choice = np.minimum(_view_choices(cum_weights, u_view), m - 1)

    # Per-tick engagement mean over the non-absence events a tick will emit:
    # login + view always, forum when drawn, submission on assessment ticks.
    submits = assess_tick[None, :] & ~absent
    n_parts = 2.0 + forum.astype(float) + submits.astype(float)
    value_sum = engagement * (2.0 + forum.astype(float)) + np.where(submits, scores, 0.0)
    tick_mean = np.where(~absent, value_sum / n_parts, 0.0)

    del noise, u_absent, u_forum, u_view, score_noise  # every draw is used up
    dropout_tick = _dropout_ticks(config, tick_mean, scores, absent, submits, credits, u_drop)
    del tick_mean, u_drop

    events = _event_columns(
        absent,
        forum,
        submits,
        (dropout_tick[:, None] == -1) | (np.arange(t_max)[None, :] < dropout_tick[:, None]),
        engagement,
        scores,
        view_choice,
        tuple(student_ids),
        tuple(r.resource_id for r in resources),
    )
    submitted = events.kind == EventKind.SUBMISSION.code
    assessments = AssessmentColumns(
        events.student[submitted],
        events.value[submitted],
        np.zeros(np.count_nonzero(submitted), dtype=bool),
        events.student_ids,
        tick=events.tick[submitted],
    )

    # Rank resources by (|difficulty - ability|, resource id), per student.
    rid_rank = np.argsort(np.argsort(np.array(events.resource_ids), kind="stable"))
    distance = np.abs(difficulties[None, :] - ability[:, None])
    order = np.lexsort((np.broadcast_to(rid_rank, distance.shape), distance))
    ranked_ids = np.array(events.resource_ids, dtype=object)[order].tolist()
    rankings = {student_ids[i]: tuple(ranked_ids[i]) for i in range(n)}
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
        events=events,
        assessments=assessments,
        resources=resources,
        ground_truth=truth,
    )
    return cohort, truth


def _view_choices(cum_weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row i, ``np.searchsorted(cum_weights[i], u[i], side="right")``.

    Each row of ``cum_weights`` is non-decreasing, so that index is the
    count of its entries <= u, added up one resource column at a time.
    """
    count = np.zeros(u.shape, dtype=np.intp)
    for column in cum_weights.T:
        count += column[:, None] <= u
    return count


def _dropout_ticks(
    config: GeneratorConfig,
    tick_mean: np.ndarray,
    scores: np.ndarray,
    absent: np.ndarray,
    scored: np.ndarray,
    credits: np.ndarray,
    u_drop: np.ndarray,
) -> np.ndarray:
    """Per student, the tick the hazard model drops them at, or -1 for never."""
    n, t_max = absent.shape
    engagement_stats = _cumulative_series_stats(tick_mean, ~absent)
    score_stats = _cumulative_series_stats(scores, scored)
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
        mean_eng, slope_eng = series_mean_slope(*(c[:, t - 1] for c in engagement_stats))
        mean_score, slope_score = series_mean_slope(*(c[:, t - 1] for c in score_stats))
        absence_frac = absent_cum[:, t - 1] / t
        features = np.column_stack(
            [mean_eng, slope_eng, mean_score, slope_score, absence_frac, credits.astype(float)]
        )
        p_drop = sigmoid(config.hazard_bias + features @ hazard_w)
        dropping = active & (u_drop[:, t] < p_drop)
        dropout_tick[dropping] = t
        active &= ~dropping

    return dropout_tick


def _event_columns(
    absent: np.ndarray,
    forum: np.ndarray,
    submits: np.ndarray,
    alive: np.ndarray,
    engagement: np.ndarray,
    scores: np.ndarray,
    view_choice: np.ndarray,
    student_ids: tuple[str, ...],
    resource_ids: tuple[str, ...],
) -> EventColumns:
    """The event stream of the (student, tick) masks and values, straight into columns.

    Tick-major, then student order; within one student's tick the absence
    alone, or login, view, forum post (when drawn) and submission (on
    assessment ticks). Nothing is emitted where ``alive`` is False.
    """
    n = absent.shape[0]
    # Cells in stream order: cell t * n + i holds student i at tick t.
    absent, forum = absent.T.ravel(), forum.T.ravel()
    counts = np.where(absent, 1, 2 + forum + submits.T.ravel()) * alive.T.ravel()
    cell = np.repeat(np.arange(len(counts)), counts)
    position = np.arange(len(cell)) - (np.cumsum(counts) - counts)[cell]
    kind = np.full(len(cell), EventKind.SUBMISSION.code, dtype=np.int8)
    kind[(position == 2) & forum[cell]] = EventKind.FORUM_POST.code
    kind[position == 1] = EventKind.RESOURCE_VIEW.code
    kind[position == 0] = EventKind.LOGIN.code
    kind[absent[cell]] = EventKind.ABSENCE.code
    del position
    value = engagement.T.ravel()[cell]
    submitted = kind == EventKind.SUBMISSION.code
    value[submitted] = scores.T.ravel()[cell[submitted]]
    resource = np.full(len(cell), -1, dtype=np.intp)
    viewed = kind == EventKind.RESOURCE_VIEW.code
    resource[viewed] = view_choice.T.ravel()[cell[viewed]]
    tick, student = np.divmod(cell, n)
    return EventColumns(student, tick, kind, value, resource, student_ids, resource_ids)


def export_cohort(cohort: Cohort, directory: str | Path) -> None:
    """Write the interchange files; ground truth is included when present."""
    write_cohort(cohort, directory)


def import_cohort(directory: str | Path) -> Cohort:
    """Read a cohort back; import(export(c)) reproduces c field for field."""
    return read_cohort(directory)
