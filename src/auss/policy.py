"""Tabular Q-learning over a discretized 27-state, 5-action intervention space.

The table maps (engagement level, performance trend, risk tier) x action to
a value; updates follow the standard one-step temporal-difference rule
Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, check_config_types


class EngagementLevel(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class PerformanceTrend(str, Enum):
    DECLINING = "declining"
    FLAT = "flat"
    IMPROVING = "improving"


class RiskTier(str, Enum):
    OK = "ok"
    WARNING = "warning"
    CRITICAL = "critical"


_LEVEL_RANK = {EngagementLevel.LOW: 0, EngagementLevel.MEDIUM: 1, EngagementLevel.HIGH: 2}


def engagement_rank(level: EngagementLevel) -> int:
    return _LEVEL_RANK[level]


@dataclass(frozen=True)
class SystemState:
    engagement_level: EngagementLevel
    performance_trend: PerformanceTrend
    risk_tier: RiskTier

    def as_tuple(self) -> tuple[str, str, str]:
        return (
            self.engagement_level.value,
            self.performance_trend.value,
            self.risk_tier.value,
        )


def all_states() -> list[SystemState]:
    """The full 3 x 3 x 3 state space, in enum declaration order."""
    return [
        SystemState(e, p, r)
        for e in EngagementLevel
        for p in PerformanceTrend
        for r in RiskTier
    ]


class InterventionAction(str, Enum):
    NO_OP = "no_op"
    SEND_RECOMMENDATION = "send_recommendation"
    SEND_ALERT = "send_alert"
    ESCALATE_TO_EDUCATOR = "escalate_to_educator"
    ESCALATE_TO_INSTITUTION = "escalate_to_institution"


ACTIONS: tuple[InterventionAction, ...] = tuple(InterventionAction)

#: Flat per-intervention cost subtracted from the reward for any non-no_op action.
INTERVENTION_COST = 0.1


@dataclass(frozen=True)
class PolicyConfig:
    alpha: float = 0.1
    gamma: float = 0.9
    epsilon: float = 0.2
    # Multiplicative, applied once per episode by train_on_mdp. A simulation
    # run is one episode, and PolicyDriver never decays epsilon.
    epsilon_decay: float = 0.995
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_config_types("policy", self)
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ConfigError(f"epsilon_decay must be in (0, 1], got {self.epsilon_decay}")


@dataclass(frozen=True)
class TransitionSample:
    state: SystemState
    action: InterventionAction
    reward: float
    next_state: SystemState

    def __post_init__(self) -> None:
        if not math.isfinite(self.reward):
            raise ValueError(f"reward must be finite, got {self.reward!r}")


class QTable:
    """Dense action-value table: all 27 x 5 entries always present."""

    def __init__(self, values: dict[tuple[SystemState, InterventionAction], float] | None = None):
        self._values: dict[tuple[SystemState, InterventionAction], float] = {
            (s, a): 0.0 for s in all_states() for a in ACTIONS
        }
        if values is not None:
            for key, value in values.items():
                if key not in self._values:
                    raise ValueError(f"unknown state/action pair {key!r}")
                self._values[key] = float(value)

    def get(self, state: SystemState, action: InterventionAction) -> float:
        return self._values[(state, action)]

    def set(self, state: SystemState, action: InterventionAction, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"Q value must be finite, got {value!r}")
        if (state, action) not in self._values:
            raise ValueError(f"unknown state/action pair {(state, action)!r}")
        self._values[(state, action)] = float(value)

    def max_value(self, state: SystemState) -> float:
        return max(self._values[(state, a)] for a in ACTIONS)

    def greedy_action(self, state: SystemState) -> InterventionAction:
        """First maximal action in enum order (the deterministic tie-break)."""
        best = ACTIONS[0]
        best_value = self._values[(state, best)]
        for action in ACTIONS[1:]:
            value = self._values[(state, action)]
            if value > best_value:
                best, best_value = action, value
        return best

    def items(self):
        return self._values.items()

    def as_dict(self) -> dict[tuple[SystemState, InterventionAction], float]:
        return dict(self._values)


def q_update(table: QTable, sample: TransitionSample, config: PolicyConfig) -> QTable:
    """Apply the one-step TD update for a single transition, in place.

    Exactly one cell changes: (sample.state, sample.action).
    """
    current = table.get(sample.state, sample.action)
    target = sample.reward + config.gamma * table.max_value(sample.next_state)
    table.set(sample.state, sample.action, current + config.alpha * (target - current))
    return table


def select_action(
    table: QTable, state: SystemState, config: PolicyConfig, rng: random.Random
) -> InterventionAction:
    """Epsilon-greedy selection; exploitation breaks ties by enum order.

    Always consumes one uniform draw so replayed seeds stay aligned
    regardless of epsilon.
    """
    if rng.random() < config.epsilon:
        return ACTIONS[rng.randrange(len(ACTIONS))]
    return table.greedy_action(state)


def discretize_state(
    mean_engagement: float, performance_slope: float, risk_score: float
) -> SystemState:
    """Bucket continuous student signals into the 27-state space.

    Intervals are half-open with the lower bound inclusive: engagement
    [0, 0.33) low, [0.33, 0.66) medium, else high; trend flat inside the
    |slope| < 0.01 dead-band; risk [0, 0.3) ok, [0.3, 0.7) warning, else
    critical.
    """
    for name, value in (
        ("mean_engagement", mean_engagement),
        ("performance_slope", performance_slope),
        ("risk_score", risk_score),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if mean_engagement < 0.33:
        engagement = EngagementLevel.LOW
    elif mean_engagement < 0.66:
        engagement = EngagementLevel.MEDIUM
    else:
        engagement = EngagementLevel.HIGH
    if abs(performance_slope) < 0.01:
        trend = PerformanceTrend.FLAT
    elif performance_slope < 0:
        trend = PerformanceTrend.DECLINING
    else:
        trend = PerformanceTrend.IMPROVING
    if risk_score < 0.3:
        risk = RiskTier.OK
    elif risk_score < 0.7:
        risk = RiskTier.WARNING
    else:
        risk = RiskTier.CRITICAL
    return SystemState(engagement, trend, risk)


def compute_reward(
    action: InterventionAction,
    *,
    engagement_before: EngagementLevel,
    engagement_after: EngagementLevel,
    dropped_out: bool,
) -> float:
    """Reward observed one tick after an action was taken on a student.

    +1 when the student's engagement level strictly increased, -1 on
    dropout, and a flat -0.1 cost for any non-no_op intervention; terms sum.
    """
    reward = 0.0
    if engagement_rank(engagement_after) > engagement_rank(engagement_before):
        reward += 1.0
    if dropped_out:
        reward -= 1.0
    if action is not InterventionAction.NO_OP:
        reward -= INTERVENTION_COST
    return reward


# -- generic finite-MDP training (test fixtures and benchmarks) -------------


@dataclass(frozen=True)
class FiniteMDP:
    """Deterministic finite MDP: next_states[s][a] and rewards[s][a]."""

    n_states: int
    n_actions: int
    next_states: tuple[tuple[int, ...], ...]
    rewards: tuple[tuple[float, ...], ...]
    start_state: int = 0
    terminal_states: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "next_states", tuple(tuple(row) for row in self.next_states))
        object.__setattr__(self, "rewards", tuple(tuple(row) for row in self.rewards))
        object.__setattr__(self, "terminal_states", frozenset(self.terminal_states))
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("MDP needs at least one state and one action")
        if len(self.next_states) != self.n_states or len(self.rewards) != self.n_states:
            raise ValueError("transition/reward tables must cover every state")
        for s in range(self.n_states):
            if len(self.next_states[s]) != self.n_actions or len(self.rewards[s]) != self.n_actions:
                raise ValueError(f"state {s} is missing action entries")
            for a in range(self.n_actions):
                if not 0 <= self.next_states[s][a] < self.n_states:
                    raise ValueError(f"transition ({s},{a}) leaves the state space")
                if not math.isfinite(self.rewards[s][a]):
                    raise ValueError(f"reward ({s},{a}) is not finite")


def train_on_mdp(
    mdp: FiniteMDP,
    config: PolicyConfig,
    episodes: int,
    *,
    max_steps_per_episode: int = 50,
    initial_q: np.ndarray | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Run epsilon-greedy Q-learning episodes on a finite MDP fixture.

    Returns the learned Q array of shape (n_states, n_actions) and the
    undiscounted per-episode return curve. Zero episodes return the initial
    table unchanged.
    """
    if initial_q is None:
        q = np.zeros((mdp.n_states, mdp.n_actions))
    else:
        q = np.array(initial_q, dtype=float)
        if q.shape != (mdp.n_states, mdp.n_actions):
            raise ValueError(f"initial_q has shape {q.shape}, expected {(mdp.n_states, mdp.n_actions)}")
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
