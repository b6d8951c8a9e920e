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
from typing import Hashable, Iterable

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
    """Dense action-value table: every (state, action) entry present, 0.0 at start.

    ``states=None`` means ``all_states()``, so ``QTable()`` is the run's 27 x 5
    table; ``train_on_mdp`` passes ``range(n_states)`` and ``range(n_actions)``.
    ``actions`` fixes the order in which ``greedy_action`` breaks ties and
    ``select_action`` explores.
    """

    def __init__(
        self, states: Iterable[Hashable] | None = None, actions: Iterable[Hashable] = ACTIONS
    ):
        self.actions = tuple(actions)
        self._values: dict[tuple[Hashable, Hashable], float] = {
            (s, a): 0.0 for s in (all_states() if states is None else states) for a in self.actions
        }

    def get(self, state: Hashable, action: Hashable) -> float:
        return self._values[(state, action)]

    def set(self, state: Hashable, action: Hashable, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"Q value must be finite, got {value!r}")
        if (state, action) not in self._values:
            raise ValueError(f"unknown state/action pair {(state, action)!r}")
        self._values[(state, action)] = float(value)

    def max_value(self, state: Hashable) -> float:
        return max(self._values[(state, a)] for a in self.actions)

    def greedy_action(self, state: Hashable) -> Hashable:
        """First maximal action in ``actions`` order (the deterministic tie-break)."""
        best = self.actions[0]
        best_value = self._values[(state, best)]
        for action in self.actions[1:]:
            value = self._values[(state, action)]
            if value > best_value:
                best, best_value = action, value
        return best

    def items(self):
        return self._values.items()


def q_update(table: QTable, sample: TransitionSample, config: PolicyConfig) -> QTable:
    """Apply the one-step TD update for a single transition, in place.

    Exactly one cell changes: (sample.state, sample.action).
    """
    current = table.get(sample.state, sample.action)
    target = sample.reward + config.gamma * table.max_value(sample.next_state)
    table.set(sample.state, sample.action, current + config.alpha * (target - current))
    return table


def select_action(table: QTable, state: Hashable, epsilon: float, rng: random.Random) -> Hashable:
    """Epsilon-greedy selection over ``table.actions``; exploitation is
    ``table.greedy_action``.

    Always consumes one uniform draw so replayed seeds stay aligned
    regardless of epsilon. The run passes its config's epsilon on every
    tick; ``train_on_mdp`` passes its decayed value.
    """
    if rng.random() < epsilon:
        return table.actions[rng.randrange(len(table.actions))]
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


# -- generic finite-MDP training (test fixtures) ------------------------------


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
        if not 0 <= self.start_state < self.n_states:
            raise ValueError(f"start state {self.start_state} is outside the state space")
        if not all(0 <= s < self.n_states for s in self.terminal_states):
            raise ValueError(f"terminal states {sorted(self.terminal_states)} leave the space")
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
) -> tuple[np.ndarray, list[float]]:
    """Run epsilon-greedy Q-learning episodes on a finite MDP fixture, with the
    run's ``QTable``, ``select_action`` and ``q_update``.

    Epsilon starts at ``config.epsilon`` and is multiplied by
    ``config.epsilon_decay`` after each episode. A terminal state's row is never
    updated, so it stays 0.0 and a step into it has target r. Returns the
    learned Q array of shape (n_states, n_actions) and the undiscounted
    per-episode return curve; zero episodes return the zero table.
    """
    table = QTable(range(mdp.n_states), range(mdp.n_actions))
    rng = random.Random(config.rng_seed)
    epsilon = config.epsilon
    curve: list[float] = []
    for _ in range(episodes):
        state = mdp.start_state
        episode_return = 0.0
        for _ in range(max_steps_per_episode):
            if state in mdp.terminal_states:
                break
            action = select_action(table, state, epsilon, rng)
            next_state = mdp.next_states[state][action]
            reward = mdp.rewards[state][action]
            q_update(table, TransitionSample(state, action, reward, next_state), config)
            episode_return += reward
            state = next_state
        curve.append(episode_return)
        epsilon *= config.epsilon_decay
    return np.array([[table.get(s, a) for a in table.actions] for s in range(mdp.n_states)]), curve
