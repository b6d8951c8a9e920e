from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from auss.errors import ConfigError
from auss.policy import (
    ACTIONS,
    EngagementLevel,
    FiniteMDP,
    InterventionAction,
    PerformanceTrend,
    PolicyConfig,
    QTable,
    RiskTier,
    SystemState,
    TransitionSample,
    all_states,
    compute_reward,
    discretize_state,
    q_update,
    select_action,
    train_on_mdp,
)

from oracles import numpy_train_on_mdp, value_iteration

S_LOW = SystemState(EngagementLevel.LOW, PerformanceTrend.FLAT, RiskTier.OK)
S_HIGH = SystemState(EngagementLevel.HIGH, PerformanceTrend.IMPROVING, RiskTier.CRITICAL)


class TestQUpdate:
    def test_zero_table_zero_reward_is_fixed_point(self):
        table = QTable()
        config = PolicyConfig(alpha=0.5, gamma=0.9)
        sample = TransitionSample(S_LOW, InterventionAction.SEND_ALERT, 0.0, S_HIGH)
        q_update(table, sample, config)
        assert all(value == 0.0 for _key, value in table.items())

    def test_alpha_one_gamma_zero_overwrites_with_reward(self):
        table = QTable()
        table.set(S_LOW, InterventionAction.SEND_ALERT, 2.0)
        config = PolicyConfig(alpha=1.0, gamma=0.0)
        sample = TransitionSample(S_LOW, InterventionAction.SEND_ALERT, 5.0, S_HIGH)
        q_update(table, sample, config)
        assert table.get(S_LOW, InterventionAction.SEND_ALERT) == pytest.approx(5.0, abs=1e-12)

    def test_hand_computed_update(self):
        # 0.5 + 0.1 * (1 + 0.9 * 2 - 0.5) = 0.73
        table = QTable()
        table.set(S_LOW, InterventionAction.SEND_ALERT, 0.5)
        table.set(S_HIGH, InterventionAction.NO_OP, 2.0)
        config = PolicyConfig(alpha=0.1, gamma=0.9)
        sample = TransitionSample(S_LOW, InterventionAction.SEND_ALERT, 1.0, S_HIGH)
        q_update(table, sample, config)
        assert table.get(S_LOW, InterventionAction.SEND_ALERT) == pytest.approx(0.73, abs=1e-12)

    def test_only_one_cell_changes(self):
        rng = random.Random(3)
        table = QTable()
        for state in all_states():
            for action in ACTIONS:
                table.set(state, action, rng.uniform(-1, 1))
        before = dict(table.items())
        sample = TransitionSample(S_LOW, InterventionAction.ESCALATE_TO_EDUCATOR, 0.7, S_HIGH)
        q_update(table, sample, PolicyConfig(alpha=0.3, gamma=0.5))
        after = dict(table.items())
        changed = [key for key in before if before[key] != after[key]]
        assert changed == [(S_LOW, InterventionAction.ESCALATE_TO_EDUCATOR)]

    def test_repeated_updates_converge_monotonically(self):
        table = QTable()
        config = PolicyConfig(alpha=0.4, gamma=0.9)
        sample = TransitionSample(S_LOW, InterventionAction.SEND_ALERT, 1.0, S_HIGH)
        target = 1.0 + 0.9 * table.max_value(S_HIGH)  # next-state values stay 0
        gaps = []
        for _ in range(40):
            q_update(table, sample, config)
            gaps.append(abs(table.get(S_LOW, InterventionAction.SEND_ALERT) - target))
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6


class TestSelectAction:
    def test_greedy_picks_unique_max(self):
        table = QTable()
        table.set(S_LOW, InterventionAction.SEND_ALERT, 3.0)
        action = select_action(table, S_LOW, 0.0, random.Random(0))
        assert action is InterventionAction.SEND_ALERT

    def test_all_equal_breaks_tie_to_first_action(self):
        table = QTable()
        action = select_action(table, S_LOW, 0.0, random.Random(0))
        assert action is InterventionAction.NO_OP

    def test_full_exploration_replays_with_seed(self):
        table = QTable()
        rng_a, rng_b = random.Random(99), random.Random(99)
        first = [select_action(table, S_LOW, 1.0, rng_a) for _ in range(10)]
        second = [select_action(table, S_LOW, 1.0, rng_b) for _ in range(10)]
        assert first == second
        assert len(set(first)) > 1  # the draw actually explores

    def test_scaling_q_values_keeps_greedy_choice(self):
        rng = random.Random(11)
        for _ in range(20):
            table = QTable()
            for state in all_states():
                for action in ACTIONS:
                    table.set(state, action, rng.uniform(-2, 2))
            state = rng.choice(all_states())
            base = select_action(table, state, 0.0, random.Random(0))
            scaled = QTable()
            for (s, a), value in table.items():
                scaled.set(s, a, 7.5 * value)
            assert select_action(scaled, state, 0.0, random.Random(0)) is base


class TestDiscretize:
    def test_high_flat_ok(self):
        state = discretize_state(0.9, 0.0, 0.1)
        assert state == SystemState(EngagementLevel.HIGH, PerformanceTrend.FLAT, RiskTier.OK)

    def test_low_declining_critical(self):
        state = discretize_state(0.2, -0.05, 0.8)
        assert state == SystemState(
            EngagementLevel.LOW, PerformanceTrend.DECLINING, RiskTier.CRITICAL
        )

    def test_boundaries_are_lower_inclusive(self):
        assert discretize_state(0.33, 0.0, 0.0).engagement_level is EngagementLevel.MEDIUM
        assert discretize_state(0.66, 0.0, 0.0).engagement_level is EngagementLevel.HIGH
        assert discretize_state(0.5, 0.0, 0.3).risk_tier is RiskTier.WARNING
        assert discretize_state(0.5, 0.0, 0.7).risk_tier is RiskTier.CRITICAL
        assert discretize_state(0.5, 0.01, 0.0).performance_trend is PerformanceTrend.IMPROVING
        assert discretize_state(0.5, -0.01, 0.0).performance_trend is PerformanceTrend.DECLINING
        assert discretize_state(0.5, 0.009, 0.0).performance_trend is PerformanceTrend.FLAT

    def test_state_space_is_complete(self):
        assert len(all_states()) == 27
        assert len(set(all_states())) == 27


class TestComputeReward:
    def test_no_op_no_change_is_zero(self):
        reward = compute_reward(
            InterventionAction.NO_OP,
            engagement_before=EngagementLevel.MEDIUM,
            engagement_after=EngagementLevel.MEDIUM,
            dropped_out=False,
        )
        assert reward == 0.0

    def test_alert_with_improvement(self):
        reward = compute_reward(
            InterventionAction.SEND_ALERT,
            engagement_before=EngagementLevel.LOW,
            engagement_after=EngagementLevel.MEDIUM,
            dropped_out=False,
        )
        assert reward == pytest.approx(0.9, abs=1e-12)

    def test_recommendation_with_dropout(self):
        reward = compute_reward(
            InterventionAction.SEND_RECOMMENDATION,
            engagement_before=EngagementLevel.LOW,
            engagement_after=EngagementLevel.LOW,
            dropped_out=True,
        )
        assert reward == pytest.approx(-1.1, abs=1e-12)


def one_state_mdp() -> FiniteMDP:
    return FiniteMDP(
        n_states=1,
        n_actions=2,
        next_states=((0, 0),),
        rewards=((1.0, 0.0),),
    )


def four_state_chain() -> FiniteMDP:
    # actions: 0 = left (toward state 0), 1 = right (toward the goal at 3).
    # Reaching state 3 pays 1 and terminates.
    return FiniteMDP(
        n_states=4,
        n_actions=2,
        next_states=((0, 1), (0, 2), (1, 3), (3, 3)),
        rewards=((0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0)),
        start_state=0,
        terminal_states=frozenset({3}),
    )


class TestTrainOnMdp:
    def test_single_state_bellman_solution(self):
        # Q*(a1) = 1/(1-0.9) = 10, Q*(a2) = 0.9 * 10 = 9 (geometric series)
        config = PolicyConfig(alpha=0.5, gamma=0.9, epsilon=0.4, epsilon_decay=1.0, rng_seed=1)
        q, curve = train_on_mdp(one_state_mdp(), config, episodes=300, max_steps_per_episode=60)
        assert q[0, 0] == pytest.approx(10.0, abs=1e-2)
        assert q[0, 1] == pytest.approx(9.0, abs=1e-2)
        assert len(curve) == 300

    def test_chain_matches_value_iteration_oracle(self):
        mdp = four_state_chain()
        config = PolicyConfig(alpha=0.5, gamma=0.9, epsilon=0.3, epsilon_decay=0.999, rng_seed=7)
        q, _curve = train_on_mdp(mdp, config, episodes=3000, max_steps_per_episode=30)
        oracle = value_iteration(mdp.next_states, mdp.rewards, mdp.terminal_states, 0.9)
        for s in range(4):
            greedy = int(np.argmax(q[s]))
            oracle_greedy = max(range(2), key=lambda a: oracle[s][a])
            if s not in mdp.terminal_states:
                assert greedy == oracle_greedy, f"state {s}"
            for a in range(2):
                assert q[s, a] == pytest.approx(oracle[s][a], abs=1e-3), f"Q({s},{a})"

    def test_zero_episodes_returns_initial_table(self):
        q, curve = train_on_mdp(one_state_mdp(), PolicyConfig(), episodes=0)
        assert q.dtype == np.float64
        assert np.array_equal(q, np.zeros((1, 2)))
        assert curve == []

    def test_invalid_mdp_rejected(self):
        valid = dict(n_states=2, n_actions=1, next_states=((1,), (0,)), rewards=((0.0,), (0.0,)))
        for changes in (
            {"next_states": ((2,), (0,))},
            {"rewards": ((float("nan"),), (0.0,))},
            {"start_state": -1},
            {"start_state": 5},
            {"terminal_states": {7}},
            {"terminal_states": {0, -1}},
        ):
            with pytest.raises(ValueError):
                FiniteMDP(**{**valid, **changes})


@st.composite
def finite_mdps(draw) -> FiniteMDP:
    n_states = draw(st.integers(1, 7))
    n_actions = draw(st.integers(1, 5))
    state = st.integers(0, n_states - 1)
    # Tied rewards, and full-mantissa ones bounded so that Q stays finite at gamma 0.99.
    reward = st.sampled_from([-0.0, 0.0, 1.0, -1.0]) | st.floats(-100.0, 100.0)

    def table(element):
        return st.tuples(*[st.tuples(*[element] * n_actions)] * n_states)

    return FiniteMDP(
        n_states=n_states,
        n_actions=n_actions,
        next_states=draw(table(state)),
        rewards=draw(table(reward)),
        start_state=draw(state),
        terminal_states=draw(st.frozensets(state)),
    )


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", value) for value in values]


class TestTrainOnMdpMatchesNumpyOracle:
    """The run's table, select_action and q_update reproduce the numpy loop
    in ``tests/oracles.py``: its argmax tie-break, its epsilon draw and its
    terminal-case target, to the bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        mdp=finite_mdps(),
        alpha=st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0),
        gamma=st.sampled_from([0.0, 0.9, 0.99]),
        epsilon=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        epsilon_decay=st.sampled_from([1.0, 0.99, 0.5]),
        rng_seed=st.integers(0, 2**32),
        episodes=st.integers(0, 40),
        max_steps=st.integers(1, 30),
    )
    @example(  # a terminal start: every episode is empty
        mdp=FiniteMDP(2, 2, ((1, 0), (0, 1)), ((1.0, -0.0), (0.5, 0.5)), 1, frozenset({1})),
        alpha=0.5, gamma=0.9, epsilon=0.3, epsilon_decay=0.99, rng_seed=0, episodes=5,
        max_steps=10,
    )
    @example(  # zero episodes
        mdp=FiniteMDP(1, 3, ((0, 0, 0),), ((-0.0, 0.0, -0.0),)),
        alpha=1.0, gamma=0.0, epsilon=0.0, epsilon_decay=0.5, rng_seed=1, episodes=0,
        max_steps=5,
    )
    def test_q_bytes_and_return_curve_equal(
        self, mdp, alpha, gamma, epsilon, epsilon_decay, rng_seed, episodes, max_steps
    ):
        config = PolicyConfig(
            alpha=alpha, gamma=gamma, epsilon=epsilon, epsilon_decay=epsilon_decay,
            rng_seed=rng_seed,
        )
        q, curve = train_on_mdp(mdp, config, episodes, max_steps_per_episode=max_steps)
        oracle_q, oracle_curve = numpy_train_on_mdp(
            mdp, config, episodes, max_steps_per_episode=max_steps
        )
        assert q.dtype == oracle_q.dtype and q.shape == oracle_q.shape
        assert q.tobytes() == oracle_q.tobytes()
        assert _bits(curve) == _bits(oracle_curve)


class TestPolicyConfig:
    def test_ranges_enforced(self):
        with pytest.raises(ConfigError):
            PolicyConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            PolicyConfig(gamma=1.0)
        with pytest.raises(ConfigError):
            PolicyConfig(epsilon=1.5)
        with pytest.raises(ConfigError):
            PolicyConfig(epsilon_decay=0.0)

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("rng_seed", None, "an integer"),
            ("rng_seed", "abc", "an integer"),
            ("rng_seed", True, "an integer"),
            ("rng_seed", 1.0, "an integer"),
            ("alpha", True, "a number"),
            ("gamma", "0.5", "a number"),
        ],
    )
    def test_types_checked_at_construction(self, key, value, expected):
        # A None seed would draw from OS entropy, so two runs would disagree.
        with pytest.raises(ConfigError, match=f"policy config {key} must be {expected}, got"):
            PolicyConfig(**{key: value})
