"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them inline).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import numpy as np

from auss.bus import EventBus
from auss.domain import AssessmentRecord
from auss.educator import ARITHMETIC_TEMPLATE, auto_grade, generate_quiz, match_fraction
from auss.experiment import (
    MetricsReport,
    reference_spec,
    run_experiment,
)
from auss.institution import f1_score
from auss.policy import (
    FiniteMDP,
    InterventionAction,
    PolicyConfig,
    QTable,
    SystemState,
    TransitionSample,
    EngagementLevel,
    PerformanceTrend,
    RiskTier,
    q_update,
    train_on_mdp,
)
from auss.student import InteractionMatrix, recommend_top_k

from oracles import brute_force_recommend, confusion_f1, value_iteration
from test_bus import random_scenario

DATA_DIR = Path(__file__).parent / "data"


def report_pass(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_q_learning_matches_value_iteration_oracle():
    """Greedy policy and Q values on a 4-state chain match value iteration."""
    mdp = FiniteMDP(
        n_states=4,
        n_actions=2,
        next_states=((0, 1), (0, 2), (1, 3), (3, 3)),
        rewards=((0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0)),
        start_state=0,
        terminal_states=frozenset({3}),
    )
    config = PolicyConfig(alpha=0.5, gamma=0.9, epsilon=0.3, epsilon_decay=0.999, rng_seed=7)
    episodes = 5000
    assert episodes <= 10_000
    start = time.perf_counter()
    q, _curve = train_on_mdp(mdp, config, episodes=episodes, max_steps_per_episode=30)
    elapsed = time.perf_counter() - start
    oracle = value_iteration(mdp.next_states, mdp.rewards, mdp.terminal_states, config.gamma)
    for s in range(mdp.n_states):
        if s not in mdp.terminal_states:
            greedy = int(np.argmax(q[s]))
            oracle_greedy = max(range(mdp.n_actions), key=lambda a: oracle[s][a])
            assert greedy == oracle_greedy, f"greedy policy differs at state {s}"
        for a in range(mdp.n_actions):
            assert abs(q[s, a] - oracle[s][a]) <= 1e-3, f"Q({s},{a})"
    assert elapsed < 5.0, f"training took {elapsed:.2f}s"
    report_pass("1 q-learning", f"{episodes} episodes, {elapsed:.2f}s, max |dQ| <= 1e-3")


def test_criterion_2_q_update_unit_contract():
    """The three hand-checked update cases hold to 1e-12."""
    s_a = SystemState(EngagementLevel.LOW, PerformanceTrend.FLAT, RiskTier.OK)
    s_b = SystemState(EngagementLevel.HIGH, PerformanceTrend.IMPROVING, RiskTier.CRITICAL)

    table = QTable()
    q_update(table, TransitionSample(s_a, InterventionAction.SEND_ALERT, 0.0, s_b), PolicyConfig(alpha=0.5, gamma=0.9))
    assert all(v == 0.0 for _k, v in table.items()), "zero fixed point violated"

    table = QTable()
    table.set(s_a, InterventionAction.SEND_ALERT, 2.0)
    q_update(table, TransitionSample(s_a, InterventionAction.SEND_ALERT, 5.0, s_b), PolicyConfig(alpha=1.0, gamma=0.0))
    assert abs(table.get(s_a, InterventionAction.SEND_ALERT) - 5.0) <= 1e-12

    table = QTable()
    table.set(s_a, InterventionAction.SEND_ALERT, 0.5)
    table.set(s_b, InterventionAction.NO_OP, 2.0)
    q_update(table, TransitionSample(s_a, InterventionAction.SEND_ALERT, 1.0, s_b), PolicyConfig(alpha=0.1, gamma=0.9))
    assert abs(table.get(s_a, InterventionAction.SEND_ALERT) - 0.73) <= 1e-12
    report_pass("2 q-update contract", "3 hand cases exact to 1e-12")


def test_criterion_3_cf_matches_brute_force_oracle():
    """200 random matrices up to 10x10: rankings equal the oracle exactly."""
    rng = random.Random(1234)
    start = time.perf_counter()
    queries = 0
    for _trial in range(200):
        n_students = rng.randint(1, 10)
        n_resources = rng.randint(1, 10)
        student_ids = tuple(f"s{i}" for i in range(n_students))
        resource_ids = tuple(f"r{j}" for j in range(n_resources))
        cells = {}
        for sid in student_ids:
            for rid in resource_ids:
                if rng.random() < 0.4:
                    cells[(sid, rid)] = rng.uniform(0.01, 1.0)
        matrix = InteractionMatrix(student_ids, resource_ids, cells)
        k = rng.randint(1, 5)
        neighborhood = rng.randint(1, 5)
        for sid in student_ids:
            ours = recommend_top_k(matrix, sid, k, neighborhood)
            oracle = brute_force_recommend(
                student_ids, resource_ids, cells, sid, k, neighborhood
            )
            assert ours.resource_ids == tuple(r for r, _s in oracle), (
                f"ranking diverged for {sid}: {ours.items} vs {oracle}"
            )
            queries += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    report_pass("3 cf oracle", f"200 matrices / {queries} queries in {elapsed:.2f}s")


def test_criterion_4_event_bus_randomized_and_deterministic(tmp_path):
    """1000 random publish/subscribe sequences: exactly-once with order
    preservation (asserted inside the scenario), byte-identical sinks."""
    for seed in range(1000):
        random_scenario(seed, EventBus())
    for seed in (0, 17, 999):
        sinks = []
        for run_index in range(2):
            path = tmp_path / f"sink-{seed}-{run_index}.jsonl"
            random_scenario(seed, EventBus(transcript_path=path))
            sinks.append(path.read_bytes())
        assert sinks[0] == sinks[1], f"sink bytes differ for seed {seed}"
    report_pass("4 event bus", "1000 sequences, zero violations; replays byte-identical")


def test_criterion_5_grading_self_consistency():
    """500 generated items: canonical answers all match; perturbed
    beyond-tolerance numeric answers all fail."""
    quiz = generate_quiz(ARITHMETIC_TEMPLATE, seed=2024, n_items=500)
    canonical = [
        auto_grade(AssessmentRecord("s1", key.item_id, key.answer), key) for _q, key in quiz
    ]
    assert match_fraction(canonical) == 1.0

    perturbed = [
        auto_grade(
            AssessmentRecord(
                "s1", key.item_id, repr(float(key.answer) + (key.tolerance or 0.0) + 1.0)
            ),
            key,
        )
        for _q, key in quiz
    ]
    assert match_fraction(perturbed) == 0.0
    report_pass("5 grading", "500 canonical -> 1.0; perturbed -> 0.0")


def test_criterion_6_risk_detection_f1_bound():
    """Default synthetic cohort: held-out F1 >= 0.80 within 30 seconds."""
    from auss.experiment import evaluate_risk
    from auss.synthetic import GeneratorConfig, generate_cohort

    start = time.perf_counter()
    cohort, _truth = generate_cohort(GeneratorConfig())  # 1000 students, 50 ticks
    precision, recall, f1 = evaluate_risk(cohort, split=0.7, threshold=0.5, seed=42)
    elapsed = time.perf_counter() - start
    assert f1 >= 0.80, f"held-out F1 {f1:.3f} below bound"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report_pass(
        "6 risk detection",
        f"P {precision:.3f} / R {recall:.3f} / F1 {f1:.3f} in {elapsed:.1f}s",
    )


def test_criterion_7_reference_experiment_matches_committed_baseline():
    """Seed-42 reference run reproduces the committed report except timings."""
    start = time.perf_counter()
    report, _transcript = run_experiment(reference_spec())
    elapsed = time.perf_counter() - start
    baseline = MetricsReport.load(DATA_DIR / "reference_report.json")
    fresh = report.comparable_dict()
    committed = baseline.comparable_dict()
    for field in sorted(set(fresh) | set(committed)):
        assert fresh.get(field) == committed.get(field), (
            f"field {field!r} drifted from baseline: {fresh.get(field)!r} != {committed.get(field)!r}"
        )
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report_pass("7 reference determinism", f"all non-timing fields equal; {elapsed:.1f}s")


def test_criterion_8_metric_oracles_on_random_labels():
    """f1_score and the match-rate agree exactly with independent
    confusion-matrix recomputation on 1000 random label vectors."""
    rng = random.Random(4321)
    for _trial in range(1000):
        n = rng.randint(1, 50)
        keys = [f"s{i}" for i in range(n)]
        predicted = {key: bool(rng.getrandbits(1)) for key in keys}
        actual = {key: bool(rng.getrandbits(1)) for key in keys}
        ours = f1_score(predicted, actual)
        precision, recall, f1 = confusion_f1(predicted, actual)
        assert ours.precision == precision
        assert ours.recall == recall
        assert ours.f1 == f1
        # match-rate as agreement fraction on the same vectors
        agreement = sum(1 for key in keys if predicted[key] == actual[key]) / n
        from auss.educator import GradeResult, grading_match_rate

        ours_rate = grading_match_rate(
            [GradeResult(key, "q", 1.0 if predicted[key] else 0.0, predicted[key]) for key in keys],
            [GradeResult(key, "q", 1.0 if actual[key] else 0.0, actual[key]) for key in keys],
        )
        assert ours_rate == agreement
    report_pass("8 metric oracles", "1000 random label vectors, exact agreement")


def test_criterion_9_latency_and_load_always_reported():
    """Every run emits per-agent latency stats and load shares summing to 1."""
    from auss.experiment import ExperimentSpec
    from auss.policy import PolicyConfig
    from auss.runtime import SchedulerConfig
    from auss.synthetic import GeneratorConfig

    for seed in (1, 2):
        spec = ExperimentSpec(
            generator=GeneratorConfig(n_students=40, n_resources=6, n_ticks=12, seed=seed),
            scheduler=SchedulerConfig(max_ticks=12, rng_seed=seed),
            policy=PolicyConfig(rng_seed=seed),
        )
        report, _ = run_experiment(spec)
        assert report.latency_ms, "latency stats missing"
        for agent, stats in report.latency_ms.items():
            assert stats["mean_ms"] >= 0.0 and stats["p95_ms"] >= 0.0, agent
        assert report.load_shares is not None
        assert abs(sum(report.load_shares.values()) - 1.0) <= 1e-9
        assert set(report.load_shares) == {
            "student_agent",
            "educator_agent",
            "institution_agent",
        }
    report_pass("9 latency+load", "emitted for every run; shares sum to 1 +/- 1e-9")
