from __future__ import annotations

import json

import pytest

from auss.bus import AgentName, EventBus, TriggerKind
from auss.errors import (
    AgentPhaseError,
    ConfigError,
    PhaseDisciplineError,
    TranscriptChecksumError,
    TranscriptError,
    TranscriptVersionError,
)
from auss.policy import PolicyConfig
from auss.runtime import (
    Action,
    Agent,
    PolicyDriver,
    SchedulerConfig,
    SimulationTranscript,
    measure_phase_latency,
    run,
)
from auss.institution import FeatureTracker
from auss.synthetic import GeneratorConfig, generate_cohort

from conftest import make_cohort


class NoOpAgent(Agent):
    subscriptions = frozenset()

    def __init__(self, name: AgentName):
        super().__init__()
        self.name = name

    def perceive(self, view, inbox):
        return {"tick": view.tick, "inbox": inbox}

    def reason(self, percepts):
        return percepts

    def act(self, decisions, publish):
        return []

    def evaluate(self, outcome):
        return None


def noop_agents():
    return [
        NoOpAgent(AgentName.STUDENT),
        NoOpAgent(AgentName.EDUCATOR),
        NoOpAgent(AgentName.INSTITUTION),
    ]


class ChattyAgent(NoOpAgent):
    """Publishes one trigger per tick; notices what its inbox contains."""

    subscriptions = frozenset({TriggerKind.DISENGAGEMENT})

    def __init__(self, name: AgentName):
        super().__init__(name)
        self.received: list[tuple[int, int]] = []  # (delivery tick, event tick)

    def perceive(self, view, inbox):
        for event in inbox:
            self.received.append((view.tick, event.tick))
        return {"tick": view.tick}

    def act(self, decisions, publish):
        publish.publish(TriggerKind.DISENGAGEMENT, {"student_id": "s1"})
        return [Action(kind="chat", student_id="s1")]


class TestRunBasics:
    def test_zero_ticks_empty_transcript(self):
        transcript = run(make_cohort(), noop_agents(), SchedulerConfig(max_ticks=0))
        assert transcript.of_type("tick_start") == []
        assert transcript.of_type("phase") == []
        assert transcript.header["type"] == "header"

    def test_one_tick_noop_agents(self):
        transcript = run(make_cohort(), noop_agents(), SchedulerConfig(max_ticks=1))
        phases = transcript.of_type("phase")
        assert len(phases) == 3 * 4
        assert transcript.of_type("event") == []

    def test_phase_order_per_agent_per_tick(self):
        transcript = run(make_cohort(), noop_agents(), SchedulerConfig(max_ticks=3))
        seen: dict[tuple[str, int], list[str]] = {}
        for record in transcript.of_type("phase"):
            seen.setdefault((record["agent"], record["tick"]), []).append(record["phase"])
        assert seen, "no phase records"
        for key, phases in seen.items():
            assert phases == ["perceive", "reason", "act", "evaluate"], key

    def test_agent_order_respected_within_tick(self):
        order = ("institution_agent", "student_agent", "educator_agent")
        transcript = run(
            make_cohort(), noop_agents(), SchedulerConfig(max_ticks=1, agent_order=order)
        )
        agents_in_sequence = [
            r["agent"] for r in transcript.of_type("phase") if r["phase"] == "perceive"
        ]
        assert tuple(agents_in_sequence) == order

    def test_agent_order_must_match_registered(self):
        with pytest.raises(ConfigError):
            run(
                make_cohort(),
                noop_agents(),
                SchedulerConfig(max_ticks=1, agent_order=("student_agent",)),
            )

    def test_memory_version_bumps_once_per_tick(self):
        agents = noop_agents()
        run(make_cohort(), agents, SchedulerConfig(max_ticks=4))
        assert [a.memory.version for a in agents] == [4, 4, 4]


class TestEventFlow:
    def test_events_published_at_t_arrive_at_t_plus_one(self):
        agents = [
            ChattyAgent(AgentName.STUDENT),
            NoOpAgent(AgentName.EDUCATOR),
            NoOpAgent(AgentName.INSTITUTION),
        ]
        run(make_cohort(), agents, SchedulerConfig(max_ticks=3))
        chatty = agents[0]
        assert chatty.received, "subscriber never saw its own triggers"
        for delivery_tick, event_tick in chatty.received:
            assert event_tick == delivery_tick - 1

    def test_causality_no_same_tick_delivery(self):
        cohort, _ = generate_cohort(
            GeneratorConfig(n_students=20, n_resources=4, n_ticks=8, seed=2)
        )
        from auss.experiment import ExperimentSpec, simulate

        spec = ExperimentSpec(
            generator=GeneratorConfig(n_students=20, n_resources=4, n_ticks=8, seed=2),
            scheduler=SchedulerConfig(max_ticks=8),
        )
        transcript = simulate(cohort, spec)
        published_tick = {
            r["event_id"]: r["tick"] for r in transcript.of_type("event")
        }
        for record in transcript.of_type("delivery"):
            for event_id in record["event_ids"]:
                assert published_tick[event_id] < record["tick"]

    def test_publish_outside_act_is_blocked(self):
        class Sneaky(NoOpAgent):
            def act(self, decisions, publish):
                self.stolen = publish
                return []

            def evaluate(self, outcome):
                if outcome.tick == 0:
                    self.stolen.publish(TriggerKind.DISENGAGEMENT, {})
                return None

        agents = [
            Sneaky(AgentName.STUDENT),
            NoOpAgent(AgentName.EDUCATOR),
            NoOpAgent(AgentName.INSTITUTION),
        ]
        with pytest.raises(AgentPhaseError) as exc_info:
            run(make_cohort(), agents, SchedulerConfig(max_ticks=1))
        assert exc_info.value.phase == "evaluate"
        assert isinstance(exc_info.value.cause, PhaseDisciplineError)

    def test_agent_failure_identifies_agent_tick_phase(self):
        class Broken(NoOpAgent):
            def reason(self, percepts):
                if percepts["tick"] == 2:
                    raise RuntimeError("boom")
                return percepts

        agents = [
            NoOpAgent(AgentName.STUDENT),
            Broken(AgentName.EDUCATOR),
            NoOpAgent(AgentName.INSTITUTION),
        ]
        with pytest.raises(AgentPhaseError) as exc_info:
            run(make_cohort(), agents, SchedulerConfig(max_ticks=5))
        assert exc_info.value.agent == "educator_agent"
        assert exc_info.value.tick == 2
        assert exc_info.value.phase == "reason"


class TestPolicedRun:
    def test_policy_driver_runs_and_records(self):
        cohort, _ = generate_cohort(
            GeneratorConfig(n_students=10, n_resources=3, n_ticks=10, seed=4)
        )
        driver = PolicyDriver(PolicyConfig(rng_seed=1))
        transcript = run(
            cohort,
            noop_agents(),
            SchedulerConfig(max_ticks=10),
            tracker=FeatureTracker(cohort),
            policy_driver=driver,
        )
        policy_records = transcript.of_type("policy")
        reward_records = transcript.of_type("reward")
        assert len(policy_records) == 10
        assert len(reward_records) == 9  # first tick has nothing to settle
        assert transcript.of_type("qtable"), "final Q table snapshot missing"

    def test_rewards_settle_previous_decision(self):
        cohort, _ = generate_cohort(
            GeneratorConfig(n_students=10, n_resources=3, n_ticks=6, seed=4)
        )
        driver = PolicyDriver(PolicyConfig(rng_seed=1))
        transcript = run(
            cohort,
            noop_agents(),
            SchedulerConfig(max_ticks=6),
            tracker=FeatureTracker(cohort),
            policy_driver=driver,
        )
        decisions = {r["tick"]: r for r in transcript.of_type("policy")}
        for reward in transcript.of_type("reward"):
            previous = decisions[reward["tick"] - 1]
            assert reward["target"] == previous["target"]
            assert reward["action"] == previous["action"]
            assert reward["state"] == previous["state"]


class TestSharedTracker:
    def test_tracker_fed_once_per_tick_before_agents(self):
        cohort, _ = generate_cohort(
            GeneratorConfig(n_students=10, n_resources=3, n_ticks=6, seed=4)
        )
        tracker = FeatureTracker(cohort)
        ingested = []
        ingest = tracker.ingest

        def counting_ingest(tick, events):
            ingested.append(tick)
            ingest(tick, events)

        tracker.ingest = counting_ingest
        seen = []

        class Reader(NoOpAgent):
            def perceive(self, view, inbox):
                seen.append((view.tick, view.tracker is tracker, ingested[-1]))
                return super().perceive(view, inbox)

        agents = [Reader(name) for name in (AgentName.STUDENT, AgentName.EDUCATOR, AgentName.INSTITUTION)]
        run(cohort, agents, SchedulerConfig(max_ticks=6), tracker=tracker)
        assert ingested == list(range(6))
        assert seen == [(tick, True, tick) for tick in range(6) for _ in agents]

    def test_policy_driver_needs_tracker(self):
        with pytest.raises(ConfigError):
            run(
                make_cohort(),
                noop_agents(),
                SchedulerConfig(max_ticks=1),
                policy_driver=PolicyDriver(PolicyConfig()),
            )


class TestTranscriptFile:
    def _transcript(self) -> SimulationTranscript:
        return run(make_cohort(), noop_agents(), SchedulerConfig(max_ticks=2))

    def test_jsonl_round_trip(self, tmp_path):
        transcript = self._transcript()
        path = tmp_path / "t.jsonl"
        transcript.to_jsonl(path)
        restored = SimulationTranscript.from_jsonl(path)
        assert restored.records == transcript.records

    def test_tampered_line_fails_checksum(self, tmp_path):
        transcript = self._transcript()
        path = tmp_path / "t.jsonl"
        transcript.to_jsonl(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"tick": 0', '"tick": 7') or lines[1]
        lines[1] = lines[1].replace('"tick":0', '"tick":7')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TranscriptChecksumError):
            SimulationTranscript.from_jsonl(path)

    def test_version_mismatch_rejected(self, tmp_path):
        transcript = self._transcript()
        transcript.records[0]["format_version"] = 99
        path = tmp_path / "t.jsonl"
        transcript.to_jsonl(path)
        with pytest.raises(TranscriptVersionError):
            SimulationTranscript.from_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TranscriptError):
            SimulationTranscript.from_jsonl(path)

    def test_canonical_lines_hide_timing(self):
        transcript = self._transcript()
        for line in transcript.canonical_lines(include_timing=False):
            assert "wall_ns" not in line
        timed = "".join(transcript.canonical_lines(include_timing=True))
        assert "wall_ns" in timed


class TestLatency:
    def _fake_transcript(self, per_tick_ms: list[float]) -> SimulationTranscript:
        transcript = SimulationTranscript({"type": "header", "format_version": 1})
        for tick, ms in enumerate(per_tick_ms):
            for phase in ("perceive", "reason", "act", "evaluate"):
                transcript.record_phase(tick, "student_agent", phase, int(ms * 1e6))
        return transcript

    def test_constant_phases_sum_over_response_path(self):
        # 2 ms per phase: response time = perceive+reason+act = 6 ms
        stats = measure_phase_latency(self._fake_transcript([2.0, 2.0, 2.0]))
        assert stats["student_agent"].mean_ms == pytest.approx(6.0)
        assert stats["student_agent"].n_ticks == 3

    def test_single_tick_p95_is_that_value(self):
        stats = measure_phase_latency(self._fake_transcript([3.5]))
        assert stats["student_agent"].p95_ms == pytest.approx(10.5)

    def test_p95_nearest_rank(self):
        stats = measure_phase_latency(self._fake_transcript([1.0] * 19 + [100.0]))
        # 20 samples: ceil(0.95*20)=19 -> 19th ordered value (index 18) = 3 ms
        assert stats["student_agent"].p95_ms == pytest.approx(3.0)

    def test_empty_transcript_rejected(self):
        with pytest.raises(TranscriptError):
            measure_phase_latency(SimulationTranscript({"type": "header"}))


class TestSchedulerConfig:
    def test_round_trip(self):
        config = SchedulerConfig(max_ticks=7, rng_seed=3)
        assert SchedulerConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            SchedulerConfig.from_dict({"max_ticks": 5, "surprise": 1})

    def test_duplicate_agents_rejected(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(max_ticks=1, agent_order=("student_agent", "student_agent"))
