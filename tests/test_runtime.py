from __future__ import annotations

import enum
import hashlib
import json
import math
import uuid
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import auss.runtime as runtime_module

from auss.bus import AgentName, TriggerKind
from auss.errors import (
    AgentPhaseError,
    ConfigError,
    PhaseDisciplineError,
    TranscriptChecksumError,
    TranscriptError,
    TranscriptVersionError,
    read_config,
)
from auss.policy import PolicyConfig
from auss.runtime import (
    Action,
    Agent,
    PolicyDriver,
    SchedulerConfig,
    SimulationTranscript,
    measure_phase_latency,
)
from auss.domain import EngagementEvent, EventKind
from auss.experiment import ExperimentSpec, simulate
from auss.institution import FeatureTracker, InstitutionAgent
from auss.synthetic import GeneratorConfig, generate_cohort

from conftest import make_cohort, make_student


class NoOpAgent(Agent):
    """Keeps the base class's no-op evaluate."""

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


def run(cohort, agents, config, **options):
    """``runtime.run`` with a fresh feature tracker of ``cohort``."""
    return runtime_module.run(cohort, agents, config, tracker=FeatureTracker(cohort), **options)


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

    def test_event_past_max_ticks_rejected(self):
        events = [
            EngagementEvent("s1", tick, EventKind.LOGIN, 0.5) for tick in (0, 5, 3, 2)
        ]
        cohort = make_cohort(events=events)
        with pytest.raises(ConfigError, match="event at tick 3, at or past max_ticks 3"):
            run(cohort, noop_agents(), SchedulerConfig(max_ticks=3))
        transcript = run(cohort, noop_agents(), SchedulerConfig(max_ticks=6))
        assert len(transcript.of_type("tick_start")) == 6


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

    @pytest.mark.parametrize("phase", ["perceive", "reason", "act", "evaluate"])
    def test_agent_failure_identifies_agent_tick_phase(self, phase):
        class Broken(NoOpAgent):
            """Raises in ``phase`` at tick 2."""

            def _phase(self, name, tick):
                if name == phase and tick == 2:
                    raise RuntimeError("boom")

            def perceive(self, view, inbox):
                self._phase("perceive", view.tick)
                return super().perceive(view, inbox)

            def reason(self, percepts):
                self._phase("reason", percepts["tick"])
                return percepts

            def act(self, decisions, publish):
                self._phase("act", decisions["tick"])
                return []

            def evaluate(self, outcome):
                self._phase("evaluate", outcome.tick)

        agents = [
            NoOpAgent(AgentName.STUDENT),
            Broken(AgentName.EDUCATOR),
            NoOpAgent(AgentName.INSTITUTION),
        ]
        with pytest.raises(AgentPhaseError) as exc_info:
            run(make_cohort(), agents, SchedulerConfig(max_ticks=5))
        assert exc_info.value.agent == "educator_agent"
        assert exc_info.value.tick == 2
        assert exc_info.value.phase == phase
        assert isinstance(exc_info.value.cause, RuntimeError)


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
            policy_driver=driver,
        )
        decisions = {r["tick"]: r for r in transcript.of_type("policy")}
        for reward in transcript.of_type("reward"):
            previous = decisions[reward["tick"] - 1]
            assert reward["target"] == previous["target"]
            assert reward["action"] == previous["action"]
            assert reward["state"] == previous["state"]


class TestBatchedScoring:
    def test_tied_risks_target_the_smallest_id(self):
        students = [make_student(sid) for sid in ("s4", "s2", "s3", "s1")]
        engagement = {"s4": 0.1, "s2": 0.1, "s3": 0.9, "s1": 0.9}
        events = [EngagementEvent(sid, 0, EventKind.LOGIN, engagement[sid]) for sid in engagement]
        cohort = make_cohort(students=students, events=events)
        tracker = FeatureTracker(cohort)
        transcript = runtime_module.run(
            cohort,
            noop_agents(),
            SchedulerConfig(max_ticks=1),
            tracker=tracker,
            policy_driver=PolicyDriver(PolicyConfig(rng_seed=1)),
        )
        risk_s4, risk_s2, risk_s3, risk_s1 = tracker.policy_signals().risk.tolist()
        assert risk_s4 == risk_s2 > risk_s1 == risk_s3
        [decision] = transcript.of_type("policy")
        assert decision["target"] == "s2"

    def test_one_policy_signals_call_per_tick(self, monkeypatch):
        # The cohort has 10 ticks of events; ticks 10 and 11 have no active students.
        spec = ExperimentSpec(
            generator=GeneratorConfig(n_students=30, n_resources=6, n_ticks=10, seed=5),
            scheduler=SchedulerConfig(max_ticks=12, rng_seed=5),
            policy=PolicyConfig(rng_seed=5),
        )
        cohort, _ = generate_cohort(spec.generator)
        calls = {"policy_signals": 0, "feature_matrix": 0}
        policy_signals = FeatureTracker.policy_signals
        feature_matrix = FeatureTracker.feature_matrix

        def counting_signals(self):
            calls["policy_signals"] += 1
            return policy_signals(self)

        def counting_features(self):
            calls["feature_matrix"] += 1
            return feature_matrix(self)

        monkeypatch.setattr(FeatureTracker, "policy_signals", counting_signals)
        monkeypatch.setattr(FeatureTracker, "feature_matrix", counting_features)
        transcript = simulate(cohort, spec)

        # Every reader indexes the one snapshot, so no other call builds
        # features: the institution agent sweeps at ticks 4 and 9, and the
        # policy driver decides at each of the 10 active ticks and settles
        # each decision at the next tick.
        assert calls == {"policy_signals": 12, "feature_matrix": 12}
        assert InstitutionAgent().risk_every == 5
        assert len(transcript.of_type("policy")) == len(transcript.of_type("reward")) == 10


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
        runtime_module.run(cohort, agents, SchedulerConfig(max_ticks=6), tracker=tracker)
        assert ingested == list(range(6))
        assert seen == [(tick, True, tick) for tick in range(6) for _ in agents]


class TestTranscriptFile:
    def _transcript(self) -> SimulationTranscript:
        return run(make_cohort(), noop_agents(), SchedulerConfig(max_ticks=2))

    def test_jsonl_round_trip(self, tmp_path):
        transcript = self._transcript()
        path = tmp_path / "t.jsonl"
        transcript.to_jsonl(path)
        restored = SimulationTranscript.from_jsonl(path)
        assert restored.records == transcript.records

    @pytest.mark.parametrize("chunk", [1, 7, 352, 1024])
    def test_rewritten_committed_transcript_is_byte_identical(self, tmp_path, monkeypatch, chunk):
        committed = Path(__file__).parent / "data" / "transcript_40x6x12_seed3.jsonl"
        monkeypatch.setattr(runtime_module, "_WRITE_CHUNK", chunk)
        path = tmp_path / "t.jsonl"
        digest = SimulationTranscript.from_jsonl(committed).to_jsonl(path)
        assert path.read_bytes() == committed.read_bytes()
        assert json.loads(committed.read_text().splitlines()[-1])["sha256"] == digest

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

    def test_reader_splits_lines_at_newline_only(self, tmp_path):
        # json.loads accepts these characters raw inside a string, and
        # str.splitlines would break the line at each of them.
        header = {"type": "header", "format_version": 1}
        action = {"type": "action", "tick": 0, "detail": {"note": "a\u2028b\x85c"}}
        body = "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
            for r in (header, action)
        )
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        path = tmp_path / "t.jsonl"
        path.write_text(body + json.dumps({"type": "checksum", "sha256": digest}) + "\n", "utf-8")
        assert SimulationTranscript.from_jsonl(path).records == [header, action]


class _Colour(enum.Enum):
    RED = "red"


_GUARDED_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    1e-310,
    2.2250738585072014e-308,
    1e-05,
    9.999999999999999e-05,
    1e-4,
    9999999999999998.0,
    1e16,
    1e300,
    math.nan,
    math.inf,
    -math.inf,
]
_GUARDED_INTS = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64]
_GUARDED_TEXT = [
    "",
    "null",
    "e-5",
    "1e16",
    "0.00001",
    "\x7f",
    "\u2028",
    "\u2029",
    "\x85",
    "\x00\x1f\n\t",
    "\u00e9",
    "\u65e5\u672c",
    "\ud800",
    "\udfff x",
    '"\\/',
]

_floats = st.one_of(st.floats(), st.sampled_from(_GUARDED_FLOATS))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(_GUARDED_INTS),
    _floats,
    _floats.map(np.float64),
    st.text(st.characters(blacklist_categories=()), max_size=8),
    st.sampled_from(_GUARDED_TEXT),
)
_keys = st.one_of(
    st.text(st.characters(blacklist_categories=()), max_size=6),
    st.sampled_from(_GUARDED_TEXT),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        # json writes int, float, bool and None keys as strings; orjson refuses them
        st.dictionaries(st.one_of(st.integers(), _floats, st.booleans(), st.none()), inner, max_size=2),
    ),
    max_leaves=12,
)
_records = st.lists(st.dictionaries(_keys, _values, max_size=5), max_size=6)


def _deep(depth: int) -> dict:
    value: object = 1
    for _ in range(depth):
        value = [value]
    return {"v": value}


class TestTranscriptEncoding:
    """``to_jsonl`` and ``canonical_lines`` spell every record as ``_canonical`` does."""

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(records=_records, chunk=st.integers(1, 4))
    @example(records=[{"v": 1e16}], chunk=1)
    @example(records=[{"v": 1e-05}], chunk=1)
    @example(records=[{"v": math.nan}], chunk=1)
    @example(records=[{"v": "\x7f"}], chunk=1)
    @example(records=[{"v": "\u00e9"}], chunk=1)
    @example(records=[{"a": 1}, {"v": 2**64}, {"b": 1e+300}, {"c": "x"}], chunk=3)
    @example(records=[_deep(253), _deep(254), _deep(300)], chunk=2)
    def test_matches_json_byte_for_byte(self, tmp_path, monkeypatch, records, chunk):
        monkeypatch.setattr(runtime_module, "_WRITE_CHUNK", chunk)
        transcript = SimulationTranscript()
        transcript.records = records
        path = tmp_path / "t.jsonl"
        try:
            expected = [runtime_module._canonical(r) for r in records]
        except (TypeError, ValueError) as exc:
            for encode in (lambda: transcript.to_jsonl(path), transcript.canonical_lines):
                with pytest.raises(type(exc)) as raised:
                    encode()
                assert type(raised.value) is type(exc)
            return
        body = "".join(line + "\n" for line in expected)
        digest = hashlib.sha256(body.encode("ascii")).hexdigest()
        checksum = runtime_module._canonical({"type": "checksum", "sha256": digest})
        assert transcript.to_jsonl(path) == digest
        assert path.read_bytes() == (body + checksum + "\n").encode("ascii")
        assert transcript.canonical_lines(include_timing=True) == expected

    @pytest.mark.parametrize(
        "value, spelled",
        [(_Colour.RED, '"red"'), (uuid.UUID(int=5), '"00000000-0000-0000-0000-000000000005"')],
    )
    def test_orjson_encodes_what_json_refuses(self, value, spelled):
        # A plain Enum member or a UUID is written, as its value or its string.
        with pytest.raises(TypeError):
            runtime_module._canonical({"v": value})
        transcript = SimulationTranscript()
        transcript.records = [{"v": value}]
        assert transcript.canonical_lines() == ['{"v":' + spelled + "}"]


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
        assert read_config(SchedulerConfig, "scheduler", config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            read_config(SchedulerConfig, "scheduler", {"max_ticks": 5, "surprise": 1})

    def test_duplicate_agents_rejected(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(max_ticks=1, agent_order=("student_agent", "student_agent"))

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"max_ticks": 2.5}, "max_ticks"),
            ({"max_ticks": True}, "max_ticks"),
            ({"max_ticks": "3"}, "max_ticks"),
            ({"max_ticks": 3, "rng_seed": None}, "rng_seed"),
        ],
    )
    def test_types_checked_at_construction(self, kwargs, key):
        with pytest.raises(ConfigError, match=f"scheduler config {key} must be an integer, got"):
            SchedulerConfig(**kwargs)

    def test_from_dict_coerces_integral_floats(self):
        read = read_config(SchedulerConfig, "scheduler", {"max_ticks": 12.0, "rng_seed": 3.0})
        assert read == SchedulerConfig(max_ticks=12, rng_seed=3)
