"""Agent contract enforcement and the deterministic tick scheduler.

Every agent runs perceive -> reason -> act -> evaluate exactly once per
tick; only act may publish (the publisher handle is open solely during
that call). Events published at tick t reach subscribers at tick t+1,
which removes any dependence on the within-tick agent ordering.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .bus import AgentName, Event, EventBus, Subscription, TriggerKind
from .domain import Cohort, EngagementEvent
from .errors import (
    AgentPhaseError,
    ConfigError,
    PhaseDisciplineError,
    SchedulerProtocolError,
    TranscriptChecksumError,
    TranscriptError,
    TranscriptVersionError,
)
from .policy import (
    InterventionAction,
    PolicyConfig,
    QTable,
    SystemState,
    TransitionSample,
    compute_reward,
    discretize_state,
    q_update,
    select_action,
)

if TYPE_CHECKING:
    from .institution import FeatureTracker

PACKAGE_VERSION = "0.1.0"
TRANSCRIPT_FORMAT_VERSION = 1

PHASES = ("perceive", "reason", "act", "evaluate")

DEFAULT_AGENT_ORDER = (
    AgentName.STUDENT.value,
    AgentName.EDUCATOR.value,
    AgentName.INSTITUTION.value,
)


@dataclass(frozen=True)
class SchedulerConfig:
    max_ticks: int
    agent_order: tuple[str, ...] = DEFAULT_AGENT_ORDER
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "agent_order", tuple(self.agent_order))
        if self.max_ticks < 0:
            raise ConfigError(f"max_ticks must be >= 0, got {self.max_ticks}")
        if sorted(self.agent_order) != sorted(set(self.agent_order)):
            raise ConfigError(f"agent_order contains duplicates: {self.agent_order}")

    def to_dict(self) -> dict:
        return {
            "max_ticks": self.max_ticks,
            "agent_order": list(self.agent_order),
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SchedulerConfig":
        known = {"max_ticks", "agent_order", "rng_seed"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown scheduler config keys: {sorted(unknown)}")
        if "max_ticks" not in data:
            raise ConfigError("scheduler config is missing max_ticks")
        return cls(
            max_ticks=int(data["max_ticks"]),  # type: ignore[arg-type]
            agent_order=tuple(data.get("agent_order", DEFAULT_AGENT_ORDER)),  # type: ignore[arg-type]
            rng_seed=int(data.get("rng_seed", 0)),  # type: ignore[arg-type]
        )


class AgentMemory:
    """Key-value model state; the version counter bumps once per evaluate."""

    def __init__(self) -> None:
        self.data: dict[str, Any] = {}
        self.version = 0

    def bump_version(self) -> None:
        self.version += 1


@dataclass(frozen=True)
class TickView:
    """What the environment exposes to agents at one tick.

    ``newly_dropped`` holds students who had events before this tick but
    none at it (the observable form of a dropout). ``tracker`` is the run's
    feature tracker, already fed this tick's events.
    """

    tick: int
    events: tuple[EngagementEvent, ...]
    active_students: frozenset[str]
    newly_dropped: frozenset[str]
    cohort: Cohort
    tracker: FeatureTracker | None = None


@dataclass(frozen=True)
class Action:
    kind: str
    student_id: str | None = None
    detail: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class TickOutcome:
    tick: int
    actions: tuple[Action, ...]


class Publisher:
    """Bus handle that only works while the scheduler holds it open."""

    def __init__(self, bus: EventBus, transcript: "SimulationTranscript"):
        self._bus = bus
        self._transcript = transcript
        self._source: AgentName | None = None
        self._tick: int | None = None

    def _open(self, source: AgentName, tick: int) -> None:
        self._source = source
        self._tick = tick

    def _close(self) -> None:
        self._source = None
        self._tick = None

    def publish(self, kind: TriggerKind, payload: Mapping[str, object] | None = None) -> int:
        if self._source is None or self._tick is None:
            raise PhaseDisciplineError(
                "publishing is only allowed from the act phase (or the policy step)"
            )
        event = Event(
            tick=self._tick, source_agent=self._source, kind=kind, payload=dict(payload or {})
        )
        event_id = self._bus.publish(event)
        self._transcript.record_event(event, event_id)
        return event_id


class Agent(ABC):
    """Four-phase agent contract. Subclasses keep state in ``self.memory``."""

    name: AgentName
    subscriptions: frozenset[TriggerKind] = frozenset()

    def __init__(self) -> None:
        self.memory = AgentMemory()

    @abstractmethod
    def perceive(self, view: TickView, inbox: Sequence[Event]) -> Any:
        """Turn raw tick data plus delivered events into percepts."""

    @abstractmethod
    def reason(self, percepts: Any) -> Any:
        """Turn percepts plus memory into a decision set."""

    @abstractmethod
    def act(self, decisions: Any, publish: Publisher) -> list[Action]:
        """Execute decisions; the only phase allowed to publish events."""

    @abstractmethod
    def evaluate(self, outcome: TickOutcome) -> None:
        """Fold observed outcomes back into memory."""


# -- transcript --------------------------------------------------------------


def _canonical(record: Mapping[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


_TIMING_KEYS = ("wall_ns",)


class SimulationTranscript:
    """Complete replayable record of one run: events, phases, actions, rewards.

    Wall-clock fields stay in the file but are dropped from canonical
    comparisons, since timing is machine-dependent.
    """

    def __init__(self, header: Mapping[str, object] | None = None):
        self.records: list[dict] = []
        if header is not None:
            self.records.append(dict(header))

    # -- writers ----------------------------------------------------------

    def append(self, record: Mapping[str, object]) -> None:
        self.records.append(dict(record))

    def record_event(self, event: Event, event_id: int) -> None:
        data = event.to_json_dict()
        data["event_id"] = event_id
        self.append({"type": "event", **data})

    def record_delivery(self, tick: int, subscriber: str, event_ids: Sequence[int]) -> None:
        self.append(
            {"type": "delivery", "tick": tick, "subscriber": subscriber, "event_ids": list(event_ids)}
        )

    def record_phase(self, tick: int, agent: str, phase: str, wall_ns: int) -> None:
        self.append({"type": "phase", "tick": tick, "agent": agent, "phase": phase, "wall_ns": wall_ns})

    def record_action(self, tick: int, agent: str, action: Action) -> None:
        self.append(
            {
                "type": "action",
                "tick": tick,
                "agent": agent,
                "kind": action.kind,
                "student_id": action.student_id,
                "detail": dict(action.detail),
            }
        )

    # -- readers ----------------------------------------------------------

    @property
    def header(self) -> dict:
        if not self.records or self.records[0].get("type") != "header":
            raise TranscriptError("transcript has no header record")
        return self.records[0]

    def of_type(self, record_type: str) -> list[dict]:
        return [r for r in self.records if r.get("type") == record_type]

    def canonical_lines(self, include_timing: bool = False) -> list[str]:
        lines = []
        for record in self.records:
            if not include_timing:
                record = {k: v for k, v in record.items() if k not in _TIMING_KEYS}
            lines.append(_canonical(record))
        return lines

    # -- file round-trip ----------------------------------------------------

    def to_jsonl(self, path: str | Path) -> str:
        """Write records plus a trailing checksum line; returns the digest."""
        body = "".join(_canonical(r) + "\n" for r in self.records)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        footer = _canonical({"type": "checksum", "sha256": digest}) + "\n"
        Path(path).write_text(body + footer, encoding="utf-8", newline="\n")
        return digest

    @classmethod
    def from_jsonl(cls, path: str | Path, verify: bool = True) -> "SimulationTranscript":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise TranscriptError(f"cannot read transcript {path}: {exc}") from exc
        lines = text.splitlines()
        if not lines:
            raise TranscriptError(f"transcript {path} is empty")
        try:
            records = [json.loads(line) for line in lines]
        except json.JSONDecodeError as exc:
            raise TranscriptError(f"transcript {path} line {exc.lineno}: invalid JSON") from exc
        footer = records[-1]
        if footer.get("type") != "checksum":
            raise TranscriptError(f"transcript {path} has no checksum footer")
        if verify:
            body = "".join(line + "\n" for line in lines[:-1])
            digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
            if digest != footer.get("sha256"):
                raise TranscriptChecksumError(
                    f"transcript {path} checksum mismatch: content was altered"
                )
        transcript = cls()
        transcript.records = records[:-1]
        header = transcript.records[0] if transcript.records else {}
        if header.get("type") != "header":
            raise TranscriptError(f"transcript {path} has no header record")
        if header.get("format_version") != TRANSCRIPT_FORMAT_VERSION:
            raise TranscriptVersionError(
                f"transcript format {header.get('format_version')!r} is not compatible "
                f"with reader version {TRANSCRIPT_FORMAT_VERSION}"
            )
        return transcript


# -- latency ------------------------------------------------------------------


@dataclass(frozen=True)
class LatencyStats:
    mean_ms: float
    p95_ms: float
    n_ticks: int


def _nearest_rank_p95(values: Sequence[float]) -> float:
    ordered = sorted(values)
    idx = max(0, -(-len(ordered) * 95 // 100) - 1)  # ceil(0.95 n) - 1
    return ordered[idx]


def measure_phase_latency(transcript: SimulationTranscript) -> dict[str, LatencyStats]:
    """Per-agent response-time stats over ticks.

    Response time at a tick is the wall time of perceive + reason + act
    (evaluate is bookkeeping, not part of the response path).
    """
    per_agent_tick: dict[tuple[str, int], float] = {}
    for record in transcript.of_type("phase"):
        if record["phase"] not in ("perceive", "reason", "act"):
            continue
        key = (record["agent"], record["tick"])
        per_agent_tick[key] = per_agent_tick.get(key, 0.0) + record["wall_ns"] / 1e6
    if not per_agent_tick:
        raise TranscriptError("transcript contains no timed phase records")
    by_agent: dict[str, list[float]] = {}
    for (agent, _tick), ms in sorted(per_agent_tick.items()):
        by_agent.setdefault(agent, []).append(ms)
    return {
        agent: LatencyStats(
            mean_ms=sum(values) / len(values),
            p95_ms=_nearest_rank_p95(values),
            n_ticks=len(values),
        )
        for agent, values in by_agent.items()
    }


# -- policy driver -------------------------------------------------------------


@dataclass
class _PendingDecision:
    state: SystemState
    action: InterventionAction
    target: str
    engagement_before: Any  # EngagementLevel


class PolicyDriver:
    """Runs Algorithm-style intervention control inside the scheduler tick.

    Per tick: settle the previous decision (observe reward, apply the
    Q update), then pick the currently riskiest active student, select an
    action epsilon-greedily, and execute it as an intervention_request
    event. Per-student signals come from the view's feature tracker.
    """

    def __init__(self, config: PolicyConfig, table: QTable | None = None):
        self.config = config
        self.table = table if table is not None else QTable()
        self.rng = random.Random(config.rng_seed)
        self.pending: _PendingDecision | None = None

    @staticmethod
    def _state_for(tracker: FeatureTracker, student_id: str) -> tuple[SystemState, Any]:
        mean_engagement, score_slope, risk = tracker.policy_signals(student_id)
        state = discretize_state(mean_engagement, score_slope, risk)
        return state, state.engagement_level

    def step(self, view: TickView, publisher: Publisher, transcript: SimulationTranscript) -> None:
        tracker = view.tracker
        if self.pending is not None:
            state_now, level_now = self._state_for(tracker, self.pending.target)
            reward = compute_reward(
                self.pending.action,
                engagement_before=self.pending.engagement_before,
                engagement_after=level_now,
                dropped_out=self.pending.target in view.newly_dropped,
            )
            sample = TransitionSample(
                state=self.pending.state,
                action=self.pending.action,
                reward=reward,
                next_state=state_now,
            )
            q_update(self.table, sample, self.config)
            transcript.append(
                {
                    "type": "reward",
                    "tick": view.tick,
                    "target": self.pending.target,
                    "state": list(self.pending.state.as_tuple()),
                    "action": self.pending.action.value,
                    "reward": reward,
                    "next_state": list(state_now.as_tuple()),
                }
            )
            self.pending = None

        candidates = sorted(view.active_students)
        if not candidates:
            return
        # Highest heuristic risk first; ties go to the smallest student id.
        target = min(candidates, key=lambda s: (-tracker.policy_signals(s)[2], s))
        state, level = self._state_for(tracker, target)
        action = select_action(self.table, state, self.config, self.rng)
        if action is not InterventionAction.NO_OP:
            publisher.publish(
                TriggerKind.INTERVENTION_REQUEST,
                {"action": action.value, "student_id": target},
            )
        transcript.append(
            {
                "type": "policy",
                "tick": view.tick,
                "target": target,
                "state": list(state.as_tuple()),
                "action": action.value,
            }
        )
        self.pending = _PendingDecision(
            state=state, action=action, target=target, engagement_before=level
        )

    def final_table_record(self) -> dict:
        values = {
            "|".join([*state.as_tuple(), action.value]): value
            for (state, action), value in self.table.items()
        }
        return {"type": "qtable", "values": values}


# -- scheduler -----------------------------------------------------------------


def _group_events_by_tick(cohort: Cohort) -> dict[int, list[EngagementEvent]]:
    grouped: dict[int, list[EngagementEvent]] = {}
    for event in cohort.events:
        grouped.setdefault(event.tick, []).append(event)
    return grouped


def run(
    cohort: Cohort,
    agents: Sequence[Agent],
    config: SchedulerConfig,
    *,
    tracker: FeatureTracker | None = None,
    policy_driver: PolicyDriver | None = None,
    bus: EventBus | None = None,
    header_extra: Mapping[str, object] | None = None,
) -> SimulationTranscript:
    """Execute max_ticks scheduler iterations and return the full transcript.

    Per tick: the environment exposes that tick's cohort data, the feature
    tracker (when present) ingests it, the bus delivers everything
    published earlier, each agent runs its four phases in the configured
    order, and the policy driver (when present) settles rewards and issues
    the next intervention. The policy driver reads the tracker, so it
    needs one.
    """
    if policy_driver is not None and tracker is None:
        raise ConfigError("a policy driver needs a feature tracker")
    by_name: dict[str, Agent] = {}
    for agent in agents:
        by_name[agent.name.value] = agent
    if sorted(config.agent_order) != sorted(by_name):
        raise ConfigError(
            f"agent_order {config.agent_order} does not match registered agents {sorted(by_name)}"
        )

    if bus is None:
        bus = EventBus()
    for agent in agents:
        bus.register_subscriber(agent.name.value)
        if agent.subscriptions:
            bus.subscribe(Subscription(agent.name.value, frozenset(agent.subscriptions)))

    header = {
        "type": "header",
        "format_version": TRANSCRIPT_FORMAT_VERSION,
        "package_version": PACKAGE_VERSION,
        "scheduler": config.to_dict(),
        "agents": sorted(by_name),
        "n_students": len(cohort.students),
    }
    if header_extra:
        header.update(header_extra)
    transcript = SimulationTranscript(header)
    publisher = Publisher(bus, transcript)

    events_by_tick = _group_events_by_tick(cohort)
    previously_active: set[str] = set()

    for tick in range(config.max_ticks):
        transcript.append({"type": "tick_start", "tick": tick})
        tick_events = tuple(events_by_tick.get(tick, ()))
        active = frozenset(e.student_id for e in tick_events)
        newly_dropped = frozenset(previously_active - active)
        previously_active |= active
        previously_active -= newly_dropped
        view = TickView(
            tick=tick,
            events=tick_events,
            active_students=active,
            newly_dropped=newly_dropped,
            cohort=cohort,
            tracker=tracker,
        )
        if tracker is not None:
            tracker.ingest(tick, tick_events)

        inboxes = bus.deliver_tick(tick)
        for subscriber in sorted(inboxes):
            if inboxes[subscriber]:
                transcript.record_delivery(
                    tick, subscriber, [e.event_id for e in inboxes[subscriber]]
                )

        for agent_name in config.agent_order:
            agent = by_name[agent_name]
            inbox = inboxes.get(agent_name, [])

            start = time.perf_counter_ns()
            try:
                percepts = agent.perceive(view, inbox)
            except Exception as exc:  # noqa: BLE001 - contract: identify the phase
                raise AgentPhaseError(agent_name, tick, "perceive", exc) from exc
            t_perceive = time.perf_counter_ns()
            try:
                decisions = agent.reason(percepts)
            except Exception as exc:  # noqa: BLE001
                raise AgentPhaseError(agent_name, tick, "reason", exc) from exc
            t_reason = time.perf_counter_ns()
            publisher._open(agent.name, tick)
            try:
                actions = agent.act(decisions, publisher)
            except Exception as exc:  # noqa: BLE001
                raise AgentPhaseError(agent_name, tick, "act", exc) from exc
            finally:
                publisher._close()
            t_act = time.perf_counter_ns()
            try:
                agent.evaluate(TickOutcome(tick=tick, actions=tuple(actions)))
            except Exception as exc:  # noqa: BLE001
                raise AgentPhaseError(agent_name, tick, "evaluate", exc) from exc
            t_evaluate = time.perf_counter_ns()
            agent.memory.bump_version()

            transcript.record_phase(tick, agent_name, "perceive", t_perceive - start)
            transcript.record_phase(tick, agent_name, "reason", t_reason - t_perceive)
            transcript.record_phase(tick, agent_name, "act", t_act - t_reason)
            transcript.record_phase(tick, agent_name, "evaluate", t_evaluate - t_act)
            for action in actions:
                transcript.record_action(tick, agent_name, action)

        if policy_driver is not None:
            publisher._open(AgentName.ENVIRONMENT, tick)
            try:
                policy_driver.step(view, publisher, transcript)
            finally:
                publisher._close()

    if policy_driver is not None:
        transcript.append(policy_driver.final_table_record())
    return transcript
