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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from . import orjson_guard
from .bus import AgentName, Event, EventBus, Subscription, TriggerKind
from .domain import Cohort, EventColumns
from .errors import (
    AgentPhaseError,
    ConfigError,
    PhaseDisciplineError,
    TranscriptChecksumError,
    TranscriptError,
    TranscriptVersionError,
    check_config_types,
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
    from .institution import FeatureSnapshot, FeatureTracker

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
    max_ticks: int = 50
    agent_order: tuple[str, ...] = DEFAULT_AGENT_ORDER
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_config_types("scheduler", self)
        object.__setattr__(self, "agent_order", tuple(self.agent_order))
        if self.max_ticks < 0:
            raise ConfigError(f"max_ticks must be >= 0, got {self.max_ticks}")
        if sorted(self.agent_order) != sorted(set(self.agent_order)):
            raise ConfigError(f"agent_order contains duplicates: {self.agent_order}")

    def to_dict(self) -> dict:
        return {**asdict(self), "agent_order": list(self.agent_order)}


@dataclass(frozen=True)
class TickView:
    """What the environment exposes to agents at one tick.

    ``events`` is this tick's slice of the cohort's event columns, in
    stream order. ``tracker`` is the run's feature tracker, already fed
    this tick's events; ``snapshot`` is its ``policy_signals()`` taken
    right after that ingest, one row per student in cohort order, and
    ``active_rows`` are the rows of the students with an event at this
    tick, in student-id order.
    """

    tick: int
    events: EventColumns
    cohort: Cohort
    tracker: FeatureTracker
    snapshot: FeatureSnapshot
    active_rows: np.ndarray


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
    """Bus handle that only works while the scheduler holds it open.

    ``publish_many(kinds, payloads)`` publishes an act's triggers as one
    batch, one kind per payload: the bus validates the whole batch before
    it stamps any id (a bad payload publishes and records nothing), stamps
    one contiguous id range in batch order, and the transcript gets one
    ``event`` record per item in that order. That equals a loop of
    ``publish`` calls over the items, which is a batch of one. The bus
    queues a copy of each payload, and the transcript records another.
    """

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
        (event_id,) = self.publish_many((kind,), (payload or {},))
        return event_id

    def publish_many(
        self, kinds: Sequence[TriggerKind], payloads: Sequence[Mapping[str, object]]
    ) -> range:
        """Publish ``payloads[i]`` as a ``kinds[i]`` trigger, in order; returns the ids."""
        if self._source is None or self._tick is None:
            raise PhaseDisciplineError(
                "publishing is only allowed from the act phase (or the policy step)"
            )
        payloads = [dict(payload) for payload in payloads]
        event_ids = self._bus.publish_many(self._tick, self._source, kinds, payloads)
        self._transcript.record_events(self._tick, self._source, kinds, payloads, event_ids)
        return event_ids


class Agent(ABC):
    """Four-phase agent contract. Subclasses keep their own state as attributes."""

    name: AgentName
    subscriptions: frozenset[TriggerKind] = frozenset()

    def perceive(self, view: TickView, inbox: Sequence[Event]) -> Any:
        """Turn raw tick data plus delivered events into percepts; by default, both as a dict."""
        return {"view": view, "inbox": tuple(inbox)}

    @abstractmethod
    def reason(self, percepts: Any) -> Any:
        """Turn percepts plus agent state into a decision set."""

    @abstractmethod
    def act(self, decisions: Any, publish: Publisher) -> list[Action]:
        """Execute decisions; the only phase allowed to publish events."""

    def evaluate(self, outcome: TickOutcome) -> None:
        """Fold observed outcomes back into state; by default, nothing."""


# -- transcript --------------------------------------------------------------


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(record: Mapping[str, object]) -> str:
    return _ENCODER.encode(record)


def _canonical_line(record: Mapping[str, object]) -> bytes:
    return (_canonical(record) + "\n").encode("ascii")


#: Records encoded, hashed and written at a time by ``to_jsonl``.
_WRITE_CHUNK = 1024


def _encode_lines(records: Sequence[Mapping[str, object]]) -> bytes:
    """The bytes of ``"".join(_canonical(r) + "\n" for r in records)``.

    orjson encodes each record. A line that orjson refuses (an int past
    64 bits, a non-str key, a lone surrogate, deep nesting, a numpy scalar,
    a dataclass, a datetime), or whose bytes hold a guarded spelling, is
    encoded by ``_canonical`` instead, so json's line or its error stands.
    The guard (:func:`auss.orjson_guard.hits`) scans the joined bytes once
    and maps its hits to lines by offset (:func:`auss.orjson_guard.items_hit`).
    The one divergence: orjson encodes plain ``Enum`` members (as their
    value) and ``UUID`` (as its string), which json refuses.
    """
    import orjson  # imported here so that ``import auss`` does not pay for it

    dumps = orjson.dumps
    option = (
        orjson.OPT_SORT_KEYS
        | orjson.OPT_APPEND_NEWLINE
        | orjson.OPT_PASSTHROUGH_DATACLASS
        | orjson.OPT_PASSTHROUGH_DATETIME
    )
    lines = []
    for record in records:
        try:
            lines.append(dumps(record, option=option))
        except TypeError:
            lines.append(_canonical_line(record))
    text = b"".join(lines)
    hits = orjson_guard.hits(text)
    if not hits:
        return text
    for i in orjson_guard.items_hit(map(len, lines), hits):
        lines[i] = _canonical_line(records[i])
    return b"".join(lines)


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

    # The scheduler's own writers build a fresh record and skip the copy.

    def record_events(
        self,
        tick: int,
        source: AgentName,
        kinds: Sequence[TriggerKind],
        payloads: Sequence[Mapping[str, object]],
        event_ids: Sequence[int],
    ) -> None:
        source_agent = source.value
        self.records.extend(
            {
                "type": "event",
                "event_id": event_id,
                "tick": tick,
                "source_agent": source_agent,
                "kind": kind.value,
                "payload": dict(payload),
            }
            for event_id, kind, payload in zip(event_ids, kinds, payloads)
        )

    def record_delivery(self, tick: int, subscriber: str, event_ids: Sequence[int]) -> None:
        self.records.append(
            {"type": "delivery", "tick": tick, "subscriber": subscriber, "event_ids": list(event_ids)}
        )

    def record_phase(self, tick: int, agent: str, phase: str, wall_ns: int) -> None:
        self.records.append(
            {"type": "phase", "tick": tick, "agent": agent, "phase": phase, "wall_ns": wall_ns}
        )

    def record_actions(self, tick: int, agent: str, actions: Sequence[Action]) -> None:
        self.records.extend(
            {
                "type": "action",
                "tick": tick,
                "agent": agent,
                "kind": action.kind,
                "student_id": action.student_id,
                "detail": dict(action.detail),
            }
            for action in actions
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
        records = self.records
        if not include_timing:
            records = [{k: v for k, v in r.items() if k not in _TIMING_KEYS} for r in records]
        return _encode_lines(records).decode("ascii").split("\n")[:-1]

    # -- file round-trip ----------------------------------------------------

    def to_jsonl(self, path: str | Path) -> str:
        """Write records plus a trailing checksum line; returns the digest.

        Records are encoded in chunks, each hashed and written before the
        next, so the whole text is never held at once.
        """
        sha = hashlib.sha256()
        records = self.records
        with open(path, "wb") as fh:
            for start in range(0, len(records), _WRITE_CHUNK):
                chunk = _encode_lines(records[start : start + _WRITE_CHUNK])
                sha.update(chunk)
                fh.write(chunk)
            digest = sha.hexdigest()
            fh.write(_encode_lines([{"type": "checksum", "sha256": digest}]))
        return digest

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "SimulationTranscript":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise TranscriptError(f"cannot read transcript {path}: {exc}") from exc
        # Only "\n" ends a line: str.splitlines would also split at U+2028,
        # U+0085 and other characters that a string value may hold raw.
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        if not lines:
            raise TranscriptError(f"transcript {path} is empty")
        records = []
        for lineno, line in enumerate(lines, start=1):
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # a JSONDecodeError, an integer past the digit limit or nesting past the stack
                raise TranscriptError(
                    f"transcript {path} line {lineno}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise TranscriptError(
                    f"transcript {path} line {lineno}: record is not a JSON object"
                )
            records.append(record)
        footer = records[-1]
        if footer.get("type") != "checksum":
            raise TranscriptError(f"transcript {path} has no checksum footer")
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


def _nearest_rank_p95(values: Sequence[float]) -> float:
    ordered = sorted(values)
    idx = max(0, -(-len(ordered) * 95 // 100) - 1)  # ceil(0.95 n) - 1
    return ordered[idx]


def measure_phase_latency(transcript: SimulationTranscript) -> dict[str, dict[str, float]]:
    """Per-agent response-time stats over ticks, by agent: each agent's
    ``mean_ms``, nearest-rank ``p95_ms`` and ``n_ticks``.

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
        agent: {
            "mean_ms": sum(values) / len(values),
            "p95_ms": _nearest_rank_p95(values),
            "n_ticks": len(values),
        }
        for agent, values in by_agent.items()
    }


# -- policy driver -------------------------------------------------------------


class PolicyDriver:
    """Runs Algorithm-style intervention control inside the scheduler tick.

    Per tick, after the agents: settle the previous decision (observe
    reward, apply the Q update), then pick the currently riskiest active
    student, select an action epsilon-greedily, and execute it as an
    intervention_request event. Every signal is a row of the view's
    snapshot, so the settled and the chosen target read the same tick's
    features.
    """

    def __init__(self, config: PolicyConfig):
        self.config = config
        self.table = QTable()
        self.rng = random.Random(config.rng_seed)
        # (state, action, row) of the last decision, settled at the next tick.
        self.pending: tuple[SystemState, InterventionAction, int] | None = None

    def step(self, view: TickView, publisher: Publisher, transcript: SimulationTranscript) -> None:
        snapshot, active = view.snapshot, view.active_rows
        ids = view.cohort.student_ids
        if self.pending is not None:
            state, action, row = self.pending
            state_now = discretize_state(*snapshot.signals(row))
            reward = compute_reward(
                action,
                engagement_before=state.engagement_level,
                engagement_after=state_now.engagement_level,
                # The target was active when chosen, so no event now is a dropout.
                dropped_out=row not in active,
            )
            sample = TransitionSample(
                state=state, action=action, reward=reward, next_state=state_now
            )
            q_update(self.table, sample, self.config)
            transcript.append(
                {
                    "type": "reward",
                    "tick": view.tick,
                    "target": ids[row],
                    "state": list(state.as_tuple()),
                    "action": action.value,
                    "reward": reward,
                    "next_state": list(state_now.as_tuple()),
                }
            )
            self.pending = None

        if not active.size:
            return
        # Highest monitor risk first; argmax keeps the first of tied maxima,
        # and the active rows are in student-id order, so ties go to the
        # smallest student id.
        row = int(active[np.argmax(snapshot.risk[active])])
        state = discretize_state(*snapshot.signals(row))
        action = select_action(self.table, state, self.config.epsilon, self.rng)
        if action is not InterventionAction.NO_OP:
            publisher.publish(
                TriggerKind.INTERVENTION_REQUEST,
                {"action": action.value, "student_id": ids[row]},
            )
        transcript.append(
            {
                "type": "policy",
                "tick": view.tick,
                "target": ids[row],
                "state": list(state.as_tuple()),
                "action": action.value,
            }
        )
        self.pending = (state, action, row)

    def final_table_record(self) -> dict:
        values = {
            "|".join([*state.as_tuple(), action.value]): value
            for (state, action), value in self.table.items()
        }
        return {"type": "qtable", "values": values}


# -- scheduler -----------------------------------------------------------------


def require_ticks_within(cohort: Cohort, config: SchedulerConfig) -> None:
    """Refuse a cohort with an event at a tick the run never reaches (at or
    past max_ticks): a ConfigError rather than an event silently left out.
    ``run`` calls this itself; every other caller refuses through
    ``experiment.require_runnable``, which calls this after the cohort's
    validation."""
    ticks = cohort.event_columns.ticks()
    late = ticks[ticks >= config.max_ticks]
    if late.size:
        raise ConfigError(
            f"cohort has an event at tick {late[0]}, at or past max_ticks {config.max_ticks}"
        )


def run(
    cohort: Cohort,
    agents: Sequence[Agent],
    config: SchedulerConfig,
    *,
    tracker: FeatureTracker,
    policy_driver: PolicyDriver | None = None,
    header_extra: Mapping[str, object] | None = None,
) -> SimulationTranscript:
    """Execute max_ticks scheduler iterations and return the full transcript.

    The run builds its own bus. Per tick, in this order: the feature
    tracker ingests the tick's slice of the cohort's event columns, and
    one ``policy_signals`` snapshot and the tick's active rows go on the
    TickView; the bus delivers everything published earlier; each agent
    runs its four phases in the configured order; and the policy driver
    (when present) settles rewards and issues the next intervention from
    the same snapshot. A cohort that :func:`require_ticks_within` refuses
    is not run.
    """
    require_ticks_within(cohort, config)
    columns = cohort.event_columns
    events_by_tick = columns.tick_slices()
    no_events = columns.take(slice(0, 0))
    by_name: dict[str, Agent] = {}
    for agent in agents:
        by_name[agent.name.value] = agent
    if sorted(config.agent_order) != sorted(by_name):
        raise ConfigError(
            f"agent_order {config.agent_order} does not match registered agents {sorted(by_name)}"
        )

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

    for tick in range(config.max_ticks):
        transcript.append({"type": "tick_start", "tick": tick})
        tick_events = events_by_tick.get(tick, no_events)
        tracker.ingest(tick, tick_events)
        view = TickView(
            tick=tick,
            events=tick_events,
            cohort=cohort,
            tracker=tracker,
            snapshot=tracker.policy_signals(),
            active_rows=tracker.active_rows(tick_events),
        )

        inboxes = bus.deliver_tick(tick)
        for subscriber in sorted(inboxes):
            if inboxes[subscriber]:
                transcript.record_delivery(
                    tick, subscriber, [e.event_id for e in inboxes[subscriber]]
                )

        for agent_name in config.agent_order:
            agent = by_name[agent_name]
            inbox = inboxes.get(agent_name, [])

            # One stamp before the phases and one after each; a phase that
            # raises is the one after the last stamp.
            stamps = [time.perf_counter_ns()]
            try:
                percepts = agent.perceive(view, inbox)
                stamps.append(time.perf_counter_ns())
                decisions = agent.reason(percepts)
                stamps.append(time.perf_counter_ns())
                publisher._open(agent.name, tick)
                try:
                    actions = agent.act(decisions, publisher)
                finally:
                    publisher._close()
                stamps.append(time.perf_counter_ns())
                agent.evaluate(TickOutcome(tick=tick, actions=tuple(actions)))
                stamps.append(time.perf_counter_ns())
            except Exception as exc:  # noqa: BLE001 - contract: identify the phase
                raise AgentPhaseError(agent_name, tick, PHASES[len(stamps) - 1], exc) from exc

            for phase, begin, end in zip(PHASES, stamps, stamps[1:]):
                transcript.record_phase(tick, agent_name, phase, end - begin)
            transcript.record_actions(tick, agent_name, actions)

        if policy_driver is not None:
            publisher._open(AgentName.ENVIRONMENT, tick)
            try:
                policy_driver.step(view, publisher, transcript)
            finally:
                publisher._close()

    if policy_driver is not None:
        transcript.append(policy_driver.final_table_record())
    return transcript
