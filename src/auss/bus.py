"""In-process event bus with tick-synchronous, exactly-once delivery.

Agents publish typed trigger events; the bus queues them and fans them out
to matching subscribers when the scheduler calls :meth:`EventBus.deliver_tick`.
A global sequence number makes delivery transcripts reproducible.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import SchedulerProtocolError, UnknownSubscriberError


class AgentName(str, Enum):
    STUDENT = "student_agent"
    EDUCATOR = "educator_agent"
    INSTITUTION = "institution_agent"
    ENVIRONMENT = "environment"


class TriggerKind(str, Enum):
    PERFORMANCE_DECLINE = "performance_decline"
    DISENGAGEMENT = "disengagement"
    AT_RISK_FLAG = "at_risk_flag"
    RECOMMENDATION_ISSUED = "recommendation_issued"
    GRADE_POSTED = "grade_posted"
    REPORT_READY = "report_ready"
    INTERVENTION_REQUEST = "intervention_request"


_SCALAR_TYPES = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class Event:
    """One inter-agent trigger. ``event_id`` 0 means not yet published."""

    tick: int
    source_agent: AgentName
    kind: TriggerKind
    payload: Mapping[str, object] = field(default_factory=dict)
    event_id: int = 0

    def to_json_dict(self) -> dict:
        return {
            "event_id": self.event_id,
            "tick": self.tick,
            "source_agent": self.source_agent.value,
            "kind": self.kind.value,
            "payload": dict(self.payload),
        }


@dataclass(frozen=True)
class Subscription:
    subscriber: str
    kinds: frozenset[TriggerKind]

    def __post_init__(self) -> None:
        if not self.kinds:
            raise ValueError("subscription must name at least one event kind")
        object.__setattr__(self, "kinds", frozenset(self.kinds))


def _validate_payload(payload: Mapping[str, object]) -> None:
    for key, value in payload.items():
        if not isinstance(key, str):
            raise ValueError(f"payload key {key!r} is not a string")
        if isinstance(value, _SCALAR_TYPES):
            continue
        if isinstance(value, (list, tuple)) and all(isinstance(v, (str, int)) for v in value):
            continue
        raise ValueError(f"payload value for {key!r} must be a scalar or an id list")


class EventBus:
    """Serializes publications and batches delivery at tick boundaries.

    Publication may happen from concurrent contexts (a lock guards the
    sequence number); delivery is driven by exactly one scheduler context.
    """

    def __init__(self, transcript_path: str | Path | None = None):
        self._lock = threading.Lock()
        self._next_id = 1
        self._pending: list[Event] = []
        self._subscriptions: dict[str, set[TriggerKind]] = {}
        self._last_delivered_tick: int | None = None
        self._transcript_path = Path(transcript_path) if transcript_path is not None else None
        if self._transcript_path is not None:
            self._transcript_path.write_text("", encoding="utf-8")

    # -- registration ------------------------------------------------------

    def register_subscriber(self, subscriber: str) -> None:
        """Make a subscriber id known; subscriptions may then be added."""
        self._subscriptions.setdefault(subscriber, set())

    @property
    def subscribers(self) -> tuple[str, ...]:
        return tuple(self._subscriptions)

    def subscribe(self, subscription: Subscription) -> None:
        """Add kinds for a registered subscriber. Idempotent per kind."""
        if subscription.subscriber not in self._subscriptions:
            raise UnknownSubscriberError(
                f"subscriber {subscription.subscriber!r} is not registered"
            )
        self._subscriptions[subscription.subscriber].update(subscription.kinds)

    # -- publication -------------------------------------------------------

    def publish(self, event: Event) -> int:
        """Queue an event for the next delivery; returns the assigned id."""
        _validate_payload(event.payload)
        with self._lock:
            stamped = Event(
                event.tick, event.source_agent, event.kind, event.payload, self._next_id
            )
            self._next_id += 1
            self._pending.append(stamped)
        if self._transcript_path is not None:
            line = json.dumps(stamped.to_json_dict(), sort_keys=True, separators=(",", ":"))
            with self._transcript_path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return stamped.event_id

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- delivery ----------------------------------------------------------

    def deliver_tick(self, tick: int) -> dict[str, list[Event]]:
        """Drain the pending queue and fan out to matching subscribers.

        Must be called at most once per tick, with strictly increasing
        ticks. Every registered subscriber appears in the result, matched
        or not, so callers can iterate inboxes uniformly.
        """
        if self._last_delivered_tick is not None and tick <= self._last_delivered_tick:
            raise SchedulerProtocolError(
                f"deliver_tick({tick}) after tick {self._last_delivered_tick} was already delivered"
            )
        self._last_delivered_tick = tick
        with self._lock:
            batch = self._pending
            self._pending = []
        inboxes: dict[str, list[Event]] = {name: [] for name in self._subscriptions}
        for event in batch:
            for subscriber, kinds in self._subscriptions.items():
                if event.kind in kinds:
                    inboxes[subscriber].append(event)
        return inboxes
