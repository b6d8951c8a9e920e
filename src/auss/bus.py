"""In-process event bus with tick-synchronous, exactly-once delivery.

Agents publish typed trigger events; the bus queues them and fans them out
to matching subscribers when the scheduler calls :meth:`EventBus.deliver_tick`.
A global sequence number makes delivery transcripts reproducible.

Batches: :meth:`EventBus.publish_many` queues the triggers of one source at
one tick, one kind per item, so a batch may interleave kinds. It checks
every payload before it stamps any, so a bad payload anywhere in a batch
raises the ``ValueError`` that payload's own publish would raise, and
queues and writes nothing. It then stamps the batch one contiguous id
range in batch order under one lock, and appends the batch's lines to the
JSONL sink in one write. Its ids, queue order, deliveries and sink lines
equal those of a loop of :meth:`EventBus.publish` calls over its items;
an empty batch takes no id. ``publish`` is a batch of one.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from pathlib import Path
from typing import Mapping, Sequence

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
        (event_id,) = self.publish_many(
            event.tick, event.source_agent, (event.kind,), (event.payload,)
        )
        return event_id

    def publish_many(
        self,
        tick: int,
        source_agent: AgentName,
        kinds: Sequence[TriggerKind],
        payloads: Sequence[Mapping[str, object]],
    ) -> range:
        """Queue one event per (kind, payload), in order; returns their ids.

        Every payload is checked before any id is stamped, so a bad one
        queues nothing. The ids are one contiguous range.
        """
        if len(kinds) != len(payloads):
            raise ValueError(f"{len(kinds)} kinds for {len(payloads)} payloads")
        for payload in payloads:
            _validate_payload(payload)
        with self._lock:
            first = self._next_id
            stamped = [
                Event(tick, source_agent, kind, payload, event_id)
                for event_id, kind, payload in zip(count(first), kinds, payloads)
            ]
            self._next_id = first + len(stamped)
            self._pending.extend(stamped)
        if self._transcript_path is not None and stamped:
            lines = "".join(
                json.dumps(event.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
                for event in stamped
            )
            with self._transcript_path.open("a", encoding="utf-8") as fh:
                fh.write(lines)
        return range(first, first + len(stamped))

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
        return {
            subscriber: [event for event in batch if event.kind in kinds]
            for subscriber, kinds in self._subscriptions.items()
        }
