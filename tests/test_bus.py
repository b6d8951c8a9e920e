from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from auss.bus import AgentName, Event, EventBus, Subscription, TriggerKind
from auss.errors import SchedulerProtocolError, UnknownSubscriberError


def make_event(kind=TriggerKind.DISENGAGEMENT, tick=0, payload=None):
    return Event(
        tick=tick,
        source_agent=AgentName.ENVIRONMENT,
        kind=kind,
        payload=payload or {},
    )


class TestPublish:
    def test_first_event_gets_id_one(self):
        bus = EventBus()
        assert bus.publish(make_event()) == 1

    def test_ids_are_monotonic(self):
        bus = EventBus()
        assert bus.publish(make_event()) == 1
        assert bus.publish(make_event()) == 2

    def test_payload_validation(self):
        bus = EventBus()
        bus.publish(make_event(payload={"ids": ["a", "b"], "x": 1.5, "ok": True}))
        with pytest.raises(ValueError):
            bus.publish(make_event(payload={"bad": {"nested": 1}}))

    def test_concurrent_publishes_get_unique_ids(self):
        bus = EventBus()
        with ThreadPoolExecutor(max_workers=8) as pool:
            ids = list(pool.map(lambda _: bus.publish(make_event()), range(200)))
        assert sorted(ids) == list(range(1, 201))


class TestDeliverTick:
    def test_no_events_means_empty_lists(self):
        bus = EventBus()
        bus.register_subscriber("a")
        bus.register_subscriber("b")
        assert bus.deliver_tick(0) == {"a": [], "b": []}

    def test_fan_out_once_per_subscriber(self):
        bus = EventBus()
        for name in ("a", "b"):
            bus.register_subscriber(name)
            bus.subscribe(Subscription(name, frozenset({TriggerKind.DISENGAGEMENT})))
        bus.publish(make_event())
        inboxes = bus.deliver_tick(0)
        assert len(inboxes["a"]) == 1
        assert len(inboxes["b"]) == 1
        assert inboxes["a"][0].event_id == inboxes["b"][0].event_id == 1

    def test_per_subscriber_order_is_publication_order(self):
        bus = EventBus()
        bus.register_subscriber("a")
        bus.subscribe(Subscription("a", frozenset({TriggerKind.DISENGAGEMENT})))
        bus.publish(make_event(payload={"tag": "A"}))
        bus.publish(make_event(payload={"tag": "B"}))
        inbox = bus.deliver_tick(0)["a"]
        assert [e.payload["tag"] for e in inbox] == ["A", "B"]

    def test_double_delivery_same_tick_rejected(self):
        bus = EventBus()
        bus.deliver_tick(3)
        with pytest.raises(SchedulerProtocolError):
            bus.deliver_tick(3)
        with pytest.raises(SchedulerProtocolError):
            bus.deliver_tick(2)

    def test_events_published_after_delivery_wait_for_next_tick(self):
        bus = EventBus()
        bus.register_subscriber("a")
        bus.subscribe(Subscription("a", frozenset({TriggerKind.DISENGAGEMENT})))
        bus.deliver_tick(0)
        bus.publish(make_event(tick=0))
        assert bus.pending_count == 1
        inbox = bus.deliver_tick(1)["a"]
        assert [e.event_id for e in inbox] == [1]


class TestSubscribe:
    def test_subscribe_then_publish_delivers(self):
        bus = EventBus()
        bus.register_subscriber("a")
        bus.subscribe(Subscription("a", frozenset({TriggerKind.GRADE_POSTED})))
        bus.publish(make_event(kind=TriggerKind.GRADE_POSTED))
        assert len(bus.deliver_tick(0)["a"]) == 1

    def test_duplicate_subscription_is_idempotent(self):
        bus = EventBus()
        bus.register_subscriber("a")
        sub = Subscription("a", frozenset({TriggerKind.GRADE_POSTED}))
        bus.subscribe(sub)
        bus.subscribe(sub)
        bus.publish(make_event(kind=TriggerKind.GRADE_POSTED))
        assert len(bus.deliver_tick(0)["a"]) == 1

    def test_non_matching_kind_not_delivered(self):
        bus = EventBus()
        bus.register_subscriber("a")
        bus.subscribe(Subscription("a", frozenset({TriggerKind.GRADE_POSTED})))
        bus.publish(make_event(kind=TriggerKind.DISENGAGEMENT))
        assert bus.deliver_tick(0)["a"] == []

    def test_unknown_subscriber_rejected(self):
        bus = EventBus()
        with pytest.raises(UnknownSubscriberError):
            bus.subscribe(Subscription("ghost", frozenset({TriggerKind.GRADE_POSTED})))

    def test_subscription_needs_kinds(self):
        with pytest.raises(ValueError):
            Subscription("a", frozenset())


def random_scenario(seed: int, bus: EventBus) -> dict[str, list[int]]:
    """Random publish/subscribe/deliver sequence; returns ids delivered per
    subscriber. Used for the exactly-once and determinism properties."""
    rng = random.Random(seed)
    kinds = list(TriggerKind)
    subscribers = [f"sub{i}" for i in range(rng.randint(1, 4))]
    for name in subscribers:
        bus.register_subscriber(name)
        kind_sample = rng.sample(kinds, rng.randint(1, len(kinds)))
        bus.subscribe(Subscription(name, frozenset(kind_sample)))
    delivered: dict[str, list[int]] = {name: [] for name in subscribers}
    published: list[Event] = []
    n_ticks = rng.randint(1, 5)
    for tick in range(n_ticks):
        inboxes = bus.deliver_tick(tick)
        for name, inbox in inboxes.items():
            delivered[name].extend(e.event_id for e in inbox)
        for _ in range(rng.randint(0, 6)):
            kind = rng.choice(kinds)
            event = make_event(kind=kind, tick=tick, payload={"n": rng.randint(0, 9)})
            event_id = bus.publish(event)
            published.append(
                Event(tick=tick, source_agent=event.source_agent, kind=kind, payload=event.payload, event_id=event_id)
            )
    inboxes = bus.deliver_tick(n_ticks)
    for name, inbox in inboxes.items():
        delivered[name].extend(e.event_id for e in inbox)
    # cross-check exactly-once from the published record
    subs = {name: bus._subscriptions[name] for name in subscribers}
    for name in subscribers:
        expected = [e.event_id for e in published if e.kind in subs[name]]
        assert delivered[name] == expected, f"seed {seed}: {name} saw {delivered[name]} != {expected}"
    return delivered


class TestProperties:
    def test_exactly_once_and_order_over_random_sequences(self):
        for seed in range(100):
            random_scenario(seed, EventBus())

    def test_delivery_transcripts_are_deterministic(self, tmp_path):
        for seed in (1, 7, 42):
            paths = []
            for run in range(2):
                path = tmp_path / f"sink-{seed}-{run}.jsonl"
                random_scenario(seed, EventBus(transcript_path=path))
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_no_event_loss(self):
        bus = EventBus()
        bus.register_subscriber("a")
        bus.subscribe(Subscription("a", frozenset(TriggerKind)))
        n = 50
        for i in range(n):
            bus.publish(make_event(kind=list(TriggerKind)[i % len(TriggerKind)]))
        inbox = bus.deliver_tick(0)["a"]
        assert len(inbox) == n
        assert bus.pending_count == 0
