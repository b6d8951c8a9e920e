from __future__ import annotations

import random
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from auss.bus import AgentName, Event, EventBus, Subscription, TriggerKind
from auss.errors import PhaseDisciplineError, SchedulerProtocolError, UnknownSubscriberError
from auss.runtime import Publisher, SimulationTranscript


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


# -- batches against a loop of single publishes ---------------------------------

_ids = st.one_of(st.text(max_size=3), st.integers(-5, 5))
_payloads = st.dictionaries(
    st.text(max_size=3),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=3),
        st.lists(_ids, max_size=3),
        st.tuples(_ids, _ids),
    ),
    max_size=3,
)
_items = st.lists(st.tuples(st.sampled_from(list(TriggerKind)), _payloads), max_size=6)
# One tick: a list of (source, single publish or batch, items).
_ticks = st.lists(
    st.lists(st.tuples(st.sampled_from(list(AgentName)), st.booleans(), _items), max_size=4),
    min_size=1,
    max_size=4,
)
_subscriptions = st.lists(
    st.frozensets(st.sampled_from(list(TriggerKind)), min_size=1), min_size=1, max_size=3
)
_BAD_PAYLOADS = ({"bad": {"nested": 1}}, {1: "non-str key"}, {"ids": [1.5]})


def _play(ticks, subscriptions, sink: Path, batched: bool):
    """Publish ``ticks`` through a Publisher, as batches or one item at a time.

    Returns (ids, inboxes per delivery, transcript records, sink bytes).
    """
    bus = EventBus(transcript_path=sink)
    for i, kinds in enumerate(subscriptions):
        bus.register_subscriber(f"sub{i}")
        bus.subscribe(Subscription(f"sub{i}", kinds))
    transcript = SimulationTranscript()
    publisher = Publisher(bus, transcript)
    ids: list[int] = []
    deliveries = []
    for tick, acts in enumerate([*ticks, []]):
        deliveries.append(
            {
                name: [(e.event_id, e.tick, e.source_agent, e.kind, dict(e.payload)) for e in inbox]
                for name, inbox in bus.deliver_tick(tick).items()
            }
        )
        for source, single, items in acts:
            publisher._open(source, tick)
            if single and items:
                kind, payload = items[0]
                ids.append(publisher.publish(kind, payload))
            elif batched:
                ids.extend(publisher.publish_many([k for k, _ in items], [p for _, p in items]))
            else:
                ids.extend(publisher.publish(kind, payload) for kind, payload in items)
            publisher._close()
    return ids, deliveries, transcript.records, sink.read_bytes()


class TestPublishMany:
    @settings(max_examples=150, deadline=None)
    @given(ticks=_ticks, subscriptions=_subscriptions)
    def test_batches_equal_a_publish_loop(self, ticks, subscriptions):
        with tempfile.TemporaryDirectory() as tmp:
            batched = _play(ticks, subscriptions, Path(tmp, "batched.jsonl"), batched=True)
            looped = _play(ticks, subscriptions, Path(tmp, "looped.jsonl"), batched=False)
        ids, _deliveries, records, _sink = batched
        assert ids == list(range(1, len(ids) + 1))
        assert [r["event_id"] for r in records] == ids
        assert batched == looped

    @settings(max_examples=60, deadline=None)
    @given(
        items=_items,
        bad=st.sampled_from(_BAD_PAYLOADS),
        at=st.integers(min_value=0),
        kind=st.sampled_from(list(TriggerKind)),
    )
    def test_a_bad_payload_anywhere_publishes_nothing(self, items, bad, at, kind):
        items = list(items)
        items.insert(at % (len(items) + 1), (kind, bad))
        with pytest.raises(ValueError) as looped:
            for item_kind, payload in items:
                EventBus().publish(make_event(kind=item_kind, payload=payload))
        with tempfile.TemporaryDirectory() as tmp:
            sink = Path(tmp, "sink.jsonl")
            bus = EventBus(transcript_path=sink)
            bus.register_subscriber("a")
            bus.subscribe(Subscription("a", frozenset(TriggerKind)))
            transcript = SimulationTranscript()
            publisher = Publisher(bus, transcript)
            publisher._open(AgentName.STUDENT, 0)
            with pytest.raises(ValueError) as batched:
                publisher.publish_many([k for k, _ in items], [p for _, p in items])
            assert str(batched.value) == str(looped.value)
            assert bus.pending_count == 0
            assert transcript.records == []
            assert sink.read_bytes() == b""
            assert publisher.publish(TriggerKind.GRADE_POSTED, {}) == 1
            assert [e.event_id for e in bus.deliver_tick(0)["a"]] == [1]

    def test_empty_batch_uses_no_id(self, tmp_path):
        sink = tmp_path / "sink.jsonl"
        bus = EventBus(transcript_path=sink)
        transcript = SimulationTranscript()
        publisher = Publisher(bus, transcript)
        publisher._open(AgentName.STUDENT, 0)
        assert publisher.publish_many([], []) == range(1, 1)
        assert (bus.pending_count, transcript.records, sink.read_bytes()) == (0, [], b"")
        assert publisher.publish_many([TriggerKind.GRADE_POSTED] * 2, [{}, {"n": 1}]) == range(1, 3)

    def test_kinds_and_payloads_must_pair_up(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="2 kinds for 1 payloads"):
            bus.publish_many(0, AgentName.STUDENT, [TriggerKind.GRADE_POSTED] * 2, [{}])
        assert bus.pending_count == 0

    def test_publish_many_outside_act_is_blocked(self):
        bus = EventBus()
        publisher = Publisher(bus, SimulationTranscript())
        with pytest.raises(PhaseDisciplineError):
            publisher.publish_many([TriggerKind.GRADE_POSTED], [{}])
        publisher._open(AgentName.STUDENT, 0)
        publisher._close()
        with pytest.raises(PhaseDisciplineError):
            publisher.publish_many([], [])
        assert bus.pending_count == 0
