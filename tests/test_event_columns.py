"""The columnar event store against one-event-at-a-time oracles."""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from auss.cohort_files import EVENTS_FILE, read_cohort, write_cohort
from auss.domain import (
    Cohort,
    EngagementEvent,
    EventColumns,
    EventKind,
    LearningResource,
    StudentRecord,
    validate_cohort,
    window_feature_rows,
)
from auss.educator import generate_class_report
from auss.errors import UnknownStudentError
from auss.experiment import ExperimentSpec, run_experiment
from auss.institution import aggregate_features
from auss.policy import PolicyConfig
from auss.runtime import SchedulerConfig
from auss.synthetic import GeneratorConfig, export_cohort, generate_cohort

from oracles import (
    DictFeatureTracker,
    group_events_by_tick,
    scalar_class_report,
    scalar_validate_events,
    window_features,
)

_TIED_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0])
#: Full-mantissa values in [0, 1), whose sums depend on the order of addition.
_ROUNDING_VALUES = st.integers(0, 2**53 - 1).map(lambda k: k / 2**53)
_VALUES = st.one_of(_TIED_VALUES, _ROUNDING_VALUES)
_BAD_VALUES = st.sampled_from([-0.5, 1.5, math.inf, -math.inf, math.nan])
_KNOWN = ("s0", "s1", "s2", "s3")
#: Ids no cohort lists; one needs JSON escaping.
_UNKNOWN = ("ghost", 'gé"\\')
_RESOURCES = ("r0", "r1", "r2")


@st.composite
def event_streams(draw, *, valid_values: bool = True, kinds=tuple(EventKind), min_students=1):
    """(students, resources, events): an unsorted stream over a few known
    students and ticks 0-7 with gaps, some events naming unknown students
    or resources, and tied and full-mantissa values. One to three bursts
    of three to five full-mantissa values for one known student and kind
    at each of two ticks sit at random positions, so sums in another order
    would round differently. With ``valid_values`` False, values may also be out of
    range, infinite or NaN, and ticks negative."""
    students = [
        StudentRecord(sid, {"credits_attempted": 12.0}, draw(st.integers(0, 2)))
        for sid in draw(st.permutations(_KNOWN))[: draw(st.integers(min_students, len(_KNOWN)))]
    ]
    resources = [LearningResource(rid, "topic", 0.5) for rid in _RESOURCES]
    ticks = st.sampled_from(draw(st.lists(st.integers(0, 7), min_size=2, max_size=5, unique=True)))
    values = _VALUES
    if not valid_values:
        ticks = st.one_of(ticks, st.just(-1))
        values = st.one_of(_VALUES, _BAD_VALUES)
    sids = st.one_of(
        st.sampled_from([s.student_id for s in students]), st.sampled_from(_UNKNOWN)
    )
    kinds = st.sampled_from(kinds)
    rids = st.one_of(st.none(), st.sampled_from(_RESOURCES), st.just("rx"))
    event = st.builds(EngagementEvent, sids, ticks, kinds, values, rids)
    n_events = draw(st.integers(0, 30))
    events = draw(st.lists(event, min_size=n_events, max_size=n_events))
    for _ in range(draw(st.integers(1, 3))):
        sid, kind = draw(st.sampled_from(students)).student_id, draw(kinds)
        for tick in draw(st.lists(ticks, min_size=2, max_size=2, unique=True)):
            for value in draw(st.lists(_ROUNDING_VALUES, min_size=3, max_size=5)):
                position = draw(st.integers(0, len(events)))
                events.insert(position, EngagementEvent(sid, tick, kind, value))
    return students, resources, events


def _known_only(students, events):
    known = {s.student_id for s in students}
    return [e for e in events if e.student_id in known]


def _drawn(*events: tuple) -> tuple[list, list, list]:
    """(students, resources, events) for two known students, as ``event_streams`` draws them."""
    students = [StudentRecord(sid, {"credits_attempted": 12.0}, 0) for sid in _KNOWN[:2]]
    resources = [LearningResource(rid, "topic", 0.5) for rid in _RESOURCES]
    return students, resources, [EngagementEvent(*event) for event in events]


_LOGIN, _VIEW = EventKind.LOGIN, EventKind.RESOURCE_VIEW


class TestColumnsMatchObjects:
    @settings(max_examples=200, deadline=None)
    @given(event_streams())
    def test_cohort_events_view_round_trips(self, drawn):
        students, resources, events = drawn
        cohort = Cohort(students=students, events=events, resources=resources)
        assert cohort.events == tuple(events)
        assert cohort.event_columns.student_ids[: len(students)] == cohort.student_ids
        assert Cohort(students, cohort.event_columns, resources=resources) == cohort

    @settings(max_examples=200, deadline=None)
    @given(event_streams(), st.integers(-1, 8), st.integers(-1, 8))
    def test_tick_slices_and_windows_equal_grouping(self, drawn, low, high):
        students, resources, events = drawn
        columns = Cohort(students, events, resources=resources).event_columns
        slices = columns.tick_slices()
        grouped = group_events_by_tick(events)
        assert list(slices) == sorted(grouped)
        assert {t: s.to_events() for t, s in slices.items()} == {
            t: tuple(evs) for t, evs in grouped.items()
        }
        assert [len(s) for s in slices.values()] == [len(grouped[t]) for t in sorted(grouped)]
        expected = tuple(e for e in events if low <= e.tick <= high)
        assert columns.window(low, high).to_events() == expected

    @settings(max_examples=200, deadline=None)
    @given(event_streams(valid_values=False))
    # In tick order, breaking every rule but the tick order.
    @example(
        _drawn(
            ("ghost", -1, _LOGIN, 0.5),
            ("s0", 0, _VIEW, 1.5, "rx"),
            ("s1", 0, _LOGIN, math.nan),
            ("s0", 2, _VIEW, -0.5, "r1"),
        )
    )
    # Out of tick order, with one student's tick going back and one's not.
    @example(
        _drawn(
            ("s0", 3, _LOGIN, 0.5),
            ("s1", 1, _LOGIN, 0.5),
            ("s0", 2, _LOGIN, 0.5),
            ("s1", 4, _LOGIN, 0.5),
        )
    )
    @example(_drawn(("s0", 2, _LOGIN, 0.5), ("s1", 2, _LOGIN, 1.5), ("s0", 2, _LOGIN, 0.5)))
    @example(_drawn(("ghost", -1, _LOGIN, math.inf)))
    @example(_drawn())
    def test_validation_equals_scalar_rules(self, drawn):
        students, resources, events = drawn
        cohort = Cohort(students, events, resources=resources)
        found = [(v.entity_id, v.rule, v.message) for v in validate_cohort(cohort)]
        assert found == scalar_validate_events(
            cohort.student_ids, cohort.resource_ids, events
        )

    def test_one_event_breaking_every_rule_reports_each_in_rule_order(self):
        events = [
            EngagementEvent("s0", 2, EventKind.LOGIN, 0.5),
            EngagementEvent("ghost", 3, EventKind.LOGIN, 0.5),
            EngagementEvent("ghost", -1, EventKind.RESOURCE_VIEW, 1.5, resource_id="rx"),
            EngagementEvent("s0", 1, EventKind.LOGIN, math.nan),
        ]
        cohort = Cohort([StudentRecord("s0", {})], events)
        assert [(v.entity_id, v.rule, v.message) for v in validate_cohort(cohort)] == [
            ("ghost", "unknown_student", "event references unknown student"),
            ("ghost", "unknown_student", "event references unknown student"),
            ("rx", "unknown_resource", "event references unknown resource"),
            ("ghost", "event_tick_nonnegative", "tick -1 < 0"),
            ("ghost", "event_value_range", "value 1.5 outside [0, 1]"),
            ("ghost", "event_tick_order", "tick -1 after tick 3 for the same student"),
            ("s0", "event_value_range", "value nan outside [0, 1]"),
            ("s0", "event_tick_order", "tick 1 after tick 2 for the same student"),
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        event_streams(kinds=(EventKind.SUBMISSION, EventKind.LOGIN), min_students=3),
        st.tuples(st.integers(0, 8), st.integers(0, 8)).map(sorted),
        st.sets(st.sampled_from(_KNOWN + _UNKNOWN)),
    )
    def test_class_report_equals_scalar_report(self, drawn, window, flags):
        students, resources, events = drawn
        cohort = Cohort(students, events, resources=resources)
        report = generate_class_report(cohort, tuple(window), risk_flags=flags)
        expected = scalar_class_report(cohort.student_ids, events, tuple(window), flags)
        assert (report.class_mean, report.at_risk_count) == expected

    def test_class_mean_sums_student_means_in_roster_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit.
        students = [StudentRecord(sid, {}) for sid in ("s2", "s0", "s1")]
        events = [
            EngagementEvent(sid, 0, EventKind.SUBMISSION, value)
            for sid, value in (("s1", 0.3), ("s0", 0.2), ("s2", 0.1))
        ]
        report = generate_class_report(Cohort(students, events), (0, 0))
        assert report.class_mean == (0.1 + 0.2 + 0.3) / 3 != (0.3 + 0.2 + 0.1) / 3

    @settings(max_examples=200, deadline=None)
    @given(event_streams(), st.integers(0, 8), st.integers(1, 9))
    def test_lag_features_equal_scalar_windows(self, drawn, tick, window_len):
        students, resources, events = drawn
        cohort = Cohort(students, events, resources=resources)
        rows = window_feature_rows(cohort.event_columns, tick, window_len)
        for sid, row in zip(cohort.student_ids, rows[cohort.student_rows].tolist()):
            own = [e for e in events if e.student_id == sid]
            assert row == window_features(own, tick, window_len, list(EventKind))

    @settings(max_examples=200, deadline=None)
    @given(event_streams(), st.integers(0, 8))
    def test_aggregate_features_equal_dict_tracker(self, drawn, tick):
        students, resources, events = drawn
        cohort = Cohort(students, events, resources=resources)
        known = {s.student_id for s in students}
        if any(e.student_id not in known and e.tick <= tick for e in events):
            with pytest.raises(UnknownStudentError):
                aggregate_features(cohort, tick)
            return
        oracle = DictFeatureTracker(students, window_len=1)
        grouped = group_events_by_tick(_known_only(students, events))
        for t in sorted(grouped):
            if t <= tick:
                oracle.ingest(t, grouped[t])
        assert [tuple(row) for row in aggregate_features(cohort, tick).tolist()] == [
            oracle.features(sid) for sid in cohort.student_ids
        ]

    @settings(max_examples=50, deadline=None)
    @given(drawn=event_streams(valid_values=False))
    def test_events_file_is_json_dumps_per_event_and_reads_back(self, tmp_path_factory, drawn):
        students, resources, events = drawn
        cohort = Cohort(students, events, resources=resources)
        directory = tmp_path_factory.mktemp("cohort")
        write_cohort(cohort, directory)
        expected = "".join(
            json.dumps(
                {
                    "student_id": e.student_id,
                    "tick": e.tick,
                    "kind": e.kind.value,
                    "value": e.value,
                    "resource_id": e.resource_id,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
            for e in events
        )
        assert (directory / EVENTS_FILE).read_text(encoding="utf-8") == expected
        back = read_cohort(directory)
        assert back.event_columns.student_ids == cohort.event_columns.student_ids
        assert [repr(e) for e in back.events] == [repr(e) for e in events]

    def test_event_columns_length_and_empty_slices(self):
        columns = EventColumns.from_events([])
        assert len(columns) == 0
        assert columns.tick_slices() == {}
        assert len(columns.window(0, 5)) == 0
        assert columns.last_tick() == 0


def test_a_run_never_builds_the_events_view(monkeypatch):
    def no_view(self, name):
        raise AssertionError(f"cohort.{name} was built")

    monkeypatch.setattr(Cohort, "__getattr__", no_view)
    spec = ExperimentSpec(
        generator=GeneratorConfig(n_students=40, n_resources=6, n_ticks=12, seed=3),
        scheduler=SchedulerConfig(max_ticks=12, rng_seed=3),
        policy=PolicyConfig(rng_seed=3),
    )
    report, _transcript = run_experiment(spec)
    assert report.metadata["n_events"] > 0


#: sha256 of each file of the seed-42 300 x 20 x 30 cohort, as the
#: one-event-object writer produced them.
COHORT_FILE_DIGESTS = {
    "assessments.csv": "becc997097c3115d9bc2bc8a5ab2c081dc7601207584bb96d9f02c70ebc7be02",
    "events.jsonl": "50a27d7cb744c2d956e47cb1d61c04b2e1c85e0634fee7795d8469cf95e8b742",
    "ground_truth.json": "da52430b4fa2d69caf46d59537ff0bbb330ee56518784d77a81628fda1157b4e",
    "resources.csv": "8ce528ef294b5519e25d0c0e02bf21900ed7dc6603fd1c42cf588879695e3539",
    "students.csv": "6c8fe38f2142c6a1e6b7b1ab092b1364ee56fd09f799a46ab5deb69306571fd9",
}


def test_generated_cohort_files_are_byte_identical_to_pinned_digests(tmp_path):
    cohort, _truth = generate_cohort(
        GeneratorConfig(n_students=300, n_resources=20, n_ticks=30, seed=42)
    )
    export_cohort(cohort, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == COHORT_FILE_DIGESTS
