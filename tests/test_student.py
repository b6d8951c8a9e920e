from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import auss.student as student_module
from auss.bus import AgentName, Event, TriggerKind
from auss.domain import EngagementEvent, EventColumns, EventKind, StudentRecord
from auss.errors import InsufficientDataError, UnknownStudentError
from auss.experiment import evaluate_recommendations
from auss.institution import FeatureTracker
from auss.runtime import TickView
from auss.student import (
    GapDetector,
    InteractionMatrix,
    _neighbours,
    fit_predictors,
    recommend_top_k,
)
from auss.synthetic import GeneratorConfig, generate_cohort

from conftest import constant_engagement_cohort, make_cohort
from oracles import (
    DictFeatureTracker,
    ScalarGapDetector,
    brute_force_recommend,
    python_cosine,
    scalar_recommend,
)


def matrix_from_rows(rows: dict[str, list[float]], resource_ids=None) -> InteractionMatrix:
    resource_ids = resource_ids or [f"r{j+1}" for j in range(len(next(iter(rows.values()))))]
    cells = {}
    for sid, values in rows.items():
        for rid, value in zip(resource_ids, values):
            if value != 0.0:
                cells[(sid, rid)] = value
    return InteractionMatrix(tuple(rows), tuple(resource_ids), cells)


class TestRecommend:
    def test_spec_worked_example(self):
        matrix = matrix_from_rows(
            {
                "s1": [1.0, 1.0, 0.0, 0.0],
                "s2": [1.0, 1.0, 1.0, 0.0],
                "s3": [0.0, 0.0, 1.0, 1.0],
            }
        )
        rec = recommend_top_k(matrix, "s1", k=1, neighborhood=2)
        assert rec.resource_ids == ("r3",)
        assert rec.items[0][1] == pytest.approx(1.0)

    def test_single_student_matrix_yields_empty(self):
        matrix = matrix_from_rows({"s1": [1.0, 0.0]})
        rec = recommend_top_k(matrix, "s1", k=3, neighborhood=2)
        assert rec.items == ()

    def test_student_who_saw_everything_gets_nothing(self):
        matrix = matrix_from_rows({"s1": [0.5, 0.5], "s2": [1.0, 0.0]})
        assert recommend_top_k(matrix, "s1", k=2, neighborhood=1).items == ()

    def test_unknown_student(self):
        matrix = matrix_from_rows({"s1": [1.0]})
        with pytest.raises(UnknownStudentError):
            recommend_top_k(matrix, "ghost", k=1, neighborhood=1)

    def test_k_larger_than_candidates_shortens(self):
        matrix = matrix_from_rows({"s1": [1.0, 0.0], "s2": [1.0, 0.8]})
        rec = recommend_top_k(matrix, "s1", k=10, neighborhood=1)
        assert len(rec.items) == 1

    def test_popularity_fallback_without_positive_peers(self):
        # s1's row is orthogonal to everyone: falls back to mean popularity
        matrix = matrix_from_rows(
            {
                "s1": [1.0, 0.0, 0.0, 0.0],
                "s2": [0.0, 0.9, 0.1, 0.0],
                "s3": [0.0, 0.7, 0.0, 0.0],
            }
        )
        rec = recommend_top_k(matrix, "s1", k=2, neighborhood=2)
        assert rec.resource_ids == ("r2", "r3")
        assert rec.items[0][1] == pytest.approx(0.8)

    def test_never_recommends_observed(self):
        rng = random.Random(21)
        for _ in range(30):
            matrix = _random_matrix(rng)
            for sid in matrix.student_ids:
                rec = recommend_top_k(matrix, sid, k=5, neighborhood=3)
                assert set(rec.resource_ids).isdisjoint(matrix.observed(sid))

    def test_scaling_cells_preserves_ranking(self):
        rng = random.Random(22)
        for _ in range(20):
            matrix = _random_matrix(rng, allow_empty_rows=False)
            scaled = InteractionMatrix(
                matrix.student_ids,
                matrix.resource_ids,
                {key: 0.25 * value for key, value in matrix.cells.items()},
            )
            for sid in matrix.student_ids:
                a = recommend_top_k(matrix, sid, k=4, neighborhood=3)
                b = recommend_top_k(scaled, sid, k=4, neighborhood=3)
                assert a.resource_ids == b.resource_ids

    def test_matches_brute_force_oracle(self):
        rng = random.Random(23)
        for _ in range(50):
            matrix = _random_matrix(rng)
            k = rng.randint(1, 5)
            neighborhood = rng.randint(1, 4)
            for sid in matrix.student_ids:
                ours = recommend_top_k(matrix, sid, k, neighborhood)
                oracle = brute_force_recommend(
                    matrix.student_ids, matrix.resource_ids, matrix.cells, sid, k, neighborhood
                )
                assert ours.resource_ids == tuple(r for r, _ in oracle), (
                    f"ranking diverged for {sid}: {ours.items} vs {oracle}"
                )


def _random_matrix(rng: random.Random, allow_empty_rows: bool = True) -> InteractionMatrix:
    n_students = rng.randint(1, 10)
    n_resources = rng.randint(1, 10)
    student_ids = tuple(f"s{i}" for i in range(n_students))
    resource_ids = tuple(f"r{j}" for j in range(n_resources))
    cells = {}
    for sid in student_ids:
        for rid in resource_ids:
            if rng.random() < 0.4:
                cells[(sid, rid)] = rng.uniform(0.05, 1.0)
        if not allow_empty_rows and not any(s == sid for (s, _r) in cells):
            cells[(sid, resource_ids[0])] = rng.uniform(0.05, 1.0)
    return InteractionMatrix(student_ids, resource_ids, cells)


_TIED_CELLS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
#: Full-mantissa values in [0, 1], whose sums depend on the order of addition.
_ROUNDING_CELLS = st.integers(0, 2**53).map(lambda k: k / 2**53)
_CELLS = st.one_of(st.none(), _TIED_CELLS, _ROUNDING_CELLS)  # None: unobserved


@st.composite
def cf_matrices(draw):
    """(matrix, k, neighborhood) with similarity ties at the neighbourhood cut.

    Every matrix holds an exact copy of some row, and may hold copies
    halved (the same cosine to every row, other values) or with extra
    observed 0.0 cells; at least one empty row takes the popularity
    fallback. Ids are shuffled, so id order is not row or column order,
    and ``cells`` is in row-major order, as ``from_counts`` builds it.
    """
    n_resources = draw(st.integers(1, 24))
    row = st.lists(_CELLS, min_size=n_resources, max_size=n_resources)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    for _ in range(draw(st.integers(0, 5))):
        source = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            rows.append([None if v is None else v / 2 for v in source])
        else:
            rows.append([0.0 if v is None and draw(st.booleans()) else v for v in source])
    rows.extend([[None] * n_resources] * draw(st.integers(1, 2)))
    rows = draw(st.permutations(rows))
    student_ids = tuple(f"s{i:02d}" for i in draw(st.permutations(range(len(rows)))))
    resource_ids = tuple(f"r{j:02d}" for j in draw(st.permutations(range(n_resources))))
    cells = {
        (sid, rid): value
        for sid, values in zip(student_ids, rows)
        for rid, value in zip(resource_ids, values)
        if value is not None
    }
    matrix = InteractionMatrix(student_ids, resource_ids, cells)
    k = draw(st.integers(1, n_resources + 1))
    neighborhood = draw(st.integers(1, len(rows)))
    return matrix, k, neighborhood


def _numpy_sims_equal_python_cosines(matrix: InteractionMatrix, student_id: str) -> bool:
    """Whether the kernel's similarities to ``student_id`` equal the definition's bit for bit.

    They need not: numpy's matrix-vector product may round two identical
    rows differently, depending on where they sit in the matrix.
    """
    dense = matrix.dense()
    norms = np.linalg.norm(dense, axis=1)
    index = matrix.student_ids.index(student_id)
    if norms[index] == 0.0:
        return True
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (dense @ dense[index]) / (norms * norms[index])
    rows = dense.tolist()
    return all(
        norms[i] == 0.0 or sims[i] == python_cosine(rows[index], rows[i])
        for i in range(len(rows))
        if i != index
    )


class TestRecommendMatchesScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(cf_matrices())
    def test_items_equal_scalar_loop_and_rankings_equal_brute_force(self, drawn):
        matrix, k, neighborhood = drawn
        ids, rids, cells = matrix.student_ids, matrix.resource_ids, matrix.cells
        expected = [scalar_recommend(ids, rids, cells, sid, k, neighborhood) for sid in ids]
        block = recommend_top_k(matrix, ids, k, neighborhood)
        assert [(rec.student_id, list(rec.items)) for rec in block] == list(zip(ids, expected))
        for sid, items in zip(ids, expected):
            ours = recommend_top_k(matrix, sid, k, neighborhood)
            assert list(ours.items) == items
            if _numpy_sims_equal_python_cosines(matrix, sid):
                oracle = brute_force_recommend(ids, rids, cells, sid, k, neighborhood)
                assert ours.resource_ids == tuple(rid for rid, _ in oracle)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=6
            )
        )
    )
    def test_from_counts_cells_are_count_over_row_max_in_row_major_order(self, counts):
        student_ids = tuple(f"s{i}" for i in range(len(counts)))
        resource_ids = tuple(f"r{j}" for j in range(len(counts[0])))
        matrix = InteractionMatrix.from_counts(np.array(counts), student_ids, resource_ids)
        expected = [
            ((sid, rid), count / max(row))
            for sid, row in zip(student_ids, counts)
            for rid, count in zip(resource_ids, row)
            if count > 0
        ]
        assert list(matrix.cells.items()) == expected
        rebuilt = InteractionMatrix(student_ids, resource_ids, dict(expected))
        for sid in student_ids:
            assert matrix.observed(sid) == rebuilt.observed(sid)
            assert recommend_top_k(matrix, sid, 3, 2) == recommend_top_k(rebuilt, sid, 3, 2)


@pytest.fixture(scope="module")
def cohort_matrix_300() -> InteractionMatrix:
    """The seed-42 300x20x30 cohort's matrix: 2**16 // 300 = 218 queries per
    block, so a query of every student runs two blocks."""
    cohort, _truth = generate_cohort(
        GeneratorConfig(n_students=300, n_resources=20, n_ticks=30, seed=42)
    )
    return InteractionMatrix.from_cohort(cohort)


class TestRecommendSequence:
    @pytest.mark.parametrize("k, neighborhood", [(3, 10), (1, 50)])  # the agent's, the evaluation's
    def test_two_blocks_in_shuffled_order_equal_one_id_calls(self, cohort_matrix_300, k, neighborhood):
        matrix = cohort_matrix_300
        ids = list(matrix.student_ids)
        random.Random(7).shuffle(ids)
        ids.insert(250, ids[3])  # a repeat, in the other block
        block = recommend_top_k(matrix, ids, k, neighborhood)
        assert isinstance(block, tuple)
        assert block == tuple(recommend_top_k(matrix, sid, k, neighborhood) for sid in ids)
        assert any(rec.items for rec in block)

    def test_empty_sequence_gives_empty_tuple(self, cohort_matrix_300):
        assert recommend_top_k(cohort_matrix_300, [], 3, 10) == ()

    def test_first_unknown_id_raises_before_any_work(self, cohort_matrix_300, monkeypatch):
        def no_work(*_args):
            raise AssertionError("a block ran before every id was checked")

        monkeypatch.setattr(student_module, "_recommend_block", no_work)
        ids = list(cohort_matrix_300.student_ids) + ["ghost", "phantom"]
        with pytest.raises(UnknownStudentError, match="'ghost'"):
            recommend_top_k(cohort_matrix_300, ids, 3, 10)

    @pytest.mark.parametrize(
        "k, neighborhood, message",
        [(0, 10, "k must be >= 1"), (3, 0, "neighborhood must be >= 1")],
    )
    def test_k_and_neighborhood_below_one_rejected(self, k, neighborhood, message):
        matrix = matrix_from_rows({"s1": [1.0, 0.0], "s2": [1.0, 0.5]})
        for student_ids in ("s1", ["s1", "s2"], []):
            with pytest.raises(ValueError, match=message):
                recommend_top_k(matrix, student_ids, k, neighborhood)

    def test_neighbourhood_past_the_cohort_equals_every_other_student(self):
        cohort, _truth = generate_cohort(
            GeneratorConfig(n_students=60, n_resources=20, n_ticks=30, seed=42)
        )
        matrix = InteractionMatrix.from_cohort(cohort)
        ids = matrix.student_ids
        for k in (1, 3):
            assert recommend_top_k(matrix, ids, k, 10**12) == recommend_top_k(
                matrix, ids, k, len(ids) - 1
            )
        assert evaluate_recommendations(cohort, 10**12) == evaluate_recommendations(
            cohort, len(ids) - 1
        )


@st.composite
def matrices_with_planted_twins(draw):
    """(matrix, twin row indexes): one row copied to two to four drawn positions.

    The other rows are random; values are tied or full-mantissa, so the
    per-query product has room to round the copies differently.
    """
    n_resources = draw(st.integers(2, 24))
    row = st.lists(_CELLS, min_size=n_resources, max_size=n_resources)
    twin = draw(row.filter(lambda values: any(values)))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    twins = []
    for position in sorted(draw(st.lists(st.integers(0, len(rows)), min_size=2, max_size=4))):
        rows.insert(position + len(twins), list(twin))
        twins.append(position + len(twins))
    student_ids = tuple(f"s{i:02d}" for i in draw(st.permutations(range(len(rows)))))
    resource_ids = tuple(f"r{j:02d}" for j in range(n_resources))
    cells = {
        (sid, rid): value
        for sid, values in zip(student_ids, rows)
        for rid, value in zip(resource_ids, values)
        if value is not None
    }
    return InteractionMatrix(student_ids, resource_ids, cells), twins


class TestDuplicateRowsTie:
    @settings(max_examples=300, deadline=None)
    @given(matrices_with_planted_twins())
    def test_exact_duplicates_get_equal_similarities_and_break_by_student_id(self, drawn):
        matrix, twins = drawn
        ids = matrix.student_ids
        block_peers, block_sims, counts = _neighbours(matrix, range(len(ids)), len(ids))
        for index, sid in enumerate(ids):
            peers = block_peers[index, : counts[index]]
            sim_of = dict(zip(peers.tolist(), block_sims[index, : counts[index]].tolist()))
            twin_peers = [i for i in peers.tolist() if i in twins]
            assert len({sim_of[i] for i in twin_peers}) <= 1
            assert twin_peers == sorted(twin_peers, key=ids.__getitem__)
            if twin_peers:
                assert len(twin_peers) == len([i for i in twins if i != index])
            ours = recommend_top_k(matrix, sid, 3, 2)
            assert list(ours.items) == scalar_recommend(
                ids, matrix.resource_ids, matrix.cells, sid, 3, 2
            )


class TestInteractionMatrix:
    def test_cell_range_enforced(self):
        with pytest.raises(ValueError):
            InteractionMatrix(("s1",), ("r1",), {("s1", "r1"): 1.5})

    def test_from_counts_normalizes_per_student(self):
        matrix = InteractionMatrix.from_counts(
            np.array([[4, 2], [1, 0]]),
            ("s1", "s2"),
            ("r1", "r2"),
        )
        assert matrix.cells[("s1", "r1")] == 1.0
        assert matrix.cells[("s1", "r2")] == 0.5
        assert matrix.cells[("s2", "r1")] == 1.0


class TestPrediction:
    def test_separable_cohort_reaches_perfect_holdout(self):
        cohort = constant_engagement_cohort(n_students=24, n_ticks=8)
        assert fit_predictors(cohort, split=0.5, seed=3) == 1.0

    def test_shuffled_labels_fall_to_baseline(self):
        cohort = constant_engagement_cohort(n_students=60, n_ticks=6)
        truth = cohort.ground_truth
        rng = random.Random(17)
        values = list(truth.abilities.values())
        rng.shuffle(values)
        shuffled = dict(zip(truth.abilities.keys(), values))
        from auss.domain import Cohort, GroundTruth

        scrambled = Cohort(
            students=cohort.students,
            events=cohort.events,
            assessments=cohort.assessments,
            resources=cohort.resources,
            ground_truth=GroundTruth(
                abilities=shuffled,
                preference_rankings=truth.preference_rankings,
                dropout_ticks=truth.dropout_ticks,
            ),
        )
        accuracy = fit_predictors(scrambled, split=0.5, seed=3)
        assert 0.2 <= accuracy <= 0.8  # near the coin-flip baseline, not 1.0

    def test_same_seed_reproduces(self):
        cohort = constant_engagement_cohort(n_students=30, n_ticks=6)
        assert fit_predictors(cohort, split=0.6, seed=11) == fit_predictors(
            cohort, split=0.6, seed=11
        )

    def test_too_few_students(self):
        cohort = constant_engagement_cohort(n_students=6, n_ticks=4)
        with pytest.raises(InsufficientDataError):
            fit_predictors(cohort, split=0.5, seed=0)


def tracked_gaps(ticks, window_len=5):
    """GapDetector.update_many signals per tick, on tracker snapshots fed one tick at a time.

    ``ticks`` lists each tick's events; every student with an event is active.
    """
    ids = sorted({e.student_id for events in ticks for e in events})
    students = [StudentRecord(sid, {}) for sid in ids]
    tracker = FeatureTracker(make_cohort(students=students), window_len)
    detector = GapDetector(len(ids), window_len)
    signals = []
    for tick, events in enumerate(ticks):
        tracker.ingest(tick, EventColumns.from_events(events, ids))
        active = np.array(sorted({ids.index(e.student_id) for e in events}), dtype=np.intp)
        signals.append(detector.update_many(tick, active, ids, tracker.policy_signals()))
    return signals


def logins(student_id, values):
    return [[EngagementEvent(student_id, t, EventKind.LOGIN, v)] for t, v in enumerate(values)]


class TestGapDetection:
    def test_healthy_engagement_is_quiet(self):
        assert tracked_gaps(logins("s1", [0.9, 0.9, 0.9])) == [[], [], []]

    def test_low_engagement_triggers_disengagement(self):
        # Window means 0.5, 0.35, then (0.5 + 0.2 + 0.1) / 3 below 0.33.
        signals = tracked_gaps(logins("s1", [0.5, 0.2, 0.1]))
        assert signals[:2] == [[], []]
        assert [(s.kind, s.value) for s in signals[2]] == [
            (TriggerKind.DISENGAGEMENT, (0.5 + 0.2 + 0.1) / 3)
        ]

    def test_falling_scores_trigger_decline(self):
        # Score slopes 0 over two points, then -0.15 over three.
        ticks = [
            [EngagementEvent("s1", t, EventKind.SUBMISSION, v)]
            for t, v in enumerate([0.6, 0.6, 0.3])
        ]
        signals = tracked_gaps(ticks)
        assert signals[:2] == [[], []]
        assert [s.kind for s in signals[2]] == [TriggerKind.PERFORMANCE_DECLINE]
        assert signals[2][0].value == pytest.approx(-0.15, abs=1e-12)

    def test_detector_cooldown_once_per_window(self):
        signals = tracked_gaps(logins("s1", [0.1] * 10), window_len=5)
        assert [tick for tick, emitted in enumerate(signals) if emitted] == [0, 5]

    def test_detector_tracks_students_independently(self):
        [signals] = tracked_gaps([logins("s1", [0.1])[0] + logins("s2", [0.1])[0]])
        assert [(s.kind, s.student_id) for s in signals] == [
            (TriggerKind.DISENGAGEMENT, "s1"),
            (TriggerKind.DISENGAGEMENT, "s2"),
        ]


_GAP_VALUES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5]), st.integers(0, 2**53 - 1).map(lambda k: k / 2**53)
)
_GAP_EVENT = st.tuples(st.sampled_from([EventKind.LOGIN, EventKind.SUBMISSION]), _GAP_VALUES)


@st.composite
def gap_streams(draw):
    """(students, per-tick events, per-tick active ids) for a window of 3.

    There are always students with 0, 1 and 2 score points and one with a
    submission at every tick (more points than the window holds once there
    are more than 3 ticks), plus random streams; each tick makes a drawn
    subset of the students active.
    """
    n_ticks = draw(st.integers(1, 9))
    ticks = range(n_ticks)
    submission = st.tuples(st.just(EventKind.SUBMISSION), _GAP_VALUES)
    streams = {
        "none": {t: [(EventKind.LOGIN, draw(_GAP_VALUES))] for t in ticks},
        "one": {draw(st.sampled_from(ticks)): [draw(submission)]},
        "two": {t: [draw(submission)] for t in draw(st.sets(st.sampled_from(ticks), max_size=2))},
        "many": {t: draw(st.lists(submission, min_size=1, max_size=2)) for t in ticks},
    }
    for i in range(draw(st.integers(0, 3))):
        streams[f"r{i}"] = {t: draw(st.lists(_GAP_EVENT, max_size=3)) for t in ticks}
    ids = sorted(streams)
    students = [StudentRecord(sid, {}) for sid in draw(st.permutations(ids))]
    events = [
        [
            EngagementEvent(sid, t, kind, value)
            for sid in ids
            for kind, value in streams[sid].get(t, ())
        ]
        for t in ticks
    ]
    active = [sorted(draw(st.sets(st.sampled_from(ids)))) for _ in ticks]
    return students, events, active


class TestGapPassMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(gap_streams())
    def test_update_many_equals_scalar_rules_with_dict_cooldown(self, drawn):
        students, events, active = drawn
        cohort = make_cohort(students=students)
        tracker = FeatureTracker(cohort, window_len=3)
        oracle_tracker = DictFeatureTracker(students, window_len=3)
        detector = GapDetector(len(students), window_len=3)
        oracle = ScalarGapDetector(window_len=3)
        for tick, (tick_events, ids) in enumerate(zip(events, active)):
            tracker.ingest(tick, EventColumns.from_events(tick_events, cohort.student_ids))
            oracle_tracker.ingest(tick, tick_events)
            rows = np.array([cohort.student_ids.index(sid) for sid in ids], dtype=np.intp)
            snapshot = tracker.policy_signals()
            signals = detector.update_many(tick, rows, cohort.student_ids, snapshot)
            # A fresh detector has no cooldown: it applies the bare rules.
            uncooled = GapDetector(len(students), window_len=3).update_many(
                tick, rows, cohort.student_ids, snapshot
            )
            expected = []
            rules = []
            for sid in ids:
                engagement = oracle_tracker.window_engagement_values(sid)
                points = oracle_tracker.window_score_points(sid)
                expected.extend(oracle.update(sid, tick, engagement, points))
                rules.extend((kind, sid, value) for kind, value in oracle.gaps(engagement, points))
            assert [(s.kind.value, s.student_id, s.value) for s in signals] == expected
            assert [(s.kind.value, s.student_id, s.value) for s in uncooled] == rules


def list_scan_requests(inbox, last_recommended, tick, window_len) -> list[str]:
    """The recommendation requests of an inbox, deduplicated by scanning a list."""
    recommend = []
    for event in inbox:
        sid = event.payload.get("student_id")
        wanted = event.kind is TriggerKind.AT_RISK_FLAG or (
            event.kind is TriggerKind.INTERVENTION_REQUEST
            and event.payload.get("action") == "send_recommendation"
        )
        if sid is None or not wanted:
            continue
        last = last_recommended.get(sid)
        if (last is None or tick - last >= window_len) and sid not in recommend:
            recommend.append(sid)
    return recommend


_REQUEST_IDS = ("s0", "s1", "s2", "s3", "s4", "s5")


class TestReasonRequests:
    @staticmethod
    def reason(inbox, last_recommended, tick=6):
        cohort = make_cohort(students=[StudentRecord(sid, {}) for sid in _REQUEST_IDS])
        tracker = FeatureTracker(cohort, window_len=5)
        events = cohort.event_columns.window(tick, tick)
        tracker.ingest(tick, events)
        agent = student_module.StudentAgent(cohort)
        agent._last_recommended.update(last_recommended)
        view = TickView(
            tick, events, cohort, tracker, tracker.policy_signals(), tracker.active_rows(events)
        )
        return agent.reason({"view": view, "inbox": tuple(inbox)})["recommend"]

    @staticmethod
    def request(sid, kind=TriggerKind.AT_RISK_FLAG, action="send_recommendation"):
        return Event(6, AgentName.INSTITUTION, kind, {"student_id": sid, "action": action})

    def test_repeated_and_cooled_down_requests_come_once_in_first_occurrence_order(self):
        inbox = [
            self.request("s3"),
            self.request("s1"),  # recommended at tick 4: still cooling down
            self.request("s3", TriggerKind.INTERVENTION_REQUEST),
            self.request("s0"),  # recommended at tick 1: cooled down
            self.request("s2", TriggerKind.INTERVENTION_REQUEST, action="send_alert"),
            self.request("s0"),
            self.request("s2"),
        ]
        assert self.reason(inbox, {"s1": 4, "s0": 1}) == ["s3", "s0", "s2"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(_REQUEST_IDS),
                st.sampled_from(
                    [
                        TriggerKind.AT_RISK_FLAG,
                        TriggerKind.INTERVENTION_REQUEST,
                        TriggerKind.GRADE_POSTED,
                    ]
                ),
                st.sampled_from(["send_recommendation", "send_alert"]),
            ),
            max_size=40,
        ),
        st.dictionaries(st.sampled_from(_REQUEST_IDS), st.integers(0, 6)),
    )
    def test_equals_a_list_scan(self, requests, last_recommended):
        inbox = [self.request(*drawn) for drawn in requests]
        assert self.reason(inbox, last_recommended) == list_scan_requests(
            inbox, last_recommended, tick=6, window_len=5
        )
