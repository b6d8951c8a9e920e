from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auss import synthetic
from auss.cohort_files import EVENTS_FILE, GROUND_TRUTH_FILE, STUDENTS_FILE
from auss.domain import validate_cohort
from auss.errors import CohortFormatError, ConfigError, read_config
from auss.institution import FEATURE_ORDER, FeatureTracker, aggregate_features
from auss.learners import sigmoid
from auss.synthetic import (
    GeneratorConfig,
    _view_choices,
    export_cohort,
    generate_cohort,
    import_cohort,
)

SMALL = GeneratorConfig(n_students=40, n_resources=6, n_ticks=12, seed=7)


class TestGenerate:
    def test_same_seed_identical_cohorts(self):
        a, truth_a = generate_cohort(SMALL)
        b, truth_b = generate_cohort(SMALL)
        assert a == b
        assert truth_a == truth_b

    def test_different_seed_differs(self):
        a, _ = generate_cohort(SMALL)
        b, _ = generate_cohort(GeneratorConfig(n_students=40, n_resources=6, n_ticks=12, seed=8))
        assert a != b

    def test_noiseless_degenerate_engagement_equals_ability(self):
        config = GeneratorConfig(
            n_students=15,
            n_resources=4,
            n_ticks=8,
            seed=3,
            noise_scale=0.0,
            engagement_persistence=0.0,
        )
        cohort, truth = generate_cohort(config)
        for event in cohort.events:
            assert event.value == pytest.approx(
                truth.abilities[event.student_id], abs=1e-12
            ), (event.kind, event.tick)

    def test_generated_cohorts_pass_validation(self):
        for seed in (1, 2, 3):
            cohort, _ = generate_cohort(
                GeneratorConfig(n_students=25, n_resources=5, n_ticks=10, seed=seed)
            )
            assert validate_cohort(cohort) == []

    def test_ability_sample_mean_near_beta_mean(self):
        config = GeneratorConfig(n_students=4000, n_resources=3, n_ticks=2, seed=5)
        _, truth = generate_cohort(config)
        abilities = np.array(list(truth.abilities.values()))
        beta_mean = config.ability_alpha / (config.ability_alpha + config.ability_beta)
        beta_var = (
            config.ability_alpha
            * config.ability_beta
            / (
                (config.ability_alpha + config.ability_beta) ** 2
                * (config.ability_alpha + config.ability_beta + 1)
            )
        )
        se = math.sqrt(beta_var / len(abilities))
        assert abs(abilities.mean() - beta_mean) <= 3 * se

    def test_zero_hazard_gives_half_dropout_per_check(self):
        # one check (tick 5 skipped while scores are absent, so use assess
        # cadence 2): logistic(0) = 0.5 per evaluated student
        config = GeneratorConfig(
            n_students=600,
            n_resources=3,
            n_ticks=6,
            seed=11,
            hazard_bias=0.0,
            hazard_weights=(0.0,) * 6,
            dropout_check_every=5,
            assess_every=2,
        )
        _, truth = generate_cohort(config)
        rate = len(truth.dropped_students) / config.n_students
        assert 0.42 <= rate <= 0.58

    def test_dropouts_emit_no_further_events(self):
        cohort, truth = generate_cohort(SMALL)
        for sid, tick in truth.dropout_ticks.items():
            if tick is None:
                continue
            last = max(e.tick for e in cohort.events if e.student_id == sid)
            assert last == tick - 1

    def test_preference_ranking_is_difficulty_proximity(self):
        cohort, truth = generate_cohort(SMALL)
        difficulty = {r.resource_id: r.difficulty for r in cohort.resources}
        for sid, ranking in truth.preference_rankings.items():
            ability = truth.abilities[sid]
            gaps = [abs(difficulty[rid] - ability) for rid in ranking]
            assert gaps == sorted(gaps)

    def test_monotone_hazard_in_absence_feature(self):
        # absence_rate has hazard weight +2: raising the absence feature
        # (via the absence_rate knob) must raise the empirical dropout rate.
        base = dict(n_students=800, n_resources=4, n_ticks=20, seed=13)
        low_cfg = GeneratorConfig(absence_rate=0.05, **base)
        high_cfg = GeneratorConfig(absence_rate=0.9, **base)
        _, low_truth = generate_cohort(low_cfg)
        _, high_truth = generate_cohort(high_cfg)
        low_rate = len(low_truth.dropped_students) / 800
        high_rate = len(high_truth.dropped_students) / 800
        assert high_rate > low_rate

    def test_hazard_features_match_aggregate_definitions(self):
        # a dropped student's final aggregates must reflect only pre-drop
        # history; spot-check the tracker agrees on the materialized events
        cohort, truth = generate_cohort(SMALL)
        last_tick = SMALL.n_ticks - 1
        batch = aggregate_features(cohort, last_tick)
        by_sid = dict(zip(cohort.student_ids, batch.tolist()))
        for sid, tick in truth.dropout_ticks.items():
            feats = dict(zip(FEATURE_ORDER, by_sid[sid]))
            assert math.isfinite(feats["mean_engagement"])
            assert 0.0 <= feats["absence_rate"] <= 1.0

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="n_students"):
            GeneratorConfig(n_students=0)
        with pytest.raises(ConfigError, match="engagement_persistence"):
            GeneratorConfig(engagement_persistence=1.0)
        with pytest.raises(ConfigError, match="hazard_weights"):
            GeneratorConfig(hazard_weights=(1.0, 2.0))
        with pytest.raises(ConfigError, match="unknown"):
            read_config(GeneratorConfig, "generator", {"n_studentz": 5})

    @pytest.mark.parametrize(
        "key",
        [k for k, v in GeneratorConfig().to_dict().items() if isinstance(v, (float, list))],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_rejected_by_name(self, key, bad):
        default = GeneratorConfig().to_dict()[key]
        value = [*default[:-1], bad] if isinstance(default, list) else bad
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            read_config(GeneratorConfig, "generator", {key: value})


@st.composite
def view_draws(draw):
    """(cum_weights, u): normalised cumulative weights per row, so each row
    ends in 1.0, with zero weights that repeat a cumulative weight; each u
    is a uniform, 0.0, 1.0 or exactly one of its row's cumulative weights."""
    n, m, t = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    weight = st.one_of(st.just(0.0), st.sampled_from([0.25, 1.0, 1e-300]), st.floats(0.0, 1.0))
    rows = []
    for _ in range(n):
        row = np.cumsum(draw(st.lists(weight, min_size=m, max_size=m)))
        rows.append(row / row[-1] if row[-1] > 0 else row)
    cum_weights = np.array(rows)
    u = np.array(
        [
            draw(
                st.lists(
                    st.one_of(
                        st.floats(0.0, 1.0, exclude_max=True),
                        st.sampled_from([0.0, 1.0, *row.tolist()]),
                    ),
                    min_size=t,
                    max_size=t,
                )
            )
            for row in cum_weights
        ]
    )
    return cum_weights, u


class TestViewChoices:
    @settings(max_examples=300, deadline=None)
    @given(view_draws())
    def test_count_equals_per_row_searchsorted(self, drawn):
        cum_weights, u = drawn
        expected = np.array(
            [np.searchsorted(row, u_row, side="right") for row, u_row in zip(cum_weights, u)]
        )
        assert np.array_equal(_view_choices(cum_weights, u), expected)

    def test_u_on_a_repeated_cumulative_weight_counts_every_copy(self):
        cum_weights = np.array([[0.25, 0.25, 0.5, 1.0, 1.0]])
        u = np.array([[0.0, 0.25, 0.3, 0.5, 0.999, 1.0]])
        assert _view_choices(cum_weights, u).tolist() == [[0, 2, 2, 3, 3, 5]]


_EDGE = dict(n_students=200, n_resources=6, n_ticks=30)


class TestHazardReadsTheTrackersFeatures:
    @pytest.mark.parametrize(
        "config",
        [
            GeneratorConfig(),
            GeneratorConfig(**_EDGE, seed=1, noise_scale=0.0),
            GeneratorConfig(**_EDGE, seed=2, absence_rate=0.0),
            GeneratorConfig(**_EDGE, seed=3, absence_rate=1.0),
            GeneratorConfig(**_EDGE, seed=4, assess_every=1, dropout_check_every=1),
            GeneratorConfig(**_EDGE, seed=5, hazard_weights=(-4.0, 3.0, -6.0, 2.0, 3.0, -0.05)),
        ],
        ids=["default", "noiseless", "never-absent", "absence-rate-1", "every-tick", "weights"],
    )
    def test_checks_read_the_tracker_and_replay_the_dropouts(self, monkeypatch, config):
        # At each check tick t, the active students' hazard features are the
        # tracker's after ticks 0..t-1, bit for bit; the checks, replayed with
        # the generator's draws, give the ground-truth dropout ticks.
        checks, draws = [], []
        hazard_checks, dropout_ticks = synthetic._hazard_checks, synthetic._dropout_ticks

        def recorded_checks(*args):
            for t, features in hazard_checks(*args):
                checks.append((t, features))
                yield t, features

        def recorded_dropout_ticks(*args):
            draws.append(args[-1])  # u_drop
            return dropout_ticks(*args)

        monkeypatch.setattr(synthetic, "_hazard_checks", recorded_checks)
        monkeypatch.setattr(synthetic, "_dropout_ticks", recorded_dropout_ticks)
        cohort, truth = generate_cohort(config)
        [u_drop] = draws
        assert checks

        tracker = FeatureTracker(cohort)
        slices = cohort.event_columns.tick_slices()
        active = np.ones(config.n_students, dtype=bool)
        replayed = {}
        ingested = 0
        for t, features in checks:
            for tick in range(ingested, t):
                if tick in slices:
                    tracker.ingest(tick, slices[tick])
            ingested = t
            expected = tracker.feature_matrix()[active]
            assert features[active].tobytes() == expected.tobytes(), t
            p_drop = sigmoid(config.hazard_bias + features @ np.array(config.hazard_weights))
            dropping = active & (u_drop[:, t] < p_drop)
            replayed.update((cohort.student_ids[i], t) for i in np.flatnonzero(dropping))
            active &= ~dropping
        assert {sid: replayed.get(sid) for sid in cohort.student_ids} == truth.dropout_ticks


class TestRoundTrip:
    def test_export_import_identity(self, tmp_path):
        cohort, _ = generate_cohort(SMALL)
        export_cohort(cohort, tmp_path / "cohort")
        restored = import_cohort(tmp_path / "cohort")
        assert restored == cohort

    def test_round_trip_without_ground_truth(self, tmp_path):
        cohort, _ = generate_cohort(SMALL)
        from auss.domain import Cohort

        stripped = Cohort(
            students=cohort.students,
            events=cohort.events,
            assessments=cohort.assessments,
            resources=cohort.resources,
        )
        export_cohort(stripped, tmp_path / "cohort")
        assert import_cohort(tmp_path / "cohort") == stripped

    def test_truncated_event_line_reports_line_number(self, tmp_path):
        cohort, _ = generate_cohort(SMALL)
        export_cohort(cohort, tmp_path / "cohort")
        events_path = tmp_path / "cohort" / EVENTS_FILE
        lines = events_path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        events_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CohortFormatError) as exc_info:
            import_cohort(tmp_path / "cohort")
        assert exc_info.value.line == 3

    def test_unknown_event_field_rejected(self, tmp_path):
        cohort, _ = generate_cohort(SMALL)
        export_cohort(cohort, tmp_path / "cohort")
        events_path = tmp_path / "cohort" / EVENTS_FILE
        lines = events_path.read_text().splitlines()
        lines[0] = lines[0][:-1] + ',"surprise":1}'
        events_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CohortFormatError, match="surprise"):
            import_cohort(tmp_path / "cohort")

    @pytest.mark.parametrize(
        "field, bad, needle",
        [
            ("tick", "x", "tick 'x' is not an integer"),
            ("tick", 1.5, "tick 1.5 is not an integer"),
            ("tick", True, "tick True is not an integer"),
            ("value", None, "value None is not a number"),
            ("value", "0.5", "value '0.5' is not a number"),
        ],
    )
    def test_mistyped_event_field_rejected_with_line(self, tmp_path, field, bad, needle):
        cohort, _ = generate_cohort(SMALL)
        export_cohort(cohort, tmp_path / "cohort")
        events_path = tmp_path / "cohort" / EVENTS_FILE
        lines = events_path.read_text().splitlines()
        record = json.loads(lines[3])
        record[field] = bad
        lines[3] = json.dumps(record)
        events_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CohortFormatError, match=needle) as exc_info:
            import_cohort(tmp_path / "cohort")
        assert exc_info.value.line == 4
        assert str(exc_info.value).startswith(f"{events_path}:4: ")

    def test_integral_float_tick_accepted(self, tmp_path):
        cohort, _ = generate_cohort(SMALL)
        export_cohort(cohort, tmp_path / "cohort")
        events_path = tmp_path / "cohort" / EVENTS_FILE
        lines = events_path.read_text().splitlines()
        record = json.loads(lines[0])
        record["tick"] = float(record["tick"])
        lines[0] = json.dumps(record)
        events_path.write_text("\n".join(lines) + "\n")
        assert import_cohort(tmp_path / "cohort").events == cohort.events

    @pytest.mark.parametrize("key", ["abilities", "preference_rankings", "dropout_ticks"])
    def test_ground_truth_without_a_key_rejected(self, tmp_path, key):
        cohort, _ = generate_cohort(SMALL)
        export_cohort(cohort, tmp_path / "cohort")
        truth_path = tmp_path / "cohort" / GROUND_TRUTH_FILE
        data = json.loads(truth_path.read_text())
        del data[key]
        truth_path.write_text(json.dumps(data))
        with pytest.raises(CohortFormatError) as exc_info:
            import_cohort(tmp_path / "cohort")
        assert f"missing ground-truth keys ['{key}']" in str(exc_info.value)
        assert str(exc_info.value).startswith(f"{truth_path}:1: ")

    def test_ground_truth_with_mistyped_value_rejected(self, tmp_path):
        cohort, _ = generate_cohort(SMALL)
        export_cohort(cohort, tmp_path / "cohort")
        truth_path = tmp_path / "cohort" / GROUND_TRUTH_FILE
        data = json.loads(truth_path.read_text())
        data["abilities"][next(iter(data["abilities"]))] = "high"
        truth_path.write_text(json.dumps(data))
        with pytest.raises(CohortFormatError, match="ability 'high' is not a number"):
            import_cohort(tmp_path / "cohort")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CohortFormatError, match="missing required file"):
            import_cohort(tmp_path)

    def test_bad_student_header_rejected(self, tmp_path):
        cohort, _ = generate_cohort(SMALL)
        export_cohort(cohort, tmp_path / "cohort")
        students_path = tmp_path / "cohort" / STUDENTS_FILE
        lines = students_path.read_text().splitlines()
        lines[0] = "id,enrollment_tick,prior_gpa,credits_attempted"
        students_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CohortFormatError, match="student_id"):
            import_cohort(tmp_path / "cohort")

    def test_non_numeric_feature_rejected(self, tmp_path):
        cohort, _ = generate_cohort(SMALL)
        export_cohort(cohort, tmp_path / "cohort")
        students_path = tmp_path / "cohort" / STUDENTS_FILE
        lines = students_path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[2] = "strong"
        lines[1] = ",".join(parts)
        students_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CohortFormatError) as exc_info:
            import_cohort(tmp_path / "cohort")
        assert exc_info.value.line == 2
