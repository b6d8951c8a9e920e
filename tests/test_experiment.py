from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import pickle
import random
import re
import struct
import tempfile
import threading
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import auss.experiment as experiment_module
import auss.forking as forking
import auss.synthetic as synthetic_module
from auss.bus import Event
from auss.cli import main as cli_main
from auss.cohort_files import EVENTS_FILE, _SPLIT_FLOOR_BYTES, read_cohort
from auss.domain import Cohort, GroundTruth
from auss.educator import GradeResult
from auss.errors import (
    CohortFormatError,
    ConfigError,
    InsufficientDataError,
    MetricInputError,
    StageError,
    TranscriptChecksumError,
    TranscriptError,
    read_config,
)
from auss.experiment import (
    METRIC_NAMES,
    EvaluationConfig,
    ExperimentSpec,
    MetricsReport,
    derive_seed,
    evaluate_grading,
    evaluate_risk,
    load_experiment_cohort,
    reference_spec,
    replay,
    run_experiment,
    run_sweep,
    simulate,
)
from auss.institution import load_report
from auss.policy import (
    EngagementLevel,
    InterventionAction,
    PerformanceTrend,
    PolicyConfig,
    QTable,
    RiskTier,
    SystemState,
    TransitionSample,
    q_update,
)
from auss.runtime import SchedulerConfig, SimulationTranscript
from auss.student import InteractionMatrix
from auss.synthetic import GeneratorConfig, export_cohort, generate_cohort

from conftest import assert_no_child_process
from oracles import object_grading_rate, object_risk_evaluation

#: A 40-student, 6-resource, 12-tick run at seed 3, written by an earlier build.
COMMITTED_TRANSCRIPT = Path(__file__).parent / "data" / "transcript_40x6x12_seed3.jsonl"
REFERENCE_REPORT = Path(__file__).parent / "data" / "reference_report.json"


def small_spec(out_dir=None, seed=5, n_students=30, n_ticks=12) -> ExperimentSpec:
    return ExperimentSpec(
        generator=GeneratorConfig(
            n_students=n_students, n_resources=6, n_ticks=n_ticks, seed=seed
        ),
        scheduler=SchedulerConfig(max_ticks=n_ticks, rng_seed=seed),
        policy=PolicyConfig(rng_seed=seed),
        evaluation=EvaluationConfig(quiz_items=5, recommend_neighborhood=5),
        output_dir=None if out_dir is None else str(out_dir),
    )


class TestRunExperiment:
    def test_minimal_spec_populates_every_field(self):
        report, transcript = run_experiment(small_spec())
        data = report.to_dict()
        for field in (
            "recommendation_top1_accuracy",
            "prediction_accuracy",
            "grading_match_rate",
            "risk_precision",
            "risk_recall",
            "risk_f1",
            "latency_ms",
            "load_counts",
            "load_shares",
        ):
            assert data[field] is not None, field
        assert transcript.of_type("tick_start")
        assert sum(report.load_shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_rates_are_valid(self):
        report, _ = run_experiment(small_spec())
        for name in (
            "recommendation_top1_accuracy",
            "prediction_accuracy",
            "grading_match_rate",
            "risk_f1",
        ):
            value = getattr(report, name)
            assert 0.0 <= value <= 1.0, name

    def test_same_spec_same_report(self):
        a, ta = run_experiment(small_spec())
        b, tb = run_experiment(small_spec())
        assert a.comparable_dict() == b.comparable_dict()
        assert ta.canonical_lines(False) == tb.canonical_lines(False)

    def test_metric_selection_skips_others(self):
        spec = small_spec()
        from dataclasses import replace

        limited = replace(spec, metrics=("latency", "load"))
        report, _ = run_experiment(limited)
        assert report.recommendation_top1_accuracy is None
        assert report.latency_ms is not None

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "run"
        report, _ = run_experiment(small_spec(out_dir=out))
        assert (out / "transcript.jsonl").exists()
        assert (out / "report.json").exists()
        saved = MetricsReport.load(out / "report.json")
        assert saved.comparable_dict() == report.comparable_dict()
        for name in ("accuracy_by_component.csv", "latency_by_agent.csv", "load_by_agent.csv"):
            path = out / "plots" / name
            assert path.exists(), name
            with path.open() as fh:
                rows = list(csv.DictReader(fh))
            assert rows, name

    def test_plot_csvs_parse_back(self, tmp_path):
        out = tmp_path / "run"
        report, _ = run_experiment(small_spec(out_dir=out))
        with (out / "plots" / "load_by_agent.csv").open() as fh:
            rows = {row["agent"]: float(row["share"]) for row in csv.DictReader(fh)}
        assert rows == pytest.approx(report.load_shares)

    def test_failing_stage_removes_partial_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "run"

        def broken_plots(report, plots_dir):
            raise RuntimeError("disk full")

        monkeypatch.setattr(experiment_module, "write_plot_data", broken_plots)
        with pytest.raises(StageError) as exc_info:
            run_experiment(small_spec(out_dir=out))
        assert exc_info.value.stage == "write"
        assert not (out / "transcript.jsonl").exists()
        assert not (out / "report.json").exists()

    def test_stage_error_names_stage(self, monkeypatch):
        def broken(cohort, neighborhood):
            raise RuntimeError("nope")

        monkeypatch.setattr(experiment_module, "evaluate_recommendations", broken)
        with pytest.raises(StageError) as exc_info:
            run_experiment(small_spec())
        assert exc_info.value.stage == "evaluate"

    def test_cohort_that_fails_validation_stops_at_validate(self, tmp_path):
        cohort_dir, out = tmp_path / "cohort", tmp_path / "run"
        spec = small_spec()
        cohort, _truth = generate_cohort(spec.generator)
        export_cohort(cohort, cohort_dir)
        events = cohort_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        record = json.loads(lines[0])
        record["value"] = -0.5
        lines[0] = json.dumps(record)
        events.write_text("\n".join(lines) + "\n")
        spec = replace(spec, generator=None, cohort_dir=str(cohort_dir), output_dir=str(out))
        with pytest.raises(StageError) as exc_info:
            run_experiment(spec)
        assert exc_info.value.stage == "validate"
        assert isinstance(exc_info.value.cause, MetricInputError)
        assert str(exc_info.value.cause) == (
            f"cohort failed validation (1 violations; first: {record['student_id']} "
            "event_value_range)"
        )
        assert not out.exists()

    def test_spec_requires_cohort_source(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(generator=None, cohort_dir=None)


def test_a_run_builds_no_grade_objects_and_no_matrix_cells(monkeypatch):
    def no_grade(self, *args, **kwargs):
        raise AssertionError("a GradeResult was constructed")

    built = []
    from_counts = InteractionMatrix.from_counts.__func__

    def recording_from_counts(cls, *args, **kwargs):
        matrix = from_counts(cls, *args, **kwargs)
        built.append(matrix)
        return matrix

    monkeypatch.setattr(GradeResult, "__init__", no_grade)
    monkeypatch.setattr(InteractionMatrix, "from_counts", classmethod(recording_from_counts))
    report, _transcript = run_experiment(small_spec())
    assert report.grading_match_rate is not None
    assert built
    assert not [matrix for matrix in built if "cells" in vars(matrix)]


def _graded_cohort(abilities) -> Cohort:
    return Cohort(students=(), events=(), ground_truth=GroundTruth(abilities, {}, {}))


#: Abilities with ties and the ends of [0, 1] as well as full-mantissa values.
_ABILITIES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


class TestGradingMatchesObjectOracle:
    """The counting evaluator equals grading every response into objects."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.text("ab019", min_size=1, max_size=4), _ABILITIES, min_size=1, max_size=12
        ),
        st.integers(1, 30),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.integers(0, 2**32),
    )
    def test_rate_equals_object_oracle(self, abilities, quiz_items, sloppy, seed):
        rate = evaluate_grading(_graded_cohort(abilities), quiz_items, sloppy, seed)
        assert rate == object_grading_rate(abilities, quiz_items, sloppy, seed)

    @pytest.mark.parametrize("ability", [0.0, 1.0, 0.1 + 0.2])
    @pytest.mark.parametrize("sloppy", [0.0, 1.0, 0.1])
    def test_one_student_cohort(self, ability, sloppy):
        abilities = {"s1": ability}
        rate = evaluate_grading(_graded_cohort(abilities), 20, sloppy, 42)
        assert rate == object_grading_rate(abilities, 20, sloppy, 42)

    def test_no_labelled_students_is_an_error(self):
        with pytest.raises(MetricInputError):
            object_grading_rate({}, 20, 0.1, 42)
        with pytest.raises(MetricInputError):
            evaluate_grading(_graded_cohort({}), 20, 0.1, 42)


class TestRiskMatchesObjectOracle:
    """The array evaluator equals scoring the held-out students one at a time."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(15, 60),
        st.integers(3, 15),
        st.integers(1, 3),
        st.integers(0, 2**16),
        # no dropouts, some, and nearly everyone
        st.sampled_from([-4.0, 2.0, 4.0, 8.0]),
        st.sampled_from([0.7, 0.8, 0.9]),
        st.one_of(st.sampled_from([0.05, 0.5, 0.95]), st.floats(0.01, 0.99)),
    )
    def test_equals_object_oracle(
        self, n_students, n_ticks, check_every, seed, hazard_bias, split, threshold
    ):
        cohort, _truth = generate_cohort(
            GeneratorConfig(
                n_students=n_students,
                n_resources=4,
                n_ticks=n_ticks,
                seed=seed,
                hazard_bias=hazard_bias,
                dropout_check_every=check_every,
                assess_every=1,
            )
        )
        try:
            expected = object_risk_evaluation(cohort, split, threshold, seed)
        except InsufficientDataError:  # one class in the train split
            with pytest.raises(MetricInputError, match="need both outcomes"):
                evaluate_risk(cohort, split, threshold, seed)
            return
        assert evaluate_risk(cohort, split, threshold, seed) == expected

    @pytest.mark.parametrize("seed", [42, 3, 7])
    def test_equals_object_oracle_at_reference_size(self, seed):
        config = GeneratorConfig(n_students=1000, n_resources=20, n_ticks=50, seed=seed)
        cohort, _truth = generate_cohort(config)
        assert evaluate_risk(cohort, 0.7, 0.5, seed) == object_risk_evaluation(
            cohort, 0.7, 0.5, seed
        )

    def test_short_cohort_without_dropouts_names_the_split(self):
        # The generator's first dropout check falls at tick 10 and reads only
        # earlier ticks, so no student of a 10-tick cohort drops out.
        spec = small_spec(seed=1, n_students=200, n_ticks=10)
        message = (
            "0 of the 140 students in the risk training split dropped out; "
            "risk metrics need both outcomes"
        )
        with pytest.raises(MetricInputError, match=message):
            evaluate_risk(load_experiment_cohort(spec), 0.7, 0.5, 1)
        with pytest.raises(StageError, match=message) as exc_info:
            run_experiment(spec)
        assert exc_info.value.stage == "evaluate"

    def test_builds_no_bus_events(self, monkeypatch):
        def no_event(self, *args, **kwargs):
            raise AssertionError("a bus Event was constructed")

        cohort = load_experiment_cohort(small_spec(n_students=200))
        monkeypatch.setattr(Event, "__init__", no_event)
        precision, _recall, _f1 = evaluate_risk(cohort, 0.7, 0.5, 5)
        assert precision > 0.0


#: sha256 of the canonical records after the header of the seed-42 300x20x30
#: run below, as written before the student level moved to numpy arrays.
#: The header is left out because it carries the output directory.
PINNED_CANONICAL_SHA256 = "be7e64b9a367ac4257957d7e6fd6487a3f1853ff2fbb70b725dd63027ccca4d3"


#: The same digest for the seed-42 reference run (1000x20x50). Unlike the
#: 30-tick run above, its score windows roll: s0861's tick-35
#: performance_decline is the slope of 5 of its 7 score points.
PINNED_REFERENCE_SHA256 = "7bc6d68a04e469b9d5cebcb482527ee197b57923731d42c3915c5faf40802322"


def _canonical_sha256(transcript) -> str:
    body = "".join(line + "\n" for line in transcript.canonical_lines()[1:])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class TestCanonicalTranscriptDigest:
    """Gap values and recommendation lists live in ``event`` records, which
    the report and the benchmark fingerprints do not read; this pins them."""

    @pytest.fixture(scope="class")
    def transcript(self):
        spec = ExperimentSpec(
            generator=GeneratorConfig(n_students=300, n_resources=20, n_ticks=30, seed=42),
            scheduler=SchedulerConfig(max_ticks=30, rng_seed=42),
            policy=PolicyConfig(rng_seed=42),
        )
        return simulate(load_experiment_cohort(spec), spec)

    def test_seed_42_digest_is_pinned(self, transcript):
        assert _canonical_sha256(transcript) == PINNED_CANONICAL_SHA256

    def test_digest_sees_a_last_bit_change_in_a_gap_value(self, transcript):
        record = next(
            r for r in transcript.records if r["type"] == "event" and r["kind"] == "disengagement"
        )
        value = record["payload"]["value"]
        record["payload"]["value"] = math.nextafter(value, 1.0)
        try:
            assert _canonical_sha256(transcript) != PINNED_CANONICAL_SHA256
        finally:
            record["payload"]["value"] = value


def _without_class_mean(transcript) -> list[dict]:
    records = [json.loads(line) for line in transcript.canonical_lines()]
    for record in records:
        for key in ("payload", "detail"):
            if isinstance(record.get(key), dict):
                record[key].pop("class_mean", None)
    return records


@pytest.mark.parametrize("shuffle_seed", [1, 2])
def test_roster_order_changes_only_the_class_mean(shuffle_seed):
    """Readers that index the tracker by row break ties and order gaps and
    flags by student id, so the roster order reaches the transcript only
    through the class report's mean, which sums in roster order."""
    spec = ExperimentSpec(
        generator=GeneratorConfig(n_students=300, n_resources=20, n_ticks=30, seed=42),
        scheduler=SchedulerConfig(max_ticks=30, rng_seed=42),
        policy=PolicyConfig(rng_seed=42),
    )
    cohort = load_experiment_cohort(spec)
    students = list(cohort.students)
    random.Random(shuffle_seed).shuffle(students)
    shuffled = Cohort(
        students=students,
        events=cohort.event_columns,
        assessments=cohort.assessments,
        resources=cohort.resources,
        ground_truth=cohort.ground_truth,
    )
    assert shuffled.student_ids != cohort.student_ids
    original, reordered = simulate(cohort, spec), simulate(shuffled, spec)
    assert any("class_mean" in line for line in original.canonical_lines())
    assert _without_class_mean(reordered) == _without_class_mean(original)


def test_reference_agent_activity_from_transcript():
    """Per-agent activity of the seed-42 reference run, counted from its
    ``action``, ``event`` and ``delivery`` records; its canonical digest
    pins the values the counts do not read."""
    spec = reference_spec()
    transcript = simulate(load_experiment_cohort(spec), spec)
    assert _canonical_sha256(transcript) == PINNED_REFERENCE_SHA256
    actions = transcript.of_type("action")
    events = {r["event_id"]: r for r in transcript.of_type("event")}
    delivered = {}
    for record in transcript.of_type("delivery"):
        delivered.setdefault(record["subscriber"], []).extend(record["event_ids"])

    def count(agent, kinds):
        return sum(1 for r in actions if r["agent"] == agent and r["kind"] in kinds)

    alerts = [
        event_id
        for event_id in delivered["educator_agent"]
        if events[event_id]["kind"] == "intervention_request"
        and events[event_id]["payload"]["action"] in ("send_alert", "escalate_to_educator")
    ]
    activity = {
        "gap_signals": count("student_agent", {"disengagement", "performance_decline"}),
        "recommendations_issued": count("student_agent", {"recommend"}),
        "grades_posted": sum(r["detail"]["count"] for r in actions if r["kind"] == "post_grades"),
        "reports_generated": count("educator_agent", {"publish_report"}),
        "alerts_received": len(alerts),
        "events_processed": len(delivered["institution_agent"]),
        "flags_raised": count("institution_agent", {"flag_at_risk"}),
    }
    assert activity == {
        "gap_signals": 1446,
        "recommendations_issued": 674,
        "grades_posted": 5513,
        "reports_generated": 5,
        "alerts_received": 29,
        "events_processed": 2857,
        "flags_raised": 690,
    }
    load_counts, _shares = load_report(transcript)
    assert activity["events_processed"] == load_counts["institution_agent"]


def _system_state(names) -> SystemState:
    engagement, trend, risk = names
    return SystemState(EngagementLevel(engagement), PerformanceTrend(trend), RiskTier(risk))


@pytest.mark.parametrize("source", ["committed", "reference"])
def test_final_qtable_is_the_rewards_folded_through_q_update(source):
    """The ``qtable`` record is every ``reward`` record, in order, applied by
    ``q_update`` to a fresh table with the header's alpha and gamma."""
    if source == "committed":
        transcript = SimulationTranscript.from_jsonl(COMMITTED_TRANSCRIPT)
    else:
        spec = reference_spec()
        transcript = simulate(load_experiment_cohort(spec), spec)
    policy = transcript.header["experiment"]["policy"]
    config = PolicyConfig(alpha=policy["alpha"], gamma=policy["gamma"])
    table = QTable()
    rewards = transcript.of_type("reward")
    for record in rewards:
        sample = TransitionSample(
            _system_state(record["state"]),
            InterventionAction(record["action"]),
            record["reward"],
            _system_state(record["next_state"]),
        )
        q_update(table, sample, config)
    folded = {
        "|".join([*state.as_tuple(), action.value]): struct.pack("<d", value)
        for (state, action), value in table.items()
    }
    (final,) = transcript.of_type("qtable")
    assert {key: struct.pack("<d", value) for key, value in final["values"].items()} == folded
    assert len(rewards) == {"committed": 11, "reference": 49}[source]


class TestReplay:
    def test_replay_matches_fresh_run(self, tmp_path):
        out = tmp_path / "run"
        report, _ = run_experiment(small_spec(out_dir=out))
        replayed = replay(out / "transcript.jsonl")
        original = report.to_dict()
        recomputed = replayed.to_dict()
        original["metadata"].pop("durations_s")
        recomputed["metadata"].pop("durations_s")
        assert recomputed == original

    def test_committed_transcript_replays(self):
        # The re-simulation must reproduce every canonical record: events,
        # deliveries, actions, policy decisions, rewards and the Q table.
        report = replay(COMMITTED_TRANSCRIPT)
        assert report.metadata["n_students"] == 40

    def test_tampered_transcript_fails_checksum(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(small_spec(out_dir=out))
        path = out / "transcript.jsonl"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(":", ": ", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TranscriptChecksumError):
            replay(path)

    def test_empty_transcript_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(TranscriptError):
            replay(path)

    def test_replay_detects_divergence(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        run_experiment(small_spec(out_dir=out))
        path = out / "transcript.jsonl"
        transcript = experiment_module.SimulationTranscript.from_jsonl(path)
        # flip a recorded reward so the rerun cannot match it
        for record in transcript.records:
            if record.get("type") == "reward":
                record["reward"] = record["reward"] + 1.0
                break
        else:
            pytest.skip("no reward records in this run")
        transcript.to_jsonl(path)  # rewrites a consistent checksum
        with pytest.raises(TranscriptError, match="diverges"):
            replay(path)


class TestSweep:
    def test_sweep_runs_distinct_seeds(self, tmp_path):
        out = tmp_path / "sweep"
        spec = small_spec(out_dir=out)
        results = run_sweep(spec, 2)
        seeds = [seed for seed, _ in results]
        assert seeds == [5, 6]
        assert (out / "sweep_report.json").exists()
        merged = json.loads((out / "sweep_report.json").read_text())
        assert set(merged["runs"]) == {"5", "6"}
        for seed in seeds:
            assert (out / f"run-{seed}" / "report.json").exists()

    def test_sweep_reports_differ_across_seeds(self, tmp_path):
        spec = small_spec()
        results = run_sweep(spec, 2)
        (s1, r1), (s2, r2) = results
        assert s1 != s2
        assert r1.metadata["seed"] != r2.metadata["seed"]

    @pytest.fixture
    def file_spec(self, tmp_path) -> ExperimentSpec:
        """small_spec, with its cohort exported to files and read from there."""
        cohort_dir = tmp_path / "cohort"
        export_cohort(load_experiment_cohort(small_spec()), cohort_dir)
        return replace(small_spec(), generator=None, cohort_dir=str(cohort_dir))

    def test_file_cohort_is_read_once(self, file_spec, monkeypatch):
        reads, forks, validations = [], [], []
        fork = os.fork
        validate_cohort = experiment_module.validate_cohort

        def counted_read(directory):
            reads.append(directory)
            return read_cohort(directory)

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        def counted_validate(cohort):
            validations.append(cohort)
            return validate_cohort(cohort)

        monkeypatch.setattr(synthetic_module, "read_cohort", counted_read)
        monkeypatch.setattr(experiment_module, "validate_cohort", counted_validate)
        monkeypatch.setattr(forking, "fork_worthwhile", lambda: True)
        monkeypatch.setattr(os, "fork", counted_fork)
        # so the read of the cohort forks no child of its own
        assert (Path(file_spec.cohort_dir) / EVENTS_FILE).stat().st_size < _SPLIT_FLOOR_BYTES
        results = run_sweep(file_spec, 3)
        assert reads == [file_spec.cohort_dir]
        assert len(validations) == 1
        assert len(forks) == 1
        assert_no_child_process()
        assert [seed for seed, _ in results] == [5, 6, 7]
        assert {"generate", "validate"} <= set(results[0][1].metadata["durations_s"])
        for _seed, report in results[1:]:
            assert not {"generate", "validate"} & set(report.metadata["durations_s"])
        for seed, report in results:
            separate, _transcript = run_experiment(
                replace(
                    file_spec,
                    scheduler=replace(file_spec.scheduler, rng_seed=seed),
                    policy=replace(file_spec.policy, rng_seed=seed),
                )
            )
            assert report.comparable_dict() == separate.comparable_dict()
        assert len(reads) == 4

    @pytest.mark.parametrize("file_cohort", [False, True])
    def test_a_run_drops_its_transcript_before_the_next_simulates(
        self, file_spec, monkeypatch, file_cohort
    ):
        alive = []  # per run: how many earlier runs' transcripts are alive as it simulates
        transcripts = []

        def tracked(cohort, spec):
            alive.append(sum(ref() is not None for ref in transcripts))
            transcript = simulate(cohort, spec)
            transcripts.append(weakref.ref(transcript))
            return transcript

        monkeypatch.setattr(experiment_module, "simulate", tracked)
        run_sweep(file_spec if file_cohort else small_spec(), 3)
        assert alive == [0, 0, 0]

    def test_seeds_are_iterated_lazily(self, file_spec, monkeypatch):
        calls = []

        def interrupted_second(cohort, spec):
            calls.append(spec.scheduler.rng_seed)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return simulate(cohort, spec)

        monkeypatch.setattr(forking, "fork_worthwhile", lambda: True)
        monkeypatch.setattr(experiment_module, "simulate", interrupted_second)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(file_spec, 10**9)
        assert calls == [5, 6]
        assert_no_child_process()

    def test_corrupt_file_cohort_fails_the_generate_stage(self, file_spec, tmp_path, capsys):
        events = Path(file_spec.cohort_dir) / "events.jsonl"
        events.write_text(events.read_text() + "{not json\n")
        with pytest.raises(CohortFormatError) as read_error:
            read_cohort(file_spec.cohort_dir)
        with pytest.raises(StageError) as exc_info:
            run_sweep(file_spec, 2)
        assert exc_info.value.stage == "generate"
        assert str(exc_info.value) == f"stage 'generate' failed: {read_error.value}"

        argv = ["simulate", "--cohort", file_spec.cohort_dir, "--runs", "2"]
        assert cli_main([*argv, "--out", str(tmp_path / "sweep")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "StageError",
            "message": f"stage 'generate' failed: {read_error.value}",
        }


MAX_SWEEP_RUNS = 4
WORKER_FAILURES = ("exit", "raise", "truncated")
RUN_FAILURES = ("simulate", "interrupt")


@pytest.fixture(scope="module")
def file_sweep_spec(tmp_path_factory) -> ExperimentSpec:
    """small_spec, with its cohort exported to files and read from there."""
    cohort_dir = tmp_path_factory.mktemp("cohort")
    export_cohort(load_experiment_cohort(small_spec()), cohort_dir)
    return replace(small_spec(), generator=None, cohort_dir=str(cohort_dir))


@pytest.fixture(scope="module")
def inline_sweep_reports(file_sweep_spec) -> list[dict]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forking, "fork_worthwhile", lambda: False)
        results = run_sweep(file_sweep_spec, MAX_SWEEP_RUNS)
    return [report.comparable_dict() for _seed, report in results]


@settings(max_examples=25, deadline=None)
@given(
    n_runs=st.integers(1, MAX_SWEEP_RUNS),
    data=st.data(),
    failure=st.sampled_from(WORKER_FAILURES + RUN_FAILURES),
)
def test_file_sweep_with_a_failure_at_run_j(
    file_sweep_spec, inline_sweep_reports, n_runs, data, failure
):
    """The worker fails at run j (exits nonzero, raises, or writes a
    truncated pickle): runs from j on compute their metrics inline, and the
    reports are the all-inline sweep's. Run j's simulate fails or is
    interrupted: the worker is killed and reaped, the runs before j keep
    their outputs, and run j's are removed."""
    j = data.draw(st.integers(0, n_runs - 1), label="j")
    parent = os.getpid()
    seeds = list(range(5, 5 + n_runs))
    original_metrics, original_simulate, dumps = (
        experiment_module._cohort_metrics,
        experiment_module.simulate,
        pickle.dumps,
    )
    inline = []  # the seed of each run whose metrics this process computed
    dumped = []  # in the worker, each item pickled so far

    def metrics(cohort, spec):
        seed = spec.scheduler.rng_seed
        if os.getpid() == parent:
            inline.append(seed)
        elif seed == seeds[j] and failure == "exit":
            os._exit(3)
        elif seed == seeds[j] and failure == "raise":
            raise RuntimeError("worker broke")
        return original_metrics(cohort, spec)

    def truncating(obj, protocol):
        payload = dumps(obj, protocol)
        if os.getpid() == parent:
            return payload
        dumped.append(obj)
        return payload[:-1] if len(dumped) == j + 1 else payload

    def simulate_failing(cohort, spec):
        if spec.scheduler.rng_seed == seeds[j]:
            raise RuntimeError("simulation broke") if failure == "simulate" else KeyboardInterrupt
        return original_simulate(cohort, spec)

    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as patch:
        out = Path(out)
        spec = replace(file_sweep_spec, output_dir=str(out))
        patch.setattr(forking, "fork_worthwhile", lambda: True)
        patch.setattr(experiment_module, "_cohort_metrics", metrics)
        if failure == "truncated":
            patch.setattr(pickle, "dumps", truncating)
        if failure in WORKER_FAILURES:
            results = run_sweep(spec, n_runs)
            assert inline == seeds[j:]
            assert [report.comparable_dict() for _seed, report in results] == (
                inline_sweep_reports[:n_runs]
            )
            assert json.loads((out / "sweep_report.json").read_text())["runs"] == {
                str(seed): report for seed, report in zip(seeds, inline_sweep_reports)
            }
        else:
            patch.setattr(experiment_module, "simulate", simulate_failing)
            expected = StageError if failure == "simulate" else KeyboardInterrupt
            with pytest.raises(expected):
                run_sweep(spec, n_runs)
            assert inline == []
            for k, seed in enumerate(seeds[:j]):
                run = out / f"run-{seed}"
                assert (run / "transcript.jsonl").is_file()
                assert (run / "plots" / "accuracy_by_component.csv").is_file()
                report = MetricsReport.load(run / "report.json").comparable_dict()
                assert report == inline_sweep_reports[k]
            assert not (out / f"run-{seeds[j]}").exists()
            assert not (out / "sweep_report.json").exists()
        assert_no_child_process()


def _outcome(spec: ExperimentSpec):
    """A run's comparable report, or the stage, cause and messages of its StageError."""
    try:
        report, _transcript = run_experiment(spec)
    except StageError as exc:
        return exc.stage, type(exc.cause), str(exc.cause), str(exc)
    return report.comparable_dict()


def _run_on(path: str, spec: ExperimentSpec, body=None):
    """``_outcome(spec)`` with the cohort metrics forked (``"worker"``) or
    inline, and how often this process computed them itself. ``body``, when
    given, replaces the computation in a forked worker only."""
    parent = os.getpid()
    original = experiment_module._cohort_metrics
    calls = []

    def counted(cohort, spec):
        if os.getpid() != parent:
            return (body or original)(cohort, spec)
        calls.append(spec)
        return original(cohort, spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forking, "fork_worthwhile", lambda: path == "worker")
        mp.setattr(experiment_module, "_cohort_metrics", counted)
        outcome = _outcome(spec)
    return outcome, len(calls)


class TestMetricsWorker:
    """The cohort metrics in a forked worker equal the inline ones, errors included."""

    def test_seed_42_reference_report_on_both_paths(self):
        worker, worker_calls = _run_on("worker", reference_spec())
        inline, inline_calls = _run_on("inline", reference_spec())
        assert (worker_calls, inline_calls) == (0, 1)
        assert worker == inline == MetricsReport.load(REFERENCE_REPORT).comparable_dict()
        assert_no_child_process()

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(20, 60),
        st.integers(11, 16),
        st.integers(0, 10_000),
        st.sets(st.sampled_from(METRIC_NAMES)),
    )
    def test_small_specs_on_both_paths(self, n_students, n_ticks, seed, metrics):
        spec = replace(
            small_spec(seed=seed, n_students=n_students, n_ticks=n_ticks),
            metrics=tuple(name for name in METRIC_NAMES if name in metrics),
        )
        worker, worker_calls = _run_on("worker", spec)
        inline, _inline_calls = _run_on("inline", spec)
        assert worker == inline
        if isinstance(worker, dict) and metrics & set(experiment_module.COHORT_METRICS):
            assert worker_calls == 0

    def test_short_cohort_error_is_the_same_on_both_paths(self):
        spec = small_spec(seed=1, n_students=200, n_ticks=10)
        worker, worker_calls = _run_on("worker", spec)
        inline, _inline_calls = _run_on("inline", spec)
        assert worker == inline
        stage, cause_type, cause, _message = worker
        assert (stage, cause_type) == ("evaluate", MetricInputError)
        assert "risk metrics need both outcomes" in cause
        # the worker failed, so this process computed the metrics and raised
        assert worker_calls == 1
        assert_no_child_process()

    def test_worker_exiting_nonzero_falls_back_inline(self, monkeypatch):
        statuses = []
        waitpid = os.waitpid

        def recording_waitpid(pid, options):
            result = waitpid(pid, options)
            statuses.append(os.waitstatus_to_exitcode(result[1]))
            return result

        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        spec = small_spec()
        failed, calls = _run_on("worker", spec, body=lambda cohort, spec: os._exit(3))
        assert statuses == [3]
        assert calls == 1
        assert failed == _run_on("inline", spec)[0]

    def test_unreadable_worker_output_falls_back_inline(self, monkeypatch):
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda obj, protocol: dumps(obj, protocol)[:-1])
        spec = small_spec()
        failed, calls = _run_on("worker", spec)
        assert calls == 1
        assert failed == _run_on("inline", spec)[0]

    def test_a_second_thread_means_inline(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert not forking.fork_worthwhile()
        finally:
            release.set()
            thread.join()

    def test_report_times_the_same_stages_on_both_paths(self, tmp_path):
        keys = {}
        for path in ("worker", "inline"):
            out = tmp_path / path
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(forking, "fork_worthwhile", lambda: path == "worker")
                report, _ = run_experiment(small_spec(out_dir=out))
            keys[path] = set(MetricsReport.load(out / "report.json").metadata["durations_s"])
            assert set(report.metadata["durations_s"]) == keys[path]
        assert keys["worker"] == keys["inline"] == {
            "generate",
            "validate",
            "simulate",
            "write_transcript",
            "evaluate",
            "evaluate_recommendation",
            "evaluate_prediction",
            "evaluate_grading",
            "evaluate_risk",
        }

    def test_report_times_the_same_stages_with_or_without_an_output_directory(self, tmp_path):
        written, _ = run_experiment(small_spec(out_dir=tmp_path / "run"))
        unwritten, _ = run_experiment(small_spec())
        keys = set(written.metadata["durations_s"])
        assert keys - set(unwritten.metadata["durations_s"]) == {"write_transcript"}
        assert set(unwritten.metadata["durations_s"]) == keys - {"write_transcript"}
        assert "evaluate" in keys


class TestNoProcessOutlivesARun:
    """Whatever the run does, its worker is reaped before it returns or raises."""

    @pytest.fixture(autouse=True)
    def always_fork(self, monkeypatch):
        monkeypatch.setattr(forking, "fork_worthwhile", lambda: True)

    def test_after_success(self):
        run_experiment(small_spec())
        assert_no_child_process()

    def test_after_an_evaluation_failure(self):
        with pytest.raises(StageError, match="stage 'evaluate'"):
            run_experiment(small_spec(seed=1, n_students=200, n_ticks=10))
        assert_no_child_process()

    @pytest.mark.parametrize("error", [RuntimeError("simulation broke"), KeyboardInterrupt()])
    def test_after_a_simulate_failure(self, monkeypatch, error):
        def broken(cohort, spec):
            raise error

        monkeypatch.setattr(experiment_module, "simulate", broken)
        expected = StageError if isinstance(error, Exception) else KeyboardInterrupt
        with pytest.raises(expected) as exc_info:
            run_experiment(small_spec())
        assert exc_info.value is error or exc_info.value.stage == "simulate"
        assert_no_child_process()

    def test_simulate_failure_comes_before_an_evaluation_failure(self, monkeypatch):
        def broken(cohort, spec):
            raise RuntimeError("simulation broke")

        monkeypatch.setattr(experiment_module, "simulate", broken)
        with pytest.raises(StageError, match="stage 'simulate'"):
            run_experiment(small_spec(seed=1, n_students=200, n_ticks=10))
        assert_no_child_process()

    def test_transcript_write_failure_comes_before_an_evaluation_failure(
        self, monkeypatch, tmp_path
    ):
        def broken(self, path):
            Path(path).write_text("partial")
            raise OSError("disk full")

        monkeypatch.setattr(SimulationTranscript, "to_jsonl", broken)
        out = tmp_path / "run"
        with pytest.raises(StageError, match="stage 'write' failed: disk full"):
            run_experiment(small_spec(out_dir=out, seed=1, n_students=200, n_ticks=10))
        assert not (out / "transcript.jsonl").exists()
        assert_no_child_process()

    def test_evaluation_failure_removes_the_written_transcript(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(StageError, match="stage 'evaluate'"):
            run_experiment(small_spec(out_dir=out, seed=1, n_students=200, n_ticks=10))
        assert not (out / "transcript.jsonl").exists()
        assert not (out / "report.json").exists()

    def test_after_a_fork_warning_made_an_error(self, monkeypatch):
        # Python 3.12+ warns in the parent of a fork from a multi-threaded
        # process, and pyproject.toml makes that warning an error in the suite.
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(
                    f"This process (pid={os.getpid()}) is multi-threaded, "
                    "use of fork() may lead to deadlocks in the child.",
                    DeprecationWarning,
                )
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with pytest.raises(DeprecationWarning, match="multi-threaded"):
            run_experiment(small_spec())
        assert_no_child_process()

    def test_after_a_sweep_and_a_replay(self, tmp_path):
        results = run_sweep(small_spec(out_dir=tmp_path / "sweep"), 2)
        assert_no_child_process()
        report = replay(tmp_path / "sweep" / "run-5" / "transcript.jsonl")
        assert_no_child_process()
        assert report.comparable_dict() == results[0][1].comparable_dict()


class TestSpecSerialization:
    def test_round_trip(self):
        spec = small_spec(out_dir="/tmp/x")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_keeps_an_empty_metric_list(self):
        spec = replace(small_spec(), metrics=())
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_dict({"cohort_dir": "."}).metrics == METRIC_NAMES

    def test_run_with_no_metrics_replays(self, tmp_path):
        out = tmp_path / "run"
        spec = replace(small_spec(out_dir=out, seed=3, n_students=40), metrics=())
        report, _transcript = run_experiment(spec)
        replayed = replay(out / "transcript.jsonl")
        assert replayed.metadata["metrics"] == report.metadata["metrics"] == []
        assert replayed.risk_f1 is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({"generator": None, "cohort_dir": ".", "bogus": 1})
        with pytest.raises(ConfigError):
            read_config(EvaluationConfig, "evaluation", {"quiz_items": 3, "bogus": 1})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rng_seed", None),
            ("rng_seed", "abc"),
            ("rng_seed", 1.5),
            ("rng_seed", True),
            ("alpha", True),
        ],
    )
    def test_policy_value_of_the_wrong_type_rejected(self, key, value):
        # A null rng_seed would seed the policy from OS entropy, so replay could not repeat it.
        data = small_spec().to_dict()
        data["policy"][key] = value
        with pytest.raises(ConfigError, match=f"policy config {key} must be"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize(
        "config, key, value, expected",
        [
            (EvaluationConfig, "predictor_window_len", "3", "an integer"),
            (EvaluationConfig, "quiz_items", 2.5, "an integer"),
            (EvaluationConfig, "recommend_neighborhood", True, "an integer"),
            (EvaluationConfig, "blend_weight", "0.5", "a number"),
            (GeneratorConfig, "n_students", 2.5, "an integer"),
            (GeneratorConfig, "noise_scale", None, "a number"),
            (GeneratorConfig, "hazard_weights", "abcdef", "a list of numbers"),
        ],
    )
    def test_config_types_checked_at_construction(self, config, key, value, expected):
        section = "evaluation" if config is EvaluationConfig else "generator"
        with pytest.raises(ConfigError, match=f"^{section} config {key} must be {expected}, got"):
            config(**{key: value})

    def test_derive_seed_stable_and_label_sensitive(self):
        assert derive_seed(42, "quiz") == derive_seed(42, "quiz")
        assert derive_seed(42, "quiz") != derive_seed(42, "risk-split")
        assert derive_seed(42, "quiz") != derive_seed(43, "quiz")


#: Each section of an experiment spec and the config class it is read into.
SPEC_SECTIONS = {
    "generator": GeneratorConfig,
    "scheduler": SchedulerConfig,
    "policy": PolicyConfig,
    "evaluation": EvaluationConfig,
}


class TestSpecReader:
    """Every spec section is read by ``read_config``, under the same rules."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("generator", "n_students", 40.0),
            ("evaluation", "quiz_items", 5.0),
            ("policy", "rng_seed", 3.0),
        ],
    )
    def test_integral_float_is_read_as_that_integer(self, section, key, value):
        spec = ExperimentSpec.from_dict({"cohort_dir": ".", section: {key: value}})
        read = getattr(getattr(spec, section), key)
        assert read == value and type(read) is int

    @pytest.mark.parametrize("section", SPEC_SECTIONS)
    @pytest.mark.parametrize(
        "value",
        [[], 0, False, "", "x", [["alpha", 0.5]]],
        ids=["empty_list", "zero", "false", "empty_string", "string", "pairs"],
    )
    def test_non_object_section_is_refused(self, section, value):
        with pytest.raises(ConfigError, match=f"^{section} config must be a JSON object, got "):
            ExperimentSpec.from_dict({"cohort_dir": ".", section: value})

    @pytest.mark.parametrize("section", SPEC_SECTIONS)
    def test_unknown_key_is_refused(self, section):
        with pytest.raises(ConfigError, match=rf"^unknown {section} config keys: \['bogus'\]$"):
            ExperimentSpec.from_dict({"cohort_dir": ".", section: {"bogus": 1}})

    @pytest.mark.parametrize("key", ["noise_scale", "hazard_weights"])
    def test_integer_past_the_float_range_is_refused(self, key):
        value = 10**400 if key == "noise_scale" else [10**400, 0, 0, 0, 0, 0]
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got "):
            ExperimentSpec.from_dict({"generator": {key: value}})

    @pytest.mark.parametrize("make_spec", [reference_spec, small_spec], ids=["reference", "small"])
    def test_json_round_trip(self, make_spec):
        spec = make_spec()
        read = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert read == spec
        assert read.to_dict() == spec.to_dict()

    def test_formats_md_lists_every_section_field(self):
        text = (Path(__file__).parents[1] / "FORMATS.md").read_text(encoding="utf-8")
        section = text.split("\n## Experiment spec\n", 1)[1].split("\n## ", 1)[0]
        listed = {
            (row[0], row[1]): row[2]
            for row in re.findall(r"^\| `(\w+)` \| `(\w+)` \| `(.+)` \|$", section, re.MULTILINE)
        }
        expected = {
            (name, field.name): json.dumps(
                list(field.default) if isinstance(field.default, tuple) else field.default
            )
            for name, cls in SPEC_SECTIONS.items()
            for field in fields(cls)
        }
        assert listed == expected
