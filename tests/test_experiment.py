from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

import auss.experiment as experiment_module
from auss.errors import ConfigError, StageError, TranscriptChecksumError, TranscriptError
from auss.experiment import (
    EvaluationConfig,
    ExperimentSpec,
    MetricsReport,
    derive_seed,
    replay,
    run_experiment,
    run_sweep,
)
from auss.policy import PolicyConfig
from auss.runtime import SchedulerConfig
from auss.synthetic import GeneratorConfig

#: A 40-student, 6-resource, 12-tick run at seed 3, written by an earlier build.
COMMITTED_TRANSCRIPT = Path(__file__).parent / "data" / "transcript_40x6x12_seed3.jsonl"


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

    def test_spec_requires_cohort_source(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(generator=None, cohort_dir=None)


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


class TestSpecSerialization:
    def test_round_trip(self):
        spec = small_spec(out_dir="/tmp/x")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({"generator": None, "cohort_dir": ".", "bogus": 1})
        with pytest.raises(ConfigError):
            EvaluationConfig.from_dict({"quiz_items": 3, "bogus": 1})

    def test_derive_seed_stable_and_label_sensitive(self):
        assert derive_seed(42, "quiz") == derive_seed(42, "quiz")
        assert derive_seed(42, "quiz") != derive_seed(42, "risk-split")
        assert derive_seed(42, "quiz") != derive_seed(43, "quiz")
