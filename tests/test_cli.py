from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from auss import experiment, forking
from auss.cli import main
from auss.experiment import MetricsReport
from auss.runtime import SimulationTranscript

from conftest import assert_no_child_process

#: A 40-student, 6-resource, 12-tick run at seed 3, written by an earlier build.
COMMITTED_TRANSCRIPT = Path(__file__).parent / "data" / "transcript_40x6x12_seed3.jsonl"


def run_cli(capsys, *argv: str) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


@pytest.fixture
def gen_config(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(
        json.dumps({"n_students": 25, "n_resources": 5, "n_ticks": 12, "seed": 9})
    )
    return path


@pytest.fixture
def sim_config(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(
        json.dumps(
            {
                "scheduler": {"max_ticks": 12, "rng_seed": 9},
                "policy": {"rng_seed": 9},
                "evaluation": {"quiz_items": 4, "recommend_neighborhood": 5},
            }
        )
    )
    return path


class TestCliPipeline:
    def test_generate_simulate_evaluate_replay(self, tmp_path, capsys, gen_config, sim_config):
        cohort_dir = tmp_path / "cohort"
        run_dir = tmp_path / "run"

        code, out, _ = run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        assert code == 0
        assert out["students"] == 25
        assert (cohort_dir / "students.csv").exists()
        assert (cohort_dir / "ground_truth.json").exists()

        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(sim_config),
            "--out", str(run_dir),
        )
        assert code == 0
        assert (run_dir / "transcript.jsonl").exists()
        assert (run_dir / "run.json").exists()

        code, out, _ = run_cli(capsys, "evaluate", "--run", str(run_dir))
        assert code == 0
        report = out["report"]
        assert 0.0 <= report["grading_match_rate"] <= 1.0
        assert (run_dir / "report.json").exists()
        assert (run_dir / "plots" / "load_by_agent.csv").exists()

        code, out, _ = run_cli(
            capsys, "replay", "--transcript", str(run_dir / "transcript.jsonl")
        )
        assert code == 0
        saved = json.loads((run_dir / "report.json").read_text())
        replayed = out["report"]
        saved["metadata"].pop("durations_s", None)
        replayed["metadata"].pop("durations_s", None)
        # latency/load come from the recorded transcript: identical
        assert replayed == saved

    def test_evaluate_and_unverified_replay_fork_nothing(
        self, tmp_path, capsys, monkeypatch, gen_config, sim_config
    ):
        cohort_dir = tmp_path / "cohort"
        run_dir = tmp_path / "run"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        run_cli(
            capsys, "simulate", "--cohort", str(cohort_dir),
            "--config", str(sim_config), "--out", str(run_dir),
        )
        transcript = str(run_dir / "transcript.jsonl")
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(forking, "fork_worthwhile", lambda: True)
        monkeypatch.setattr(os, "fork", counted_fork)
        reports, fork_counts = [], []
        for argv in (
            ["evaluate", "--run", str(run_dir)],
            ["replay", "--no-verify", "--transcript", transcript],
            ["replay", "--transcript", transcript],  # forks its metrics worker
        ):
            forks.clear()
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            reports.append(MetricsReport.from_dict(out["report"]).comparable_dict())
            fork_counts.append(len(forks))
            assert_no_child_process()
        assert fork_counts == [0, 0, 1]
        assert reports[0] == reports[1] == reports[2]

    def test_generate_with_default_config(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--out", str(tmp_path / "cohort-default")
        )
        assert code == 0
        assert out["students"] == 1000

    def test_error_is_machine_readable_on_stderr(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--cohort", str(tmp_path / "missing"), "--out", str(tmp_path / "r")
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "CohortFormatError"
        assert "missing" in error["message"]

    def test_tampered_transcript_error(self, tmp_path, capsys, gen_config, sim_config):
        cohort_dir = tmp_path / "cohort"
        run_dir = tmp_path / "run"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        run_cli(
            capsys, "simulate", "--cohort", str(cohort_dir),
            "--config", str(sim_config), "--out", str(run_dir),
        )
        path = run_dir / "transcript.jsonl"
        text = path.read_text().splitlines()
        text[0] = text[0].replace("0.1.0", "9.9.9")
        path.write_text("\n".join(text) + "\n")
        code, _out, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "TranscriptChecksumError"

    def test_simulate_runs_sweep(self, tmp_path, capsys, gen_config, sim_config):
        cohort_dir = tmp_path / "cohort"
        out_dir = tmp_path / "sweep"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(sim_config),
            "--out", str(out_dir),
            "--runs", "2",
        )
        assert code == 0, err
        assert (out_dir / "sweep_report.json").exists()


class TestCliErrors:
    def test_replay_of_missing_transcript(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "replay", "--transcript", str(tmp_path / "missing.jsonl"))
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "TranscriptError"
        assert "missing.jsonl" in error["message"]

    def test_evaluate_of_empty_run_directory(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "evaluate", "--run", str(tmp_path))
        assert code == 1
        assert out is None
        assert json.loads(err)["error"] == "TranscriptError"

    def test_simulate_with_zero_runs(self, tmp_path, capsys, gen_config):
        cohort_dir = tmp_path / "cohort"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--out", str(tmp_path / "run"),
            "--runs", "0",
        )
        assert code == 1
        assert out is None
        assert json.loads(err)["error"] == "ConfigError"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "config_text, needle",
        [(None, "cannot read config"), ('{"scheduler": {"max_ticks": 12}', "invalid JSON")],
        ids=["missing", "malformed"],
    )
    def test_simulate_with_unusable_config(self, tmp_path, capsys, gen_config, config_text, needle):
        cohort_dir = tmp_path / "cohort"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        config = tmp_path / "sim.json"
        if config_text is not None:
            config.write_text(config_text)
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(config),
            "--out", str(tmp_path / "run"),
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert needle in error["message"] and "sim.json" in error["message"]

    @pytest.mark.parametrize(
        "config, needle",
        [
            ('{"scheduler": {"max_ticks": 1%s}}' % ("0" * 5000), "scheduler.max_ticks"),
            ('{"scheduler": {"max_ticks": "x"}}', "max_ticks must be an integer"),
            ('{"policy": {"alpha": "x"}}', "alpha must be a number"),
            ('{"policy": {"alpha": true}}', "policy config alpha must be a number, got True"),
            ('{"policy": {"rng_seed": null}}', "policy config rng_seed must be an integer, got None"),
            ('{"policy": {"rng_seed": "abc"}}', "rng_seed must be an integer, got 'abc'"),
            ('{"generator": {"n_students": "x"}}', "['generator'] are set by --cohort and --out"),
            ('{"evaluation": {"quiz_items": "x"}}', "evaluation config quiz_items must be"),
            ('{"scheduler": {"max_ticks": 12.7}}', "max_ticks must be an integer, got 12.7"),
            ('{"scheduler": {"max_ticks": "12"}}', "max_ticks must be an integer, got '12'"),
            ('{"scheduler": {"max_ticks": true}}', "max_ticks must be an integer, got True"),
            (
                '{"scheduler": {"max_ticks": 12, "rng_seed": 1.5}}',
                "rng_seed must be an integer, got 1.5",
            ),
            (
                '{"scheduler": {"max_ticks": 12, "agent_order": "abc"}}',
                "agent_order must be a list of strings, got 'abc'",
            ),
            (
                '{"scheduler": {"max_ticks": 12, "agent_order": "student_agent"}}',
                "agent_order must be a list of strings, got 'student_agent'",
            ),
            (
                '{"scheduler": {"max_ticks": 12, "agent_order": 7}}',
                "agent_order must be a list of strings, got 7",
            ),
            (
                '{"scheduler": {"max_ticks": 12, "agent_order": ["student_agent", 1]}}',
                "agent_order must be a list of strings, got ['student_agent', 1]",
            ),
            ('{"metrics": "risk"}', "metrics must be a list of strings, got 'risk'"),
            ('{"metrics": ["risk", 1]}', "metrics must be a list of strings, got ['risk', 1]"),
        ],
        ids=[
            "digit_limit",
            "max_ticks_string",
            "alpha_string",
            "alpha_boolean",
            "policy_rng_seed_null",
            "policy_rng_seed_string",
            "generator_string",
            "evaluation_string",
            "max_ticks_fraction",
            "max_ticks_numeric_string",
            "max_ticks_boolean",
            "rng_seed_fraction",
            "agent_order_string",
            "agent_order_agent_name",
            "agent_order_integer",
            "agent_order_non_string_entry",
            "metrics_string",
            "metrics_non_string_entry",
        ],
    )
    def test_simulate_with_mistyped_config(self, tmp_path, capsys, gen_config, config, needle):
        cohort_dir = tmp_path / "cohort"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        path = tmp_path / "sim.json"
        path.write_text(config)
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(path),
            "--out", str(tmp_path / "run"),
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert needle in error["message"]
        assert not (tmp_path / "run").exists()

    def test_generate_with_mistyped_config(self, tmp_path, capsys):
        config = tmp_path / "gen.json"
        config.write_text('{"n_students": "x"}')
        code, out, err = run_cli(
            capsys, "generate", "--config", str(config), "--out", str(tmp_path / "cohort")
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert "generator config n_students must be an integer, got 'x'" in error["message"]
        assert not (tmp_path / "cohort").exists()

    @pytest.mark.parametrize("key", ["generator", "cohort_dir", "output_dir"])
    @pytest.mark.parametrize("runs", ["1", "2"])
    def test_simulate_config_may_not_choose_the_cohort(
        self, tmp_path, capsys, gen_config, key, runs
    ):
        # A generator section would be simulated in place of --cohort, or named in the
        # header of a run that simulated --cohort.
        cohort_dir = tmp_path / "cohort"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({key: {"n_students": 60} if key == "generator" else "x"}))
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(path),
            "--out", str(tmp_path / "run"),
            "--runs", runs,
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert f"['{key}'] are set by --cohort and --out" in error["message"]
        assert not (tmp_path / "run").exists()

    def test_simulate_scheduler_without_max_ticks_runs_fifty_ticks(
        self, tmp_path, capsys, gen_config
    ):
        cohort_dir = tmp_path / "cohort"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"scheduler": {"rng_seed": 1}}))
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(path),
            "--out", str(tmp_path / "run"),
        )
        assert code == 0
        assert out["ticks"] == 50
        spec = json.loads((tmp_path / "run" / "run.json").read_text())["spec"]
        assert spec["scheduler"]["max_ticks"] == 50 and spec["scheduler"]["rng_seed"] == 1

    @pytest.mark.parametrize(
        "config, key",
        [
            ('{"noise_scale": 1%s}' % ("0" * 400), "noise_scale"),
            ('{"hazard_weights": [1%s, 0, 0, 0, 0, 0]}' % ("0" * 400), "hazard_weights"),
        ],
        ids=["noise_scale", "hazard_weights"],
    )
    def test_generate_with_an_integer_past_the_float_range(self, tmp_path, capsys, config, key):
        path = tmp_path / "gen.json"
        path.write_text(config)
        code, out, err = run_cli(
            capsys, "generate", "--config", str(path), "--out", str(tmp_path / "cohort")
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith(f"{key} must be finite, got ")
        assert not (tmp_path / "cohort").exists()

    # Only sizes past numpy's array-size limit: numpy refuses them before it
    # allocates anything, where a size below the limit would try to allocate it.
    @pytest.mark.parametrize(
        "config, key",
        [
            ('{"n_students": 1%s}' % ("0" * 30), "n_students"),
            ('{"n_resources": 1e30}', "n_resources"),
        ],
        ids=["n_students", "n_resources"],
    )
    def test_generate_with_a_size_past_numpys_limit(self, tmp_path, capsys, config, key):
        path = tmp_path / "gen.json"
        path.write_text(config)
        code, out, err = run_cli(
            capsys, "generate", "--config", str(path), "--out", str(tmp_path / "cohort")
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith(f"{key} must be at most {2**63 - 1}")
        assert not (tmp_path / "cohort").exists()

    @pytest.mark.parametrize(
        "bad_line, needle",
        [("1" * 5001, "line 2: invalid JSON"), ('{"type": ', "line 2: invalid JSON")],
        ids=["digit_limit", "malformed"],
    )
    def test_replay_of_unparsable_transcript_line(self, tmp_path, capsys, bad_line, needle):
        path = tmp_path / "transcript.jsonl"
        header = json.dumps({"type": "header", "format_version": 1})
        footer = json.dumps({"type": "checksum", "sha256": "0" * 64})
        path.write_text("\n".join([header, bad_line, footer]) + "\n")
        code, out, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "TranscriptError"
        assert needle in error["message"]

    @pytest.mark.parametrize(
        "spec", [["generator"], 7, "abc"], ids=["list", "integer", "string"]
    )
    def test_replay_of_non_object_experiment_spec(self, tmp_path, capsys, spec):
        path = tmp_path / "transcript.jsonl"
        SimulationTranscript({"type": "header", "format_version": 1, "experiment": spec}).to_jsonl(
            path
        )
        code, out, err = run_cli(capsys, "replay", "--transcript", str(path))
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert f"experiment spec must be a JSON object, got {spec!r}" in error["message"]

    @pytest.mark.parametrize("command", ["replay", "evaluate"])
    @pytest.mark.parametrize("key", ["cohort_dir", "output_dir"])
    @pytest.mark.parametrize("value", [5, ["x"], {"a": 1}], ids=["integer", "list", "object"])
    def test_replay_of_non_string_spec_path(self, tmp_path, capsys, command, key, value):
        transcript = SimulationTranscript.from_jsonl(COMMITTED_TRANSCRIPT)
        experiment = transcript.header["experiment"]
        experiment[key] = value
        if key == "cohort_dir":
            experiment["generator"] = None  # so the cohort would be read from cohort_dir
        transcript.to_jsonl(tmp_path / "transcript.jsonl")
        if command == "replay":
            argv = ["replay", "--transcript", str(tmp_path / "transcript.jsonl")]
        else:
            argv = ["evaluate", "--run", str(tmp_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert f"experiment spec {key} must be a string or null, got {value!r}" in error["message"]

    def test_simulate_with_non_integer_tick(self, tmp_path, capsys, gen_config):
        cohort_dir = tmp_path / "cohort"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        events = cohort_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        record = json.loads(lines[1])
        record["tick"] = "x"
        lines[1] = json.dumps(record)
        events.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            capsys, "simulate", "--cohort", str(cohort_dir), "--out", str(tmp_path / "run")
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "CohortFormatError"
        assert error["message"].startswith(f"{events}:2: ")

    @pytest.mark.parametrize("command", ["simulate", "evaluate", "replay"])
    def test_enrollment_tick_past_64_bits(self, tmp_path, capsys, gen_config, command):
        cohort_dir = tmp_path / "cohort"
        run_dir = tmp_path / "run"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        run_cli(capsys, "simulate", "--cohort", str(cohort_dir), "--out", str(run_dir))
        students = cohort_dir / "students.csv"
        lines = students.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "99999999999999999999"
        lines[2] = ",".join(cells)
        students.write_text("\n".join(lines) + "\n")
        argv = {
            "simulate": ["--cohort", str(cohort_dir), "--out", str(tmp_path / "again")],
            "evaluate": ["--run", str(run_dir)],
            "replay": ["--transcript", str(run_dir / "transcript.jsonl")],
        }[command]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "CohortFormatError"
        assert error["message"] == (
            f"{students}:3: enrollment_tick 99999999999999999999 is outside the "
            "64-bit integer range"
        )

    def test_simulate_with_events_past_max_ticks(self, tmp_path, capsys, gen_config):
        cohort_dir = tmp_path / "cohort"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"scheduler": {"max_ticks": 11}}))
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(config),
            "--out", str(tmp_path / "run"),
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert "event at tick 11, at or past max_ticks 11" in error["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["simulate", "evaluate", "replay"])
    def test_cohort_that_fails_validation_is_refused(self, tmp_path, capsys, gen_config, command):
        cohort_dir = tmp_path / "cohort"
        run_dir = tmp_path / "run"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        run_cli(capsys, "simulate", "--cohort", str(cohort_dir), "--out", str(run_dir))
        events = cohort_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        record = json.loads(lines[5])
        record["value"] = 1.5
        lines[5] = json.dumps(record)
        events.write_text("\n".join(lines) + "\n")
        argv = {
            "simulate": ["--cohort", str(cohort_dir), "--out", str(tmp_path / "again")],
            "evaluate": ["--run", str(run_dir)],
            "replay": ["--transcript", str(run_dir / "transcript.jsonl")],
        }[command]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "MetricInputError"
        assert error["message"] == (
            f"cohort failed validation (1 violations; first: {record['student_id']} "
            "event_value_range)"
        )
        assert not (run_dir / "report.json").exists()
        assert not (tmp_path / "again").exists()

    def test_events_past_max_ticks_refused_at_validate_before_the_worker(
        self, tmp_path, capsys, monkeypatch, gen_config
    ):
        cohort_dir = tmp_path / "cohort"
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"scheduler": {"max_ticks": 11}}))
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))

        def no_metrics(*_args, **_kwargs):
            raise AssertionError("cohort metrics started before the refusal")

        monkeypatch.setattr(experiment, "_cohort_metrics_ahead", no_metrics)
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(config),
            "--out", str(tmp_path / "runs"),
            "--runs", "2",
        )
        assert code == 1
        assert out is None
        assert json.loads(err) == {
            "error": "StageError",
            "message": "stage 'validate' failed: "
            "cohort has an event at tick 11, at or past max_ticks 11",
        }

    @pytest.mark.parametrize("name", ["students.csv", "events.jsonl"])
    def test_directory_in_place_of_a_cohort_file(self, tmp_path, capsys, gen_config, name):
        cohort_dir = tmp_path / "cohort"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        (cohort_dir / name).unlink()
        (cohort_dir / name).mkdir()
        code, out, err = run_cli(
            capsys, "simulate", "--cohort", str(cohort_dir), "--out", str(tmp_path / "run")
        )
        assert code == 1
        assert out is None
        error = json.loads(err)
        assert error["error"] == "CohortFormatError"
        assert error["message"].startswith(f"{cohort_dir / name}: cannot open: ")

    @pytest.mark.parametrize("under", [False, True], ids=["out", "parent"])
    def test_file_in_place_of_the_generate_out(self, tmp_path, capsys, gen_config, under):
        blocker = tmp_path / "F"
        blocker.write_text("")
        out = blocker / "cohort" if under else blocker
        code, printed, err = run_cli(
            capsys, "generate", "--config", str(gen_config), "--out", str(out)
        )
        assert (code, printed) == (1, None)
        error = json.loads(err)
        assert error["error"] == "CohortFormatError"
        assert error["message"].startswith(f"{out}: cannot write: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("runs", ["1", "2"])
    @pytest.mark.parametrize("under", [False, True], ids=["out", "parent"])
    def test_file_in_place_of_the_simulate_out(
        self, tmp_path, capsys, gen_config, sim_config, runs, under
    ):
        cohort_dir = tmp_path / "cohort"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        blocker = tmp_path / "F"
        blocker.write_text("")
        out = blocker / "run" if under else blocker
        code, printed, err = run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(sim_config),
            "--out", str(out),
            "--runs", runs,
        )
        assert (code, printed) == (1, None)
        error = json.loads(err)
        assert error["error"] == "StageError"
        assert error["message"].startswith("stage 'write' failed: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["evaluate", "replay --no-verify", "replay"])
    def test_events_past_max_ticks_refused_before_any_metric(
        self, tmp_path, capsys, monkeypatch, gen_config, command
    ):
        cohort_dir = tmp_path / "cohort"
        run_dir = tmp_path / "run"
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"scheduler": {"max_ticks": 12}}))
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        run_cli(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(config),
            "--out", str(run_dir),
        )
        events = cohort_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        record = json.loads(lines[-1])
        assert record["tick"] == 11
        record["tick"] = 12
        lines[-1] = json.dumps(record)
        events.write_text("\n".join(lines) + "\n")

        def no_metrics(*_args, **_kwargs):
            raise AssertionError("cohort metrics started before the refusal")

        monkeypatch.setattr(experiment, "_cohort_metrics_ahead", no_metrics)
        transcript = str(run_dir / "transcript.jsonl")
        argv = {
            "evaluate": ["evaluate", "--run", str(run_dir)],
            "replay --no-verify": ["replay", "--no-verify", "--transcript", transcript],
            "replay": ["replay", "--transcript", transcript],
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out is None
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "cohort has an event at tick 12, at or past max_ticks 12",
        }
        assert not (run_dir / "report.json").exists()


class TestWriteRule:
    """A file ``auss`` cannot write in a run directory is a StageError for
    stage ``write``, and the failed call removes only what it wrote."""

    def assert_write_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, None)
        error = json.loads(err)
        assert error["error"] == "StageError"
        assert error["message"].startswith("stage 'write' failed: ")

    @pytest.fixture
    def run_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "transcript.jsonl").write_bytes(COMMITTED_TRANSCRIPT.read_bytes())
        return run_dir

    def test_evaluate_with_a_directory_in_place_of_report_json(self, capsys, run_dir):
        (run_dir / "report.json").mkdir()
        (run_dir / "report.json" / "kept").write_text("x")
        self.assert_write_error(capsys, "evaluate", "--run", str(run_dir))
        assert (run_dir / "report.json" / "kept").read_text() == "x"
        assert not (run_dir / "plots").exists()
        assert (run_dir / "transcript.jsonl").read_bytes() == COMMITTED_TRANSCRIPT.read_bytes()

    def test_evaluate_with_a_file_in_place_of_plots(self, capsys, run_dir):
        (run_dir / "plots").write_text("x")
        self.assert_write_error(capsys, "evaluate", "--run", str(run_dir))
        assert not (run_dir / "report.json").exists()
        assert (run_dir / "plots").read_text() == "x"
        assert (run_dir / "transcript.jsonl").read_bytes() == COMMITTED_TRANSCRIPT.read_bytes()

    def test_sweep_with_a_directory_in_place_of_sweep_report_json(
        self, tmp_path, capsys, gen_config, sim_config
    ):
        cohort_dir, out = tmp_path / "cohort", tmp_path / "sweep"
        run_cli(capsys, "generate", "--config", str(gen_config), "--out", str(cohort_dir))
        (out / "sweep_report.json").mkdir(parents=True)
        self.assert_write_error(
            capsys,
            "simulate",
            "--cohort", str(cohort_dir),
            "--config", str(sim_config),
            "--out", str(out),
            "--runs", "2",
        )
        assert (out / "sweep_report.json").is_dir()
        for seed in (9, 10):
            for name in ("transcript.jsonl", "report.json", "plots/load_by_agent.csv"):
                assert (out / f"run-{seed}" / name).is_file()
