from __future__ import annotations

import json

import pytest

from auss.cli import main


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
