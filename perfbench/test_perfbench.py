"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json comes out with its unit; then checks
that the correctness gate rejects a perturbed result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from auss.experiment import MetricsReport  # noqa: E402
from run import WORKLOADS, normalize  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        for printed in ("error_rate", "replay_s", "reevaluate_s"):
            assert printed in done.stdout


def test_normalized_wall_scales_by_the_calibration_loop():
    slow_host = {"wall_s": 4.0, "calibration_s": 0.5}
    assert normalize(slow_host)["wall_norm_s"] == pytest.approx(2.0)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def reference_report() -> dict:
    return MetricsReport.load(workloads.REFERENCE_REPORT).comparable_dict()


def test_fingerprint_covers_report_fields_and_policy_records():
    report = reference_report()
    records = [
        {"type": "policy", "tick": 0, "target": "s1", "action": "no_op"},
        {"type": "phase", "tick": 0, "wall_ns": 5},
    ]
    base = workloads.fingerprint([(report, records)])
    perturbed = dict(report, risk_f1=report["risk_f1"] + 1e-12)
    assert workloads.fingerprint([(perturbed, records)]) != base
    changed = [dict(records[0], action="send_alert"), records[1]]
    assert workloads.fingerprint([(report, changed)]) != base
    retimed = [records[0], dict(records[1], wall_ns=7)]
    assert workloads.fingerprint([(report, retimed)]) == base


def test_perturbed_result_trips_the_gate():
    pinned = workloads.pinned_fingerprint("reference", workloads.PINNED_SEED, tiny=False)
    assert pinned is not None
    workloads.check_fingerprint("reference", workloads.PINNED_SEED, False, pinned)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_fingerprint("reference", workloads.PINNED_SEED, False, "0" * 64)

    report = reference_report()
    workloads.check_reference_report(report)
    load = dict(report["load_counts"])
    load["student_agent"] += 1
    with pytest.raises(workloads.CheckFailed):
        workloads.check_reference_report(dict(report, load_counts=load))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_same_report(
            "auss replay", dict(report, grading_match_rate=0.5, latency_ms=None), report
        )
