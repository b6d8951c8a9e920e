"""The benchmark's workloads, driven only through auss's public entry points.

Each workload prepares its inputs from the seed, then runs one user
operation (timed as `wall_s`) between two passes of the calibration loop
(`calibration_s`, their mean). An audited sample then runs the two audits
a researcher runs on its output: `auss evaluate --run` (`reevaluate_s`)
and `auss replay --transcript` with its re-simulation check (`replay_s`).
Every output is checked: the audits must reproduce the run's report, and
at the pinned seed the result fingerprint must equal the pinned one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import auss.cli
import auss.experiment
import auss.synthetic
from auss.experiment import ExperimentSpec, MetricsReport
from auss.policy import PolicyConfig
from auss.runtime import SchedulerConfig
from auss.synthetic import GeneratorConfig

import calibration

ROOT = Path(__file__).resolve().parent.parent
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
REFERENCE_REPORT = ROOT / "tests" / "data" / "reference_report.json"
PINNED_SEED = 42

# (n_students, n_resources, n_ticks) per workload; TINY is the self-test size.
SIZES = {
    "reference": (1000, 20, 50),
    "wide_cohort": (4000, 20, 50),
    "long_horizon": (100, 20, 1000),
    "file_sweep": (1000, 20, 50),
}
TINY = (40, 20, 12)
SWEEP_RUNS = 2

# Fields of MetricsReport.comparable_dict() that the fingerprint covers,
# and the transcript records it covers: no timing and no header fields.
FINGERPRINT_FIELDS = (
    "recommendation_top1_accuracy",
    "prediction_accuracy",
    "grading_match_rate",
    "risk_precision",
    "risk_recall",
    "risk_f1",
    "load_counts",
    "load_shares",
)
FINGERPRINT_RECORDS = ("policy", "reward", "qtable")


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


@dataclass
class Sample:
    wall_s: float
    calibration_s: float
    sim_events_per_s: float
    peak_rss_mb: float
    fingerprint: str
    reevaluate_s: float | None = None
    replay_s: float | None = None


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fingerprint(runs: list[tuple[dict, list[dict]]]) -> str:
    """Hash of (comparable report, transcript records) for each run of a workload."""
    payload = [
        {
            "report": {field: report[field] for field in FINGERPRINT_FIELDS},
            "records": [r for r in records if r.get("type") in FINGERPRINT_RECORDS],
        }
        for report, records in runs
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_fingerprint(workload: str, seed: int, tiny: bool) -> str | None:
    if seed != PINNED_SEED or tiny:
        return None
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))["fingerprints"].get(workload)


def check_fingerprint(workload: str, seed: int, tiny: bool, value: str) -> None:
    pinned = pinned_fingerprint(workload, seed, tiny)
    if pinned is not None and value != pinned:
        raise CheckFailed(f"{workload} fingerprint {value} differs from pinned {pinned}")


def check_reference_report(report: dict) -> None:
    """A seed-42 run of the reference cohort must reproduce the committed report."""
    expected = MetricsReport.load(REFERENCE_REPORT).comparable_dict()
    if report != expected:
        diff = sorted(k for k in expected if expected.get(k) != report.get(k))
        raise CheckFailed(f"reference report differs from {REFERENCE_REPORT.name} in {diff}")


def check_same_report(what: str, got: dict, expected: dict) -> None:
    got = MetricsReport.from_dict(got).comparable_dict()
    if got != expected:
        diff = sorted(k for k in expected if expected.get(k) != got.get(k))
        raise CheckFailed(f"{what} report differs from the run's report in {diff}")


def cli(argv: list[str]) -> dict:
    """`auss.cli.main(argv)`; returns its JSON output and fails on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = auss.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"auss {argv[0]} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def read_records(path: Path) -> list[dict]:
    """Transcript records read without auss, so checks add no traced calls."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines[:-1]]


def _generator_spec(seed: int, size: tuple[int, int, int], out: Path) -> ExperimentSpec:
    n_students, n_resources, n_ticks = size
    return ExperimentSpec(
        generator=GeneratorConfig(
            n_students=n_students, n_resources=n_resources, n_ticks=n_ticks, seed=seed
        ),
        scheduler=SchedulerConfig(max_ticks=n_ticks, rng_seed=seed),
        policy=PolicyConfig(rng_seed=seed),
        output_dir=str(out),
    )


def prepare(workload: str, seed: int, tiny: bool, work: Path):
    """Inputs of one sample, built under `work`; this is the set-up that `setup_s` times."""
    size = TINY if tiny else SIZES[workload]
    out = work / "run"
    if workload != "file_sweep":
        return _generator_spec(seed, size, out)
    n_students, n_resources, n_ticks = size
    cohort, _truth = auss.synthetic.generate_cohort(
        GeneratorConfig(n_students=n_students, n_resources=n_resources, n_ticks=n_ticks, seed=seed)
    )
    cohort_dir = work / "cohort"
    auss.synthetic.export_cohort(cohort, cohort_dir)
    config = work / "config.json"
    config.write_text(
        json.dumps(
            {"scheduler": {"max_ticks": n_ticks, "rng_seed": seed}, "policy": {"rng_seed": seed}}
        ),
        encoding="utf-8",
    )
    return ["simulate", "--cohort", str(cohort_dir), "--config", str(config),
            "--out", str(out), "--runs", str(SWEEP_RUNS)]


def _audit(run_dir: Path, expected: dict) -> tuple[float, float]:
    start = time.perf_counter()
    evaluated = cli(["evaluate", "--run", str(run_dir)])
    reevaluate_s = time.perf_counter() - start
    check_same_report("auss evaluate", evaluated["report"], expected)
    start = time.perf_counter()
    replayed = cli(["replay", "--transcript", str(run_dir / "transcript.jsonl")])
    replay_s = time.perf_counter() - start
    check_same_report("auss replay", replayed["report"], expected)
    return reevaluate_s, replay_s


def execute(workload: str, seed: int, tiny: bool, inputs, audit: bool) -> Sample:
    """Run the workload on prepared inputs, timing and checking every step.

    `peak_rss_mb` is read before the audits, so it is the peak of set-up
    and the user operation whether or not the sample audits.
    """
    if workload == "file_sweep":
        return _execute_sweep(seed, tiny, inputs, audit)
    spec: ExperimentSpec = inputs
    before = calibration.loop_seconds()
    start = time.perf_counter()
    report, transcript = auss.experiment.run_experiment(spec)
    wall_s = time.perf_counter() - start
    peak = peak_rss_mb()
    calibration_s = (before + calibration.loop_seconds()) / 2
    comparable = report.comparable_dict()
    if workload == "reference" and seed == PINNED_SEED and not tiny:
        check_reference_report(comparable)
    value = fingerprint([(comparable, transcript.records)])
    check_fingerprint(workload, seed, tiny, value)
    events_per_s = report.metadata["n_events"] / report.metadata["durations_s"]["simulate"]
    sample = Sample(wall_s, calibration_s, events_per_s, peak, value)
    if audit:
        sample.reevaluate_s, sample.replay_s = _audit(Path(spec.output_dir), comparable)
    return sample


def _execute_sweep(seed: int, tiny: bool, argv: list[str], audit: bool) -> Sample:
    out = Path(argv[argv.index("--out") + 1])
    before = calibration.loop_seconds(SWEEP_RUNS)
    start = time.perf_counter()
    result = cli(argv)
    wall_s = time.perf_counter() - start
    peak = peak_rss_mb()
    calibration_s = (before + calibration.loop_seconds(SWEEP_RUNS)) / 2
    seeds = list(range(seed, seed + SWEEP_RUNS))
    if result["seeds"] != seeds:
        raise CheckFailed(f"sweep ran seeds {result['seeds']}, expected {seeds}")
    sweep = json.loads((out / "sweep_report.json").read_text(encoding="utf-8"))
    runs = [
        (sweep["runs"][str(s)], read_records(out / f"run-{s}" / "transcript.jsonl")) for s in seeds
    ]
    if seed == PINNED_SEED and not tiny:
        # The sweep's first run has the reference run's cohort and seeds.
        check_reference_report(sweep["runs"][str(seed)])
    value = fingerprint(runs)
    check_fingerprint("file_sweep", seed, tiny, value)
    # Sweep throughput: run durations measured inside threads overlap, so
    # the sweep's own wall time is the denominator.
    events = sum(report["metadata"]["n_events"] for report, _ in runs)
    sample = Sample(wall_s, calibration_s, events / wall_s, peak, value)
    if audit:
        sample.reevaluate_s, sample.replay_s = _audit(out / f"run-{seed}", sweep["runs"][str(seed)])
    return sample
