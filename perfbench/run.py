"""Benchmark of the auss simulator: a workload, a seed, one result line each.

    python3 perfbench/run.py --workload file_sweep --seed 42 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # the four workloads in turn

Samples run one after another, each in a fresh process (perfbench/worker.py),
until the next one would end after `--seconds`; at least one always runs.
With `--trace 0` the samples are untraced and the end-to-end metrics are
their medians. The gated time, `wall_norm_s`, is each sample's `wall_s`
scaled by its calibration loop (calibration.py), so that the host's drift
in speed cancels. Only the
first sample audits its output with `auss evaluate` and `auss replay`; the
others spend the run on the user operation. With `--trace 1` untraced and
traced samples alternate, and every traced sample audits; the per-layer
metrics are the traced medians, and `trace.overhead_s` is the traced minus
the untraced median `wall_s`.

Human-readable lines come first. The last stdout line of each workload is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("reference", "wide_cohort", "long_horizon", "file_sweep")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed but left out of the result line: the measured times. wall_norm_s
# scales wall_s by each sample's calibration loop (calibration.py), and the
# simulate stage that sim_events_per_s times is most of wall_s.
MEASURED_UNITS = {"wall_s": "s", "sim_events_per_s": "1/s", "calibration_s": "s"}
# Printed but left out of the result line: they come from the audited
# samples only, too few for a median that holds to a 0.25 bound on a
# shared host. Their simulation and evaluation work is also inside wall_s.
AUDIT_UNITS = {"replay_s": "s", "reevaluate_s": "s"}


def run_worker(
    args, workload: str, *, trace: int, audit: bool, setup_only: bool, budget_s: float
) -> dict:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--work", str(WORK / f"{workload}-sample"),
    ]
    if audit:
        command.append("--audit")
    if trace:
        command += ["--spans", str(WORK / f"spans-{workload}.jsonl")]
    if args.tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=max(1.0, budget_s), check=False
        )
    except subprocess.TimeoutExpired:
        return {"error": f"sample timed out after {budget_s:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def normalize(sample: dict) -> dict:
    """The sample with `wall_norm_s`: its wall_s on a host whose loop takes REFERENCE_S."""
    return dict(
        sample, wall_norm_s=sample["wall_s"] * calibration.REFERENCE_S / sample["calibration_s"]
    )


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"n={n}; no percentile has 10 samples beyond it"
    q = int(100 * (1 - 10 / n))
    return f"n={n}; p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"


def bench(args, workload: str) -> int:
    start = time.monotonic()
    deadline = start + args.seconds
    kinds = (0, 1) if args.trace else (0,)
    samples: list[dict] = []  # untraced
    traced: list[dict] = []
    rounds: list[float] = []  # seconds per round; the first one audits
    while True:
        round_began = time.monotonic()
        for trace in kinds:
            result = run_worker(
                args, workload, trace=trace, audit=bool(trace) or not samples,
                setup_only=False, budget_s=start + DEADLINE_S - time.monotonic(),
            )
            (traced if trace else samples).append(result)
        rounds.append(time.monotonic() - round_began)
        next_end = time.monotonic() + max(rounds[1:] or rounds)
        if next_end > deadline or next_end - start > DEADLINE_S - 10:
            break

    setups = [s["setup_s"] for s in samples if "setup_s" in s]
    while (not args.trace and len(setups) < SETUP_SAMPLES
           and time.monotonic() - start < DEADLINE_S - 10):
        result = run_worker(
            args, workload, trace=0, audit=False, setup_only=True,
            budget_s=start + DEADLINE_S - time.monotonic(),
        )
        if "error" in result:
            samples.append(result)
            break
        setups.append(result["setup_s"])

    attempted = samples + traced
    failures = [s for s in attempted if "error" in s]
    for failure in failures:
        print(f"failed sample: {failure['error']}", file=sys.stderr)
    good = [normalize(s) for s in samples if "error" not in s]
    good_traced = [s for s in traced if "error" not in s]
    if not good or (args.trace and not good_traced):
        print(f"perfbench: no {workload} sample succeeded", file=sys.stderr)
        return 1

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}"
          f"{'  (tiny)' if args.tiny else ''}")
    metrics: dict[str, dict] = {}
    if args.trace:
        layers = [s["layers"] for s in good_traced]
        for name, (_value, unit) in layers[0].items():
            metrics[name] = {"value": statistics.median(s[name][0] for s in layers), "unit": unit}
        traced_wall = statistics.median(s["wall_s"] for s in good_traced)
        untraced_wall = statistics.median(s["wall_s"] for s in good)
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        print(f"wall_s traced {traced_wall:.6g} s, untraced {untraced_wall:.6g} s")
        for name, metric in metrics.items():
            print(f"  {name:58s} {metric['value']:.6g} {metric['unit']}")
    else:
        for name, unit in END_TO_END_UNITS.items():
            values = setups if name == "setup_s" else [s[name] for s in good]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"{name:22s} p50 {metrics[name]['value']:.6g} {unit}"
                  f"  ({percentile_note(values)})")
        for name, unit in MEASURED_UNITS.items():
            values = [s[name] for s in good]
            print(f"{name:22s} p50 {statistics.median(values):.6g} {unit}"
                  f"  ({percentile_note(values)}; measured)")
        for name, unit in AUDIT_UNITS.items():
            values = [s[name] for s in good if s[name] is not None]
            if values:
                print(f"{name:22s} p50 {statistics.median(values):.6g} {unit}"
                      f"  ({percentile_note(values)}; audited samples only)")
    print(f"{'error_rate':22s} {len(failures) / len(attempted):.6g} ratio"
          f"  ({len(failures)} failed / {len(attempted)} attempted)")
    prints = sorted({s["fingerprint"] for s in good + good_traced})
    print(f"{'fingerprint':22s} {', '.join(prints)}")
    if len(prints) > 1:
        print("fingerprint differs between samples of one seed", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and len(prints) == 1,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="40-student self-test size")
    args = parser.parse_args()

    if not (ROOT / "src" / "auss" / "__init__.py").is_file():
        print(f"perfbench: no auss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(bench(args, workload) for workload in workloads)


if __name__ == "__main__":
    sys.exit(main())
