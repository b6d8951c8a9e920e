"""Command-line entry point: generate, simulate, evaluate, replay.

Success prints a JSON summary to stdout and exits 0. Failures print a
machine-readable error object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .domain import validate_cohort
from .errors import AussError
from .experiment import (
    ExperimentSpec,
    replay as replay_transcript,
    run_sweep,
    simulate,
    write_plot_data,
)
from .synthetic import GeneratorConfig, export_cohort, generate_cohort, import_cohort


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _spec_from_sim_config(config_path: str | None, cohort_dir: str, out_dir: str) -> ExperimentSpec:
    data = _load_json(config_path) if config_path else {}
    data.setdefault("scheduler", {"max_ticks": 50})
    data["cohort_dir"] = cohort_dir
    data["output_dir"] = out_dir
    data.setdefault("generator", None)
    return ExperimentSpec.from_dict(data)


def cmd_generate(args: argparse.Namespace) -> dict:
    config = (
        GeneratorConfig.from_dict(_load_json(args.config)) if args.config else GeneratorConfig()
    )
    cohort, truth = generate_cohort(config)
    violations = validate_cohort(cohort)
    if violations:
        raise AussError(f"generated cohort failed validation: {violations[0]}")
    export_cohort(cohort, args.out)
    return {
        "command": "generate",
        "out": args.out,
        "students": len(cohort.students),
        "events": len(cohort.events),
        "assessments": len(cohort.assessments),
        "resources": len(cohort.resources),
        "dropouts": len(truth.dropped_students),
    }


def cmd_simulate(args: argparse.Namespace) -> dict:
    spec = _spec_from_sim_config(args.config, args.cohort, args.out)
    if args.runs != 1:
        results = run_sweep(spec, args.runs)
        return {
            "command": "simulate",
            "runs": args.runs,
            "out": args.out,
            "seeds": [seed for seed, _ in results],
        }
    cohort = import_cohort(args.cohort)
    violations = validate_cohort(cohort)
    if violations:
        raise AussError(f"cohort failed validation: {violations[0]}")
    transcript = simulate(cohort, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    digest = transcript.to_jsonl(out / "transcript.jsonl")
    (out / "run.json").write_text(
        json.dumps(
            {"cohort_dir": args.cohort, "spec": spec.to_dict(), "transcript_sha256": digest},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return {
        "command": "simulate",
        "out": args.out,
        "ticks": spec.scheduler.max_ticks,
        "transcript_sha256": digest,
    }


def cmd_evaluate(args: argparse.Namespace) -> dict:
    run_dir = Path(args.run)
    report = replay_transcript(run_dir / "transcript.jsonl", verify_simulation=False)
    report.save(run_dir / "report.json")
    write_plot_data(report, run_dir / "plots")
    return {"command": "evaluate", "run": args.run, "report": report.to_dict()}


def cmd_replay(args: argparse.Namespace) -> dict:
    report = replay_transcript(args.transcript, verify_simulation=not args.no_verify)
    return {"command": "replay", "transcript": args.transcript, "report": report.to_dict()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auss",
        description="Multi-agent educational-support simulation and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a cohort with ground truth")
    p.add_argument("--config", help="generator config JSON (defaults when omitted)")
    p.add_argument("--out", required=True, help="directory for the cohort files")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("simulate", help="run the multi-agent simulation over a cohort")
    p.add_argument("--cohort", required=True, help="cohort directory (from generate)")
    p.add_argument("--config", help="JSON with scheduler/policy/evaluation sections")
    p.add_argument("--out", required=True, help="run directory for transcript output")
    p.add_argument("--runs", type=int, default=1, help="run N seeds in turn and merge reports")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("evaluate", help="compute the metrics report for a finished run")
    p.add_argument("--run", required=True, help="run directory containing transcript.jsonl")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("replay", help="audit a transcript: verify and recompute its report")
    p.add_argument("--transcript", required=True, help="path to transcript.jsonl")
    p.add_argument("--no-verify", action="store_true", help="skip the re-simulation check")
    p.set_defaults(fn=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.fn(args)
    except AussError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
