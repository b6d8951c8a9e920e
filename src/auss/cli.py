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
from .errors import AussError, ConfigError, read_config
from .experiment import (
    ExperimentSpec,
    replay as replay_transcript,
    require_runnable,
    run_sweep,
    simulate,
    write_report,
    write_simulation,
)
from .synthetic import GeneratorConfig, export_cohort, generate_cohort, import_cohort


class _OversizedInt(str):
    """An integer literal past Python's digit limit, kept as text so its key can be named."""


def _parse_int(text: str) -> int | _OversizedInt:
    try:
        return int(text)
    except ValueError:
        return _OversizedInt(text)


def _oversized_int_key(data: object) -> str | None:
    """Dotted key of an integer past the digit limit anywhere in ``data``, if any."""
    stack: list[tuple[tuple[str, ...], object]] = [((), data)]
    while stack:
        keys, value = stack.pop()
        if isinstance(value, _OversizedInt):
            return ".".join(keys)
        if isinstance(value, dict):
            stack.extend(((*keys, str(key)), item) for key, item in value.items())
        elif isinstance(value, list):
            stack.extend(((*keys, str(i)), item) for i, item in enumerate(value))
    return None


def _load_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=_parse_int)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path}: invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    key = _oversized_int_key(data)
    if key is not None:
        raise ConfigError(
            f"config {path}: {key} is an integer with more than "
            f"{sys.get_int_max_str_digits()} digits"
        )
    return data


def _spec_from_sim_config(config_path: str | None, cohort_dir: str, out_dir: str) -> ExperimentSpec:
    data = _load_json(config_path) if config_path else {}
    set_by_flags = {"generator", "cohort_dir", "output_dir"} & set(data)
    if set_by_flags:
        raise ConfigError(
            f"config {config_path}: {sorted(set_by_flags)} are set by --cohort and --out"
        )
    return ExperimentSpec.from_dict({**data, "cohort_dir": cohort_dir, "output_dir": out_dir})


def cmd_generate(args: argparse.Namespace) -> dict:
    config = read_config(
        GeneratorConfig, "generator", _load_json(args.config) if args.config else None
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
        "events": len(cohort.event_columns),
        "assessments": len(cohort.assessment_columns),
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
    require_runnable(cohort, spec.scheduler)
    digest = write_simulation(
        simulate(cohort, spec), Path(args.out), {"cohort_dir": args.cohort, "spec": spec.to_dict()}
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
    write_report(report, run_dir, [])
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
    p.add_argument("--config", help="JSON with scheduler/policy/evaluation/metrics keys")
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
