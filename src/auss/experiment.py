"""End-to-end experiment orchestration: generate a cohort, run the
simulation, evaluate every metric, and write report plus plot-ready data.

The transcript embeds the experiment spec and carries a content checksum,
so `replay` can audit a run from the transcript file alone.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .domain import AssessmentRecord, Cohort, validate_cohort
from .educator import (
    ARITHMETIC_TEMPLATE,
    EducatorAgent,
    GradeResult,
    auto_grade,
    generate_quiz,
    grading_match_rate,
)
from .errors import ConfigError, MetricInputError, StageError, TranscriptError
from .institution import (
    FeatureTracker,
    InstitutionAgent,
    aggregate_features,
    assess_risk,
    f1_score,
    fit_risk_model,
    load_report,
)
from .policy import PolicyConfig
from .runtime import (
    PACKAGE_VERSION,
    PolicyDriver,
    SchedulerConfig,
    SimulationTranscript,
    measure_phase_latency,
    run,
)
from .student import (
    InteractionMatrix,
    StudentAgent,
    fit_predictors,
    recommend_top_k,
)
from .synthetic import GeneratorConfig, generate_cohort, import_cohort

METRIC_NAMES = (
    "recommendation",
    "prediction",
    "grading",
    "risk",
    "latency",
    "load",
)


@dataclass(frozen=True)
class EvaluationConfig:
    predictor_split: float = 0.7
    predictor_window_len: int = 10
    blend_weight: float = 0.5
    recommend_neighborhood: int = 50
    quiz_items: int = 20
    sloppy_answer_rate: float = 0.1
    risk_split: float = 0.7
    risk_threshold: float = 0.5

    def __post_init__(self) -> None:
        for name in ("predictor_split", "risk_split"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        if not 0.0 <= self.blend_weight <= 1.0:
            raise ConfigError(f"blend_weight must be in [0, 1], got {self.blend_weight}")
        if not 0.0 <= self.sloppy_answer_rate <= 1.0:
            raise ConfigError(f"sloppy_answer_rate must be in [0, 1], got {self.sloppy_answer_rate}")
        if self.quiz_items < 1:
            raise ConfigError(f"quiz_items must be >= 1, got {self.quiz_items}")
        if self.recommend_neighborhood < 1:
            raise ConfigError(f"recommend_neighborhood must be >= 1, got {self.recommend_neighborhood}")
        if not 0.0 < self.risk_threshold < 1.0:
            raise ConfigError(f"risk_threshold must be in (0, 1), got {self.risk_threshold}")
        if self.predictor_window_len < 1:
            raise ConfigError(f"predictor_window_len must be >= 1, got {self.predictor_window_len}")

    def to_dict(self) -> dict:
        return {
            "predictor_split": self.predictor_split,
            "predictor_window_len": self.predictor_window_len,
            "blend_weight": self.blend_weight,
            "recommend_neighborhood": self.recommend_neighborhood,
            "quiz_items": self.quiz_items,
            "sloppy_answer_rate": self.sloppy_answer_rate,
            "risk_split": self.risk_split,
            "risk_threshold": self.risk_threshold,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EvaluationConfig":
        known = set(cls().to_dict())
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown evaluation config keys: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ExperimentSpec:
    generator: GeneratorConfig | None = None
    scheduler: SchedulerConfig = SchedulerConfig(max_ticks=50)
    policy: PolicyConfig = PolicyConfig()
    evaluation: EvaluationConfig = EvaluationConfig()
    metrics: tuple[str, ...] = METRIC_NAMES
    cohort_dir: str | None = None  # alternative to a generator config
    output_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(self.metrics))
        unknown = set(self.metrics) - set(METRIC_NAMES)
        if unknown:
            raise ConfigError(f"unknown metric names: {sorted(unknown)}")
        if self.generator is None and self.cohort_dir is None:
            raise ConfigError("experiment spec needs a generator config or a cohort_dir")

    def to_dict(self) -> dict:
        return {
            "generator": None if self.generator is None else self.generator.to_dict(),
            "scheduler": self.scheduler.to_dict(),
            "policy": {
                "alpha": self.policy.alpha,
                "gamma": self.policy.gamma,
                "epsilon": self.policy.epsilon,
                "epsilon_decay": self.policy.epsilon_decay,
                "rng_seed": self.policy.rng_seed,
            },
            "evaluation": self.evaluation.to_dict(),
            "metrics": list(self.metrics),
            "cohort_dir": self.cohort_dir,
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        known = {
            "generator",
            "scheduler",
            "policy",
            "evaluation",
            "metrics",
            "cohort_dir",
            "output_dir",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown experiment spec keys: {sorted(unknown)}")
        policy_data = dict(data.get("policy") or {})
        policy_known = {"alpha", "gamma", "epsilon", "epsilon_decay", "rng_seed"}
        policy_unknown = set(policy_data) - policy_known
        if policy_unknown:
            raise ConfigError(f"unknown policy config keys: {sorted(policy_unknown)}")
        generator = data.get("generator")
        return cls(
            generator=None if generator is None else GeneratorConfig.from_dict(dict(generator)),
            scheduler=SchedulerConfig.from_dict(dict(data.get("scheduler") or {"max_ticks": 50})),
            policy=PolicyConfig(**policy_data),
            evaluation=EvaluationConfig.from_dict(dict(data.get("evaluation") or {})),
            metrics=tuple(data.get("metrics") or METRIC_NAMES),  # type: ignore[arg-type]
            cohort_dir=data.get("cohort_dir"),  # type: ignore[arg-type]
            output_dir=data.get("output_dir"),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def derive_seed(base: int, label: str) -> int:
    """Stable sub-seed for a named stage of an experiment."""
    digest = hashlib.sha256(f"{base}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**32)


def reference_spec(output_dir: str | None = None) -> "ExperimentSpec":
    """The committed regression anchor: 1000 students, 50 ticks, seed 42."""
    return ExperimentSpec(
        generator=GeneratorConfig(n_students=1000, n_resources=20, n_ticks=50, seed=42),
        scheduler=SchedulerConfig(max_ticks=50, rng_seed=42),
        policy=PolicyConfig(rng_seed=42),
        output_dir=output_dir,
    )


@dataclass
class MetricsReport:
    """Every Table-1-shaped metric for one run, plus run metadata.

    Timing-dependent fields (latency stats, stage durations) are excluded
    by comparable_dict(), which is what determinism checks compare.
    """

    recommendation_top1_accuracy: float | None = None
    prediction_accuracy: float | None = None
    grading_match_rate: float | None = None
    risk_precision: float | None = None
    risk_recall: float | None = None
    risk_f1: float | None = None
    latency_ms: dict | None = None
    load_counts: dict | None = None
    load_shares: dict | None = None
    metadata: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.metadata is None:
            self.metadata = {}
        for name in (
            "recommendation_top1_accuracy",
            "prediction_accuracy",
            "grading_match_rate",
            "risk_precision",
            "risk_recall",
            "risk_f1",
        ):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def to_dict(self) -> dict:
        return {
            "recommendation_top1_accuracy": self.recommendation_top1_accuracy,
            "prediction_accuracy": self.prediction_accuracy,
            "grading_match_rate": self.grading_match_rate,
            "risk_precision": self.risk_precision,
            "risk_recall": self.risk_recall,
            "risk_f1": self.risk_f1,
            "latency_ms": self.latency_ms,
            "load_counts": self.load_counts,
            "load_shares": self.load_shares,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MetricsReport":
        return cls(**dict(data))  # type: ignore[arg-type]

    def comparable_dict(self) -> dict:
        """Report content with machine-dependent timing fields removed."""
        data = self.to_dict()
        data.pop("latency_ms", None)
        metadata = dict(data.get("metadata") or {})
        metadata.pop("durations_s", None)
        metadata.pop("package_version", None)
        data["metadata"] = metadata
        return data

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "MetricsReport":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# -- simulation wiring ---------------------------------------------------------


def build_agents(cohort: Cohort) -> list:
    return [StudentAgent(cohort), EducatorAgent(cohort), InstitutionAgent()]


def simulate(
    cohort: Cohort, spec: ExperimentSpec, *, header_extra: Mapping[str, object] | None = None
) -> SimulationTranscript:
    agents = build_agents(cohort)
    extra = {"experiment": spec.to_dict()}
    if header_extra:
        extra.update(header_extra)
    return run(
        cohort,
        agents,
        spec.scheduler,
        tracker=FeatureTracker(cohort),
        policy_driver=PolicyDriver(spec.policy),
        header_extra=extra,
    )


# -- metric evaluation -----------------------------------------------------------


def _require_truth(cohort: Cohort):
    if cohort.ground_truth is None:
        raise MetricInputError(
            "evaluation needs ground-truth labels; generate the cohort or provide ground_truth.json"
        )
    return cohort.ground_truth


def evaluate_recommendations(cohort: Cohort, neighborhood: int) -> float:
    """Top-1 accuracy: the top recommendation matches the ground-truth
    most-preferred unobserved resource, over students with candidates."""
    truth = _require_truth(cohort)
    matrix = InteractionMatrix.from_cohort(cohort)
    correct = 0
    total = 0
    for sid in matrix.student_ids:
        observed = matrix.observed(sid)
        candidates = [rid for rid in matrix.resource_ids if rid not in observed]
        if not candidates:
            continue
        ranking = truth.preference_rankings.get(sid)
        if ranking is None:
            continue
        preferred = next((rid for rid in ranking if rid not in observed), None)
        if preferred is None:
            continue
        total += 1
        recommendation = recommend_top_k(matrix, sid, k=1, neighborhood=neighborhood)
        if recommendation.items and recommendation.items[0][0] == preferred:
            correct += 1
    if total == 0:
        raise MetricInputError("no students with unobserved resources to evaluate")
    return correct / total


def evaluate_grading(
    cohort: Cohort, quiz_items: int, sloppy_answer_rate: float, seed: int
) -> float:
    """Auto-grade synthetic quiz responses against the reference grading.

    Response behavior per (student, item): correct with probability equal
    to the student's ability. Correct answers are sometimes (sloppy rate)
    written with a unit suffix the reference grader accepts but the
    numeric parser cannot; those are the mismatches this metric surfaces.
    """
    truth = _require_truth(cohort)
    quiz = generate_quiz(ARITHMETIC_TEMPLATE, derive_seed(seed, "quiz"), quiz_items)
    rng = random.Random(derive_seed(seed, "responses"))
    auto: list[GradeResult] = []
    reference: list[GradeResult] = []
    for sid in sorted(truth.abilities):
        ability = truth.abilities[sid]
        for _question, key in quiz:
            canonical = float(key.answer)
            is_correct = rng.random() < ability
            if is_correct:
                if rng.random() < sloppy_answer_rate:
                    response = f"{key.answer} points"
                else:
                    response = rng.choice([key.answer, f" {key.answer} ", f"{canonical:.1f}"])
            else:
                response = repr(canonical + (key.tolerance or 0.0) + 1.0 + rng.random())
            submission = AssessmentRecord(sid, key.item_id, response)
            auto.append(auto_grade(submission, key))
            reference.append(
                GradeResult(
                    student_id=sid,
                    item_id=key.item_id,
                    awarded=key.points if is_correct else 0.0,
                    matched=is_correct,
                )
            )
    return grading_match_rate(auto, reference)


def evaluate_risk(
    cohort: Cohort, split: float, threshold: float, seed: int
) -> tuple[float, float, float]:
    """Held-out precision/recall/F1 of the fitted dropout-risk model."""
    truth = _require_truth(cohort)
    last_tick = max((e.tick for e in cohort.events), default=0)
    features = aggregate_features(cohort, last_tick)
    labels = {sid: truth.dropped(sid) for sid in cohort.student_ids}
    rng = np.random.default_rng(derive_seed(seed, "risk-split"))
    order = rng.permutation(len(features))
    n_train = min(len(features) - 1, max(1, int(round(split * len(features)))))
    train = [features[i] for i in order[:n_train]]
    test = [features[i] for i in order[n_train:]]
    model = fit_risk_model(train, labels, seed=derive_seed(seed, "risk-fit"))
    assessments, _events = assess_risk(model, test, threshold)
    predicted = {a.student_id: a.flagged for a in assessments}
    actual = {a.student_id: labels[a.student_id] for a in assessments}
    result = f1_score(predicted, actual)
    return result.precision, result.recall, result.f1


def evaluate_metrics(
    cohort: Cohort,
    transcript: SimulationTranscript,
    spec: ExperimentSpec,
    *,
    durations_s: Mapping[str, float] | None = None,
) -> MetricsReport:
    """Compute every selected metric from a finished run."""
    seed = spec.generator.seed if spec.generator is not None else spec.scheduler.rng_seed
    evaluation = spec.evaluation
    report = MetricsReport(metadata={})
    timings: dict[str, float] = dict(durations_s or {})

    def timed(name: str, fn):
        start = time.perf_counter()
        result = fn()
        timings[f"evaluate_{name}"] = time.perf_counter() - start
        return result

    if "recommendation" in spec.metrics:
        report.recommendation_top1_accuracy = timed(
            "recommendation",
            lambda: evaluate_recommendations(cohort, evaluation.recommend_neighborhood),
        )
    if "prediction" in spec.metrics:
        def _prediction() -> float:
            _model, accuracy = fit_predictors(
                cohort,
                split=evaluation.predictor_split,
                seed=derive_seed(seed, "prediction"),
                window_len=evaluation.predictor_window_len,
                blend_weight=evaluation.blend_weight,
            )
            return accuracy

        report.prediction_accuracy = timed("prediction", _prediction)
    if "grading" in spec.metrics:
        report.grading_match_rate = timed(
            "grading",
            lambda: evaluate_grading(
                cohort, evaluation.quiz_items, evaluation.sloppy_answer_rate, seed
            ),
        )
    if "risk" in spec.metrics:
        precision, recall, f1 = timed(
            "risk",
            lambda: evaluate_risk(cohort, evaluation.risk_split, evaluation.risk_threshold, seed),
        )
        report.risk_precision = precision
        report.risk_recall = recall
        report.risk_f1 = f1
    if "latency" in spec.metrics:
        stats = measure_phase_latency(transcript)
        report.latency_ms = {
            agent: {"mean_ms": s.mean_ms, "p95_ms": s.p95_ms, "n_ticks": s.n_ticks}
            for agent, s in sorted(stats.items())
        }
    if "load" in spec.metrics:
        load = load_report(transcript)
        report.load_counts = dict(sorted(load.counts.items()))
        report.load_shares = dict(sorted(load.shares.items()))

    report.metadata = {
        "seed": seed,
        "scheduler_seed": spec.scheduler.rng_seed,
        "policy_seed": spec.policy.rng_seed,
        "n_students": len(cohort.students),
        "n_events": len(cohort.events),
        "max_ticks": spec.scheduler.max_ticks,
        "metrics": list(spec.metrics),
        "package_version": PACKAGE_VERSION,
        "durations_s": timings,
    }
    return report


# -- pipeline -------------------------------------------------------------------


def write_plot_data(report: MetricsReport, plots_dir: Path) -> list[Path]:
    """Write the report's plot-ready CSVs under ``plots_dir``; returns their paths."""
    plots_dir.mkdir(parents=True, exist_ok=True)
    written = []

    accuracy_rows = [
        ("student_agent", "recommendation", "top1_accuracy", report.recommendation_top1_accuracy),
        ("student_agent", "prediction", "accuracy", report.prediction_accuracy),
        ("educator_agent", "grading", "match_rate", report.grading_match_rate),
        ("institution_agent", "risk_detection", "f1", report.risk_f1),
    ]
    path = plots_dir / "accuracy_by_component.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "task", "metric", "value"])
        for component, task, metric, value in accuracy_rows:
            if value is not None:
                writer.writerow([component, task, metric, repr(value)])
    written.append(path)

    if report.latency_ms is not None:
        path = plots_dir / "latency_by_agent.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["agent", "mean_ms", "p95_ms"])
            for agent, stats in report.latency_ms.items():
                writer.writerow([agent, repr(stats["mean_ms"]), repr(stats["p95_ms"])])
        written.append(path)

    if report.load_shares is not None:
        path = plots_dir / "load_by_agent.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["agent", "events_processed", "share"])
            for agent, share in report.load_shares.items():
                writer.writerow([agent, (report.load_counts or {}).get(agent, 0), repr(share)])
        written.append(path)
    return written


def load_experiment_cohort(spec: ExperimentSpec) -> Cohort:
    if spec.generator is not None:
        cohort, _truth = generate_cohort(spec.generator)
        return cohort
    return import_cohort(spec.cohort_dir)


def run_experiment(spec: ExperimentSpec) -> tuple[MetricsReport, SimulationTranscript]:
    """Full pipeline. On failure, removes any partially written outputs and
    raises StageError naming the stage that broke."""
    created: list[Path] = []
    durations: dict[str, float] = {}

    def stage(name: str, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            for path in reversed(created):
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                elif path.exists():
                    path.unlink()
            raise StageError(name, exc) from exc
        durations[name] = time.perf_counter() - start
        return result

    cohort = stage("generate", lambda: load_experiment_cohort(spec))

    def _validate() -> None:
        violations = validate_cohort(cohort)
        if violations:
            first = violations[0]
            raise MetricInputError(
                f"cohort failed validation ({len(violations)} violations; "
                f"first: {first.entity_id} {first.rule})"
            )

    stage("validate", _validate)
    transcript = stage("simulate", lambda: simulate(cohort, spec))
    report = stage(
        "evaluate", lambda: evaluate_metrics(cohort, transcript, spec, durations_s=durations)
    )

    if spec.output_dir is not None:
        def _write() -> None:
            out = Path(spec.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            transcript_path = out / "transcript.jsonl"
            created.append(transcript_path)
            transcript.to_jsonl(transcript_path)
            report_path = out / "report.json"
            created.append(report_path)
            report.metadata["durations_s"] = {
                **report.metadata.get("durations_s", {}),
                **durations,
            }
            report.save(report_path)
            plots_dir = out / "plots"
            created.append(plots_dir)
            write_plot_data(report, plots_dir)

        stage("write", _write)
    return report, transcript


def replay(
    transcript_path: str | Path, *, verify_simulation: bool = True
) -> MetricsReport:
    """Recompute the metrics report from a transcript file alone.

    Verifies the content checksum and format version, regenerates the
    cohort from the embedded spec, optionally re-runs the simulation and
    checks it matches the recorded run (timing excluded), then re-evaluates.
    """
    transcript = SimulationTranscript.from_jsonl(transcript_path, verify=True)
    spec_data = transcript.header.get("experiment")
    if not spec_data:
        raise TranscriptError("transcript does not embed an experiment spec; cannot replay")
    spec = ExperimentSpec.from_dict(spec_data)
    cohort = load_experiment_cohort(spec)
    if verify_simulation:
        rerun = simulate(cohort, spec)
        if rerun.canonical_lines(False) != transcript.canonical_lines(False):
            raise TranscriptError(
                "replayed simulation diverges from the recorded transcript"
            )
    return evaluate_metrics(cohort, transcript, spec)


# -- seed sweeps ------------------------------------------------------------------


def run_sweep(spec: ExperimentSpec, n_runs: int) -> list[tuple[int, MetricsReport]]:
    """Run n independent seeds one after another; reports keep per-seed provenance.

    With a generator config, each run regenerates its own cohort; with a
    file cohort, the data stays fixed and the scheduler/policy seeds vary.
    """
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
    base = spec.generator.seed if spec.generator is not None else spec.scheduler.rng_seed

    results = []
    for seed in range(base, base + n_runs):
        run_spec = replace(
            spec,
            generator=(
                None if spec.generator is None else replace(spec.generator, seed=seed)
            ),
            scheduler=replace(spec.scheduler, rng_seed=seed),
            policy=replace(spec.policy, rng_seed=seed),
            output_dir=(
                str(Path(spec.output_dir) / f"run-{seed}") if spec.output_dir else None
            ),
        )
        report, _transcript = run_experiment(run_spec)
        results.append((seed, report))

    if spec.output_dir is not None:
        merged = {
            "base_seed": base,
            "n_runs": n_runs,
            "runs": {str(seed): report.comparable_dict() for seed, report in results},
        }
        out = Path(spec.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep_report.json").write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return results
