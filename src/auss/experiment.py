"""End-to-end experiment orchestration: generate a cohort, run the
simulation, evaluate every metric, and write report plus plot-ready data.

The transcript embeds the experiment spec and carries a content checksum,
so `replay` can audit a run from the transcript file alone.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import random
import shutil
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import forking
from .domain import Cohort, validate_cohort
from .educator import ARITHMETIC_TEMPLATE, EducatorAgent, generate_quiz, grade_response
from .errors import (
    ConfigError,
    MetricInputError,
    StageError,
    TranscriptError,
    check_config_types,
    read_config,
)
from .institution import (
    FeatureTracker,
    InstitutionAgent,
    aggregate_features,
    assess_risk,
    fit_risk_model,
    flags_f1,
    load_report,
)
from .policy import PolicyConfig
from .runtime import (
    PACKAGE_VERSION,
    PolicyDriver,
    SchedulerConfig,
    SimulationTranscript,
    measure_phase_latency,
    require_ticks_within,
    run,
)
from .student import (
    InteractionMatrix,
    StudentAgent,
    fit_predictors,
    holdout_split,
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
#: The metrics that read only the cohort and the seeds, never the transcript.
COHORT_METRICS = METRIC_NAMES[:4]


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
        check_config_types("evaluation", self)
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
        return asdict(self)


@dataclass(frozen=True)
class ExperimentSpec:
    generator: GeneratorConfig | None = None
    scheduler: SchedulerConfig = SchedulerConfig()
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
            "policy": asdict(self.policy),
            "evaluation": self.evaluation.to_dict(),
            "metrics": list(self.metrics),
            "cohort_dir": self.cohort_dir,
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        """Spec of a JSON object; a missing key takes its default, a section goes to read_config."""
        if not isinstance(data, Mapping):
            raise ConfigError(f"experiment spec must be a JSON object, got {data!r}")
        metrics = data.get("metrics", METRIC_NAMES)
        if not isinstance(metrics, (list, tuple)) or not all(
            isinstance(name, str) for name in metrics
        ):
            raise ConfigError(f"experiment spec metrics must be a list of strings, got {metrics!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown experiment spec keys: {sorted(unknown)}")
        for key in ("cohort_dir", "output_dir"):
            value = data.get(key)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"experiment spec {key} must be a string or null, got {value!r}")
        generator = data.get("generator")
        return cls(
            generator=(
                None if generator is None else read_config(GeneratorConfig, "generator", generator)
            ),
            scheduler=read_config(SchedulerConfig, "scheduler", data.get("scheduler")),
            policy=read_config(PolicyConfig, "policy", data.get("policy")),
            evaluation=read_config(EvaluationConfig, "evaluation", data.get("evaluation")),
            metrics=tuple(metrics),
            cohort_dir=data.get("cohort_dir"),  # type: ignore[arg-type]
            output_dir=data.get("output_dir"),  # type: ignore[arg-type]
        )


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
        return {f.name: getattr(self, f.name) for f in fields(self)}

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


def require_valid(cohort: Cohort) -> None:
    """Refuse a cohort that ``validate_cohort`` faults: a MetricInputError naming
    the number of violations and the first one. ``run_experiment``, ``run_sweep``,
    ``replay`` and a one-run ``auss simulate`` all refuse through this."""
    violations = validate_cohort(cohort)
    if violations:
        first = violations[0]
        raise MetricInputError(
            f"cohort failed validation ({len(violations)} violations; "
            f"first: {first.entity_id} {first.rule})"
        )


def simulate(cohort: Cohort, spec: ExperimentSpec) -> SimulationTranscript:
    return run(
        cohort,
        [StudentAgent(cohort), EducatorAgent(), InstitutionAgent()],
        spec.scheduler,
        tracker=FeatureTracker(cohort),
        policy_driver=PolicyDriver(spec.policy),
        header_extra={"experiment": spec.to_dict()},
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
    most-preferred unobserved resource, over students with candidates.

    A preference-ranking id that is not a matrix resource counts as
    unobserved. Every evaluated student is one ``recommend_top_k`` query
    of a single call."""
    truth = _require_truth(cohort)
    matrix = InteractionMatrix.from_cohort(cohort)
    column_of = {rid: j for j, rid in enumerate(matrix.resource_ids)}
    evaluated: list[str] = []
    preferred: list[str] = []
    for sid, seen in zip(matrix.student_ids, matrix._observed.tolist()):
        ranking = truth.preference_rankings.get(sid)
        if ranking is None or all(seen):
            continue
        for rid in ranking:
            j = column_of.get(rid)
            if j is None or not seen[j]:
                evaluated.append(sid)
                preferred.append(rid)
                break
    if not evaluated:
        raise MetricInputError("no students with unobserved resources to evaluate")
    recommendations = recommend_top_k(matrix, evaluated, k=1, neighborhood=neighborhood)
    correct = sum(
        1
        for recommendation, rid in zip(recommendations, preferred)
        if recommendation.items and recommendation.items[0][0] == rid
    )
    return correct / len(evaluated)


def evaluate_grading(
    cohort: Cohort, quiz_items: int, sloppy_answer_rate: float, seed: int
) -> float:
    """Auto-grade synthetic quiz responses against the reference grading.

    Response behavior per (student, item): correct with probability equal
    to the student's ability. Correct answers are sometimes (sloppy rate)
    written with a unit suffix the reference grader accepts but the
    numeric parser cannot; those are the mismatches this metric surfaces.

    One pass counts the agreements as it draws, building no grade objects.
    It is exact against grading each response with :func:`auto_grade` and
    comparing with :func:`grading_match_rate`: the same draws in the same
    order (students in sorted order, then quiz items), the same rule, and
    the same division, agreements over (student, item) pairs. A pair agrees
    when the two awarded points are equal; as points are > 0, that is when
    ``matched == is_correct``.

    A correct response is one of four fixed spellings of its item's
    answer, so each item's four verdicts come from :func:`grade_response`
    once, up front, and a draw picks among them. A wrong response is
    ``repr(w)`` of a float ``w``, which parses back to ``w`` itself, so
    its verdict is the numeric rule applied to ``w`` directly.
    """
    truth = _require_truth(cohort)
    if not truth.abilities:
        raise MetricInputError("match rate over empty grade lists is undefined")
    quiz = generate_quiz(ARITHMETIC_TEMPLATE, derive_seed(seed, "quiz"), quiz_items)
    items = []
    for _question, key in quiz:
        canonical = float(key.answer)
        tolerance = key.tolerance or 0.0
        spellings = (key.answer, f" {key.answer} ", f"{canonical:.1f}")
        items.append(
            (
                grade_response(f"{key.answer} points", key)[0],
                tuple(grade_response(spelling, key)[0] for spelling in spellings),
                canonical,
                tolerance,
                canonical + tolerance + 1.0,
            )
        )
    rng = random.Random(derive_seed(seed, "responses"))
    uniform = rng.random
    agreed = 0
    for sid in sorted(truth.abilities):
        ability = truth.abilities[sid]
        for sloppy_matched, spelling_matched, canonical, tolerance, wrong_base in items:
            if uniform() < ability:
                if uniform() < sloppy_answer_rate:
                    agreed += sloppy_matched
                else:
                    agreed += rng.choice(spelling_matched)
            else:
                agreed += not abs(wrong_base + uniform() - canonical) <= tolerance
    return agreed / (len(truth.abilities) * len(quiz))


def evaluate_risk(
    cohort: Cohort, split: float, threshold: float, seed: int
) -> tuple[float, float, float]:
    """Held-out precision/recall/F1 of the fitted dropout-risk model.

    A training split in which every student, or no student, dropped out is
    a MetricInputError: the model needs both outcomes to fit.
    """
    truth = _require_truth(cohort)
    dropped = np.array([truth.dropped(sid) for sid in cohort.student_ids], dtype=bool)
    train, test = holdout_split(len(dropped), split, derive_seed(seed, "risk-split"))
    n_dropped = int(dropped[train].sum())
    if n_dropped in (0, len(train)):
        raise MetricInputError(
            f"{n_dropped} of the {len(train)} students in the risk training split dropped "
            "out; risk metrics need both outcomes, dropped and retained"
        )
    features = aggregate_features(cohort, cohort.event_columns.last_tick())
    model = fit_risk_model(features[train], dropped[train])
    _scores, flagged = assess_risk(model, features[test], threshold)
    result = flags_f1(flagged, dropped[test])
    return result.precision, result.recall, result.f1


def _base_seed(spec: ExperimentSpec) -> int:
    return spec.generator.seed if spec.generator is not None else spec.scheduler.rng_seed


def _cohort_metrics(
    cohort: Cohort, spec: ExperimentSpec
) -> tuple[dict[str, float], dict[str, float]]:
    """The selected :data:`COHORT_METRICS` as ``MetricsReport`` fields, and
    the ``evaluate_*`` duration of each."""
    seed = _base_seed(spec)
    evaluation = spec.evaluation
    fields: dict[str, float] = {}
    timings: dict[str, float] = {}

    def timed(name: str, fn):
        start = time.perf_counter()
        result = fn()
        timings[f"evaluate_{name}"] = time.perf_counter() - start
        return result

    if "recommendation" in spec.metrics:
        fields["recommendation_top1_accuracy"] = timed(
            "recommendation",
            lambda: evaluate_recommendations(cohort, evaluation.recommend_neighborhood),
        )
    if "prediction" in spec.metrics:
        fields["prediction_accuracy"] = timed(
            "prediction",
            lambda: fit_predictors(
                cohort,
                split=evaluation.predictor_split,
                seed=derive_seed(seed, "prediction"),
                window_len=evaluation.predictor_window_len,
                blend_weight=evaluation.blend_weight,
            ),
        )
    if "grading" in spec.metrics:
        fields["grading_match_rate"] = timed(
            "grading",
            lambda: evaluate_grading(
                cohort, evaluation.quiz_items, evaluation.sloppy_answer_rate, seed
            ),
        )
    if "risk" in spec.metrics:
        fields["risk_precision"], fields["risk_recall"], fields["risk_f1"] = timed(
            "risk",
            lambda: evaluate_risk(cohort, evaluation.risk_split, evaluation.risk_threshold, seed),
        )
    return fields, timings


def evaluate_metrics(
    cohort: Cohort,
    transcript: SimulationTranscript,
    spec: ExperimentSpec,
    *,
    durations_s: Mapping[str, float] | None = None,
    cohort_metrics: tuple[dict[str, float], dict[str, float]] | None = None,
) -> MetricsReport:
    """Compute every selected metric from a finished run.

    ``cohort_metrics``, when given, is what ``_cohort_metrics(cohort, spec)``
    returned, computed elsewhere; otherwise it is computed here.
    """
    fields, cohort_timings = (
        _cohort_metrics(cohort, spec) if cohort_metrics is None else cohort_metrics
    )
    report = MetricsReport(metadata={})
    for name, value in fields.items():
        setattr(report, name, value)
    if "latency" in spec.metrics:
        report.latency_ms = measure_phase_latency(transcript)
    if "load" in spec.metrics:
        report.load_counts, report.load_shares = load_report(transcript)

    report.metadata = {
        "seed": _base_seed(spec),
        "scheduler_seed": spec.scheduler.rng_seed,
        "policy_seed": spec.policy.rng_seed,
        "n_students": len(cohort.students),
        "n_events": len(cohort.event_columns),
        "max_ticks": spec.scheduler.max_ticks,
        "metrics": list(spec.metrics),
        "package_version": PACKAGE_VERSION,
        "durations_s": {**(durations_s or {}), **cohort_timings},
    }
    return report


def _cohort_metrics_ahead(cohort: Cohort, runs: Iterable[ExperimentSpec]):
    """Start on the cohort metrics of ``runs``, the runs of ``cohort`` in
    order, while the caller goes on.

    A context manager that yields a function; its k-th call returns what
    ``_cohort_metrics(cohort, spec)`` returns for the k-th run ``spec``, or
    None when the caller is to compute them itself. One worker forked by
    :func:`~auss.forking.ahead` computes them run after run, when any
    cohort metric is selected (every run selects the same metrics).
    ``runs`` is iterated lazily: its first spec here, the rest in the
    worker.
    """
    runs = iter(runs)
    first = next(runs)
    if set(COHORT_METRICS) & set(first.metrics):
        return forking.ahead(
            lambda: (_cohort_metrics(cohort, spec) for spec in itertools.chain([first], runs))
        )
    return contextlib.nullcontext(lambda: None)


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


def _stage(name: str, fn: Callable, durations: dict[str, float], created: list[Path]):
    """``fn()``, its wall time added to ``durations[name]``. If it raises
    an Exception, the outputs in ``created`` are removed, newest first, and
    StageError naming ``name`` is raised in its place."""
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
    durations[name] = durations.get(name, 0.0) + time.perf_counter() - start
    return result


def _run(cohort: Cohort, spec: ExperimentSpec, cohort_metrics, durations: dict[str, float]):
    """One run of a validated cohort: ``simulate``, the transcript
    ``write``, ``evaluate`` and the report ``write``, after the stages timed
    in ``durations``; ``cohort_metrics()`` is as :func:`_cohort_metrics_ahead`
    yields it. Returns the report and the transcript."""
    created: list[Path] = []
    transcript = _stage("simulate", lambda: simulate(cohort, spec), durations, created)
    # The report times the stages before this run, simulate, the transcript
    # write and evaluate; not the report and plot writes after it.
    reported = dict(durations)
    out = None if spec.output_dir is None else Path(spec.output_dir)
    if out is not None:
        def _write_transcript() -> None:
            out.mkdir(parents=True, exist_ok=True)
            transcript_path = out / "transcript.jsonl"
            created.append(transcript_path)
            transcript.to_jsonl(transcript_path)

        _stage("write", _write_transcript, durations, created)
        reported["write_transcript"] = durations["write"]

    report = _stage(
        "evaluate",
        lambda: evaluate_metrics(
            cohort, transcript, spec, durations_s=reported, cohort_metrics=cohort_metrics()
        ),
        durations,
        created,
    )
    if out is not None:
        def _write_report() -> None:
            report_path = out / "report.json"
            created.append(report_path)
            report.metadata["durations_s"]["evaluate"] = durations["evaluate"]
            report.save(report_path)
            plots_dir = out / "plots"
            created.append(plots_dir)
            write_plot_data(report, plots_dir)

        _stage("write", _write_report, durations, created)
    return report, transcript


def _cohort_runs(
    spec: ExperimentSpec, runs: Callable[[], Iterable[ExperimentSpec]]
) -> Iterator[tuple[MetricsReport, SimulationTranscript]]:
    """The report and transcript of each run in ``runs()``, runs of
    ``spec``'s cohort, in order, by the stages of :func:`run_experiment`.
    The cohort is generated or read and validated once, timed in the first
    run's report only; one :func:`_cohort_metrics_ahead` serves every run,
    and its worker is reaped when the generator finishes or is closed.
    """
    durations: dict[str, float] = {}
    cohort = _stage("generate", lambda: load_experiment_cohort(spec), durations, [])

    def _validate() -> None:
        require_valid(cohort)
        require_ticks_within(cohort, spec.scheduler)

    _stage("validate", _validate, durations, [])
    with _cohort_metrics_ahead(cohort, runs()) as cohort_metrics:
        for run_spec in runs():
            # bound to no name here, so that no run's transcript outlives its turn
            yield _run(cohort, run_spec, cohort_metrics, durations)
            durations = {}


def run_experiment(spec: ExperimentSpec) -> tuple[MetricsReport, SimulationTranscript]:
    """Full pipeline. On failure, removes any partially written outputs and
    raises StageError naming the stage that broke.

    ``generate`` reads or generates the cohort. Reading a file cohort may
    fork one child, which parses the back half of a large events.jsonl and
    is reaped before the read returns (:func:`~auss.cohort_files.read_cohort`).
    ``validate`` refuses the cohort as :func:`require_valid` and
    :func:`~auss.runtime.require_ticks_within` do, before any worker forks.
    Right after it, the cohort metrics (recommendation, prediction,
    grading, risk) start in one forked worker process where
    :func:`auss.forking.fork_worthwhile` (``os.fork`` exists, no other
    Python thread is running and the process may use two or more CPUs);
    otherwise they are computed inline in ``evaluate``. Meanwhile this
    process simulates and writes ``transcript.jsonl``. So the
    ``evaluate_*`` durations are measured in the worker, concurrently with
    ``simulate``, and ``evaluate`` is the wait for the worker plus the
    metrics read from the transcript (latency, load). ``write`` covers the
    transcript, reported as ``durations_s["write_transcript"]``, then
    ``report.json`` and ``plots/``. A failure surfaces in that order:
    simulate, transcript write, evaluate, report write. A worker that fails
    in any way is replaced by the inline computation, so an evaluation
    error is the same ``StageError("evaluate")`` on either path. The worker
    is reaped (and, on any failure, killed first) before this returns or
    raises.
    """
    with contextlib.closing(_cohort_runs(spec, lambda: [spec])) as runs:
        return next(runs)


def replay(
    transcript_path: str | Path, *, verify_simulation: bool = True
) -> MetricsReport:
    """Recompute the metrics report from a transcript file alone.

    Verifies the content checksum and format version, regenerates the
    cohort from the embedded spec and refuses it as :func:`require_valid`
    and :func:`~auss.runtime.require_ticks_within` do (before any metric
    is computed or worker forked), optionally re-runs the simulation and
    checks it matches the recorded run (timing excluded), then re-evaluates.
    While it re-runs the simulation, the cohort metrics are computed as
    ``run_experiment`` computes them: in a forked worker where it may fork,
    one for this one run, reaped before this returns. Without the re-run
    they are computed inline, and nothing forks.
    """
    transcript = SimulationTranscript.from_jsonl(transcript_path)
    spec_data = transcript.header.get("experiment")
    if not spec_data:
        raise TranscriptError("transcript does not embed an experiment spec; cannot replay")
    spec = ExperimentSpec.from_dict(spec_data)
    cohort = load_experiment_cohort(spec)
    require_valid(cohort)
    require_ticks_within(cohort, spec.scheduler)
    if not verify_simulation:
        return evaluate_metrics(cohort, transcript, spec)
    with _cohort_metrics_ahead(cohort, [spec]) as cohort_metrics:
        rerun = simulate(cohort, spec)
        if rerun.canonical_lines(False) != transcript.canonical_lines(False):
            raise TranscriptError("replayed simulation diverges from the recorded transcript")
        return evaluate_metrics(cohort, transcript, spec, cohort_metrics=cohort_metrics())


# -- seed sweeps ------------------------------------------------------------------


def _sweep_runs(spec: ExperimentSpec, n_runs: int) -> Iterator[ExperimentSpec]:
    """The spec of each run of a sweep, in seed order, built as it is needed."""
    base = _base_seed(spec)
    for seed in range(base, base + n_runs):
        yield replace(
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


def run_sweep(spec: ExperimentSpec, n_runs: int) -> list[tuple[int, MetricsReport]]:
    """Run n independent seeds one after another; reports keep per-seed provenance.

    Runs go in seed order, and only each run's report is kept: its
    transcript is dropped before the next run simulates. With a generator
    config, each run is one :func:`run_experiment` call, which regenerates
    its own cohort and forks its own metrics worker. With a file cohort,
    the data stays fixed and the scheduler/policy seeds vary: the cohort is
    read and validated once, timed in the first run's ``durations_s``
    (``generate``, ``validate``) only, and one metrics worker computes the
    cohort metrics of every run in turn, so a run's are computed while the
    runs before it simulate; each run's ``evaluate`` waits for its own (see
    :func:`_cohort_runs`). A failed read raises StageError naming stage
    ``'generate'``. On any failure, the worker is killed and reaped before
    this raises.
    """
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
    base = _base_seed(spec)
    if spec.generator is None:
        with contextlib.closing(_cohort_runs(spec, lambda: _sweep_runs(spec, n_runs))) as runs:
            reports = list(map(itemgetter(0), runs))
    else:
        reports = [run_experiment(run_spec)[0] for run_spec in _sweep_runs(spec, n_runs)]
    results = list(enumerate(reports, start=base))

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
