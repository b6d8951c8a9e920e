"""Spans around calls into auss's public functions, recorded from outside.

`Tracer.install()` replaces module attributes and class attributes of the
`auss` package with timing wrappers. Each call becomes a span
``[name, start_ns, end_ns, parent]`` appended to a per-thread list; a
per-thread stack gives the parent. Spans stay in memory until `write()`.

A layer's self time is its span's duration minus the time its child spans
cover. Children run on the parent's thread and nest inside it, so that is
the duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

# Module-level functions, wrapped at every `auss` module that binds them,
# so calls through `from .x import f` are caught as well.
FUNCTIONS = (
    ("runtime.run", "auss.runtime", "run"),
    ("experiment.run_experiment", "auss.experiment", "run_experiment"),
    ("experiment.run_sweep", "auss.experiment", "run_sweep"),
    ("experiment.evaluate_metrics", "auss.experiment", "evaluate_metrics"),
    ("institution.aggregate_features", "auss.institution", "aggregate_features"),
    ("institution.assess_risk", "auss.institution", "assess_risk"),
    ("student.fit_predictors", "auss.student", "fit_predictors"),
    ("educator.generate_class_report", "auss.educator", "generate_class_report"),
    ("educator.auto_grade", "auss.educator", "auto_grade"),
    ("policy.q_update", "auss.policy", "q_update"),
    ("policy.select_action", "auss.policy", "select_action"),
    ("learners.fit_logistic", "auss.learners", "fit_logistic"),
    ("synthetic.generate_cohort", "auss.synthetic", "generate_cohort"),
    ("domain.validate_cohort", "auss.domain", "validate_cohort"),
    ("cohort_files.read_cohort", "auss.cohort_files", "read_cohort"),
    ("cohort_files.write_cohort", "auss.cohort_files", "write_cohort"),
    ("cli.main", "auss.cli", "main"),
)

# One function, two callers: the student agent and the CF evaluation look
# `recommend_top_k` up in different modules, so each binding gets its own span.
CALL_SITES = (
    ("student.recommend_top_k.agent", "auss.student", "recommend_top_k"),
    ("student.recommend_top_k.eval", "auss.experiment", "recommend_top_k"),
)

METHODS = (
    ("runtime.PolicyDriver.step", "auss.runtime", "PolicyDriver", "step"),
    ("runtime.SimulationTranscript.to_jsonl", "auss.runtime", "SimulationTranscript", "to_jsonl"),
    ("runtime.SimulationTranscript.from_jsonl", "auss.runtime", "SimulationTranscript", "from_jsonl"),
    ("institution.FeatureTracker.ingest", "auss.institution", "FeatureTracker", "ingest"),
    ("institution.FeatureTracker.policy_signals", "auss.institution", "FeatureTracker", "policy_signals"),
    ("student.InteractionMatrix.from_counts", "auss.student", "InteractionMatrix", "from_counts"),
    ("bus.EventBus.publish", "auss.bus", "EventBus", "publish"),
    ("bus.EventBus.deliver_tick", "auss.bus", "EventBus", "deliver_tick"),
    ("learners.BaggedTreeRegressor.fit", "auss.learners", "BaggedTreeRegressor", "fit"),
)

SPAN_NAMES = tuple(
    [name for name, *_ in FUNCTIONS]
    + [name for name, *_ in CALL_SITES]
    + [name for name, *_ in METHODS]
)
AGENTS = ("student_agent", "educator_agent", "institution_agent")


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[list[list]] = []
        self.counters: dict[str, float] = {}

    def _thread_state(self) -> tuple[list, list]:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
        return local.spans, local.stack

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        """True when a span called `name` is open on the calling thread."""
        spans, stack = self._thread_state()
        return any(spans[i][0] == name for i in stack)

    def wrap(self, name: str, fn, after=None):
        """`fn` timed as span `name`; `after(tracer, args, result)` then counts."""

        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        auss_modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "auss" or key.startswith("auss.")
        ]
        for name, owner, attr in FUNCTIONS:
            original = getattr(importlib.import_module(owner), attr)
            wrapped = self.wrap(name, original, _AFTER.get(name))
            for module in auss_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for name, owner, attr in CALL_SITES:
            module = importlib.import_module(owner)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        for name, owner, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(owner), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, _AFTER.get(name))))
            else:
                setattr(cls, attr, self.wrap(name, raw, _AFTER.get(name)))

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        totals = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            child_ns = [0] * len(spans)
            for span in spans:
                if span[3] >= 0:
                    child_ns[span[3]] += span[2] - span[1]
            for span, children in zip(spans, child_ns):
                entry = totals[span[0]]
                duration = span[2] - span[1]
                entry["s"] += duration / 1e9
                entry["self_s"] += (duration - children) / 1e9
                entry["calls"] += 1
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: thread, id, name, start, end, parent."""
        with self._lock:
            threads = list(self._threads)
        with path.open("w", encoding="utf-8") as fh:
            for thread, spans in enumerate(threads):
                for i, (name, start, end, parent) in enumerate(spans):
                    fh.write(
                        json.dumps(
                            {
                                "thread": thread,
                                "id": i,
                                "name": name,
                                "start_ns": start,
                                "end_ns": end,
                                "parent": parent,
                            },
                            separators=(",", ":"),
                        )
                        + "\n"
                    )


# -- counts taken from arguments and results --------------------------------


def _after_run(tracer: Tracer, args, transcript) -> None:
    cohort, _agents, config = args[:3]
    tracer.count("events_simulated", sum(1 for e in cohort.events if e.tick < config.max_ticks))
    tracer.count("transcript_records", len(transcript.records))
    for record in transcript.records:
        if record.get("type") == "phase":
            tracer.count(f"phase.{record['agent']}", record["wall_ns"] / 1e9)


def _after_ingest(tracer: Tracer, args, _result) -> None:
    if tracer.inside("runtime.run"):
        tracer.count("ingested_in_run", len(args[2]))


def _after_deliver(tracer: Tracer, _args, inboxes) -> None:
    tracer.count("delivered_events", sum(len(events) for events in inboxes.values()))


_AFTER = {
    "runtime.run": _after_run,
    "institution.FeatureTracker.ingest": _after_ingest,
    "bus.EventBus.deliver_tick": _after_deliver,
}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced sample whose user operation took `wall_s`."""
    totals = tracer.span_totals()
    counters = tracer.counters
    metrics: dict[str, tuple[float, str]] = {}
    for name, entry in totals.items():
        metrics[f"{name}_s"] = (entry["s"], "s")
        metrics[f"{name}_self_s"] = (entry["self_s"], "s")
        metrics[f"{name}_calls"] = (entry["calls"], "count")
    phases = 0.0
    for agent in AGENTS:
        seconds = counters.get(f"phase.{agent}", 0.0)
        phases += seconds
        metrics[f"runtime.phase.{agent}_s"] = (seconds, "s")
    metrics["runtime.scheduler_self_s"] = (
        totals["runtime.run"]["s"] - phases - totals["runtime.PolicyDriver.step"]["s"],
        "s",
    )
    metrics["runtime.transcript_records"] = (counters.get("transcript_records", 0), "count")
    simulated = counters.get("events_simulated", 0)
    metrics["institution.ingest_events_per_sim_event"] = (
        counters.get("ingested_in_run", 0) / simulated if simulated else 0.0,
        "ratio",
    )
    metrics["bus.delivered_events"] = (counters.get("delivered_events", 0), "count")
    metrics["experiment.sweep_parallelism"] = (
        totals["experiment.run_experiment"]["s"] / wall_s,
        "ratio",
    )
    return metrics

