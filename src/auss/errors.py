"""Exception hierarchy shared across the package."""

from __future__ import annotations

from typing import Mapping


class AussError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AussError):
    """A configuration value is missing, unknown, or out of range."""


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_config_types(
    section: str, data: Mapping[str, object], defaults: Mapping[str, object]
) -> None:
    """ConfigError naming the keys of ``data`` without a default, else the
    first key whose value has the wrong type.

    Each key's default decides: an integer default takes an integer, a
    float default any number, a list default a list of numbers. A boolean
    is neither an integer nor a number here.
    """
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {sorted(unknown)}")
    for key, value in data.items():
        default = defaults[key]
        if isinstance(default, (list, tuple)):
            valid = isinstance(value, (list, tuple)) and all(_is_number(v) for v in value)
            expected = "a list of numbers"
        elif isinstance(default, int):
            valid = isinstance(value, int) and not isinstance(value, bool)
            expected = "an integer"
        else:
            valid = _is_number(value)
            expected = "a number"
        if not valid:
            raise ConfigError(f"{section} config {key} must be {expected}, got {value!r}")


class UnknownStudentError(AussError):
    """A student id was used that is not part of the cohort."""


class CohortFormatError(AussError):
    """A cohort interchange file is malformed.

    Carries the offending path and, when known, the 1-based line number.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


class UnknownSubscriberError(AussError):
    """Subscription attempted for a subscriber id never registered."""


class SchedulerProtocolError(AussError):
    """A scheduler-facing protocol was violated (e.g. duplicate tick delivery)."""


class PhaseDisciplineError(AussError):
    """An agent tried to publish outside its act phase."""


class AgentPhaseError(AussError):
    """An agent phase raised; identifies agent, tick, and phase."""

    def __init__(self, agent: str, tick: int, phase: str, cause: BaseException):
        self.agent = agent
        self.tick = tick
        self.phase = phase
        self.cause = cause
        super().__init__(f"agent {agent!r} failed in phase {phase!r} at tick {tick}: {cause!r}")

    def __reduce__(self):
        return type(self), (self.agent, self.tick, self.phase, self.cause)


class UntrainedModelError(AussError):
    """Prediction requested before the model was fitted."""


class InsufficientDataError(AussError):
    """Not enough (or not varied enough) labeled data to fit a model."""


class MetricInputError(AussError):
    """Metric inputs are empty or do not line up."""


class TranscriptError(AussError):
    """A transcript file is unusable."""


class TranscriptVersionError(TranscriptError):
    """Transcript was written by an incompatible format version."""


class TranscriptChecksumError(TranscriptError):
    """Transcript content does not match its recorded checksum."""


class StageError(AussError):
    """A pipeline stage failed; names the stage and chains the cause."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")

    def __reduce__(self):
        return type(self), (self.stage, self.cause)
