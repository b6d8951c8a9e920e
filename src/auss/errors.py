"""Exception hierarchy shared across the package."""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Mapping, TypeVar

_Config = TypeVar("_Config")


class AussError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AussError):
    """A configuration value is missing, unknown, or out of range."""


def _fits(kind: type, value: object) -> bool:
    """``value`` is of a default's type ``kind``: an int counts as a float, a bool as neither."""
    types = (int, float) if kind is float else kind
    return isinstance(value, types) and not isinstance(value, bool)


def is_finite(value: object) -> bool:
    """Whether ``value`` is an int or float that is finite as a float."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


#: How a refusal names a default's type: for one value, and for a list's entries.
_NAMES = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
}


def check_config_types(section: str, config: object) -> None:
    """ConfigError naming the first field of the dataclass ``config`` whose value breaks the rule
    of its default's type: an integer takes an integer, a float a number that is finite as a
    float, and a tuple a list (or tuple) of its entries' type."""
    for field in fields(config):  # type: ignore[arg-type]
        key, value, default = field.name, getattr(config, field.name), field.default
        is_list = isinstance(default, tuple)
        kind = type(default[0] if is_list else default)
        entries = value if is_list else (value,)
        if not isinstance(entries, (list, tuple)) or not all(_fits(kind, v) for v in entries):
            one, many = _NAMES[kind]
            expected = f"a list of {many}" if is_list else one
            raise ConfigError(f"{section} config {key} must be {expected}, got {value!r}")
        if kind is float and not all(is_finite(v) for v in entries):
            raise ConfigError(f"{key} must be finite, got {value!r}")


def read_config(cls: type[_Config], section: str, data: object) -> _Config:
    """``cls`` of the spec section ``section``'s JSON value: None (absent) means every default,
    anything else must be an object of ``cls``'s fields. A float with no fractional part is
    read as that integer where the field's default is an integer; ``cls`` checks the rest."""
    if data is None:
        return cls()
    if not isinstance(data, Mapping):
        raise ConfigError(f"{section} config must be a JSON object, got {data!r}")
    defaults = {field.name: field.default for field in fields(cls)}  # type: ignore[arg-type]
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {sorted(unknown)}")
    values = dict(data)
    for key, value in data.items():
        if isinstance(value, float) and value.is_integer() and _fits(int, defaults[key]):
            values[key] = int(value)
    return cls(**values)


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
