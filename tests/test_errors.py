"""Every error of the package survives pickling, as a process pool's result must."""

from __future__ import annotations

import pickle

import pytest

import auss.errors as errors_module
from auss.errors import (
    AgentPhaseError,
    AussError,
    CohortFormatError,
    MetricInputError,
    StageError,
)


def _subclasses(cls: type) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub, *_subclasses(sub)}
    return found


#: One instance of each error; those with their own constructors get its arguments.
EXAMPLES = {
    CohortFormatError: CohortFormatError("bad tick", path="events.jsonl", line=3),
    AgentPhaseError: AgentPhaseError("student_agent", 7, "act", ValueError("boom")),
    StageError: StageError("evaluate", MetricInputError("no dropouts")),
}


def _example(cls: type) -> AussError:
    return EXAMPLES.get(cls) or cls(f"a {cls.__name__}")


def _state(error: BaseException) -> tuple:
    attributes = {
        key: (type(value), value.args) if isinstance(value, BaseException) else value
        for key, value in vars(error).items()
    }
    return type(error), str(error), error.args, attributes


def test_examples_cover_every_error_of_the_package():
    package_errors = {
        cls
        for cls in vars(errors_module).values()
        if isinstance(cls, type) and issubclass(cls, AussError)
    }
    assert _subclasses(AussError) | {AussError} == package_errors


@pytest.mark.parametrize(
    "cls", sorted(_subclasses(AussError) | {AussError}, key=lambda cls: cls.__name__)
)
def test_round_trips_with_its_attributes(cls):
    error = _example(cls)
    restored = pickle.loads(pickle.dumps(error))
    assert _state(restored) == _state(error)


def test_stage_error_keeps_its_cause():
    restored = pickle.loads(pickle.dumps(EXAMPLES[StageError]))
    assert restored.stage == "evaluate"
    assert isinstance(restored.cause, MetricInputError)
    assert str(restored) == "stage 'evaluate' failed: no dropouts"
