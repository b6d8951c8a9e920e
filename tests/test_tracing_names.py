"""Every name ``perfbench/tracing.py`` wraps still resolves in ``auss``.

The tracer looks its targets up by string when it installs, so a rename
in ``auss`` would otherwise surface only as a failed traced benchmark run.
Here each entry fails on its own, under its span name.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "name, owner, attr",
    tracing.FUNCTIONS + tracing.CALL_SITES,
    ids=[name for name, *_ in tracing.FUNCTIONS + tracing.CALL_SITES],
)
def test_traced_function_resolves(name, owner, attr):
    assert callable(getattr(importlib.import_module(owner), attr, None)), (
        f"{name}: {owner}.{attr} is not a function"
    )


@pytest.mark.parametrize(
    "name, owner, cls_name, attr", tracing.METHODS, ids=[name for name, *_ in tracing.METHODS]
)
def test_traced_method_is_defined_on_its_class(name, owner, cls_name, attr):
    cls = getattr(importlib.import_module(owner), cls_name, None)
    assert isinstance(cls, type), f"{name}: {owner}.{cls_name} is not a class"
    # The tracer replaces cls.__dict__[attr]; an inherited method would not be there.
    assert attr in cls.__dict__, f"{name}: {cls_name}.{attr} is not defined on the class"
