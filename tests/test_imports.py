"""Every module-level import and private helper in ``src/auss`` is used by its module,
and so is every module-level import in ``tests``.

``__init__.py`` is exempt: its imports are the package's public re-exports.
A name counts as used when the module loads it anywhere; the modules use
``from __future__ import annotations``, so annotations need no quotes. A
private helper is a module-level function or class whose name starts with
one underscore; nothing outside its module should need it, so one that its
own module never loads is dead code, and no module in ``src/auss`` imports
another module's private name.

A public module-level name bound by assignment in ``src/auss`` (a constant
or type alias) is dead code when no file under ``src``, ``tests`` or
``perfbench`` loads it, as a bare name or as an attribute. So is a public
module-level function or class. ``perfbench/tracing.py`` names the functions
and methods it wraps as strings; each of its strings counts as a read. A
public method of a module-level class is read only as an attribute or as such
a string: a local variable of the same name does not read it.

Every field of a ``src/auss`` dataclass is read: some reader loads it as an
attribute, some string in a reader names it, or its class passes through
``asdict`` or ``fields`` (one of its methods passes ``self`` or ``cls``, or a
reader passes the class by name).

Importing the package, or its cohort-file module, loads no orjson: only
writing a transcript and reading events.jsonl import it. A simulation and
its cohort metrics load no ``numpy.ma``.
"""

from __future__ import annotations

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "auss"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))
READERS = [
    p for directory in (SRC, TESTS, TESTS.parent / "perfbench") for p in directory.rglob("*.py")
]
TRACING = TESTS.parent / "perfbench" / "tracing.py"


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for each import at module level, ``if`` blocks included."""
    bound: dict[str, int] = {}
    pending: list[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        f"{path.name}:{line} {name}"
        for name, line in _module_imports(tree).items()
        if name not in used
    )
    assert not unused, f"unused imports: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_private_helper(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in loaded
    )
    assert not unused, f"private helpers never loaded: {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = sorted(
        f"{path.name}:{node.lineno} {node.module or ''}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "auss")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )
    assert not private, f"imports of another module's private name: {private}"


@functools.cache
def _reads() -> tuple[frozenset[str], frozenset[str]]:
    """(names, methods) read: every name that some reader loads as a bare name
    or an attribute, and every name it loads as an attribute; both also hold
    every string in ``perfbench/tracing.py``, which names what it wraps."""
    bare, attributes = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif path == TRACING and isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return frozenset(bare | attributes), frozenset(attributes)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_constant_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = sorted(
        f"{path.name}:{node.lineno} {target.id}"
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and not target.id.startswith("_")
        and target.id not in _reads()[0]
    )
    assert not unread, f"public constants no file reads: {unread}"


def _public_defs(tree: ast.Module):
    """(line, name, label, names that read it) of each public module-level
    function and class, and of each public method of a module-level class
    (labelled ``Class.method``)."""
    names, methods = _reads()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.lineno, node.name, node.name, names
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.lineno, item.name, f"{node.name}.{item.name}", methods


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_function_class_and_method_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = sorted(
        f"{path.name}:{line} {label}"
        for line, name, label, read in _public_defs(tree)
        if name not in read
    )
    assert not unread, f"public functions, classes and methods no file reads: {unread}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _asdict_or_fields_argument(node: ast.AST) -> str | None:
    """The bare name a call ``asdict(name)`` or ``fields(name)`` passes, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("asdict", "fields")
        and node.args
        and isinstance(node.args[0], ast.Name)
    ):
        return node.args[0].id
    return None


@functools.cache
def _field_reads() -> tuple[frozenset[str], frozenset[str]]:
    """(names read, classes whose fields are all read): every attribute load
    and every string in a reader; and every class that one of its own methods
    passes to ``asdict`` or ``fields`` as ``self`` or ``cls``, or that a
    reader passes to either by name."""
    names, whole = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.ClassDef):
                passed = {_asdict_or_fields_argument(call) for call in ast.walk(node)}
                if passed & {"self", "cls"}:
                    whole.add(node.name)
            elif (name := _asdict_or_fields_argument(node)) is not None:
                whole.add(name)
    return frozenset(names), frozenset(whole)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_field_is_read(path):
    names, whole = _field_reads()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = sorted(
        f"{path.name}:{item.lineno} {node.name}.{item.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node) and node.name not in whole
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id not in names
    )
    assert not unread, f"dataclass fields no file reads: {unread}"


@pytest.mark.parametrize("module", ["auss", "auss.cohort_files"])
def test_import_leaves_orjson_unloaded(module):
    code = f"import sys, {module}; print('orjson' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n"


def test_run_leaves_numpy_ma_unloaded():
    # numpy 2.4's np.unique(ar) imports numpy.ma (about 10 ms) through np.ma.is_masked.
    code = (
        "import sys\n"
        "from auss.experiment import (\n"
        "    EvaluationConfig, ExperimentSpec, _cohort_metrics, load_experiment_cohort, simulate,\n"
        ")\n"
        "from auss.policy import PolicyConfig\n"
        "from auss.runtime import SchedulerConfig\n"
        "from auss.synthetic import GeneratorConfig\n"
        "spec = ExperimentSpec(\n"
        "    generator=GeneratorConfig(n_students=30, n_resources=6, n_ticks=12, seed=5),\n"
        "    scheduler=SchedulerConfig(max_ticks=12, rng_seed=5),\n"
        "    policy=PolicyConfig(rng_seed=5),\n"
        "    evaluation=EvaluationConfig(quiz_items=5, recommend_neighborhood=5),\n"
        ")\n"
        "cohort = load_experiment_cohort(spec)\n"
        "simulate(cohort, spec)\n"
        "_cohort_metrics(cohort, spec)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n"
