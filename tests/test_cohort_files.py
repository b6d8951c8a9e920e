"""Reading damaged cohort files: every failure is a CohortFormatError."""

from __future__ import annotations

import csv
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from auss.cohort_files import (
    ASSESSMENTS_FILE,
    EVENTS_FILE,
    GROUND_TRUTH_FILE,
    RESOURCES_FILE,
    STUDENTS_FILE,
    read_cohort,
    write_cohort,
)
from auss.domain import AssessmentRecord, Cohort
from auss.errors import CohortFormatError
from auss.synthetic import GeneratorConfig, generate_cohort

CSV_FILES = (STUDENTS_FILE, RESOURCES_FILE, ASSESSMENTS_FILE)
ALL_FILES = (*CSV_FILES, EVENTS_FILE, GROUND_TRUTH_FILE)
EVENT_FIELDS = ("student_id", "tick", "kind", "value", "resource_id")


@pytest.fixture(scope="module")
def cohort_bytes(tmp_path_factory) -> dict[str, bytes]:
    """The five files of an exported 5-student cohort with two assessments, by name."""
    cohort, _truth = generate_cohort(
        GeneratorConfig(n_students=5, n_resources=3, n_ticks=4, seed=11)
    )
    sid = cohort.students[0].student_id
    cohort = replace(
        cohort,
        assessments=(AssessmentRecord(sid, "q1", "42", 1.0), AssessmentRecord(sid, "q2", "x")),
    )
    directory = tmp_path_factory.mktemp("cohort")
    write_cohort(cohort, directory)
    return {name: (directory / name).read_bytes() for name in ALL_FILES}


def _write(directory: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        (directory / name).write_bytes(data)


def _replace_line(data: bytes, index: int, line: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[index] = line
    return b"\n".join(lines)


@pytest.mark.parametrize("name", ALL_FILES)
def test_invalid_utf8_rejected_with_line(tmp_path, cohort_bytes, name):
    line = cohort_bytes[name].split(b"\n")[1]
    damaged = _replace_line(cohort_bytes[name], 1, b"\xff" + line)
    _write(tmp_path, dict(cohort_bytes, **{name: damaged}))
    with pytest.raises(CohortFormatError, match="not valid UTF-8") as exc_info:
        read_cohort(tmp_path)
    assert exc_info.value.path == str(tmp_path / name)
    assert exc_info.value.line == 2


@pytest.mark.parametrize("name", CSV_FILES)
def test_cell_over_csv_field_limit_rejected(tmp_path, cohort_bytes, name):
    line = cohort_bytes[name].split(b"\n")[1]
    huge = b"x" * 200_000 + line[line.index(b",") :]
    _write(tmp_path, dict(cohort_bytes, **{name: _replace_line(cohort_bytes[name], 1, huge)}))
    with pytest.raises(CohortFormatError, match="field larger than field limit") as exc_info:
        read_cohort(tmp_path)
    assert exc_info.value.path == str(tmp_path / name)
    assert exc_info.value.line == 2


@pytest.mark.parametrize(
    "raw, needle",
    [("1" * 5001, "Exceeds the limit"), ("[" * 100_000, "maximum recursion depth")],
    ids=["5001-digit", "deep-nesting"],
)
def test_json_beyond_python_limits_rejected(tmp_path, cohort_bytes, raw, needle):
    record = json.loads(cohort_bytes[EVENTS_FILE].split(b"\n")[2])
    line = json.dumps(dict(record, tick="TICK")).replace('"TICK"', raw).encode()
    events = _replace_line(cohort_bytes[EVENTS_FILE], 2, line)
    _write(tmp_path, dict(cohort_bytes, **{EVENTS_FILE: events}))
    with pytest.raises(CohortFormatError, match=needle) as exc_info:
        read_cohort(tmp_path)
    assert exc_info.value.path == str(tmp_path / EVENTS_FILE)
    assert exc_info.value.line == 3


@pytest.mark.parametrize("tick", [2**63, -(2**63) - 1])
def test_tick_outside_64_bits_rejected(tmp_path, cohort_bytes, tick):
    record = json.loads(cohort_bytes[EVENTS_FILE].split(b"\n")[2])
    line = json.dumps(dict(record, tick=tick)).encode()
    events = _replace_line(cohort_bytes[EVENTS_FILE], 2, line)
    _write(tmp_path, dict(cohort_bytes, **{EVENTS_FILE: events}))
    with pytest.raises(CohortFormatError, match="outside the 64-bit integer range") as exc_info:
        read_cohort(tmp_path)
    assert exc_info.value.path == str(tmp_path / EVENTS_FILE)
    assert exc_info.value.line == 3


# -- fuzzing -------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def byte_edit(draw, files: dict[str, bytes]) -> dict[str, bytes]:
    """Flip, insert or truncate bytes in one file."""
    name = draw(st.sampled_from(ALL_FILES))
    data = files[name]
    at = draw(st.integers(0, len(data)))
    op = draw(st.sampled_from(["flip", "insert", "truncate"]))
    if op == "flip" and at < len(data):
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    elif op == "insert":
        data = data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
    else:
        data = data[:at]
    return dict(files, **{name: data})


@st.composite
def event_field_edit(draw, files: dict[str, bytes]) -> dict[str, bytes]:
    """Replace one field of one event line by an arbitrary JSON value."""
    lines = files[EVENTS_FILE].split(b"\n")
    index = draw(st.integers(0, len(lines) - 2))
    record = json.loads(lines[index])
    record[draw(st.sampled_from(EVENT_FIELDS))] = draw(json_values)
    lines[index] = json.dumps(record).encode()
    return dict(files, **{EVENTS_FILE: b"\n".join(lines)})


@st.composite
def csv_cell_edit(draw, files: dict[str, bytes]) -> dict[str, bytes]:
    """Replace one cell of one CSV file, header included, by arbitrary text."""
    name = draw(st.sampled_from(CSV_FILES))
    rows = list(csv.reader(io.StringIO(files[name].decode("utf-8"), newline="")))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    row[draw(st.integers(0, len(row) - 1))] = draw(st.text())
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return dict(files, **{name: out.getvalue().encode("utf-8")})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_cohort_reads_or_raises_cohort_format_error(cohort_bytes, data):
    edit = data.draw(st.sampled_from([byte_edit, event_field_edit, csv_cell_edit]))
    files = data.draw(edit(cohort_bytes))
    with tempfile.TemporaryDirectory() as directory:
        _write(Path(directory), files)
        try:
            assert isinstance(read_cohort(directory), Cohort)
        except CohortFormatError:
            pass
