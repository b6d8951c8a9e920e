"""Reading damaged cohort files: every failure is a CohortFormatError."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from auss import cohort_files, forking
from auss.cohort_files import (
    ASSESSMENTS_FILE,
    EVENTS_FILE,
    GROUND_TRUTH_FILE,
    RESOURCES_FILE,
    STUDENTS_FILE,
    read_cohort,
    write_cohort,
)
from auss.domain import AssessmentRecord, Cohort, EventColumns, EventKind
from auss.errors import CohortFormatError
from auss.synthetic import GeneratorConfig, generate_cohort

from conftest import assert_no_child_process
from oracles import json_events_reader

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


@pytest.mark.parametrize("name", ALL_FILES)
def test_directory_in_place_of_a_file_rejected(tmp_path, cohort_bytes, name):
    _write(tmp_path, {other: data for other, data in cohort_bytes.items() if other != name})
    (tmp_path / name).mkdir()
    with pytest.raises(CohortFormatError, match="cannot open: ") as exc_info:
        read_cohort(tmp_path)
    assert exc_info.value.path == str(tmp_path / name)
    assert exc_info.value.line is None


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


def test_integer_value_past_float_range_rejected(tmp_path, cohort_bytes):
    huge = 10**400
    record = json.loads(cohort_bytes[EVENTS_FILE].split(b"\n")[2])
    damaged = json.dumps(dict(record, value=huge)).encode()
    events = _replace_line(cohort_bytes[EVENTS_FILE], 2, damaged)
    truth = json.loads(cohort_bytes[GROUND_TRUTH_FILE])
    sid = next(iter(truth["abilities"]))
    truth["abilities"][sid] = huge
    for name, data, line in (
        (EVENTS_FILE, events, 3),
        (GROUND_TRUTH_FILE, json.dumps(truth).encode(), None),
    ):
        _write(tmp_path, dict(cohort_bytes, **{name: data}))
        with pytest.raises(CohortFormatError, match="integer too large for a float") as exc_info:
            read_cohort(tmp_path)
        assert exc_info.value.path == str(tmp_path / name)
        assert exc_info.value.line == line


# -- the writer-spelling fast path against the json.loads oracle --------------

KINDS = [kind.value for kind in EventKind]

#: JSON text for each field as the writer spells it, for ids the cohort has
#: and ids it lacks, escaped or not.
writer_tokens = {
    "kind": st.sampled_from(KINDS).map(json.dumps),
    "resource_id": st.one_of(
        st.just("null"), st.sampled_from(["r000", "r002", "new"]).map(json.dumps)
    ),
    "student_id": st.one_of(
        st.sampled_from(["s0000", "s0004", "new", ""]), st.text(max_size=4)
    ).map(json.dumps),
    "tick": st.one_of(
        st.integers(0, 60), st.sampled_from([10**17, 10**18 - 1, -(10**18 - 1)])
    ).map(str),
    "value": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]),
    ).map(repr),
}
#: Other JSON text for each field that the reader accepts. ``json.loads``
#: reads an integer-spelled value as an int, so ``-0`` is 0.0 where
#: ``float("-0")`` is -0.0.
other_tokens = {
    "kind": st.just('"log\\u0069n"'),
    "resource_id": st.one_of(
        st.text(max_size=4).map(lambda text: json.dumps(text, ensure_ascii=False)),
        st.sampled_from(["7", "-0", "1.5", "true", "[1]", "{}"]),
    ),
    "student_id": st.one_of(
        st.text(max_size=4).map(lambda text: json.dumps(text, ensure_ascii=False)),
        st.sampled_from(["7", "-0", "1.5", "true", "null", "[1]", "{}"]),
    ),
    "tick": st.sampled_from(
        ["-0", "3.0", "1e2", "-0.0", str(10**18), str(2**63 - 1), str(-(2**63))]
    ),
    "value": st.one_of(
        st.integers(-(10**20), 10**20).map(str),
        st.sampled_from(
            ["3", "-0", "0", "1E5", "0.5E-2", "1e999", "-1e999", "NaN", "Infinity",
             str(10**300)]
        ),
    ),
}
#: JSON text for each field that the reader rejects, or that is not JSON;
#: ``float`` and ``int`` would take the Arabic-Indic digits U+0663 and U+0665.
bad_tokens = {
    "kind": st.sampled_from(['"bogus"', '"Login"', '""', "5", "null", '["login"]']),
    "resource_id": st.sampled_from(['"a\x01b"', '"\x1f"', '"tab\there"', '"a"b"', '"a\\qb"']),
    "student_id": st.sampled_from(['"a\x00"', '"\x7f\x1b"', '"\x0c"', '"a\\"', "s0000"]),
    "tick": st.sampled_from(
        [str(2**63), str(-(2**63) - 1), str(10**19), "1.5", "01", '"3"', "true", "null",
         "NaN", "-Infinity", "1e400", "0x10", "1\u0663"]
    ),
    "value": st.sampled_from(
        ['"0.5"', "true", "null", str(10**400), "00.5", ".5", "1.", "-", "2.5e", "+1.5",
         "[]", "0.\u0665"]
    ),
}


def _token(draw, field: str) -> str:
    """JSON text for one field: the writer's spelling four times in five."""
    other = draw(st.sampled_from([False] * 4 + [True]))
    return draw((other_tokens if other else writer_tokens)[field])


@st.composite
def event_line(draw, damaged: bool) -> str:
    """One events.jsonl line: mostly in the writer's spelling, otherwise
    reordered, spaced or with a duplicate key; when ``damaged``, one field
    is bad or the object's shape is wrong."""
    tokens = {field: _token(draw, field) for field in sorted(EVENT_FIELDS)}
    if damaged:
        shape = draw(st.sampled_from(["bad field"] * 3 + ["missing", "extra", "not object"]))
        if shape == "bad field":
            field = draw(st.sampled_from(sorted(EVENT_FIELDS)))
            tokens[field] = draw(bad_tokens[field])
        elif shape == "missing":
            del tokens[draw(st.sampled_from(sorted(tokens)))]
        elif shape == "extra":
            tokens["extra"] = "1"
        else:
            return draw(st.sampled_from(["[1]", "null", "{", '"x"', "{}", "}{"]))
    layout = draw(st.sampled_from(["writer"] * 6 + ["reordered", "spaced", "duplicate"]))
    pairs = [f'"{field}":{token}' for field, token in tokens.items()]
    if layout == "reordered":
        pairs = draw(st.permutations(pairs))
    elif layout == "duplicate":
        field = draw(st.sampled_from(sorted(tokens)))
        token = _token(draw, field) if field in writer_tokens else "1"
        pairs.insert(draw(st.integers(0, len(pairs))), f'"{field}":{token}')
    separator = ", " if layout == "spaced" else ","
    padding = draw(st.sampled_from(["", "", " ", "\t"]))
    return padding + "{" + separator.join(pairs) + "}" + padding


@st.composite
def events_text(draw) -> str:
    """An events.jsonl file of up to 8 lines and blank lines; at most one is damaged."""
    lines = draw(st.lists(st.one_of(event_line(False), st.just("")), min_size=1, max_size=8))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(event_line(True)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _read_outcome(read) -> tuple:
    """The five columns as bytes and the id tables, or the error's text and place."""
    try:
        columns = read()
    except CohortFormatError as exc:
        return ("error", str(exc), exc.path, exc.line)
    student, tick, kind, value, resource, student_ids, resource_ids = columns
    return (
        np.asarray(student, dtype=np.intp).tobytes(),
        np.asarray(tick, dtype=np.int64).tobytes(),
        np.asarray(kind, dtype=np.int8).tobytes(),
        np.asarray(value, dtype=float).tobytes(),
        np.asarray(resource, dtype=np.intp).tobytes(),
        tuple(student_ids),
        tuple(resource_ids),
    )


def _package_columns(directory: Path) -> tuple:
    events = read_cohort(directory).event_columns
    return (
        events.student, events.tick, events.kind, events.value, events.resource,
        events.student_ids, events.resource_ids,
    )


@pytest.fixture(scope="module")
def cohort_ids(cohort_bytes, tmp_path_factory) -> tuple[tuple[str, ...], list[str]]:
    """The student and resource ids of the ``cohort_bytes`` cohort, in file order."""
    directory = tmp_path_factory.mktemp("ids")
    _write(directory, cohort_bytes)
    cohort = read_cohort(directory)
    return cohort.student_ids, [r.resource_id for r in cohort.resources]


def _writer_line(**tokens: str) -> str:
    """A writer-spelled line with the given fields' JSON text in place of the defaults."""
    fields = {
        "kind": '"login"', "resource_id": "null", "student_id": '"s0000"', "tick": "0",
        "value": "0.5", **tokens,
    }
    return "{" + ",".join(f'"{field}":{token}' for field, token in fields.items()) + "}"


def _lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


_LINE = _writer_line()
#: Line 1 ends inside a student id that line 2 closes, and line 3 holds two
#: objects: joined into one JSON array, the three lines read as three events.
SPANNING_LINES = _lines(
    '{"kind":"login","resource_id":null,"student_id":"s}',
    '{x","tick":1,"value":0.5}',
    _LINE + "," + _LINE,
)
#: A lone carriage return ends a line for the text reader; JSON reads it as a space.
LONE_CR_IN_LINE = _lines(_LINE.replace(",", ",\r", 1))
LONE_CR_BETWEEN_LINES = _LINE + "\r" + _writer_line(tick="1")
CRLF_LINES = _LINE + "\r\n" + _writer_line(tick="1") + "\r\n"
BOM_FIRST = ("\ufeff" + _lines(_LINE)).encode("utf-8")
#: Characters ``str.splitlines`` splits at: before a line, on a line of their own, after one.
UNICODE_BREAKS = "\x0c" + _LINE + "\n\x85\n" + _LINE + "\u2028\n" + _writer_line(kind='"bogus"')
#: A JSON error at line 2, then a byte that is not UTF-8 inside and beyond the
#: text reader's first 8 KB block.
JSON_ERROR_THEN_BAD_BYTE_NEAR = (_lines(_LINE, "{") + _lines(_LINE) * 3).encode() + b"\xff\n"
JSON_ERROR_THEN_BAD_BYTE_FAR = (_lines(_LINE, "{") + _lines(_LINE) * 200).encode() + b"\xff\n"
#: Halfway between two doubles: reads as the float of the integer, rounded to even.
TIE_ROUNDING_INTEGER = str(2**64 + 2**11)
DUPLICATE_KEY = _writer_line(tick="1")[:-1] + ',"tick":3}'
EXTRA_FIELD = _writer_line(extra="1")
FIVE_ELEMENT_ARRAY = "[1,2,3,4,5]"
#: An object opened on line 1 and closed on line 2, and two objects on line 3.
MEMBER_ACROSS_LINES = _lines(
    '{"kind":"login","resource_id":null',
    '"student_id":"s0000","tick":1,"value":0.5}',
    _LINE + "," + _LINE,
)
#: An array opened on line 1 and closed on line 2, each line with an object.
ARRAY_ACROSS_LINES = _lines(_LINE + ",[1", "2]," + _LINE)
#: A string opened on line 1 and closed on line 2, and two objects with a 0
#: between them on line 3.
STRING_ACROSS_LINES = _lines(
    '{"kind":"login","resource_id":null,"student_id":"s}',
    '{x","tick":1,"value":0.5}',
    _LINE + ",0," + _LINE,
)


@settings(max_examples=400, deadline=None)
@given(text=events_text())
@example(text=_writer_line(value="-0"))
@example(text=_writer_line(resource_id='"a\x01b"'))
@example(text=_writer_line(tick="1\u0663"))
@example(text=_writer_line(value="0.\u0665"))
@example(text=SPANNING_LINES)
@example(text=MEMBER_ACROSS_LINES)
@example(text=ARRAY_ACROSS_LINES)
@example(text=STRING_ACROSS_LINES)
@example(text=LONE_CR_IN_LINE)
@example(text=LONE_CR_BETWEEN_LINES)
@example(text=CRLF_LINES)
@example(text=BOM_FIRST)
@example(text=UNICODE_BREAKS)
@example(text=JSON_ERROR_THEN_BAD_BYTE_NEAR)
@example(text=JSON_ERROR_THEN_BAD_BYTE_FAR)
@example(text=_writer_line(tick=str(2**64)))
@example(text=_writer_line(tick=str(-(2**63) - 1)))
@example(text=_writer_line(tick=TIE_ROUNDING_INTEGER))
@example(text=_writer_line(value=str(2**64)))
@example(text=_writer_line(value=str(-(2**63) - 1)))
@example(text=_writer_line(value=TIE_ROUNDING_INTEGER))
@example(text=_writer_line(tick=str(2**63)))
@example(text=_writer_line(value="NaN"))
@example(text=_writer_line(value="1e400"))
@example(text=_writer_line(student_id='"\\ud800"'))
@example(text=DUPLICATE_KEY)
@example(text=_writer_line(tick="true"))
@example(text=_writer_line(value="true"))
@example(text=_writer_line(value="1"))
@example(text=_writer_line(student_id="5"))
@example(text=_writer_line(resource_id="7"))
@example(text=_writer_line(kind='"bogus"'))
@example(text=_writer_line(kind='["login"]'))
@example(text=EXTRA_FIELD)
@example(text=FIVE_ELEMENT_ARRAY)
@example(text=_lines(_LINE, "", "  ", _LINE))
@example(text=_LINE)
@example(text="")
def test_events_reader_matches_json_oracle(cohort_bytes, cohort_ids, text):
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        _write(directory, dict(cohort_bytes, **{EVENTS_FILE: data}))
        expected = _read_outcome(lambda: json_events_reader(directory / EVENTS_FILE, *cohort_ids))
        assert _read_outcome(lambda: _package_columns(directory)) == expected


def test_orjson_reads_as_the_events_pass_assumes():
    """The whole-file pass relies on these readings: what orjson refuses goes
    to the line-by-line reader, an integer past 64 bits fails the int-tick
    rule, and a float is the double ``json.loads`` gives. An orjson that read
    any of them otherwise would change what the pass accepts."""
    for text in (b"NaN", b"Infinity", b"1e400", b'"\\ud800"', b"\xff", b"\xef\xbb\xbf{}"):
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)
    for number in (2**64, -(2**63) - 1):
        read = orjson.loads(str(number))
        assert type(read) is float and read == float(number)
    # Halfway between two doubles and just past it; halfway to and past 5e-324.
    for text in (
        "1.00000000000000011102230246251565404236316680908203125",
        "1.00000000000000011102230246251565404236316680908203126",
        "2.4703282292062327e-324",
        "2.4703282292062328e-324",
    ):
        assert orjson.loads(text) == float(text)
    assert orjson.loads(b'{"tick":1,"tick":2}') == {"tick": 2}
    assert orjson.loads(b'\r{"tick":1}\r') == {"tick": 1}
    with pytest.raises(orjson.JSONDecodeError):  # the block's line ends stay out of strings
        orjson.loads(b'["a,\n0,b"]')


@settings(max_examples=200, deadline=None)
@given(text=events_text(), block_bytes=st.integers(1, 64))
def test_events_reader_matches_json_oracle_across_block_boundaries(
    cohort_bytes, cohort_ids, text, block_bytes
):
    """The whole-file pass reads blocks of whole lines; with blocks of a
    few bytes, block ends fall next to new ids and next to a line it refuses."""
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        directory = Path(directory)
        patch.setattr(cohort_files, "_BLOCK_BYTES", block_bytes)
        _write(directory, dict(cohort_bytes, **{EVENTS_FILE: text.encode("utf-8")}))
        expected = _read_outcome(lambda: json_events_reader(directory / EVENTS_FILE, *cohort_ids))
        assert _read_outcome(lambda: _package_columns(directory)) == expected


# -- the back half of events.jsonl in a forked child ------------------------------

NEW_ID_IN_THE_BACK_HALF = _lines(_LINE, _LINE, _writer_line(student_id='"new"'), _LINE)
#: Split after line 2, the front half adds "new" and the back half adds
#: "other" before it names "new" again.
NEW_IDS_ON_BOTH_SIDES = _lines(
    _writer_line(student_id='"new"'),
    _LINE,
    _writer_line(student_id='"other"', resource_id='"r9"'),
    _writer_line(student_id='"new"', resource_id='"r002"'),
)
REFUSED_IN_THE_FRONT_HALF = _lines(_writer_line(value="1"), _LINE, _writer_line(tick="2"))
REFUSED_IN_THE_BACK_HALF = _lines(_LINE, _LINE, _writer_line(kind='"bogus"'))


@settings(max_examples=150, deadline=None)
@given(
    text=events_text(),
    block_bytes=st.integers(1, 64),
    split_line=st.one_of(st.none(), st.integers(1, 10)),
)
@example(text=NEW_ID_IN_THE_BACK_HALF, block_bytes=64, split_line=2)
@example(text=NEW_ID_IN_THE_BACK_HALF, block_bytes=64, split_line=3)
@example(text=NEW_IDS_ON_BOTH_SIDES, block_bytes=64, split_line=2)
@example(text=NEW_IDS_ON_BOTH_SIDES, block_bytes=64, split_line=None)
@example(text=REFUSED_IN_THE_FRONT_HALF, block_bytes=64, split_line=1)
@example(text=REFUSED_IN_THE_FRONT_HALF, block_bytes=8, split_line=2)
@example(text=REFUSED_IN_THE_BACK_HALF, block_bytes=64, split_line=1)
@example(text=REFUSED_IN_THE_BACK_HALF, block_bytes=8, split_line=2)
@example(text=SPANNING_LINES, block_bytes=64, split_line=2)
def test_split_read_matches_json_oracle(
    cohort_bytes, cohort_ids, text, block_bytes, split_line
):
    """The back half goes to a forked child at any line start (the line
    ``split_line`` ends), or at the middle byte with ``split_line`` None;
    new ids and refused lines fall on either side of it."""
    data = text.encode("utf-8")
    line_starts = [i + 1 for i in range(len(data) - 1) if data[i] == ord("\n")]
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        directory = Path(directory)
        patch.setattr(forking, "fork_worthwhile", lambda: True)
        patch.setattr(cohort_files, "_BLOCK_BYTES", block_bytes)
        if split_line is None:
            patch.setattr(cohort_files, "_SPLIT_FLOOR_BYTES", 0)
        elif line_starts:
            split = line_starts[(split_line - 1) % len(line_starts)]
            patch.setattr(cohort_files, "_back_half_start", lambda fh: split)
        _write(directory, dict(cohort_bytes, **{EVENTS_FILE: data}))
        expected = _read_outcome(lambda: json_events_reader(directory / EVENTS_FILE, *cohort_ids))
        assert _read_outcome(lambda: _package_columns(directory)) == expected
    assert_no_child_process()


def _split_cohort(directory: Path) -> Cohort:
    """A generated cohort, written to ``directory``; reads of it are split."""
    cohort, _truth = generate_cohort(
        GeneratorConfig(n_students=60, n_resources=6, n_ticks=12, seed=5)
    )
    write_cohort(cohort, directory)
    return cohort


class TestNoProcessOutlivesARead:
    """Whatever a split read meets, its child is reaped before ``read_cohort`` returns or raises."""

    @pytest.fixture(autouse=True)
    def splitting(self, monkeypatch):
        monkeypatch.setattr(forking, "fork_worthwhile", lambda: True)
        monkeypatch.setattr(cohort_files, "_SPLIT_FLOOR_BYTES", 0)

    @pytest.mark.parametrize("bad_assessments", [False, True])
    @pytest.mark.parametrize("half", ["front", "back"])
    def test_after_a_refused_half(self, tmp_path, half, bad_assessments):
        # The events.jsonl fault is reported even with a bad assessments.csv,
        # which is read before a refused front half is read line by line.
        _split_cohort(tmp_path)
        path = tmp_path / EVENTS_FILE
        lines = path.read_bytes().split(b"\n")
        index = 1 if half == "front" else len(lines) - 2
        path.write_bytes(_replace_line(path.read_bytes(), index, b"{}"))
        if bad_assessments:
            (tmp_path / ASSESSMENTS_FILE).write_text("student_id,item_id\n")
        with pytest.raises(CohortFormatError, match="missing fields") as exc_info:
            read_cohort(tmp_path)
        assert (exc_info.value.path, exc_info.value.line) == (str(path), index + 1)
        assert_no_child_process()

    def test_after_a_child_exiting_nonzero(self, tmp_path, monkeypatch):
        cohort = _split_cohort(tmp_path)
        statuses = []
        waitpid = os.waitpid

        def recording_waitpid(pid, options):
            result = waitpid(pid, options)
            statuses.append(os.waitstatus_to_exitcode(result[1]))
            return result

        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        monkeypatch.setattr(cohort_files, "_back_half_columns", lambda *args: os._exit(3))
        back = read_cohort(tmp_path)
        assert statuses == [3]
        assert _columns_bytes(back.event_columns) == _columns_bytes(cohort.event_columns)
        assert_no_child_process()

    def test_after_an_interrupt_in_the_front_half(self, tmp_path, monkeypatch):
        _split_cohort(tmp_path)
        parent = os.getpid()
        extend_checked = cohort_files._extend_checked

        def interrupted(events, block, loads):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return extend_checked(events, block, loads)

        monkeypatch.setattr(cohort_files, "_extend_checked", interrupted)
        with pytest.raises(KeyboardInterrupt):
            read_cohort(tmp_path)
        assert_no_child_process()

    def test_after_a_fork_warning_made_an_error(self, tmp_path, monkeypatch):
        # As in the metrics worker's test: pyproject.toml makes Python 3.12+'s
        # warning on a fork from a multi-threaded process an error.
        _split_cohort(tmp_path)
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(
                    f"This process (pid={os.getpid()}) is multi-threaded, "
                    "use of fork() may lead to deadlocks in the child.",
                    DeprecationWarning,
                )
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with pytest.raises(DeprecationWarning, match="multi-threaded"):
            read_cohort(tmp_path)
        assert_no_child_process()


# -- every line the writer writes takes the fast path ---------------------------


def _columns_bytes(events: EventColumns) -> tuple:
    return (
        *(column.tobytes() for column in (events.student, events.tick, events.kind, events.value)),
        events.resource.tobytes(),
        events.student_ids,
        events.resource_ids,
    )


def _round_trip_without_fallback(cohort: Cohort, directory: Path) -> Cohort:
    """Write ``cohort`` and read it back; a file the whole-file pass refuses,
    or a line read with json.loads, fails."""

    def line_by_line(path, student_ids, resource_ids):
        raise AssertionError(f"{path} was read line by line")

    def fallback(events, line, path, line_no):
        raise AssertionError(f"line {line_no} took the json.loads path: {line}")

    write_cohort(cohort, directory)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohort_files, "_read_json_events", line_by_line)
        patch.setattr(cohort_files, "_append_json_event", fallback)
        return read_cohort(directory)


def test_generated_cohort_round_trips_on_the_fast_path(tmp_path):
    cohort, _truth = generate_cohort(
        GeneratorConfig(n_students=200, n_resources=6, n_ticks=12, seed=3)
    )
    back = _round_trip_without_fallback(cohort, tmp_path)
    assert _columns_bytes(back.event_columns) == _columns_bytes(cohort.event_columns)
    assert back == cohort


def test_generated_cohort_round_trips_split_with_the_back_half_from_the_child(
    tmp_path, monkeypatch
):
    cohort, _truth = generate_cohort(
        GeneratorConfig(n_students=200, n_resources=6, n_ticks=12, seed=3)
    )
    monkeypatch.setattr(forking, "fork_worthwhile", lambda: True)
    monkeypatch.setattr(cohort_files, "_SPLIT_FLOOR_BYTES", 0)
    parent = os.getpid()
    parsed = []  # (start, stop) of each byte range this process parses
    read_blocks = cohort_files._read_blocks

    def recorded(fh, stop, *args):
        if os.getpid() == parent:
            parsed.append((fh.tell(), stop))
        return read_blocks(fh, stop, *args)

    monkeypatch.setattr(cohort_files, "_read_blocks", recorded)
    back = _round_trip_without_fallback(cohort, tmp_path)
    data = (tmp_path / EVENTS_FILE).read_bytes()
    split = data.index(b"\n", len(data) // 2) + 1
    assert parsed == [(0, split)]
    assert _columns_bytes(back.event_columns) == _columns_bytes(cohort.event_columns)
    assert back == cohort
    assert_no_child_process()


def test_a_failed_child_sends_the_whole_file_line_by_line(tmp_path, monkeypatch):
    cohort, _truth = generate_cohort(
        GeneratorConfig(n_students=200, n_resources=6, n_ticks=12, seed=3)
    )
    write_cohort(cohort, tmp_path)
    monkeypatch.setattr(forking, "fork_worthwhile", lambda: True)
    monkeypatch.setattr(cohort_files, "_SPLIT_FLOOR_BYTES", 0)
    monkeypatch.setattr(cohort_files, "_back_half_columns", lambda *args: os._exit(3))
    parent = os.getpid()
    parsed = []  # (start, stop) of each byte range this process parses by blocks
    line_by_line = []
    read_blocks, read_json_events = cohort_files._read_blocks, cohort_files._read_json_events

    def recorded_blocks(fh, stop, *args):
        if os.getpid() == parent:
            parsed.append((fh.tell(), stop))
        return read_blocks(fh, stop, *args)

    def recorded_json_events(path, *args):
        line_by_line.append(path)
        return read_json_events(path, *args)

    monkeypatch.setattr(cohort_files, "_read_blocks", recorded_blocks)
    monkeypatch.setattr(cohort_files, "_read_json_events", recorded_json_events)
    back = read_cohort(tmp_path)
    data = (tmp_path / EVENTS_FILE).read_bytes()
    split = data.index(b"\n", len(data) // 2) + 1
    assert parsed == [(0, split)]
    assert line_by_line == [tmp_path / EVENTS_FILE]
    assert _columns_bytes(back.event_columns) == _columns_bytes(cohort.event_columns)
    assert_no_child_process()


finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, -0.0, 1e-05, 1e16, 1.7976931348623157e308]),
)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(-(10**18) + 1, 10**18 - 1),
            st.sampled_from(list(EventKind)),
            finite_values,
            st.integers(-1, 2),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_written_values_round_trip_on_the_fast_path(cohort_bytes, cohort_ids, rows):
    student_ids, resource_ids = cohort_ids
    student, tick, kind, value, resource = zip(*rows)
    events = EventColumns(
        np.array(student, dtype=np.intp),
        np.array(tick, dtype=np.int64),
        np.array([k.code for k in kind], dtype=np.int8),
        np.array(value, dtype=float),
        np.array(resource, dtype=np.intp),
        tuple(student_ids),
        tuple(resource_ids),
    )
    with tempfile.TemporaryDirectory() as directory:
        _write(Path(directory), cohort_bytes)
        cohort = replace(read_cohort(directory), events=events)
        back = _round_trip_without_fallback(cohort, Path(directory))
    assert _columns_bytes(back.event_columns) == _columns_bytes(events)
