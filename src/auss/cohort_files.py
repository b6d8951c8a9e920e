"""Cohort interchange files: students.csv, resources.csv, events.jsonl,
assessments.csv, and ground_truth.json.

Column and field names are frozen (documented in FORMATS.md); unknown
event fields and malformed values are rejected with the offending line.
Floats are written with repr so a round-trip reproduces them exactly.
Events and assessments are written from, and read straight into, the
cohort's columns; no per-event or per-assessment object is built. Events
are read in one orjson pass; a file it refuses is read line by line.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .domain import (
    AssessmentColumns,
    Cohort,
    EventColumns,
    EventColumnsBuilder,
    EventKind,
    GroundTruth,
    LearningResource,
    StudentRecord,
)
from .errors import CohortFormatError

STUDENTS_FILE = "students.csv"
RESOURCES_FILE = "resources.csv"
EVENTS_FILE = "events.jsonl"
ASSESSMENTS_FILE = "assessments.csv"
GROUND_TRUTH_FILE = "ground_truth.json"

_EVENT_FIELDS = {"student_id", "tick", "kind", "value", "resource_id"}
_ASSESSMENT_COLUMNS = ["student_id", "item_id", "response", "score"]
_RESOURCE_COLUMNS = ["resource_id", "topic_tag", "difficulty"]
_INT64 = np.iinfo(np.int64)


def write_cohort(cohort: Cohort, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    feature_names = sorted({name for s in cohort.students for name in s.static_features})
    with (directory / STUDENTS_FILE).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "enrollment_tick", *feature_names])
        for student in cohort.students:
            row = [student.student_id, str(student.enrollment_tick)]
            for name in feature_names:
                value = student.static_features.get(name)
                row.append("" if value is None else repr(float(value)))
            writer.writerow(row)

    with (directory / RESOURCES_FILE).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESOURCE_COLUMNS)
        for resource in cohort.resources:
            writer.writerow([resource.resource_id, resource.topic_tag, repr(resource.difficulty)])

    with (directory / EVENTS_FILE).open("w", encoding="utf-8", newline="\n") as fh:
        _write_events(fh, cohort.event_columns)

    with (directory / ASSESSMENTS_FILE).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ASSESSMENT_COLUMNS)
        writer.writerows(
            (sid, item, response, "" if score is None else repr(score))
            for sid, item, response, score in cohort.assessment_columns.rows()
        )

    if cohort.ground_truth is not None:
        write_ground_truth(cohort.ground_truth, directory / GROUND_TRUTH_FILE)


#: Events written per chunk, which bounds the text held in memory at once.
_EVENT_CHUNK = 8192


def _write_events(fh: TextIO, events: EventColumns) -> None:
    """One JSON object per event, in stream order, keys sorted, no spaces.

    The same text as ``json.dumps(record, sort_keys=True, separators=(",", ":"))``:
    ids and kinds are encoded once per table entry, and a value is its
    ``repr`` (``json.dumps`` spells a non-finite value its own way).
    """
    kinds = [json.dumps(kind.value) for kind in EventKind]
    students = [json.dumps(sid) for sid in events.student_ids]
    resources = [json.dumps(rid) for rid in events.resource_ids] + ["null"]  # [-1] is "none"
    number = repr if np.isfinite(events.value).all() else json.dumps
    for first in range(0, len(events), _EVENT_CHUNK):
        chunk = events.take(slice(first, first + _EVENT_CHUNK))
        fh.write(
            "".join(
                f'{{"kind":{kinds[k]},"resource_id":{resources[r]},'
                f'"student_id":{students[s]},"tick":{t},"value":{number(v)}}}\n'
                for s, t, k, v, r in zip(
                    chunk.student.tolist(),
                    chunk.tick.tolist(),
                    chunk.kind.tolist(),
                    chunk.value.tolist(),
                    chunk.resource.tolist(),
                )
            )
        )


def write_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    data = {
        "abilities": {sid: value for sid, value in truth.abilities.items()},
        "preference_rankings": {sid: list(r) for sid, r in truth.preference_rankings.items()},
        "dropout_ticks": {sid: tick for sid, tick in truth.dropout_ticks.items()},
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True), encoding="utf-8")


_GROUND_TRUTH_KEYS = {"abilities", "preference_rankings", "dropout_ticks"}


def _undecodable_line(path: Path) -> int | None:
    """1-based line of the first byte sequence in ``path`` that is not UTF-8."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


@contextmanager
def _utf8_file(path: Path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text; a byte that is not UTF-8 is a CohortFormatError."""
    with path.open("r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise CohortFormatError(
                f"not valid UTF-8 ({exc.reason})", path=str(path), line=_undecodable_line(path)
            ) from exc


def _csv_rows(fh: TextIO, path: Path) -> Iterator[list[str]]:
    """The rows of a CSV file; a CSV syntax error or a cell over the csv
    module's field-size limit (131,072 characters) is a CohortFormatError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise CohortFormatError(
            f"malformed CSV: {exc}", path=str(path), line=reader.line_num
        ) from exc


def _csv_table(
    path: Path, columns: list[str], *, prefix: bool = False
) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) of each row of a CSV file, the header first as line 1.

    The header must be ``columns``, or with ``prefix`` start with them, and
    every later row must be as wide as the header.
    """
    with _utf8_file(path, newline="") as fh:
        reader = _csv_rows(fh, path)
        header = next(reader, None)
        if header is None or (header[: len(columns)] if prefix else header) != columns:
            rule = "start with" if prefix else "be"
            raise CohortFormatError(
                f"header must {rule} {','.join(columns)}", path=str(path), line=1
            )
        yield 1, header
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CohortFormatError(
                    f"expected {len(header)} columns, got {len(row)}", path=str(path), line=line_no
                )
            yield line_no, row


def _key_mismatch(keys: set[str], expected: set[str], name: str) -> str:
    """The message 'unknown {name} [...]; missing {name} [...]', without an empty half."""
    halves = (("unknown", sorted(keys - expected)), ("missing", sorted(expected - keys)))
    return "; ".join(f"{which} {name} {found}" for which, found in halves if found)


def _json_error(exc: ValueError | RecursionError) -> str:
    """Message for a json.loads failure: bad syntax, an integer over Python's
    4,300-digit conversion limit, or nesting deeper than the recursion limit."""
    return f"invalid JSON: {getattr(exc, 'msg', exc)}"


def read_ground_truth(path: str | Path) -> GroundTruth:
    path = Path(path)
    with _utf8_file(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        line = getattr(exc, "lineno", None)
        raise CohortFormatError(_json_error(exc), path=str(path), line=line) from exc
    if not isinstance(data, dict):
        raise CohortFormatError("ground truth must be a JSON object", path=str(path), line=1)
    if set(data) != _GROUND_TRUTH_KEYS:
        message = _key_mismatch(set(data), _GROUND_TRUTH_KEYS, "ground-truth keys")
        raise CohortFormatError(message, path=str(path), line=1)
    try:
        return GroundTruth(
            abilities={sid: _number(v, "ability") for sid, v in data["abilities"].items()},
            preference_rankings={
                sid: tuple(r) for sid, r in data["preference_rankings"].items()
            },
            dropout_ticks={
                sid: (None if t is None else _integer(t, "dropout tick"))
                for sid, t in data["dropout_ticks"].items()
            },
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise CohortFormatError(f"malformed ground truth: {exc}", path=str(path)) from exc


def _number(value: object, name: str) -> float:
    """A JSON number as a float; strings, booleans, null and an integer past
    the float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


def _integer(value: object, name: str) -> int:
    """A JSON integer, or a float with no fractional part, as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def _parse_float(text: str, *, path: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise CohortFormatError(
            f"column {column!r}: {text!r} is not a number", path=path, line=line
        ) from exc
    if not math.isfinite(value):
        raise CohortFormatError(f"column {column!r}: {text!r} is not finite", path=path, line=line)
    return value


_KIND_CODE = {kind.value: kind.code for kind in EventKind}
_EVENT_VALUES = itemgetter("student_id", "tick", "kind", "value", "resource_id")
#: Bytes per block of the whole-file pass, read on to a line end: small next to the columns.
_BLOCK_BYTES = 1 << 16


def _read_events(path: Path, student_ids: list, resource_ids: list) -> EventColumns:
    """The events of an events.jsonl file, in line order, into id tables
    that start with the given ids.

    One pass parses each line with ``orjson.loads``. It is adopted only if
    no byte is a carriage return and every line holds exactly the five
    fields: a known kind, a str student id, a str or null resource id, an
    int tick in the 64-bit range and a float value, which ``json.loads``
    reads the same. Any other file is read by ``_read_json_events``.
    """
    import orjson  # imported here so that ``import auss`` does not pay for it

    events = EventColumnsBuilder(student_ids, resource_ids)
    with path.open("rb") as fh:
        while block := fh.read(_BLOCK_BYTES) + fh.readline():
            if b"\r" in block or not _extend_checked(events, block.splitlines(), orjson.loads):
                events = EventColumnsBuilder(student_ids, resource_ids)
                _read_json_events(path, events)
                break
    return events.build()


def _extend_checked(events: EventColumnsBuilder, lines: list[bytes], loads) -> bool:
    """Append the events of a block's lines, all or none; False if a line
    breaks a rule of the whole-file pass (``events`` is then dropped)."""
    try:
        records = list(map(loads, lines))
        if set(map(type, records)) != {dict} or set(map(len, records)) != {5}:
            return False
        student, tick, kind, value, resource = zip(*map(_EVENT_VALUES, records))
        if not (
            set(map(type, student)) == {str}
            and set(map(type, tick)) == {int}
            and set(map(type, value)) == {float}
            and set(map(type, resource)) <= {str, type(None)}
            and set(map(type, kind)) == {str}
            and set(kind) <= _KIND_CODE.keys()
        ):
            return False
        # A tick outside the 64-bit range is a ValueError here, as a bad line is.
        events.extend(student, tick, list(map(_KIND_CODE.get, kind)), value, resource)
    except (ValueError, KeyError):
        return False
    return True


def _read_json_events(path: Path, events: EventColumnsBuilder) -> None:
    """Append every event of an events.jsonl file to ``events``, one ``json.loads`` per line."""
    with _utf8_file(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                _append_json_event(events, line, path, line_no)


def _append_json_event(
    events: EventColumnsBuilder, line: str, path: Path, line_no: int
) -> None:
    """Append the event on one events.jsonl line, read with ``json.loads``;
    a line that breaks the format is a CohortFormatError."""
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise CohortFormatError(_json_error(exc), path=str(path), line=line_no) from exc
    if not isinstance(data, dict):
        raise CohortFormatError("an event must be a JSON object", path=str(path), line=line_no)
    if set(data) != _EVENT_FIELDS:
        message = _key_mismatch(set(data), _EVENT_FIELDS, "fields")
        raise CohortFormatError(message, path=str(path), line=line_no)
    try:
        kind = EventKind(data["kind"])
    except ValueError as exc:
        raise CohortFormatError(
            f"unknown event kind {data['kind']!r}", path=str(path), line=line_no
        ) from exc
    try:
        events.append(
            str(data["student_id"]),
            _integer(data["tick"], "tick"),
            kind.code,
            _number(data["value"], "value"),
            None if data["resource_id"] is None else str(data["resource_id"]),
        )
    except ValueError as exc:
        raise CohortFormatError(str(exc), path=str(path), line=line_no) from exc


def read_cohort(directory: str | Path) -> Cohort:
    directory = Path(directory)
    for required in (STUDENTS_FILE, RESOURCES_FILE, EVENTS_FILE, ASSESSMENTS_FILE):
        if not (directory / required).exists():
            raise CohortFormatError(f"missing required file {required}", path=str(directory))

    students = []
    students_path = directory / STUDENTS_FILE
    rows = _csv_table(students_path, ["student_id", "enrollment_tick"], prefix=True)
    feature_names = next(rows)[1][2:]
    path = str(students_path)
    for line_no, row in rows:
        features = {}
        for name, text in zip(feature_names, row[2:]):
            if text != "":
                features[name] = _parse_float(text, path=path, line=line_no, column=name)
        try:
            enrollment = int(row[1])
        except ValueError as exc:
            message = f"enrollment_tick {row[1]!r} is not an integer"
            raise CohortFormatError(message, path=path, line=line_no) from exc
        if not _INT64.min <= enrollment <= _INT64.max:
            message = f"enrollment_tick {enrollment} is outside the 64-bit integer range"
            raise CohortFormatError(message, path=path, line=line_no)
        students.append(StudentRecord(row[0], features, enrollment))

    resources = []
    resources_path = directory / RESOURCES_FILE
    rows = _csv_table(resources_path, _RESOURCE_COLUMNS)
    next(rows)
    path = str(resources_path)
    for line_no, row in rows:
        difficulty = _parse_float(row[2], path=path, line=line_no, column="difficulty")
        resources.append(LearningResource(row[0], row[1], difficulty))

    student_ids = [s.student_id for s in students]
    events = _read_events(directory / EVENTS_FILE, student_ids, [r.resource_id for r in resources])

    assessments = []  # (student id, item id, response, score or None) per row
    assessments_path = directory / ASSESSMENTS_FILE
    rows = _csv_table(assessments_path, _ASSESSMENT_COLUMNS)
    next(rows)
    path = str(assessments_path)
    for line_no, (student_id, item_id, response, text) in rows:
        score = None if text == "" else _parse_float(text, path=path, line=line_no, column="score")
        assessments.append((student_id, item_id, response, score))

    truth = None
    truth_path = directory / GROUND_TRUTH_FILE
    if truth_path.exists():
        truth = read_ground_truth(truth_path)

    return Cohort(
        students=tuple(students),
        events=events,
        assessments=AssessmentColumns.from_rows(assessments, student_ids),
        resources=tuple(resources),
        ground_truth=truth,
    )
