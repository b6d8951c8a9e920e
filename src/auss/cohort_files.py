"""Cohort interchange files: students.csv, resources.csv, events.jsonl,
assessments.csv, and ground_truth.json.

Column and field names are frozen (documented in FORMATS.md); unknown
event fields and malformed values are rejected with the offending line.
Floats are written as repr (CSV) and json.dumps (JSON) spell them, so a
round-trip reproduces them exactly; orjson spells them, guarded by
:mod:`auss.orjson_guard`, and ground_truth.json too.
Events and assessments are written from, and read straight into, the
cohort's columns; no per-event or per-assessment object is built. Events
are read by an orjson pass over blocks of lines, the back half of a large
file in a forked child; a file it refuses, or whose back half the child
does not send, is read line by line.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager, nullcontext
from operator import itemgetter
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterator, Sequence, TextIO

import numpy as np

from . import forking, orjson_guard
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
    """Write the cohort's interchange files into ``directory``, creating it.

    Without ground truth, a ground_truth.json already there is removed, so
    that reading the directory gives back this cohort. A directory or file
    that cannot be created, written or removed is a CohortFormatError.
    """
    directory = Path(directory)
    with _writing(directory):
        directory.mkdir(parents=True, exist_ok=True)

    students = cohort.students
    feature_names = sorted({name for s in students for name in s.static_features})
    features = [_feature_cells(students, name) for name in feature_names]
    with _created(directory / STUDENTS_FILE, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "enrollment_tick", *feature_names])
        writer.writerows(
            [student.student_id, str(student.enrollment_tick), *(cells[i] for cells in features)]
            for i, student in enumerate(students)
        )

    resources = cohort.resources
    difficulties = orjson_guard.spell_floats([float(r.difficulty) for r in resources], repr)
    with _created(directory / RESOURCES_FILE, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESOURCE_COLUMNS)
        writer.writerows(
            [r.resource_id, r.topic_tag, text] for r, text in zip(resources, difficulties)
        )

    with _created(directory / EVENTS_FILE, "w", encoding="utf-8", newline="\n") as fh:
        _write_events(fh, cohort.event_columns)

    assessments = cohort.assessment_columns
    scores = orjson_guard.spell_floats(assessments.score.tolist(), repr)  # 0.0 where ungraded
    with _created(directory / ASSESSMENTS_FILE, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ASSESSMENT_COLUMNS)
        writer.writerows(
            (sid, item, response, "" if score is None else text)
            for (sid, item, response, score), text in zip(assessments.rows(), scores)
        )

    truth_path = directory / GROUND_TRUTH_FILE
    if cohort.ground_truth is not None:
        write_ground_truth(cohort.ground_truth, truth_path)
    else:
        with _writing(truth_path):
            truth_path.unlink(missing_ok=True)


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    """An OSError in the block, which creates or writes ``path``, is a CohortFormatError."""
    try:
        yield
    except OSError as exc:
        raise CohortFormatError(f"cannot write: {exc.strerror or exc}", path=str(path)) from exc


@contextmanager
def _created(path: Path, mode: str, **kwargs) -> Iterator[IO]:
    """``path`` open for writing; an OSError opening, writing or closing it
    is a CohortFormatError."""
    with _writing(path), path.open(mode, **kwargs) as fh:
        yield fh


def _feature_cells(students: Sequence[StudentRecord], name: str) -> list[str]:
    """Each student's cell of feature column ``name``: its value's ``repr``, or "" if none."""
    values = [student.static_features.get(name) for student in students]
    spelled = orjson_guard.spell_floats([0.0 if v is None else float(v) for v in values], repr)
    return ["" if v is None else text for v, text in zip(values, spelled)]


#: Events written per chunk, which bounds the text held in memory at once.
_EVENT_CHUNK = 8192


def _write_events(fh: TextIO, events: EventColumns) -> None:
    """One JSON object per event, in stream order, keys sorted, no spaces.

    The same text as ``json.dumps(record, sort_keys=True, separators=(",", ":"))``:
    ids and kinds are encoded once per table entry, the text up to the
    student id once per (kind, resource) pair, and each chunk's values by
    :func:`auss.orjson_guard.spell_floats`.
    """
    kinds = [json.dumps(kind.value) for kind in EventKind]
    resources = [json.dumps(rid) for rid in events.resource_ids] + ["null"]  # [-1] is "none"
    width = len(resources)
    # The head of a (kind k, resource r) event is heads[k * width + r % width].
    heads = [f'{{"kind":{k},"resource_id":{r},"student_id":' for k in kinds for r in resources]
    students = [json.dumps(sid) for sid in events.student_ids]
    for first in range(0, len(events), _EVENT_CHUNK):
        chunk = events.take(slice(first, first + _EVENT_CHUNK))
        head = chunk.kind.astype(np.intp) * width + chunk.resource % width
        fh.write(
            "".join(
                f'{heads[h]}{students[s]},"tick":{t},"value":{v}}}\n'
                for h, s, t, v in zip(
                    head.tolist(),
                    chunk.student.tolist(),
                    chunk.tick.tolist(),
                    orjson_guard.spell_floats(chunk.value.tolist(), json.dumps),
                )
            )
        )


def write_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    """ground_truth.json: the bytes of ``json.dumps(data, indent=2, sort_keys=True)``.

    orjson writes them where it can: if it refuses the data, or its text
    holds a guarded spelling other than the one ``null`` of each student
    who never drops out, the json module writes them instead.
    """
    import orjson  # imported here so that ``import auss`` does not pay for it

    data = {
        "abilities": {sid: value for sid, value in truth.abilities.items()},
        "preference_rankings": {sid: list(r) for sid, r in truth.preference_rankings.items()},
        "dropout_ticks": {sid: tick for sid, tick in truth.dropout_ticks.items()},
    }
    nulls = sum(tick is None for tick in truth.dropout_ticks.values())
    try:
        text = orjson.dumps(data, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS)
    except TypeError:
        text = None
    if text is None or not len(orjson_guard.hits(text)) == text.count(b"null") == nulls:
        text = json.dumps(data, indent=2, sort_keys=True).encode("ascii")
    with _created(Path(path), "wb") as fh:
        fh.write(text)


_GROUND_TRUTH_KEYS = {"abilities", "preference_rankings", "dropout_ticks"}


def _undecodable_line(path: Path) -> int | None:
    """1-based line of the first byte sequence in ``path`` that is not UTF-8."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


def _open(path: Path, mode: str, **kwargs) -> IO:
    """``path.open``; a file that cannot be opened, such as a directory, is a CohortFormatError."""
    try:
        return path.open(mode, **kwargs)
    except OSError as exc:
        raise CohortFormatError(f"cannot open: {exc.strerror}", path=str(path)) from exc


@contextmanager
def _utf8_file(path: Path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text; a byte that is not UTF-8 is a CohortFormatError."""
    with _open(path, "r", encoding="utf-8", newline=newline) as fh:
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
#: Bytes per block of the whole-file pass, read on to a line end: small next to the columns.
_BLOCK_BYTES = 1 << 16
#: Smallest events.jsonl whose back half a forked child parses. On a
#: 2-vCPU host a fork and reap cost about 4 ms: a split read_cohort of a
#: generated 40-student, 12-tick cohort (92 KB of events) took 8.3 ms
#: against 3.3 ms unsplit, the two broke even near 1.3 MB (160 students ×
#: 50 ticks, 1.35 MB: 26.2 against 24.9 ms), and at 1.6 MB (200 × 50) the
#: split read was 7 ms faster.
_SPLIT_FLOOR_BYTES = 1_500_000


@contextmanager
def _events_ahead(
    path: Path, student_ids: list, resource_ids: list
) -> Iterator[Callable[[], EventColumns]]:
    """Start reading the events of an events.jsonl file, in line order, into
    id tables that start with the given ids; yields a function that returns
    them, once the caller has done what it does meanwhile.

    The whole-file pass reads blocks of whole lines and parses each block
    with ``orjson.loads`` (see :func:`_extend_checked`). Where the process
    may fork, a file of at least :data:`_SPLIT_FLOOR_BYTES` is split at the
    first line end at or after its middle byte (:func:`_back_half_start`):
    a child forked by :func:`auss.forking.ahead` parses the back half while
    this process parses the front half and then goes on with the caller.
    The child's columns are joined to the front half's. If a block of
    either half is refused, or the child fails or meets an id the tables
    lack (whose first-seen position depends on the front half), the whole
    file is read by ``_read_json_events``; a refused front half sends it
    there without waiting on the child. Columns, id tables and errors are
    the same whether or not the file is split.
    """
    import orjson  # imported here so that ``import auss`` does not pay for it

    with _open(path, "rb") as fh:
        split = _back_half_start(fh)
        back_half = (
            nullcontext(lambda: None)
            if split is None
            else forking.ahead(  # a stream of one item
                lambda: [_back_half_columns(path, split, student_ids, resource_ids)]
            )
        )
        with back_half as back_columns:
            front = _read_blocks(fh, split, student_ids, resource_ids, orjson.loads)

            def read() -> EventColumns:
                if front is not None and split is None:
                    return front
                back = None if front is None else back_columns()
                if back is None:
                    return _read_json_events(path, student_ids, resource_ids)
                columns = map(np.concatenate, zip(_arrays(front), back))
                return EventColumns(*columns, front.student_ids, front.resource_ids)

            yield read


def _back_half_start(fh: BinaryIO) -> int | None:
    """Where the back half of a file of at least ``_SPLIT_FLOOR_BYTES``
    starts: just past the first line end at or after its middle byte. None
    for a smaller file, one with no line end there, or where
    :func:`auss.forking.fork_worthwhile` is false. Leaves ``fh`` at 0."""
    size = os.fstat(fh.fileno()).st_size
    if size < _SPLIT_FLOOR_BYTES or not forking.fork_worthwhile():
        return None
    fh.seek(size // 2)
    fh.readline()
    start = fh.tell()
    fh.seek(0)
    return start if start < size else None


def _back_half_columns(
    path: Path, start: int, student_ids: list, resource_ids: list
) -> tuple[np.ndarray, ...] | None:
    """The five event columns of an events.jsonl file from byte ``start``
    (a line start) to its end, by the whole-file pass into id tables that
    start with the given ids; None if a block is refused or an id is new."""
    import orjson

    with path.open("rb") as fh:
        fh.seek(start)
        back = _read_blocks(fh, None, student_ids, resource_ids, orjson.loads)
    if back is None or (len(back.student_ids), len(back.resource_ids)) != (
        len(student_ids),
        len(resource_ids),
    ):
        return None
    return _arrays(back)


def _arrays(events: EventColumns) -> tuple[np.ndarray, ...]:
    return events.student, events.tick, events.kind, events.value, events.resource


def _read_blocks(
    fh: BinaryIO, stop: int | None, student_ids: Sequence, resource_ids: Sequence, loads
) -> EventColumns | None:
    """The events of the lines from ``fh``'s position to byte ``stop`` (a
    line start), or with None to the end of the file, into id tables that
    start with the given ids, read a block of whole lines at a time; None
    at the first block refused."""
    events = EventColumnsBuilder(student_ids, resource_ids)
    position = fh.tell()
    while True:
        block = fh.read(_BLOCK_BYTES if stop is None else min(_BLOCK_BYTES, stop - position))
        if stop is None or position + len(block) < stop:
            block += fh.readline()
        if not block:
            return events.build()
        position += len(block)
        if not _extend_checked(events, block, loads):
            return None


def _extend_checked(events: EventColumnsBuilder, block: bytes, loads) -> bool:
    """Append the events of a block of whole lines, all or none; False if a
    line breaks a rule of the whole-file pass (``events`` is then dropped).

    One ``loads`` reads the whole block as one array, with ",\\n0," in place
    of each line end between two lines. The result is kept only if its
    elements alternate between records and integers, one record per line.
    No string can hold the raw line end after such a comma, no object
    member can start with the 0 after it, and a kept record holds no array
    or object: so each of these commas separates two elements of the outer
    array, and each record is what ``loads`` reads from its line alone. A
    line holding two objects gives one element too many.
    """
    if b"\r" in block:
        return False
    body = block[:-1] if block.endswith(b"\n") else block
    text = body.replace(b"\n", b",\n0,")
    lines = (len(text) - len(body)) // 3 + 1
    try:
        found = loads(b"[" + text + b"]")
        records = found[::2]
        if (
            len(found) != 2 * lines - 1
            or not set(map(type, found[1::2])) <= {int}
            or set(map(len, records)) != {5}
        ):
            return False
        # A record that is not an object is a TypeError at the first column.
        student = list(map(itemgetter("student_id"), records))
        tick = list(map(itemgetter("tick"), records))
        kind = list(map(itemgetter("kind"), records))
        value = list(map(itemgetter("value"), records))
        resource = list(map(itemgetter("resource_id"), records))
        if not (
            set(map(type, student)) == {str}
            and set(map(type, tick)) == {int}
            and set(map(type, value)) == {float}
            and set(map(type, resource)) <= {str, type(None)}
        ):
            return False
        # Only a known kind, a str, is a key; a list is a TypeError. A tick
        # outside the 64-bit range is a ValueError, as a bad line is.
        events.extend(student, tick, list(map(_KIND_CODE.__getitem__, kind)), value, resource)
    except (ValueError, KeyError, TypeError):
        return False
    return True


def _read_json_events(path: Path, student_ids: list, resource_ids: list) -> EventColumns:
    """The events of an events.jsonl file, one ``json.loads`` per line,
    into id tables that start with the given ids."""
    events = EventColumnsBuilder(student_ids, resource_ids)
    with _utf8_file(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                _append_json_event(events, line, path, line_no)
    return events.build()


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


def _read_assessments(path: Path) -> list[tuple]:
    """(student id, item id, response, score or None) per row of assessments.csv."""
    assessments = []
    rows = _csv_table(path, _ASSESSMENT_COLUMNS)
    next(rows)
    name = str(path)
    for line_no, (student_id, item_id, response, text) in rows:
        score = None if text == "" else _parse_float(text, path=name, line=line_no, column="score")
        assessments.append((student_id, item_id, response, score))
    return assessments


def read_cohort(directory: str | Path) -> Cohort:
    """The cohort in ``directory``: students.csv, resources.csv,
    events.jsonl, assessments.csv and, if present, ground_truth.json.

    A file that is missing, cannot be opened or breaks its format
    (FORMATS.md) is a CohortFormatError naming it, and its line where there
    is one; of two faulty files, the first in that order is named. While a
    forked child parses the back half of a large events.jsonl, this process
    parses the front half, then assessments.csv and ground_truth.json (see
    ``_events_ahead``); if the child sends no columns, the whole
    events.jsonl is read line by line. The result is the same as a read in
    file order.
    """
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
    resource_ids = [r.resource_id for r in resources]
    with _events_ahead(directory / EVENTS_FILE, student_ids, resource_ids) as read_events:
        try:
            assessments = _read_assessments(directory / ASSESSMENTS_FILE)
            truth_path = directory / GROUND_TRUTH_FILE
            truth = read_ground_truth(truth_path) if truth_path.exists() else None
        except CohortFormatError:
            read_events()  # a fault in events.jsonl comes first, as in file order
            raise
        events = read_events()

    return Cohort(
        students=tuple(students),
        events=events,
        assessments=AssessmentColumns.from_rows(assessments, student_ids),
        resources=tuple(resources),
        ground_truth=truth,
    )
