"""Reading the files the command line takes as input, as text and as
checked JSON, and naming the path of an output that cannot be written."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


class InputFileError(ValueError):
    """An input path that cannot be read as UTF-8 text."""


def read_text(path: str) -> str:
    """The whole text of a UTF-8 file. Any failure to read it, a directory or
    bytes that are not UTF-8 included, raises an error that names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise InputFileError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    except OSError as e:
        raise InputFileError(f"{path}: cannot read: {e.strerror}") from None


def _parse(text: str, where: str, error: type[ValueError]):
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer past Python's digit limit
        raise error(f"{where}: not valid JSON: {e}") from None


def read_json(path: str, error: type[ValueError]) -> dict:
    """The JSON object that is the whole text of ``path``. Text that is not
    JSON, or JSON that is not an object, raises ``error`` naming the path."""
    doc = _parse(read_text(path), path, error)
    if not isinstance(doc, dict):
        raise error(f"{path}: must be a JSON object, got a JSON {type(doc).__name__}")
    return doc


def _json_lines(path: str, error: type[ValueError], what: str):
    """``(line number, record)`` for each nonblank line of ``path``; a line
    that is not a JSON object raises ``error`` naming ``path:line``."""
    for line_no, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{line_no}"
        rec = _parse(line, where, error)
        if not isinstance(rec, dict):
            raise error(f"{where}: a {what} record must be a JSON object")
        yield line_no, rec


def _convert(rec: dict, convert, where: str, error: type[ValueError], what: str):
    try:
        return convert(rec)
    except KeyError as e:
        raise error(f"{where}: missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise error(f"{where}: bad {what} record: {e}") from None


def read_json_lines(path: str, error: type[ValueError], what: str, convert) -> list[tuple[int, dict, object]]:
    """``(line number, record, convert(record))`` for each nonblank line of
    ``path``, each line one JSON object. Invalid JSON, a line that is not an
    object, a missing key, or a ``TypeError`` or ``ValueError`` from
    ``convert`` raises ``error`` naming ``path:line``; a file with no records
    raises ``error`` naming the path."""
    rows = [(line_no, rec, _convert(rec, convert, f"{path}:{line_no}", error, what))
            for line_no, rec in _json_lines(path, error, what)]
    if not rows:
        raise error(f"{path}: no {what} records")
    return rows


def read_json_set(path: str, error: type[ValueError], what: str, screen, convert) -> tuple[list[int], list[dict], object]:
    """``(line numbers, records, result)`` for the records of ``path``, read
    as ``read_json_lines`` reads them but converted together.
    ``screen(records)`` returns the result and the indices, ascending, of
    the records it could not show to be good; ``convert`` checks those one
    at a time. The error is the one ``read_json_lines`` would raise with
    ``convert``: it names the first bad line, whether that line is not a
    JSON object or its record fails ``convert``."""
    lines, records, fault = [], [], None
    try:
        for line_no, rec in _json_lines(path, error, what):
            lines.append(line_no)
            records.append(rec)
    except error as e:  # a record before the bad line may fail first
        fault = e
    result, suspects = screen(records)
    for k in suspects:
        _convert(records[k], convert, f"{path}:{lines[k]}", error, what)
    if fault is not None:
        raise fault
    if not records:
        raise error(f"{path}: no {what} records")
    return lines, records, result


def json_int(value, field: str) -> int:
    """An integer read from an input file. Floats and booleans are rejected,
    not truncated (``int(1.9)`` and ``int(True)`` are both 1)."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def json_float(value, field: str) -> float:
    """A number read from an input file. Booleans and strings are rejected,
    not converted (``float(True)`` is 1.0 and ``float("0.5")`` is 0.5)."""
    if type(value) not in (int, float):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the largest float
        raise ValueError(f"{field} must be a number within the float range") from None


class OutputFileError(OSError):
    """An output path that cannot be written. It stays an ``OSError``, so
    callers that handle failed writes keep handling it."""


@contextmanager
def writing(path: str):
    """Run a block that writes ``path``; an ``OSError`` raised in it becomes
    an ``OutputFileError`` that names the path."""
    try:
        yield
    except OSError as e:
        raise OutputFileError(f"{path}: cannot write: {e.strerror or e}") from None


@contextmanager
def output_file(path: str):
    """``path`` opened for writing text; a failure to open, write or close
    it, or any other ``OSError`` in the block, names the path."""
    with writing(path), open(path, "w") as fh:
        yield fh


def check_writable(path: str) -> None:
    """Raise an ``OutputFileError`` naming ``path`` unless a file can be
    written there: its directory exists and is writable, and ``path`` is not
    a directory or a read-only file. Nothing is created, so a command can
    check its outputs before it starts its work."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "Is a directory"
    elif not os.path.isdir(folder):
        reason = "No such file or directory"
    elif not os.access(folder, os.W_OK | os.X_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        reason = "Permission denied"
    else:
        return
    raise OutputFileError(f"{path}: cannot write: {reason}")
