"""Reading the text files the command line takes as input, and naming the
path of an output that cannot be written."""

from __future__ import annotations

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
