"""Reading the text files the command line takes as input."""

from __future__ import annotations


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
