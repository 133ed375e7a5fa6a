"""The error type for bad inputs, shared by every reader and validator."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path


class ValidationError(ValueError):
    """Bad inputs or configuration, reported before any heavy work starts."""


@contextmanager
def open_text(path):
    """Open `path` as UTF-8 text for reading, lines untranslated (as csv wants).

    Bytes that are not UTF-8, and CSV fields over the csv module's size
    limit, surface wherever the body reads; both become a ValidationError
    naming the file.
    """
    try:
        with Path(path).open("r", newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as e:
        raise ValidationError(
            f"{path}: not UTF-8 text (byte 0x{e.object[e.start]:02x}: {e.reason})") from e
    except csv.Error as e:
        raise ValidationError(f"{path}: {e}") from e
