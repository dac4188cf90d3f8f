"""Every file vadkit writes, and every JSON file it reads, passes through this
module. A path that cannot be read or written raises IoFailure (exit code 2).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os

from .errors import IoFailure, VadKitError

# Rows formatted per write: the text of a whole long table would raise peak memory.
_BLOCK_ROWS = 4096


@contextlib.contextmanager
def open_output(path):
    """Binary handle on path, created or truncated; an OSError while writing raises IoFailure."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_json(path, what: str):
    """The parsed JSON document at path; what names the file in errors ("manifest", "config")."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise VadKitError(f"{what} {path} is not valid JSON: {exc}") from exc


def json_number(value) -> float:
    """A JSON number (not a bool) as a finite float; ValueError says why value is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("expected a number")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("too large") from None
    if not math.isfinite(number):
        raise ValueError("must be finite")
    return number


def field_dict(record, **overrides) -> dict:
    """A dataclass record's fields by name, in declaration order; overrides replace values by name.

    Values are not copied: a deep copy of each takes about four times as long on a sweep grid.
    """
    return {f.name: overrides.get(f.name, getattr(record, f.name)) for f in dataclasses.fields(record)}


def make_output_dir(path) -> None:
    """Create the directory path and its parents unless it exists."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_json(payload, path) -> None:
    """`json.dumps` text, indented by 2, plus a newline; dumps, unlike dump, can use the C encoder."""
    text = json.dumps(payload, indent=2) + "\n"
    with open_output(path) as fh:
        fh.write(text.encode())


def write_json_rows(payload: dict, path) -> None:
    """`json.dumps(payload)` text plus a newline, the items of payload's last value, a list, encoded one at a time.

    The C encoder holds the text of every number in a payload until it joins
    them; item by item, it holds one item's.
    """
    *head, (key, items) = payload.items()
    with open_output(path) as fh:
        fh.write(json.dumps({**dict(head), key: []})[:-2].encode())  # all but the closing "]}"
        for i, item in enumerate(items):
            fh.write(((", " if i else "") + json.dumps(item)).encode())
        fh.write(b"]}\n")


def write_table(path, columns: dict, line_end: str) -> None:
    """A header of column names, then one line per row of comma-separated cells.

    columns maps each name to an equal-length 1-D numpy array. Each block of
    rows is converted with `.tolist()`, so a cell's text is the repr of a
    Python int or float, which is also what `csv` writes for it.
    """
    arrays = list(columns.values())
    row = ",".join(["{!r}"] * len(arrays)) + line_end
    with open_output(path) as fh:
        fh.write((",".join(columns) + line_end).encode())
        for start in range(0, len(arrays[0]), _BLOCK_ROWS):
            cells = [a[start : start + _BLOCK_ROWS].tolist() for a in arrays]
            fh.write("".join(map(row.format, *cells)).encode())
