"""Every file vadkit writes, and every JSON file it reads, passes through this
module. A path that cannot be read or written raises IoFailure (exit code 2).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
from json.encoder import encode_basestring_ascii

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
    return {name: overrides.get(name, getattr(record, name)) for name in _field_names(type(record))}


@functools.cache
def _field_names(record_class) -> tuple[str, ...]:
    """The field names of a dataclass, looked up once per class."""
    return tuple(f.name for f in dataclasses.fields(record_class))


def make_output_dir(path) -> None:
    """Create the directory path and its parents unless it exists."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_json(payload, path) -> None:
    """`json.dumps(payload, indent=2)` text plus a newline, laid out by `_json_text`."""
    chunks = []
    _json_text(payload, "\n", chunks.append)
    chunks.append("\n")
    with open_output(path) as fh:
        fh.write("".join(chunks).encode())


# How json writes a leaf of exactly one of these types, except that float.__repr__ writes NaN and
# the infinities as nan, inf and -inf, which _FLOAT_NAMES renames. Subclasses are left to json.
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, newline: str, put) -> None:
    """Put the text of `json.dumps(value, indent=2)` in pieces; every line after its first starts with newline.

    json lays out an indent in its pure-Python encoder, whose generators
    take most of its time. Here dicts, lists and tuples are laid out the
    same way, two spaces deeper per level, around leaves from _LEAF_TEXT.
    Any other value, a subclass included, goes to json, whose lines are
    then moved to this depth (its strings hold no raw newline); json also
    raises its TypeError for what it cannot write.
    """
    is_dict = type(value) is dict
    if not is_dict and type(value) not in (list, tuple):
        write = _LEAF_TEXT.get(type(value))
        if write is None:
            put(json.dumps(value, indent=2).replace("\n", newline))
        else:
            text = write(value)
            put(_FLOAT_NAMES.get(text, text))
        return
    if not value:
        put("{}" if is_dict else "[]")
        return
    inner = newline + "  "
    separator = ("{" if is_dict else "[") + inner
    leaf, names = _LEAF_TEXT.get, _FLOAT_NAMES
    for key, item in value.items() if is_dict else zip(itertools.repeat(None), value):
        if is_dict:  # a key that is not a str is written as json writes it in {key: 0}
            separator += (encode_basestring_ascii(key) if type(key) is str else json.dumps({key: 0})[1:-4]) + ": "
        write = leaf(type(item))
        if write is None:
            put(separator)
            _json_text(item, inner, put)
        else:
            text = write(item)
            put(separator + names.get(text, text))
        separator = "," + inner
    put(newline + ("}" if is_dict else "]"))


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
