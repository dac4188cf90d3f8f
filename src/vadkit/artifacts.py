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

import numpy as np
import orjson

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
    A float64 or integer ndarray of one or more dimensions is laid out as
    its `.tolist()` would be, with its numbers from number_texts. Any other
    value, a subclass or a 0-d array included, goes to json, whose lines are
    then moved to this depth (its strings hold no raw newline); json also
    raises its TypeError for what it cannot write.
    """
    is_dict = type(value) is dict
    is_array = _is_number_array(value) and value.ndim > 0
    if is_array and value.ndim == 1:
        if value.size:
            inner = newline + "  "
            put("[" + inner + _json_numbers(value, ("," + inner).encode()).decode() + newline + "]")
        else:
            put("[]")
        return
    if not (is_dict or is_array) and type(value) not in (list, tuple):
        write = _LEAF_TEXT.get(type(value))
        if write is None:
            put(json.dumps(value, indent=2).replace("\n", newline))
        else:
            text = write(value)
            put(_FLOAT_NAMES.get(text, text))
        return
    if not len(value):
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
    """`json.dumps(payload)` text plus a newline, payload's last value written one row at a time.

    The last value is a 2-D float64 or integer array, written as json
    writes its `.tolist()`, with its numbers from number_texts; any other
    value raises TypeError. The C encoder holds the text of every number in
    a payload until it joins them; row by row, this holds one row's.
    """
    *head, (key, rows) = payload.items()
    rows = _numbers(rows, 2)
    with open_output(path) as fh:
        fh.write(json.dumps({**dict(head), key: []})[:-2].encode())  # all but the closing "]}"
        for i, row in enumerate(rows):
            fh.write((b", [" if i else b"[") + _json_numbers(row, b", ") + b"]")
        fh.write(b"]}\n")


def write_table(path, columns: dict, line_end: str) -> None:
    """A header of column names, then one line per row of comma-separated cells.

    columns maps each name to an equal-length 1-D float64 or integer array;
    any other value raises TypeError. A cell's text is the repr of the
    Python int or float that `.tolist()` makes of it, which is also what
    `csv` writes for it, from number_texts. Each block of rows is written
    on its own.
    """
    arrays = [_numbers(a, 1) for a in columns.values()]
    with open_output(path) as fh:
        fh.write((",".join(columns) + line_end).encode())
        for start in range(0, len(arrays[0]), _BLOCK_ROWS):
            cells = [number_texts(a[start : start + _BLOCK_ROWS]) for a in arrays]
            fh.write((line_end.join(map(",".join, zip(*cells))) + line_end).encode())


def number_texts(column) -> list[str]:
    """`repr(x)` for each element x of a 1-D float64 or integer array; TypeError for any other value.

    orjson writes the text of the whole array in one C call. Its floats have
    the shortest digits that round-trip, as repr's do; it lays them out
    differently only outside 1e-4 <= |x| < 1e16 (0.0000625 for 6.25e-05,
    1e16 for 1e+16) and writes null for NaN and the infinities, and those
    few elements get repr.
    """
    column = _numbers(column, 1)
    texts = _orjson_body(column).decode().split(",") if column.size else []
    irregular = _irregular(column)
    for i, value in zip(irregular.tolist(), column[irregular].tolist()):
        texts[i] = repr(value)
    return texts


def _json_numbers(column, separator: bytes) -> bytes:
    """json's text of each number of a 1-D float64 or integer array, joined by separator."""
    column = _numbers(column, 1)
    if _irregular(column).size:
        return separator.join(_FLOAT_NAMES.get(text, text).encode() for text in number_texts(column))
    return _orjson_body(column).replace(b",", separator)


def _is_number_array(value) -> bool:
    """Whether value is an ndarray (not a subclass) of float64 or an integer dtype."""
    return type(value) is np.ndarray and (value.dtype.kind in "iu" or value.dtype == np.float64)


def _numbers(value, ndim: int) -> np.ndarray:
    """value as orjson reads it, C-contiguous; TypeError unless it is a float64 or integer ndarray of ndim axes."""
    if not (_is_number_array(value) and value.ndim == ndim):
        got = f"a {value.ndim}-d {value.dtype} array" if isinstance(value, np.ndarray) else type(value).__name__
        raise TypeError(f"expected a {ndim}-d float64 or integer array, got {got}")
    return np.ascontiguousarray(value)


def _orjson_body(column) -> bytes:
    """orjson's text of a contiguous 1-D array, without its brackets."""
    return orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]


def _irregular(column) -> np.ndarray:
    """Indices of the elements whose orjson text is not their repr: non-zero floats outside 1e-4 <= |x| < 1e16.

    NaN, outside every range, is one of them.
    """
    if column.dtype.kind != "f":
        return np.empty(0, dtype=np.intp)
    magnitude = np.abs(column)
    return np.flatnonzero(~(((magnitude >= 1e-4) & (magnitude < 1e16)) | (column == 0)))
