"""Every file vadkit writes, and every JSON file it reads, passes through this
module. A path that cannot be read or written raises IoFailure (exit code 2).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import re
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from .errors import IoFailure, VadKitError

# Cells per orjson call: the text of a whole long table would raise peak memory. A block's text, about
# 650 KB, stays on the heap; those of 65,536 cells were mapped anew for each block, about 1,000 page faults per op.
_BLOCK_CELLS = 32768


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
    """`json.dumps(payload, indent=2)` text plus a newline; json's TypeError for what json refuses.

    A float64 or integer ndarray of one or more dimensions is written as its `.tolist()` would be.
    orjson writes the payload with each array as null, and each array in a call of its own. json
    writes a payload that orjson refuses or whose text holds another null (None, NaN, an infinity).
    orjson also writes two types that json refuses, `uuid.UUID` and an Enum of neither int nor str.
    """
    arrays, chunks = [], [None]  # a None chunk leaves the payload to json
    with contextlib.suppress(orjson.JSONEncodeError):
        text = orjson.dumps(payload, default=lambda value: arrays.append(_json_array(value)), option=_INDENTED)
        if text.count(b"null") == len(arrays):
            chunks = _json_spelling(text).split(b"null")
            for i, array in enumerate(arrays):  # after chunk 2i, whose last line holds its indent and maybe a key
                line = chunks[2 * i][chunks[2 * i].rfind(b"\n") + 1 :]
                chunks.insert(2 * i + 1, _array_text(array, (len(line) - len(line.lstrip())) // 2))
    if None in chunks:
        chunks = [(json.dumps(payload, indent=2, default=lambda value: _json_array(value).tolist()) + "\n").encode()]
    with open_output(path) as fh:
        fh.writelines(chunks)


# Subclasses, dataclasses and datetimes go to default, so that json lays them out or refuses them.
_INDENTED = (orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE | orjson.OPT_PASSTHROUGH_SUBCLASS
             | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME)


def _array_text(array, depth: int) -> bytes | None:
    """json's text of a number array depth lists deep, from orjson inside depth lists; None if it holds NaN or inf."""
    text = orjson.dumps(
        functools.reduce(lambda inner, _: [inner], range(depth), array),
        option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY,
    )[depth * (depth + 3) : -depth * (depth + 1) or None]  # list i of them writes 2i + 4 bytes before, 2i + 2 after
    if not _irregular(array).any():
        return text
    return None if b"null" in text else _json_spelling(text)


def _json_array(value) -> np.ndarray:
    """value, C-contiguous, if it is a float64 or integer ndarray of one or more dimensions; else json's TypeError."""
    if not (_is_number_array(value) and value.ndim):
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    return np.ascontiguousarray(value)


# Where orjson may spell a float unlike repr (1e16, 1e-6, 0.0000999); one regex for both scans far slower.
_ODD_FLOATS = (re.compile(rb"e(?:[0-9]|-[0-9](?![0-9]))"), re.compile(rb"0\.0000"))
# A line of orjson's indented text that ends in a number: indent, maybe a key, the number, maybe a comma.
# A string cannot end one, as its closing quote follows it on its line.
_NUMBER_LINE = re.compile(rb' *(?:".*": )?(-?[0-9][0-9.e+-]*),?')


def _json_spelling(text: bytes) -> bytes:
    """orjson's indented text as json spells it.

    Each float of _ODD_FLOATS on a _NUMBER_LINE gets repr's text, and each run of bytes outside
    printable ASCII, all of which lie inside strings, gets json's escapes.
    """
    spots = [match.start() for pattern in _ODD_FLOATS for match in pattern.finditer(text)]
    pieces, done = [], 0
    for start, end in sorted({(text.rfind(b"\n", 0, spot) + 1, text.find(b"\n", spot)) for spot in spots}):
        match = _NUMBER_LINE.fullmatch(text, start, end)
        if match and (b"." in match[1] or b"e" in match[1]):  # a float, not an integer
            pieces += [text[done : match.start(1)], repr(float(match[1])).encode()]
            done = match.end(1)
    text = b"".join(pieces) + text[done:]
    if text.isascii() and b"\x7f" not in text:
        return text
    return re.sub(rb"[\x7f-\xff]+", lambda run: encode_basestring_ascii(run[0].decode())[1:-1].encode(), text)


def write_json_rows(payload: dict, path) -> None:
    """`json.dumps(payload)` text plus a newline, payload's last value written a block of rows at a time.

    The last value is a 2-D float64 or integer array, written as json
    writes its `.tolist()`; any other value raises TypeError. Each block of
    about _BLOCK_CELLS cells is one orjson call, whose commas get json's
    space; the C encoder would hold the text of every number at once.
    """
    *head, (key, rows) = payload.items()
    rows = _numbers(rows, 2)
    step = max(1, _BLOCK_CELLS // max(rows.shape[1], 1))
    with open_output(path) as fh:
        fh.write(json.dumps({**dict(head), key: []})[:-2].encode())  # all but the closing "]}"
        for start in range(0, len(rows), step):
            text = _number_text(rows[start : start + step], json.dumps).replace(b",", b", ")
            fh.writelines([b", " if start else b"", memoryview(text)[1:-1]])  # [[a, b], [c, d]] less its outer []
        fh.write(b"]}\n")


def write_table(path, columns: dict, line_end: str) -> None:
    """A header of column names, then one line per row of comma-separated cells.

    columns maps each name to an equal-length 1-D float64 or integer array;
    any other value raises TypeError. A cell's text is the repr of the
    Python int or float that `.tolist()` makes of it, as `csv` writes it.
    Each block of about _BLOCK_CELLS cells is one orjson call over its rows
    in the columns' common dtype. If that is float64, integer columns are
    written from it; with an integer beyond 2**53, Python formats each cell.
    """
    arrays = [_numbers(a, 1) for a in columns.values()]
    ints = np.array([a.dtype.kind != "f" for a in arrays]) & (np.result_type(*arrays) == np.float64)
    exact = all(-(2**53) < a.min(initial=0) and a.max(initial=0) < 2**53 for a, i in zip(arrays, ints) if i)
    step = max(1, _BLOCK_CELLS // len(arrays))
    row_format = (",".join(["{!r}"] * len(arrays)) + line_end).format
    with open_output(path) as fh:
        fh.write((",".join(columns) + line_end).encode())
        for start in range(0, len(arrays[0]), step):
            cells = [a[start : start + step] for a in arrays]
            if exact:
                fh.write(_lines(np.stack(cells, axis=1), ints).replace(b"\n", line_end.encode()))
            else:  # Python formats each cell
                fh.write("".join(map(row_format, *(c.tolist() for c in cells))).encode())


def _lines(block, ints) -> bytes:
    """Each row of a 2-D array as a line of its cells' reprs, separated by commas, ended by "\\n"; ints
    marks the integer columns of a float64 block, whose cells lose orjson's ".0"."""
    text = np.frombuffer(_number_text(block.ravel(), repr), np.uint8).copy()  # "[c,c,...,c]"
    ends = np.append(np.flatnonzero(text == ord(",")), text.size - 1).reshape(-1, block.shape[1])  # after each cell
    text[ends[:, -1]] = ord("\n")
    if ints.any():
        text = np.delete(text, (ends[:, ints, None] - (2, 1)).ravel())
    return text[1:].tobytes()


def _number_text(array, spell) -> bytes:
    """orjson's text of a C-contiguous float64 or integer array, with spell's text (repr or json's) for each number.

    orjson writes the text of the whole array in one C call. Its floats have
    the shortest digits that round-trip, as repr's do; it lays them out
    differently only outside 1e-4 <= |x| < 1e16 (0.0000625 for 6.25e-05,
    1e16 for 1e+16) and writes null for NaN and the infinities. Those few
    cells are NaN in the copy orjson writes, and each null gets spell's text.
    """
    irregular = _irregular(array)
    if not irregular.any():
        return orjson.dumps(array, option=orjson.OPT_SERIALIZE_NUMPY)
    text = orjson.dumps(np.where(irregular, np.nan, array), option=orjson.OPT_SERIALIZE_NUMPY)
    view, pieces, done = memoryview(text), [], 0
    for value in array[irregular].tolist():
        at = text.index(b"n", done)  # orjson writes an n for a number only in null
        pieces += [view[done:at], spell(value).encode()]
        done = at + 4
    return b"".join(pieces + [view[done:]])


def _is_number_array(value) -> bool:
    """Whether value is an ndarray (not a subclass) of float64 or an integer dtype, in native byte order."""
    dtype = value.dtype if type(value) is np.ndarray else None
    return dtype is not None and dtype.isnative and (dtype.kind in "iu" or dtype == np.float64)


def _numbers(value, ndim: int) -> np.ndarray:
    """value as orjson reads it, C-contiguous; TypeError unless it is a float64 or integer ndarray of ndim axes."""
    if not (_is_number_array(value) and value.ndim == ndim):
        got = f"a {value.ndim}-d {value.dtype} array" if isinstance(value, np.ndarray) else type(value).__name__
        raise TypeError(f"expected a {ndim}-d float64 or integer array, got {got}")
    return np.ascontiguousarray(value)


def _irregular(array) -> np.ndarray:
    """Mask of the elements whose orjson text is not their repr: NaN, and non-zero floats outside 1e-4 <= |x| < 1e16."""
    magnitude = np.abs(array)
    return ~(((magnitude >= 1e-4) & (magnitude < 1e16)) | (array == 0)) & (array.dtype.kind == "f")
