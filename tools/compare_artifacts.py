"""Say how two artifact trees differ, file by file.

    python3 tools/compare_artifacts.py PARENT CHANGE

PARENT and CHANGE are directories that `tools/artifact_digests.py --keep`
wrote. Each file present in either tree gets one line, with one of three
results:

    identical  PATH                      the bytes are the same
    floats     PATH  FIELD |d| (at V) ...  every value that is not a float is
                                         the same; for each float field whose
                                         values moved, the largest |change|,
                                         and V, the parent's value there
    differs    PATH  REASON              anything else

JSON files compare value by value; a field is the key path, with `[]` for a
list index. CSV files compare cell by cell; a field is the column. Every
other file, PGM and WAV included, compares byte for byte. The last line
counts each result. The exit status is 1 when a file differs, else 0.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys


class Differs(Exception):
    """The files differ in something other than float values."""


def relpaths(root: str) -> set[str]:
    found = set()
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def _float_delta(field: str, old: float, new: float, deltas: dict) -> None:
    if old == new or (old != old and new != new):  # equal, or NaN on both sides
        return
    delta = abs(new - old)
    if not delta == delta:  # NaN on one side, or inf against -inf
        raise Differs(f"{field}: {old!r} -> {new!r}")
    if delta > deltas.get(field, (0.0, 0.0))[0]:
        deltas[field] = (delta, old)


def _json_deltas(old, new, field: str, deltas: dict) -> None:
    if type(old) is not type(new):
        raise Differs(f"{field or '.'}: {type(old).__name__} -> {type(new).__name__}")
    if isinstance(old, float):
        _float_delta(field, old, new, deltas)
    elif isinstance(old, dict):
        if list(old) != list(new):
            raise Differs(f"{field or '.'}: keys {list(old)} -> {list(new)}")
        for key in old:
            _json_deltas(old[key], new[key], f"{field}.{key}" if field else key, deltas)
    elif isinstance(old, list):
        if len(old) != len(new):
            raise Differs(f"{field or '.'}: {len(old)} -> {len(new)} items")
        for a, b in zip(old, new):
            _json_deltas(a, b, f"{field}[]", deltas)
    elif old != new:
        raise Differs(f"{field or '.'}: {old!r} -> {new!r}")


def _cell(text: str):
    """An int or a str stays as it is; anything else float() reads is a float."""
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _csv_deltas(old_text: str, new_text: str, deltas: dict) -> None:
    old_rows = list(csv.reader(io.StringIO(old_text)))
    new_rows = list(csv.reader(io.StringIO(new_text)))
    if len(old_rows) != len(new_rows):
        raise Differs(f"{len(old_rows)} -> {len(new_rows)} rows")
    if not old_rows:
        return
    header = old_rows[0]
    if new_rows[0] != header:
        raise Differs(f"header {header} -> {new_rows[0]}")
    for line, (old_row, new_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=2):
        if len(old_row) != len(new_row):
            raise Differs(f"line {line}: {len(old_row)} -> {len(new_row)} cells")
        for i, (a, b) in enumerate(zip(old_row, new_row)):
            field = header[i] if i < len(header) else f"column {i + 1}"
            a, b = _cell(a), _cell(b)
            if isinstance(a, float) and isinstance(b, float):
                _float_delta(field, a, b, deltas)
            elif a != b:
                raise Differs(f"line {line} {field}: {a!r} -> {b!r}")


def compare(old_path: str, new_path: str) -> tuple[str, str]:
    """(result, detail) for one pair of files."""
    with open(old_path, "rb") as fh:
        old = fh.read()
    with open(new_path, "rb") as fh:
        new = fh.read()
    if old == new:
        return "identical", ""
    kind = os.path.splitext(old_path)[1].lower()
    deltas: dict = {}
    try:
        if kind == ".json":
            _json_deltas(json.loads(old), json.loads(new), "", deltas)
        elif kind == ".csv":
            _csv_deltas(old.decode(), new.decode(), deltas)
        else:
            raise Differs(f"{len(old)} -> {len(new)} bytes, compared byte for byte")
    except Differs as exc:
        return "differs", str(exc)
    if not deltas:  # same values, other text
        return "differs", "same values, other bytes"
    return "floats", ", ".join(f"{field} {d:.2g} (at {at:.6g})" for field, (d, at) in deltas.items())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_artifacts.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = argv
    counts = {"identical": 0, "floats": 0, "differs": 0}
    old_files, new_files = relpaths(parent), relpaths(change)
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            result, detail = "differs", f"only in {parent if rel in old_files else change}"
        else:
            result, detail = compare(os.path.join(parent, rel), os.path.join(change, rel))
        counts[result] += 1
        print(f"{result:<10} {rel}  {detail}".rstrip())
    print(", ".join(f"{n} {result}" for result, n in counts.items()))
    return 1 if counts["differs"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
