"""artifacts' writers write the bytes of json.dumps and of each number's repr: write_json those of
json.dumps(payload, indent=2) plus a newline, and number_texts those of repr."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vadkit.artifacts import number_texts, write_json, write_json_rows, write_table


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324, 0.1]),
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "tab\tand\nnewline", "ünï", " \x00", "😀", "nan", "Infinity"]),
    st.floats(allow_nan=True).map(np.float64),
    st.sampled_from([Level.LOW, Name("sub"), True, False]),
)
_KEYS = st.one_of(st.text(), st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none())
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
@example(payload={"grid": [{"a": 1, "b": [], "c": {}, "d": ()}], 1.5: (None, [True]), None: {"x": -0.0}})
@example(payload=[])
@example(payload="top-level string")
def test_write_json_writes_the_bytes_json_dumps_does(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(payload, path)
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "payload",
    [{"a": np.int64(3)}, [object()], {(1, 2): 0}, {"k": {b"bytes": 1}}, np.float32(1.0)],
    ids=["numpy-int", "object", "tuple-key", "bytes-key", "numpy-float32"],
)
def test_write_json_refuses_what_json_refuses(tmp_path, payload):
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError) as got:
        write_json(payload, tmp_path / "out.json")
    assert str(got.value) == str(expected.value)


# number_texts: repr's text from one orjson call, for float64 and integer arrays.

_BOUNDARY_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.0**53, 2.0**53 + 2, 1.5, 0.1, 1e300, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
    *(v for edge in (1e-4, 1e16) for v in (edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf))),
]
_FLOAT64 = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_BOUNDARY_FLOATS).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),  # any bit pattern
    st.floats(-4, 17).map(lambda e: 10.0**e),  # spread across 1e-4 <= |x| < 1e16 and past its ends
)


def _reprs(column) -> list[str]:
    return [repr(value) for value in column.tolist()]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_FLOAT64, max_size=40))
def test_number_texts_are_the_reprs_of_float64(values):
    column = np.array(values, dtype=np.float64)
    assert number_texts(column) == _reprs(column)
    assert number_texts(column[::-2]) == _reprs(column[::-2])  # a strided view


def test_number_texts_on_many_bit_patterns_and_boundaries():
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, size=50_000, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = 10.0 ** rng.uniform(-6, 18, size=50_000) * rng.choice([-1.0, 1.0], size=50_000)
    for column in (bits, spread, np.array(_BOUNDARY_FLOATS), -np.array(_BOUNDARY_FLOATS), np.empty(0)):
        assert number_texts(column) == _reprs(column)


_NOT_NUMBER_ARRAYS = [
    np.ones(3, dtype=np.float32),
    np.ones(3, dtype=np.float16),
    np.ones(3, dtype=np.bool_),
    np.array([1.0, None, "x"], dtype=object),
    [1.0, 2.0],
    np.array(1.0),
]
_NOT_NUMBER_IDS = ["float32", "float16", "bool", "object", "list", "0-d"]


@pytest.mark.parametrize("value", _NOT_NUMBER_ARRAYS, ids=_NOT_NUMBER_IDS)
def test_writers_refuse_what_is_not_a_float64_or_integer_array(tmp_path, value):
    """number_texts and write_table take 1-D, and write_json_rows 2-D, float64 or integer arrays, and
    write_json leaves every other array to json, which refuses it."""
    rows = np.stack([value] * 2) if isinstance(value, np.ndarray) and value.ndim else [value, value]
    with pytest.raises(TypeError):
        number_texts(value)
    with pytest.raises(TypeError):
        write_table(tmp_path / "t.csv", {"a": np.arange(3), "b": value}, "\n")
    with pytest.raises(TypeError):
        write_json_rows({"fft_size": 8, "rows": rows}, tmp_path / "rows.json")
    if not isinstance(value, list):  # a list is JSON
        with pytest.raises(TypeError):
            write_json({"a": value}, tmp_path / "out.json")
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "rows.json").exists()


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64])
def test_number_texts_of_integers(dtype):
    info = np.iinfo(dtype)
    column = np.array([info.min, info.max, 0, 1, info.max // 3], dtype=dtype)
    assert number_texts(column) == _reprs(column)
    assert number_texts(column[1::2]) == _reprs(column[1::2])


def _table_by_format(columns: dict, line_end: str) -> bytes:
    """The table as write_table wrote it before number_texts: each cell "{!r}" of its `.tolist()` value."""
    row = ",".join(["{!r}"] * len(columns)) + line_end
    body = "".join(map(row.format, *(a.tolist() for a in columns.values())))
    return (",".join(columns) + line_end + body).encode()


_COLUMN_DTYPES = [np.float64, np.int64, np.int8, np.uint16]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 9000),
    kinds=st.lists(st.sampled_from(range(len(_COLUMN_DTYPES))), min_size=1, max_size=4),
    line_end=st.sampled_from(["\n", "\r\n"]),
)
def test_write_table_writes_the_bytes_of_the_format_it_replaces(tmp_path_factory, data, n, kinds, line_end):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for i, kind in enumerate(kinds):
        dtype = _COLUMN_DTYPES[kind]
        if np.dtype(dtype).kind == "f":
            raw = rng.standard_normal(2 * n) * 10.0 ** rng.integers(-8, 20, 2 * n)
            raw[rng.random(2 * n) < 0.01] = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf])
        else:
            raw = rng.integers(-(2**62), 2**62, 2 * n)
        columns[f"c{i}"] = raw.astype(dtype)[::2]  # every column a strided view
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, columns, line_end)
    assert path.read_bytes() == _table_by_format(columns, line_end)


def test_write_table_of_record_fields(tmp_path):
    frames = np.zeros(5000, dtype=[("start_s", "f8"), ("energy_db", "f8"), ("count", "i4"), ("flag", "i1")])
    rng = np.random.default_rng(4)
    frames["start_s"] = np.arange(5000) * 0.155
    frames["energy_db"] = 10 * np.log10(rng.random(5000) * 1e-7)
    frames["count"] = rng.integers(-9, 9, 5000)
    frames["flag"] = rng.random(5000) < 0.5
    columns = {name: frames[name] for name in frames.dtype.names}
    write_table(tmp_path / "f.csv", columns, "\r\n")
    assert (tmp_path / "f.csv").read_bytes() == _table_by_format(columns, "\r\n")


def test_write_json_rows_writes_the_bytes_json_dumps_does(tmp_path):
    rng = np.random.default_rng(6)
    matrix = 20 * np.log10(rng.random((7, 9)) + 1e-9)
    matrix[2, 3], matrix[4, :2], matrix[5, 0] = math.nan, (math.inf, -math.inf), 1e-5
    head = {"fft_size": 1024, "note": "ünï", "scale": 0.5}
    payloads = [
        ({**head, "rows": matrix}, {**head, "rows": matrix.tolist()}),
        ({"rows": np.empty((0, 3))}, {"rows": []}),
        ({"rows": np.empty((2, 0))}, {"rows": [[], []]}),
    ]
    for payload, listed in payloads:
        write_json_rows(payload, tmp_path / "rows.json")
        assert (tmp_path / "rows.json").read_bytes() == (json.dumps(listed) + "\n").encode()


@settings(max_examples=100, deadline=None)
@given(
    shape=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    dtype=st.sampled_from([np.float64, np.int64, np.uint8]),
    values=st.lists(_FLOAT64, min_size=64, max_size=64),
)
def test_write_json_lays_out_a_number_array_as_its_tolist(tmp_path_factory, shape, dtype, values):
    size = math.prod(shape)
    array = np.resize(np.array(values), size)
    if dtype is not np.float64:
        array = np.nan_to_num(array, posinf=0, neginf=0) % 200
    array = array.astype(dtype).reshape(shape)
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json({"a": array, "b": [array, 1]}, path)
    listed = array.tolist()
    assert path.read_bytes() == (json.dumps({"a": listed, "b": [listed, 1]}, indent=2) + "\n").encode()
