"""artifacts' writers write the bytes of json.dumps and of each number's repr: write_json those of
json.dumps(payload, indent=2) plus a newline, write_json_rows those of json.dumps(payload) plus a
newline, and write_table each cell's repr."""

import dataclasses
import datetime
import enum
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vadkit.artifacts import _BLOCK_CELLS, write_json, write_json_rows, write_table


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


@dataclasses.dataclass
class Record:
    x: int = 1


# Text json escapes and orjson writes raw, and text that reads like a float orjson spells unlike repr.
_ODD_STRINGS = ["\x7f", "\u2028", " 1e-6,", "0.00001", '"k": 1e-6']
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324, 0.1]),
    st.sampled_from([1e-05, 9.99e-05, -1.5e-07, 1e-09, 1e16, -1.5e17]),  # orjson spells these unlike repr
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "tab\tand\nnewline", "ünï", " \x00", "😀", "nan", "Infinity"]),
    st.sampled_from(_ODD_STRINGS),
    st.floats(allow_nan=True).map(np.float64),
    st.sampled_from([Level.LOW, Name("sub"), True, False]),
)
_KEYS = st.one_of(
    st.text(), st.sampled_from(_ODD_STRINGS), st.integers(), st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.none(),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
    )


_PAYLOADS = st.recursive(_LEAVES, _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
@example(payload={"grid": [{"a": 1, "b": [], "c": {}, "d": ()}], 1.5: (None, [True]), None: {"x": -0.0}})
@example(payload=[])
@example(payload="top-level string")
def test_write_json_writes_the_bytes_json_dumps_does(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(payload, path)
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


# Arrays of every kind write_json lays out: NaN and floats orjson spells unlike repr, strided, empty, integer.
_ARRAYS = st.sampled_from([
    np.arange(3.0), np.array([[1e-05, 2.5], [1e16, -0.0]]), np.array([math.nan, 1.0]), np.arange(12.0)[::3],
    np.empty((2, 0)), np.array([[7]], dtype=np.uint8), np.arange(-3, 3).reshape(3, 2)[:, ::-1],
])


@settings(max_examples=200, deadline=None)
@given(payload=st.recursive(_LEAVES | _ARRAYS, _containers, max_leaves=20))
@example(payload=np.array([[1e-05, 2.5], [1e16, -0.0]]))
@example(payload={"a": None, "b": np.arange(3.0), "c": [[{"d": np.arange(2)}]]})
@example(payload=[np.array([math.nan, 1.0]), 1e-05])
@example(payload={'"k": 1e-6': 5, "e5": [np.arange(2.0)], "0.00001": -7})
def test_write_json_lays_out_arrays_at_any_depth_among_any_values(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(payload, path)
    assert path.read_bytes() == (json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n").encode()


@pytest.mark.parametrize(
    "payload",
    [
        {"a": np.int64(3)}, [object()], {(1, 2): 0}, {"k": {b"bytes": 1}}, np.float32(1.0),
        [datetime.date(2020, 1, 1)], {"record": Record()},
    ],
    ids=["numpy-int", "object", "tuple-key", "bytes-key", "numpy-float32", "date", "dataclass"],
)
def test_write_json_refuses_what_json_refuses(tmp_path, payload):
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError) as got:
        write_json(payload, tmp_path / "out.json")
    assert str(got.value) == str(expected.value)


# Number texts: write_table writes each number as its repr, from orjson's text and, for the few
# numbers orjson spells otherwise, from repr; the texts of a one-column table are checked here.
def _table_by_format(columns: dict, line_end: str) -> bytes:
    """The table as write_table wrote it before orjson: each cell "{!r}" of its `.tolist()` value."""
    row = ",".join(["{!r}"] * len(columns)) + line_end
    body = "".join(map(row.format, *(a.tolist() for a in columns.values())))
    return (",".join(columns) + line_end + body).encode()


def _writes_each_repr(path, column) -> bool:
    """Whether write_table writes column, alone in its table, as its format did."""
    write_table(path, {"x": column}, "\n")
    return path.read_bytes() == _table_by_format({"x": column}, "\n")


# Floats whose orjson text is not their repr (outside 1e-4 <= |x| < 1e16, NaN and the infinities), and the edges.
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


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_FLOAT64, max_size=40))
def test_number_texts_are_the_reprs_of_float64(tmp_path_factory, values):
    column = np.array(values, dtype=np.float64)
    path = tmp_path_factory.mktemp("table") / "t.csv"
    assert _writes_each_repr(path, column)
    assert _writes_each_repr(path, column[::-2])  # a strided view


def test_number_texts_on_many_bit_patterns_and_boundaries(tmp_path):
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, size=50_000, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = 10.0 ** rng.uniform(-6, 18, size=50_000) * rng.choice([-1.0, 1.0], size=50_000)
    for column in (bits, spread, np.array(_BOUNDARY_FLOATS), -np.array(_BOUNDARY_FLOATS), np.empty(0)):
        assert _writes_each_repr(tmp_path / "t.csv", column)


_NOT_NUMBER_ARRAYS = [
    np.ones(3, dtype=np.float32),
    np.ones(3, dtype=np.float16),
    np.ones(3, dtype=np.bool_),
    np.array([1.0, None, "x"], dtype=object),
    [1.0, 2.0],
    np.array(1.0),
    np.ones(3, dtype=">i8"),
]
_NOT_NUMBER_IDS = ["float32", "float16", "bool", "object", "list", "0-d", "big-endian"]


@pytest.mark.parametrize("value", _NOT_NUMBER_ARRAYS, ids=_NOT_NUMBER_IDS)
def test_writers_refuse_what_is_not_a_float64_or_integer_array(tmp_path, value):
    """write_table takes 1-D, and write_json_rows 2-D, float64 or integer arrays, and write_json
    leaves every other array to json, which refuses it."""
    rows = np.stack([value] * 2).astype(value.dtype) if isinstance(value, np.ndarray) and value.ndim else [value, value]
    with pytest.raises(TypeError):
        write_table(tmp_path / "t.csv", {"a": np.arange(3), "b": value}, "\n")
    with pytest.raises(TypeError):
        write_json_rows({"fft_size": 8, "rows": rows}, tmp_path / "rows.json")
    if not isinstance(value, list):  # a list is JSON
        with pytest.raises(TypeError):
            write_json({"a": value}, tmp_path / "out.json")
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "rows.json").exists()


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64])
def test_number_texts_of_integers(tmp_path, dtype):
    info = np.iinfo(dtype)
    column = np.array([info.min, info.max, 0, 1, info.max // 3], dtype=dtype)
    assert _writes_each_repr(tmp_path / "t.csv", column)
    assert _writes_each_repr(tmp_path / "t.csv", column[1::2])


def test_write_table_writes_nan_and_the_infinities_as_repr_does(tmp_path):
    write_table(tmp_path / "t.csv", {"x": np.array([math.nan, math.inf, -math.inf, 1e-05, 1e16])}, "\r\n")
    assert (tmp_path / "t.csv").read_bytes() == b"x\r\nnan\r\ninf\r\n-inf\r\n1e-05\r\n1e+16\r\n"


def test_write_table_at_the_edges_of_its_blocks(tmp_path):
    """Cells orjson spells unlike repr first and last in a block and last in a row, in a table of
    exactly two blocks of one dtype and in a mixed-dtype table that crosses a block; integers beside
    floats up to 2**53 - 1, which float64 holds, and past it, which it does not."""
    rng = np.random.default_rng(22)
    step = _BLOCK_CELLS // 2  # rows in a block of two columns
    a, b = rng.standard_normal((2, _BLOCK_CELLS))
    a[0], b[step - 1], a[step], b[5], b[-1] = math.nan, 1e-05, -math.inf, 1e16, math.inf
    tables = [{"a": a, "b": b}]
    step = _BLOCK_CELLS // 4  # rows in a block of four columns; the two float64 columns are one run
    n = step + 3
    c, d = rng.standard_normal((2, n))
    c[0], d[step - 1], c[step], d[-1] = 6.25e-05, -math.nan, 1e20, -5e-324
    tables.append({"index": np.arange(n), "c": c, "d": d, "flag": rng.integers(0, 2, n).astype(np.int8)})
    edge = np.array([2**53 - 1, 1 - 2**53, 0, -7])
    for n in (edge, edge + [2, 0, 0, 0], edge - [0, 2, 0, 0]):  # then 2**53 + 1, then -(2**53) - 1
        tables.append({"x": np.array([0.5, -0.0, math.nan, 1e-05]), "n": n})
    tables.append({"i": edge, "u": np.array([2**64 - 1, 0, 3, 2**63], dtype=np.uint64)})  # their common dtype is float64
    for columns in tables:
        for line_end in ("\n", "\r\n"):
            write_table(tmp_path / "t.csv", columns, line_end)
            assert (tmp_path / "t.csv").read_bytes() == _table_by_format(columns, line_end)


def test_writers_hold_a_block_of_text_at_a_time(tmp_path):
    """The text of the whole table or matrix would take 39 and 42 MB."""
    rng = np.random.default_rng(8)
    columns = {"a": rng.standard_normal(1_000_000), "b": rng.standard_normal(1_000_000)}
    matrix = rng.standard_normal((4000, 513))
    for write in (
        lambda: write_table(tmp_path / "t.csv", columns, "\n"),
        lambda: write_json_rows({"fft_size": 1024, "rows": matrix}, tmp_path / "rows.json"),
    ):
        tracemalloc.start()
        try:
            write()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


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
    step = _BLOCK_CELLS // 513  # rows in a block of 513 columns
    spectrum = 20 * np.log10(rng.random((2 * step + 3, 513)))  # three blocks
    spectrum[0, 0], spectrum[step - 1, -1], spectrum[step, 0], spectrum[-1, -1] = math.nan, 1e-05, -math.inf, 1e16
    payloads = [
        ({**head, "rows": matrix}, {**head, "rows": matrix.tolist()}),
        ({"rows": np.empty((0, 3))}, {"rows": []}),
        ({"rows": np.empty((2, 0))}, {"rows": [[], []]}),
        ({"rows": spectrum}, {"rows": spectrum.tolist()}),
    ]
    for payload, listed in payloads:
        write_json_rows(payload, tmp_path / "rows.json")
        assert (tmp_path / "rows.json").read_bytes() == (json.dumps(listed) + "\n").encode()
    write_json_rows({"rows": np.array([[math.nan, math.inf], [-math.inf, 1e-05]])}, tmp_path / "rows.json")
    assert (tmp_path / "rows.json").read_bytes() == b'{"rows": [[NaN, Infinity], [-Infinity, 1e-05]]}\n'


@settings(max_examples=100, deadline=None)
@given(
    shape=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    dtype=st.sampled_from([np.float64, np.int64, np.uint8]),
    values=st.lists(_FLOAT64, min_size=64, max_size=64),
    step=st.sampled_from([1, 2]),
)
def test_write_json_lays_out_a_number_array_as_its_tolist(tmp_path_factory, shape, dtype, values, step):
    size = math.prod(shape)
    array = np.resize(np.array(values), size * step)
    if dtype is not np.float64:
        array = np.nan_to_num(array, posinf=0, neginf=0) % 200
    array = array.astype(dtype)[::step].reshape(shape)  # a step of 2 makes it strided, not C-contiguous
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json({"a": array, "b": [array, 1]}, path)
    listed = array.tolist()
    assert path.read_bytes() == (json.dumps({"a": listed, "b": [listed, 1]}, indent=2) + "\n").encode()
