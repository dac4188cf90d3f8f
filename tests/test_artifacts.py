"""artifacts.write_json writes the bytes of json.dumps(payload, indent=2) plus a newline."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vadkit.artifacts import write_json


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
