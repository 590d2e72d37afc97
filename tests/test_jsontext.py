"""`jsontext.dumps` writes what `json.dumps(..., ensure_ascii=False)` writes, byte for byte."""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from nova.jsontext import dumps


def stdlib(value, indent: bool, newline: bool) -> bytes:
    """The stdlib text `dumps` must equal: the forms the run files and cache keys had."""
    if indent:
        text = json.dumps(value, ensure_ascii=False, indent=2)
    else:
        text = json.dumps(value, ensure_ascii=False, separators=(",", ":"))
    return (text + "\n" if newline else text).encode("utf-8")


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def assert_same(value) -> None:
    for indent in (False, True):
        for newline in (False, True):
            want = outcome(lambda: stdlib(value, indent, newline))
            assert outcome(lambda: dumps(value, indent=indent, newline=newline)) == want, (
                value, indent, newline)


class Color(enum.Enum):
    RED = 1


class Level(enum.IntEnum):
    HIGH = 2


@dataclass
class Point:
    x: int


def _cycle():
    loop: list = []
    loop.append(loop)
    return loop


def _nested(depth: int):
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


# Every kind of value orjson 3.8 writes otherwise than the stdlib, or refuses,
# alone and inside containers.
DIFFERENT = [
    1e-05, -1e-05, 9.999999999999999e-05, 5e-324, -5e-324, 1e16, -1e16, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
    2**64, -(2**63) - 1, 10**40,
    {1: "int key"}, {1.5: "float key"}, {None: 1}, {True: 1},
    "lone \ud800 surrogate", {"\udfff": 1}, ["\ud83d"],
    Color.RED, Level.HIGH, Point(1),
    _cycle(), _nested(300),
]


@pytest.mark.parametrize("value", DIFFERENT, ids=lambda v: repr(v)[:24])
def test_the_values_orjson_writes_otherwise_go_to_the_stdlib(value):
    assert_same(value)
    assert_same({"nested": [value, {"again": value}]})
    assert_same((value, 1.0))


# Where orjson and the stdlib agree, at the edges of the ranges.
SAME = [
    0.0, -0.0, 1e-4, -1e-4, 9999999999999998.0, 0.1, 1 / 3, 123456789.125,
    -(2**63), 2**64 - 1, 0, True, False, None,
    "", "\x00\x01\x1f\x7f \"\\/\b\f\n\r\t", "caf\u00e9 \u2028\u2029 \U0001f600 \ufeff",
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, (), {"": ""},
]


@pytest.mark.parametrize("value", SAME, ids=lambda v: repr(v)[:24])
def test_the_values_both_write_alike(value):
    assert_same(value)


def test_every_control_character_and_a_plane_sample_encode_alike():
    assert_same("".join(chr(c) for c in range(0x20)))
    assert_same([chr(c) for c in range(0x7f, 0x800)])
    assert_same([chr(c) for c in range(0xE000, 0x110000, 97)])


SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-(2**64), max_value=2**65),
    st.floats(), st.floats(min_value=-1e-3, max_value=1e-3),
    st.floats(min_value=1e15, max_value=1e17), st.sampled_from(DIFFERENT[:14]),
    st.text(st.characters(blacklist_categories=())),  # surrogates included
    st.text(st.characters(max_codepoint=0x40)),  # control characters
)
KEYS = st.one_of(st.text(st.characters(blacklist_categories=()), max_size=5),
                 st.integers(), st.floats(), st.none(), st.booleans())
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=300)
@given(VALUES)
def test_dumps_equals_the_stdlib_on_random_payloads(value):
    assert_same(value)
