"""Loading and applying the shipped JSON schemas of LLM replies.

One schema family lives under ``nova/schemas/outputs``: the shape each prompt
template's reply must have. The artifacts a run stores have no JSON schema;
their `domain.Record` types are their only description.

LLM replies only need a valid-or-invalid verdict, once per candidate value,
so each output schema is compiled on first use into a plain predicate
(:func:`output_schema_check`). The compiler knows only the keywords the
shipped output schemas use and implements them with Draft 2020-12 semantics;
any other keyword is an error at compile time, never silently ignored.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from importlib import resources
from typing import Callable

_PACKAGE = "nova.schemas"


@lru_cache(maxsize=None)
def load_output_schema(name: str) -> dict:
    path = resources.files(_PACKAGE) / "outputs" / f"{name}.json"
    if not path.is_file():
        raise KeyError(f"unknown output schema {name!r}")
    return json.loads(path.read_text(encoding="utf-8"))


Check = Callable[[object], bool]

_DIALECT = "https://json-schema.org/draft/2020-12/schema"
_ANNOTATIONS = frozenset({"$schema", "$id", "title"})
_OBJECT_KEYWORDS = frozenset(
    {"properties", "required", "additionalProperties", "minProperties", "maxProperties"}
)
_ARRAY_KEYWORDS = frozenset({"items", "minItems", "maxItems"})
_STRING_KEYWORDS = frozenset({"minLength"})
_NUMBER_KEYWORDS = frozenset({"minimum", "maximum"})
_KEYWORDS = (
    _ANNOTATIONS | _OBJECT_KEYWORDS | _ARRAY_KEYWORDS | _STRING_KEYWORDS | _NUMBER_KEYWORDS
    | {"type", "enum"}
)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Draft 2020-12 types: booleans are not numbers, and 1.0 is an integer.
_TYPE_TESTS: dict[str, Check] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _json_equal(a, b) -> bool:
    """Equality as `enum` defines it: `true` is not `1`, `1` is `1.0`."""
    if a is b:
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


def _all_of(checks: list[Check]) -> Check:
    if len(checks) == 1:
        return checks[0]

    def check(value) -> bool:
        for one in checks:
            if not one(value):
                return False
        return True

    return check


def _object_check(schema: dict, where: str) -> Check:
    props = {
        name: compile_check(sub, f"{where}/properties/{name}")
        for name, sub in schema.get("properties", {}).items()
    }
    required = tuple(schema.get("required", ()))
    extra = compile_check(
        schema.get("additionalProperties", True), f"{where}/additionalProperties"
    )
    low, high = schema.get("minProperties", 0), schema.get("maxProperties", math.inf)

    def check(obj: dict) -> bool:
        if not low <= len(obj) <= high:
            return False
        for name in required:
            if name not in obj:
                return False
        for name, value in obj.items():
            if not props.get(name, extra)(value):
                return False
        return True

    return check


def _array_check(schema: dict, where: str) -> Check:
    item = compile_check(schema.get("items", True), f"{where}/items")
    low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
    return lambda arr: low <= len(arr) <= high and all(map(item, arr))


def _string_check(schema: dict, where: str) -> Check:
    low = schema["minLength"]
    return lambda s: len(s) >= low


def _number_check(schema: dict, where: str) -> Check:
    low, high = schema.get("minimum", -math.inf), schema.get("maximum", math.inf)
    # Written as "not out of range" so NaN passes, as it does in Draft 2020-12.
    return lambda n: not (n < low or n > high)


# Keywords that constrain one instance type, and vacuously pass every other type.
_FAMILIES = (
    (_OBJECT_KEYWORDS, _TYPE_TESTS["object"], _object_check),
    (_ARRAY_KEYWORDS, _TYPE_TESTS["array"], _array_check),
    (_STRING_KEYWORDS, _TYPE_TESTS["string"], _string_check),
    (_NUMBER_KEYWORDS, _is_number, _number_check),
)


def compile_check(schema: dict | bool, where: str = "#") -> Check:
    """A predicate equal to "`schema` validates the value" under Draft 2020-12.

    Raises ValueError, naming the place `where` in the schema, if the schema
    uses a keyword the compiler does not know.
    """
    if isinstance(schema, bool):
        return (lambda v: True) if schema else (lambda v: False)
    if not isinstance(schema, dict):
        raise ValueError(f"{where}: a schema must be an object or a boolean")
    unsupported = schema.keys() - _KEYWORDS
    if unsupported:
        raise ValueError(f"{where}: unsupported schema keyword(s) {sorted(unsupported)}")
    if schema.get("$schema", _DIALECT) != _DIALECT:
        raise ValueError(f"{where}: only {_DIALECT} is supported")
    checks: list[Check] = []
    if "type" in schema:
        if not isinstance(schema["type"], str) or schema["type"] not in _TYPE_TESTS:
            raise ValueError(f"{where}: unsupported type {schema['type']!r}")
        checks.append(_TYPE_TESTS[schema["type"]])
    if "enum" in schema:
        members = list(schema["enum"])
        checks.append(lambda v: any(_json_equal(m, v) for m in members))
    for keywords, is_type, compile_family in _FAMILIES:
        if schema.keys() & keywords:
            family = compile_family(schema, where)
            checks.append(lambda v, is_type=is_type, family=family: not is_type(v) or family(v))
    return _all_of(checks)


@lru_cache(maxsize=None)
def output_schema_check(name: str) -> Check:
    """The compiled checker for the named output schema, built on first use."""
    return compile_check(load_output_schema(name))

