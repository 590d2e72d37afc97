"""Compiled output-schema checkers, against jsonschema's Draft 2020-12 validator."""

from __future__ import annotations

import copy
import math
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from nova import schemas
from nova.prompts import REGISTRY_NAMES, PromptLibrary

# The shipped output schemas, by file name.
OUTPUT_SCHEMAS = tuple(sorted(
    entry.name.removesuffix(".json")
    for entry in (resources.files("nova.schemas") / "outputs").iterdir()
    if entry.name.endswith(".json")
))


def reference_valid(schema, value) -> bool:
    return list(jsonschema.Draft202012Validator(schema).iter_errors(value)) == []


def test_every_manifest_schema_name_compiles():
    library = PromptLibrary()
    names = {library.get(t).schema_name for t in REGISTRY_NAMES} - {None}
    assert names == set(OUTPUT_SCHEMAS)
    for name in names:
        assert callable(schemas.output_schema_check(name))


def test_unknown_output_schema_raises():
    with pytest.raises(KeyError, match="no_such_schema"):
        schemas.output_schema_check("no_such_schema")


@pytest.mark.parametrize("schema,where", [
    ({"type": "string", "pattern": "^a"}, "pattern"),
    ({"type": "object", "properties": {"a": {"format": "email"}}}, "format"),
    ({"type": "array", "items": [{"type": "string"}]}, "#/items"),
    ({"type": "array", "items": {"uniqueItems": True}}, "uniqueItems"),
    ({"additionalProperties": {"const": 1}}, "const"),
    ({"type": ["string", "null"]}, "unsupported type"),
    ({"$schema": "http://json-schema.org/draft-07/schema#"}, "2020-12"),
])
def test_unsupported_schema_raises(schema, where):
    with pytest.raises(ValueError, match=where):
        schemas.compile_check(schema)


# Schemas that use the supported keywords where the output schemas do not:
# without `type`, with non-string `enum` members, and at type boundaries.
EDGE_SCHEMAS = [
    {"enum": [True, 1.0, [1], {"a": False}, "A", None]},
    {"minimum": 1, "maximum": 3},
    {"type": "integer"},
    {"type": "number", "minimum": 0},
    {"type": "null"},
    {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 2},
    {"properties": {"a": {"type": "string"}}, "minItems": 1, "minLength": 2},
    {"required": ["a"], "additionalProperties": False, "maxProperties": 0},
    True,
    False,
]
EDGE_VALUES = [
    None, True, False, 0, 1, 1.0, 1.5, 2, 3, 4, -1, 2**70, math.inf, math.nan,
    "", "A", "ab", [], [1], [True], [1.0], [[1]], [1, 2], [1, 2, 3],
    {}, {"a": 0}, {"a": False},
    {"a": "x"}, {"b": 1},
]


@pytest.mark.parametrize("schema", EDGE_SCHEMAS, ids=str)
def test_edge_schemas_match_reference(schema):
    check = schemas.compile_check(schema)
    for value in EDGE_VALUES:
        assert check(value) == reference_valid(schema, value), value


# ---------------------------------------------------------------------------
# Differential test on mutated replies
# ---------------------------------------------------------------------------


def valid_values(schema: dict) -> st.SearchStrategy:
    """Values that satisfy one of the shipped output schemas."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        extra = schema.get("additionalProperties", True)
        if isinstance(extra, dict):
            return st.dictionaries(
                st.text(min_size=1, max_size=8), valid_values(extra),
                min_size=schema.get("minProperties", 0), max_size=schema.get("maxProperties", 3),
            )
        props, required = schema.get("properties", {}), set(schema.get("required", ()))
        return st.fixed_dictionaries(
            {k: valid_values(s) for k, s in props.items() if k in required},
            optional={k: valid_values(s) for k, s in props.items() if k not in required},
        )
    if kind == "array":
        low = schema.get("minItems", 0)
        return st.lists(valid_values(schema["items"]), min_size=low,
                        max_size=max(low, min(schema.get("maxItems", 3), 3)))
    if kind == "string":
        return st.text(min_size=schema.get("minLength", 0), max_size=12)
    if kind == "integer":
        return st.integers(schema.get("minimum", -1000), schema.get("maximum", 1000))
    if kind == "boolean":
        return st.booleans()
    raise AssertionError(f"no strategy for {schema}")


# Replacements that sit on a type or range boundary of some output schema.
TRICKY = [None, True, False, 0, 1, -1, 1.0, 2.0, 1.5, 10, 11, math.nan, "", "x", "A",
          "similar", [], [1], ["k"], {}, {"a": 1}]
EXTRA_KEYS = ["extra", "thinking", "idea", "keywords", "name", "verdict", "Title"]


def locations(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from locations(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from locations(item, path + (index,))


def mutate(root, data):
    """Rewrite one drawn spot of `root`: the mutations the output schemas must catch."""
    path = data.draw(st.sampled_from(list(locations(root))))
    target = root
    for step in path:
        target = target[step]
    ops = ["replace"]
    if isinstance(target, dict):
        ops += ["drop_key", "add_key"] if target else ["add_key"]
    elif isinstance(target, list):
        ops += ["shrink", "grow"]
    elif isinstance(target, str):
        ops += ["empty"]
    elif isinstance(target, (int, float)) and not isinstance(target, bool):
        ops += ["nudge", "as_float", "as_bool"]
    op = data.draw(st.sampled_from(ops))

    def tricky():
        return copy.deepcopy(data.draw(st.sampled_from(TRICKY)))

    if op == "drop_key":
        del target[data.draw(st.sampled_from(sorted(target)))]
        return root
    if op == "add_key":
        target[data.draw(st.sampled_from(EXTRA_KEYS))] = tricky()
        return root
    if op == "shrink":
        new = target[: data.draw(st.integers(0, max(0, len(target) - 1)))]
    elif op == "grow":
        size = data.draw(st.sampled_from([len(target) + 1, 10, 11]))
        new = target + (target[:1] or [tricky()]) * max(1, size - len(target))
    elif op == "empty":
        new = ""
    elif op == "nudge":
        new = target + data.draw(st.sampled_from([-1, 1]))
    elif op == "as_float":
        new = float(target)
    elif op == "as_bool":
        new = data.draw(st.booleans())
    else:
        new = tricky()
    if not path:
        return new
    parent = root
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    return root


@pytest.mark.parametrize("name", OUTPUT_SCHEMAS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_checker_matches_jsonschema_on_mutated_replies(name, data):
    schema = schemas.load_output_schema(name)
    check = schemas.output_schema_check(name)
    value = data.draw(valid_values(schema))
    assert check(value) and reference_valid(schema, value)
    for _ in range(data.draw(st.integers(1, 3))):
        value = mutate(value, data)
        assert check(value) == reference_valid(schema, value)
