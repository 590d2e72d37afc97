"""The reply decoders, against jsonschema's Draft 2020-12 validator on the output schemas.

The JSON Schema files under ``tests/output_schemas`` are the reference for the
set of replies each `nova.replies` decoder accepts; nothing in `nova` reads them.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from nova.domain import FINAL_SECTIONS, INITIAL_SECTIONS, DomainParseError
from nova.gateway import extract_json
from nova.prompts import REGISTRY_NAMES, PromptLibrary
from nova.replies import DECODERS

SCHEMA_DIR = Path(__file__).parent / "output_schemas"

# The reference output schemas, by file name.
OUTPUT_SCHEMAS = tuple(sorted(path.stem for path in SCHEMA_DIR.glob("*.json")))


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.json").read_text(encoding="utf-8"))


def reference_valid(schema, value) -> bool:
    return list(jsonschema.Draft202012Validator(schema).iter_errors(value)) == []


def accepts(name: str, value) -> bool:
    """Whether the `name` decoder accepts `value`; a refusal must be a DomainParseError."""
    try:
        DECODERS[name](value)
    except DomainParseError:
        return False
    return True


def test_every_manifest_schema_name_has_a_decoder():
    library = PromptLibrary()
    names = {library.get(t).schema_name for t in REGISTRY_NAMES} - {None}
    assert names == set(DECODERS) == set(OUTPUT_SCHEMAS)
    assert len(names) == 8


def test_unknown_output_schema_raises():
    with pytest.raises(KeyError, match="no_such_schema"):
        extract_json("{}", "no_such_schema")


def _evaluations(**fields) -> dict:
    return {"evaluations": [{"index": 1, "sound": True, "score": 5, **fields}]}


def _renamed(sections: tuple[str, ...]) -> dict:
    return dict.fromkeys([*sections[:-1], "Other"], "x")


# Values on the edges the mutations below never draw: huge and non-finite
# integers, integral floats, a number where a boolean belongs, empty roots,
# 10 and 11 keywords, and a section set of the right size with a wrong name.
EDGE_VALUES = [
    [], {},
    *(_evaluations(index=v) for v in
      (10**400, 1e300, math.nan, math.inf, -math.inf, 1.0, 10.0, 0.0, 1.5, True, "1")),
    *(_evaluations(score=v) for v in (1.0, 10.0, 10.5, 11.0, 0.0, 10**400, True, math.nan)),
    *(_evaluations(sound=v) for v in (1, 0, True, False, None, 1.0)),
    *([{"thinking": "t", "idea": "i", "keywords": ["k"] * n}] for n in (10, 11)),
    _renamed(FINAL_SECTIONS), {"P": _renamed(INITIAL_SECTIONS)},
]


@pytest.mark.parametrize("name", OUTPUT_SCHEMAS)
def test_decoders_match_jsonschema_on_edge_values(name):
    schema = load_schema(name)
    for value in EDGE_VALUES:
        assert accepts(name, value) == reference_valid(schema, value), value


def test_integral_floats_decode_to_ints():
    reply = DECODERS["reflect_evaluations"](_evaluations(index=1e300, score=10.0))
    (evaluation,) = reply.evaluations
    assert evaluation.index == 1e300 and type(evaluation.index) is int
    assert evaluation.score == 10 and type(evaluation.score) is int


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
    schema = load_schema(name)
    value = data.draw(valid_values(schema))
    assert accepts(name, value) and reference_valid(schema, value)
    for _ in range(data.draw(st.integers(1, 3))):
        value = mutate(value, data)
        assert accepts(name, value) == reference_valid(schema, value)
