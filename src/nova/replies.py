"""The replies the prompt templates ask for: one decoder per reply shape.

A manifest entry's ``schema_name`` names its template's reply shape, and
`DECODERS` maps it to the function that turns a reply's JSON value into what
the caller reads, or raises `DomainParseError`. A decoder accepts exactly what
the Draft 2020-12 JSON Schema of its shape in ``tests/output_schemas`` accepts,
as the tests check, so an integer is a `JsonInt` and ``1.0`` is one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .domain import (
    FINAL_SECTIONS, INITIAL_SECTIONS, DecompositionModule, Direction, DomainParseError, JsonInt,
    Record,
)


@dataclass(frozen=True)
class IdeaReply(Record):
    """One idea of an ``idea_list`` reply."""

    thinking: str
    idea: str
    keywords: tuple[str, ...]

    def validate(self) -> list[str]:
        out = [] if self.idea else ["IdeaReply.idea: must be nonempty"]
        if not 1 <= len(self.keywords) <= 10:
            out.append(f"IdeaReply.keywords: expected 1-10 entries, got {len(self.keywords)}")
        if not all(self.keywords):
            out.append("IdeaReply.keywords: entries must be nonempty")
        return out


@dataclass(frozen=True)
class SearchPlanReply(Record):
    """A ``search_plan`` reply; a direction may have no keyword."""

    directions: tuple[Direction, ...]

    def validate(self) -> list[str]:
        return [] if self.directions else ["SearchPlanReply.directions: must be nonempty"]


@dataclass(frozen=True)
class DecompositionReply(Record):
    """A ``decomposition`` reply; a module may have no keyword."""

    modules: tuple[DecompositionModule, ...]
    thinking: str = ""

    def validate(self) -> list[str]:
        out = [] if self.modules else ["DecompositionReply.modules: must be nonempty"]
        return out + [f"DecompositionReply.modules[{n}].name: must be nonempty"
                      for n, module in enumerate(self.modules) if not module.name]


@dataclass(frozen=True)
class Evaluation(Record):
    """The review of the candidate numbered `index` (from 1) in a reflection list."""

    index: JsonInt
    sound: bool
    score: JsonInt

    def validate(self) -> list[str]:
        out = [] if self.index >= 1 else ["Evaluation.index: must be at least 1"]
        if not 1 <= self.score <= 10:
            out.append("Evaluation.score: must be in 1..10")
        return out


@dataclass(frozen=True)
class ReflectReply(Record):
    """A ``reflect_evaluations`` reply."""

    evaluations: tuple[Evaluation, ...]

    def validate(self) -> list[str]:
        return [] if self.evaluations else ["ReflectReply.evaluations: must be nonempty"]


def _idea_list(value) -> tuple[IdeaReply, ...]:
    if not isinstance(value, list) or not value:
        raise DomainParseError("idea_list: must be a nonempty list")
    return tuple(map(IdeaReply.from_dict, value))


def _verdict(key: str, members: tuple[str, ...]):
    """The decoder of a ``{key: <one of members>}`` reply, which returns the member."""

    def decode(value) -> str:
        if not isinstance(value, dict) or value.keys() != {key} or value[key] not in members:
            raise DomainParseError(f"verdict: must be {{{key!r}: one of {list(members)}}}")
        return value[key]

    return decode


def _sections(value, names: tuple[str, ...]) -> dict[str, str]:
    """`value` in `names` order, if it maps exactly those names to nonempty strings."""
    if not isinstance(value, dict) or value.keys() != set(names):
        raise DomainParseError(f"sections: must be exactly {list(names)}")
    if not all(isinstance(body, str) and body for body in value.values()):
        raise DomainParseError("sections: each must be a nonempty string")
    return {name: value[name] for name in names}


def _named_sections(value) -> tuple[str, dict[str, str]]:
    """An ``initial_proposal`` reply, ``{name: sections}``, as (name, sections)."""
    if not isinstance(value, dict) or len(value) != 1:
        raise DomainParseError("initial_proposal: must be an object with one member")
    ((name, sections),) = value.items()
    return name, _sections(sections, INITIAL_SECTIONS)


DECODERS = {
    "idea_list": _idea_list,
    "search_plan": SearchPlanReply.from_dict,
    "decomposition": DecompositionReply.from_dict,
    "reflect_evaluations": ReflectReply.from_dict,
    "pair_verdict": _verdict("winner", ("A", "B")),
    "novelty_verdict": _verdict("verdict", ("similar", "different")),
    "initial_proposal": _named_sections,
    "final_proposal": functools.partial(_sections, names=FINAL_SECTIONS),
}
