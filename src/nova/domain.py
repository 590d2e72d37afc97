"""Shared domain types, their JSON (de)serialization, and invariant checks.

These types and their codec are the artifact format: every artifact a run
stores, and its `state.json`, is one `Record` encoded by `to_dict`, and there
is no second description of the shapes. `Record`'s `to_dict`/`from_dict` are
derived from the dataclass fields and their annotations, so a type's shape is
written down once, in its field list. The one type here that is not a
`Record` is `RetrievedDoc`, a search hit, which no artifact holds.

Serialization is plain JSON with keys emitted in field-declaration order.
Tuples become lists, nested records serialize through their own `to_dict`,
a `dict` field maps strings to one scalar type (`str`, `int` or `float`),
and a field whose default is None is omitted while it is None. A field
annotated `Embedding` (only `Idea.embedding`) is one string: the base64
(RFC 4648, standard alphabet, padded) of its values as little-endian
float64, so every value round-trips bit for bit.

`from_dict` rejects non-objects, unknown fields and wrongly typed values with
a `DomainParseError` naming the type and the field, so artifacts written by
other tools fail loudly instead of silently. A field may be absent iff it has
a default; an absent field takes that default. `str` fields take only
strings; `int` fields reject bools and floats; `float` fields accept ints.
A `JsonInt` field, used only by the LLM replies of `nova.replies`, also takes
an integral float such as ``1.0`` and decodes it to an int.

The `validate()` methods hold the semantic invariants that the types alone
cannot express. `from_dict` runs them, and nothing else does: a record that
decodes but breaks an invariant raises a `DomainParseError` listing each
problem. A `validate()` checks only its own fields, since a nested record was
checked by its own decode; a record built in memory relies on its producer.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import functools
import math
import re
import types
import typing
from dataclasses import dataclass, field

import numpy as np

IDEA_SOURCES = ("internal_knowledge", "trend", "discovery_theory", "iteration")

PROPOSAL_STAGES = ("initial", "final")

# Section registries for the two proposal templates, in emission order.
INITIAL_SECTIONS = (
    "Problem",
    "Existing Methods",
    "Motivation",
    "Proposed Method",
    "Experiment Plan",
)
FINAL_SECTIONS = (
    "Title",
    "Problem Statement",
    "Motivation",
    "Proposed Method",
    "Step-by-Step Experiment Plan",
)

EMBEDDING_NORM_TOL = 1e-6

_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def lone_surrogate(text: str) -> int | None:
    """The offset of the first lone surrogate in `text`, or None if it has none.

    A lone surrogate (a ``\\ud800`` escape, say, which the stdlib JSON parser
    accepts) is not valid Unicode: no UTF-8 file, prompt or cache key can hold
    it, so text is checked for one where it enters a run.
    """
    match = _SURROGATE_RE.search(text)
    return None if match is None else match.start()


class DomainParseError(ValueError):
    """A dict that does not decode into a domain value; the message joins `problems`."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_bool(v) -> bool:
    return isinstance(v, bool)


def _is_json_int(v) -> bool:
    if isinstance(v, float):
        return v.is_integer()
    return isinstance(v, int) and not isinstance(v, bool)


# An integer as JSON Schema has it: never a bool, NaN or an infinity, but 1.0 is one.
JsonInt = typing.Annotated[int, "json integer"]

# Element annotation -> (accepts, converts or None for identity, plural noun, scalar problem).
_ELEMENTS = {
    str: (_is_str, None, "strings", "must be a string"),
    int: (_is_int, None, "integers", "must be an integer"),
    float: (_is_number, float, "numbers", "must be a number"),
    bool: (_is_bool, None, "booleans", "must be a boolean"),
    JsonInt: (_is_json_int, int, "integers", "must be an integer"),
}


def _is_record(hint) -> bool:
    return isinstance(hint, type) and issubclass(hint, Record)


# The wire type of an embedding: base64 of little-endian float64 bytes.
_BASE64_F8 = "base64 <f8"
Embedding = typing.Annotated[tuple[float, ...], _BASE64_F8]


def _encode_embedding(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _converters(owner: str, name: str, hint):
    """(encode, decode) for one field annotation; encode None means identity."""

    def fail(problem: str):
        raise DomainParseError(f"{owner}: {name} {problem}")

    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated and args[1:] == (_BASE64_F8,):

        def decode_embedding(v):
            if not isinstance(v, str):
                fail("must be a base64 string of little-endian float64")
            try:
                raw = base64.b64decode(v, validate=True)
            except (binascii.Error, ValueError):
                fail("is not valid base64")
            if not raw or len(raw) % 8:
                fail(f"decodes to {len(raw)} bytes, not a positive multiple of 8")
            return tuple(np.frombuffer(raw, "<f8").tolist())

        return _encode_embedding, decode_embedding
    if origin in (types.UnionType, typing.Union):
        (inner,) = [a for a in args if a is not type(None)]
        # to_dict omits a None only where the default is None; RunState's `*_ref` write null.
        encode, decode = _converters(owner, name, inner)
        return encode, (lambda v: None if v is None else decode(v))
    if origin is tuple:
        item = args[0]
        if _is_record(item):
            def decode_records(v):
                if not isinstance(v, list):
                    fail("must be a list")
                return tuple(map(item.from_dict, v))

            return (lambda v: [x.to_dict() for x in v]), decode_records
        accepts, convert, noun, _ = _ELEMENTS[item]

        def decode_items(v):
            if not isinstance(v, list) or not all(map(accepts, v)):
                fail(f"must be a list of {noun}")
            return tuple(v) if convert is None else tuple(map(convert, v))

        return list, decode_items
    if origin is dict:
        value_ok, _, noun, _ = _ELEMENTS[args[1]]

        def decode_map(v):
            if not isinstance(v, dict) or not all(
                _is_str(k) and value_ok(x) for k, x in v.items()
            ):
                fail(f"must map strings to {noun}")
            return dict(v)

        return dict, decode_map
    if _is_record(hint):
        return (lambda v: v.to_dict()), hint.from_dict
    accepts, convert, _, problem = _ELEMENTS[hint]

    def decode_scalar(v):
        if not accepts(v):
            fail(problem)
        return v if convert is None else convert(v)

    return None, decode_scalar


@dataclass(frozen=True)
class _Codec:
    encoders: tuple  # (name, encode or None, omit while None) in field order
    decoders: dict  # name -> decode
    required: frozenset  # fields without a default
    validates: bool  # the class overrides `Record.validate`


@functools.cache
def _codec(cls) -> _Codec:
    hints = typing.get_type_hints(cls, include_extras=True)
    encoders, decoders, required = [], {}, set()
    for f in dataclasses.fields(cls):
        encode, decode = _converters(cls.__name__, f.name, hints[f.name])
        encoders.append((f.name, encode, f.default is None))
        decoders[f.name] = decode
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            required.add(f.name)
    return _Codec(tuple(encoders), decoders, frozenset(required),
                  cls.validate is not Record.validate)


class Record:
    """Base of the domain dataclasses: a JSON codec derived from their fields."""

    def to_dict(self) -> dict:
        out = {}
        for name, encode, omit_none in _codec(type(self)).encoders:
            value = getattr(self, name)
            if value is None and omit_none:
                continue
            out[name] = value if encode is None else encode(value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> typing.Self:
        codec = _codec(cls)
        if not isinstance(data, dict):
            raise DomainParseError(f"{cls.__name__}: expected object, got {type(data).__name__}")
        decoders = codec.decoders
        if data.keys() != decoders.keys():  # else every field is there, and no other
            if unknown := data.keys() - decoders.keys():
                raise DomainParseError(f"{cls.__name__}: unknown fields {sorted(unknown)}")
            if missing := codec.required - data.keys():
                raise DomainParseError(f"{cls.__name__}: missing fields {sorted(missing)}")
        record = cls(**{name: decoders[name](value) for name, value in data.items()})
        if codec.validates and (problems := record.validate()):
            raise DomainParseError(*problems)
        return record

    def validate(self) -> list[str]:
        """The invariants this record's own fields break; run by `from_dict` only."""
        return []


# ---------------------------------------------------------------------------
# SeedPaper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reference(Record):
    title: str
    abstract: str = ""


@dataclass(frozen=True)
class SeedPaper(Record):
    """The input paper a run enhances; root of all generated ideas."""

    id: str
    title: str
    abstract: str
    references: tuple[Reference, ...] = ()
    source_meta: dict[str, int] | None = None

    def validate(self) -> list[str]:
        out: list[str] = []
        if not self.title:
            out.append("SeedPaper.title: must be nonempty")
        if not self.abstract:
            out.append("SeedPaper.abstract: must be nonempty")
        titles = [r.title for r in self.references]
        if len(titles) != len(set(titles)):
            out.append("SeedPaper.references: titles must be unique")
        for r in self.references:
            if not r.title:
                out.append("SeedPaper.references: reference title must be nonempty")
        if self.source_meta is not None:
            for k, v in self.source_meta.items():
                if v < 0:
                    out.append(f"SeedPaper.source_meta[{k}]: must be nonnegative")
        texts = {"id": self.id, "title": self.title, "abstract": self.abstract}
        for n, r in enumerate(self.references):
            texts |= {f"references[{n}].title": r.title, f"references[{n}].abstract": r.abstract}
        texts |= {f"source_meta key {k!r}": k for k in self.source_meta or ()}
        for name, text in texts.items():
            if (at := lone_surrogate(text)) is not None:
                out.append(f"SeedPaper.{name}: holds a lone surrogate at offset {at}, "
                           "which is not valid Unicode")
        return out


# ---------------------------------------------------------------------------
# Idea
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Idea(Record):
    """One seed idea in the evolving pool."""

    id: str
    thinking: str
    idea: str
    keywords: tuple[str, ...]
    source: str
    generation: int = 0
    parent_id: str | None = None
    embedding: Embedding | None = None

    def validate(self) -> list[str]:
        out: list[str] = []
        if not self.idea:
            out.append("Idea.idea: must be nonempty")
        if not 1 <= len(self.keywords) <= 10:
            out.append(f"Idea.keywords: expected 1-10 entries, got {len(self.keywords)}")
        if self.source not in IDEA_SOURCES:
            out.append(f"Idea.source: {self.source!r} not in {IDEA_SOURCES}")
        if self.generation < 0:
            out.append("Idea.generation: must be nonnegative")
        if self.embedding is not None:
            if not all(map(math.isfinite, self.embedding)):
                out.append("Idea.embedding: entries must be finite")
            elif abs((norm := math.hypot(*self.embedding)) - 1.0) > EMBEDDING_NORM_TOL:
                out.append(f"Idea.embedding: norm {norm:.6g} is not 1 within {EMBEDDING_NORM_TOL}")
        return out


# ---------------------------------------------------------------------------
# SearchPlan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Direction(Record):
    thinking: str
    keywords: tuple[str, ...]


@dataclass(frozen=True)
class SearchPlan(Record):
    """Idea-specific list of query directions guiding literature retrieval."""

    idea_id: str
    directions: tuple[Direction, ...]
    created_at_generation: int = 0

    def validate(self) -> list[str]:
        out: list[str] = []
        if not self.directions:
            out.append("SearchPlan.directions: at least one direction required")
        for n, d in enumerate(self.directions):
            if not d.keywords:
                out.append(f"SearchPlan.directions[{n}]: direction needs >=1 keyword")
        if self.created_at_generation < 0:
            out.append("SearchPlan.created_at_generation: must be nonnegative")
        return out


# ---------------------------------------------------------------------------
# RetrievedDoc
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetrievedDoc:
    """One search hit. It is never stored, so it is not a `Record`.

    `embedding` is the backend's unit vector as a read-only 1-D float64 array,
    so a hit cannot change the corpus it came from; an `OfflineCorpus` hit
    views its row of the corpus matrix. Any other vector is copied into a
    read-only array. The embedding takes no part in equality or hashing.
    """

    title: str
    abstract: str = ""
    source_query: str = ""
    score: float = 0.0
    embedding: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.embedding is not None:
            vec = np.asarray(self.embedding, dtype=np.float64)
            if vec.flags.writeable:
                vec = vec.copy()
                vec.flags.writeable = False
            object.__setattr__(self, "embedding", vec)


# ---------------------------------------------------------------------------
# Proposal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionModule(Record):
    """One module of a method decomposition, under the field names of the reply."""

    name: str
    purpose: str
    implementation: str
    search_keywords: tuple[str, ...]


@dataclass(frozen=True)
class DecompositionPlan(Record):
    """The method decomposition between the initial and the final proposal."""

    thinking: str
    modules: tuple[DecompositionModule, ...]

    def validate(self) -> list[str]:
        out = [] if self.modules else ["DecompositionPlan.modules: at least one module required"]
        for n, m in enumerate(self.modules):
            if not m.name or not m.search_keywords:
                out.append(f"DecompositionPlan.modules[{n}]: module needs a name and >=1 keyword")
        return out


@dataclass(frozen=True)
class Proposal(Record):
    """Structured expansion of an idea; section set depends on the stage."""

    idea_id: str
    stage: str
    sections: dict[str, str]

    def validate(self) -> list[str]:
        out: list[str] = []
        if self.stage not in PROPOSAL_STAGES:
            out.append(f"Proposal.stage: {self.stage!r} not in {PROPOSAL_STAGES}")
            return out
        expected = INITIAL_SECTIONS if self.stage == "initial" else FINAL_SECTIONS
        if tuple(self.sections.keys()) != expected:
            out.append(
                f"Proposal.sections: {self.stage} stage requires exactly {list(expected)}, "
                f"got {list(self.sections.keys())}"
            )
        for name, body in self.sections.items():
            if not body:
                out.append(f"Proposal.sections[{name}]: must be nonempty")
        return out


@dataclass(frozen=True)
class ProposalSet(Record):
    """One idea's three proposal stages, stored as one artifact."""

    initial: Proposal
    decomposition: DecompositionPlan
    final: Proposal


# ---------------------------------------------------------------------------
# PipelineConfig
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig(Record):
    """Run-level knobs; defaults mirror the reference experiment setup."""

    iterations_T: int = 3
    initial_seed_count: int = 15
    expand_count: int = 10
    keep_count: int = 3
    retrieve_K: int = 5
    cluster_count: int = 100
    tournament_rounds: int = 5
    novelty_topk: int = 10
    novelty_sim_threshold: float = 0.3
    dup_sim_threshold: float = 0.8
    rng_seed: int = 0

    def validate(self) -> list[str]:
        out: list[str] = []
        positives = (
            "initial_seed_count",
            "expand_count",
            "keep_count",
            "retrieve_K",
            "cluster_count",
            "tournament_rounds",
            "novelty_topk",
        )
        for name in positives:
            if getattr(self, name) < 1:
                out.append(f"PipelineConfig.{name}: must be a positive integer")
        # iterations_T = 0 is a legal identity iteration (clamped small runs).
        if self.iterations_T < 0:
            out.append("PipelineConfig.iterations_T: must be nonnegative")
        if self.keep_count > self.expand_count:
            out.append("PipelineConfig.keep_count: must be <= expand_count")
        for name in ("novelty_sim_threshold", "dup_sim_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                out.append(f"PipelineConfig.{name}: must be in [0, 1]")
        return out


# ---------------------------------------------------------------------------
# TournamentResult
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Match(Record):
    round: int
    a: str
    b: str
    winner: str


@dataclass(frozen=True)
class Bye(Record):
    round: int
    idea_id: str


@dataclass(frozen=True)
class TournamentResult(Record):
    scores: dict[str, int] = field(default_factory=dict)
    matches: tuple[Match, ...] = ()
    byes: tuple[Bye, ...] = ()

    def validate(self) -> list[str]:
        out: list[str] = []
        for idea_id, score in self.scores.items():
            if score < 0:
                out.append(f"TournamentResult.scores[{idea_id}]: must be nonnegative")
        rounds = len({m.round for m in self.matches} | {b.round for b in self.byes})
        if rounds:
            for idea_id, score in self.scores.items():
                if score > rounds:
                    out.append(
                        f"TournamentResult.scores[{idea_id}]: {score} exceeds "
                        f"{rounds} rounds played"
                    )
        total = sum(self.scores.values())
        if total != len(self.matches) + len(self.byes):
            out.append(
                f"TournamentResult: score sum {total} != matches {len(self.matches)} "
                f"+ byes {len(self.byes)}"
            )
        for m in self.matches:
            if m.winner not in (m.a, m.b):
                out.append(f"TournamentResult: winner {m.winner} not in match ({m.a}, {m.b})")
        return out


# ---------------------------------------------------------------------------
# The other stored artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendReport(Record):
    text: str

    def validate(self) -> list[str]:
        return [] if self.text else ["TrendReport.text: must be nonempty"]


@dataclass(frozen=True)
class IdeaPool(Record):
    generation: int
    ideas: tuple[Idea, ...]

    def validate(self) -> list[str]:
        out = [] if self.generation >= 0 else ["IdeaPool.generation: must be nonnegative"]
        return out + [f"IdeaPool.ideas[{n}]: has no embedding"
                      for n, idea in enumerate(self.ideas) if idea.embedding is None]


@dataclass(frozen=True)
class IterationRecord(Record):
    generation: int
    input_pool_size: int
    output_pool_size: int
    plans: tuple[SearchPlan, ...]
    retrieved_counts: dict[str, int]

    def validate(self) -> list[str]:
        return [] if self.generation >= 1 else ["IterationRecord.generation: must be positive"]


@dataclass(frozen=True)
class IterationRecords(Record):
    records: tuple[IterationRecord, ...]


@dataclass(frozen=True)
class Representatives(Record):
    """The representative idea ids and the cluster of each final-pool idea."""

    idea_ids: tuple[str, ...]
    assignments: dict[str, int]

    def validate(self) -> list[str]:
        return [f"Representatives.idea_ids: {i} has no cluster assignment"
                for i in self.idea_ids if i not in self.assignments]


@dataclass(frozen=True)
class RunMetrics(Record):
    unique_novel_per_generation: dict[str, int]
    non_duplicate_fraction: float
    retained_count: int
    score_histogram: dict[str, int]

    def validate(self) -> list[str]:
        out = [f"RunMetrics.unique_novel_per_generation[{g}]: must be nonnegative"
               for g, count in self.unique_novel_per_generation.items() if count < 0]
        if not 0.0 <= self.non_duplicate_fraction <= 1.0:
            out.append("RunMetrics.non_duplicate_fraction: must be in [0, 1]")
        return out
