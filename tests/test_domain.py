"""Domain types: invariants, serialization round-trips, the codec's gate."""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import struct
import typing

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nova.domain import (
    FINAL_SECTIONS,
    INITIAL_SECTIONS,
    Bye,
    DecompositionModule,
    DecompositionPlan,
    Direction,
    DomainParseError,
    Embedding,
    Idea,
    IdeaPool,
    IterationRecord,
    IterationRecords,
    JsonInt,
    Match,
    PipelineConfig,
    Proposal,
    ProposalSet,
    Record,
    Reference,
    Representatives,
    RetrievedDoc,
    RunMetrics,
    SearchPlan,
    SeedPaper,
    TournamentResult,
    TrendReport,
)
from nova.orchestrator import ARTIFACT_TYPES, RunState
from tests.conftest import make_idea, validate_lineage


def unit(*values):
    norm = math.sqrt(sum(v * v for v in values))
    return tuple(v / norm for v in values)


INITIAL_PROPOSAL = Proposal(
    idea_id="i1",
    stage="initial",
    sections={name: f"body of {name}" for name in INITIAL_SECTIONS},
)
PLAN = DecompositionPlan(
    thinking="split", modules=(DecompositionModule("M1", "p", "impl", ("k1", "k2")),)
)

SAMPLES = {
    "seed_paper": SeedPaper(
        id="p1",
        title="T",
        abstract="A",
        references=(Reference("R1", "a1"), Reference("R2", "")),
        source_meta={"likes": 3, "comments": 0},
    ),
    "idea": Idea(
        id="i1",
        thinking="th",
        idea="the idea",
        keywords=("k1", "k2"),
        source="iteration",
        generation=2,
        parent_id="i0",
        embedding=unit(0.6, 0.8),
    ),
    "search_plan": SearchPlan(
        idea_id="i1",
        directions=(Direction("d1", ("k1",)), Direction("d2", ("k2", "k3"))),
        created_at_generation=1,
    ),
    "proposal": INITIAL_PROPOSAL,
    "proposal_set": ProposalSet(
        initial=INITIAL_PROPOSAL,
        decomposition=PLAN,
        final=Proposal(idea_id="i1", stage="final",
                       sections={name: f"body of {name}" for name in FINAL_SECTIONS}),
    ),
    "pipeline_config": PipelineConfig(),
    "tournament_result": TournamentResult(
        scores={"a": 1, "b": 1, "c": 1},
        matches=(Match(1, "a", "b", "a"), Match(2, "a", "c", "c")),
        byes=(Bye(1, "c"),),
    ),
    "trend_report": TrendReport("Agents that plan retrieval are trending."),
    "idea_pool": IdeaPool(
        generation=1,
        ideas=(
            Idea(id="i3", thinking="t", idea="x", keywords=("k",), source="iteration",
                 generation=1, parent_id="i1", embedding=unit(1.0, 0.0)),
        ),
    ),
    "iteration_records": IterationRecords(
        records=(
            IterationRecord(
                generation=1, input_pool_size=1, output_pool_size=2,
                plans=(SearchPlan(idea_id="i1", directions=(Direction("d", ("k",)),)),),
                retrieved_counts={"i1": 0},
            ),
        )
    ),
    "representatives": Representatives(idea_ids=("i1",), assignments={"i1": 0, "i2": 0}),
    "decomposition_plan": PLAN,
    "run_metrics": RunMetrics(
        unique_novel_per_generation={"0": 3, "1": 5},
        non_duplicate_fraction=0.75,
        retained_count=6,
        score_histogram={"0": 1, "1": 2},
    ),
    "run_state": dataclasses.replace(
        RunState.start("run-1", PipelineConfig(), "mock"),
        stage_cursor="proposed",
        seed_paper_ref="a" * 64,
        pools={"0": "b" * 64},
        representatives_ref="c" * 64,
        proposals={"i1": "d" * 64},
        failed_proposals=("i2",),
        id_counter=4,
        event_seq=3,
    ),
}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_round_trip_identity(kind):
    value = SAMPLES[kind]
    reparsed = type(value).from_dict(json.loads(json.dumps(value.to_dict())))
    assert reparsed == value


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_samples_are_valid(kind):
    assert SAMPLES[kind].validate() == []


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_unknown_fields_rejected(kind):
    data = SAMPLES[kind].to_dict()
    data["bogus_field"] = 1
    with pytest.raises(DomainParseError, match="unknown fields"):
        type(SAMPLES[kind]).from_dict(data)


def test_idea_empty_text_one_violation():
    idea = Idea(id="i", thinking="t", idea="", keywords=("k",), source="trend", generation=0)
    assert len(idea.validate()) == 1


def test_pipeline_config_defaults_valid_and_match_experiment_setup():
    config = PipelineConfig()
    assert config.validate() == []
    assert config.iterations_T == 3
    assert config.initial_seed_count == 15
    assert config.expand_count == 10
    assert config.keep_count == 3
    assert config.retrieve_K == 5
    assert config.cluster_count == 100
    assert config.tournament_rounds == 5
    assert config.novelty_topk == 10
    assert config.novelty_sim_threshold == 0.3
    assert config.dup_sim_threshold == 0.8


def test_idea_bad_embedding_norm_one_violation():
    idea = Idea(
        id="i", thinking="t", idea="x", keywords=("k",), source="trend",
        generation=0, embedding=(0.3, 0.4),  # norm 0.5
    )
    report = idea.validate()
    assert len(report) == 1
    assert "norm" in report[0]


def test_idea_keyword_count_bounds():
    too_many = make_idea(1)
    too_many = Idea(
        id=too_many.id, thinking="t", idea="x", keywords=tuple(f"k{i}" for i in range(11)),
        source="trend", generation=0,
    )
    assert any("keywords" in v for v in too_many.validate())


def test_seed_paper_duplicate_reference_titles():
    paper = SeedPaper(
        id="p", title="T", abstract="A",
        references=(Reference("same", ""), Reference("same", "")),
    )
    assert any("unique" in v for v in paper.validate())


def test_lineage_validation():
    parent = make_idea(1, generation=1, source="iteration")
    good = make_idea(2, generation=2, source="iteration", parent_id=parent.id)
    bad = make_idea(3, generation=3, source="iteration", parent_id=parent.id)
    assert validate_lineage([parent, good]) == []
    assert len(validate_lineage([parent, bad])) == 1


def test_proposal_section_registry_enforced():
    wrong = Proposal(idea_id="i", stage="final",
                     sections={name: "x" for name in INITIAL_SECTIONS})
    assert any("requires exactly" in v for v in wrong.validate())
    right = Proposal(idea_id="i", stage="final",
                     sections={name: "x" for name in FINAL_SECTIONS})
    assert right.validate() == []


def test_proposal_section_order_matters():
    shuffled = dict(reversed(list({n: "x" for n in INITIAL_SECTIONS}.items())))
    proposal = Proposal(idea_id="i", stage="initial", sections=shuffled)
    assert any("requires exactly" in v for v in proposal.validate())


def test_tournament_result_conservation_violations():
    bad_sum = TournamentResult(scores={"a": 5}, matches=(Match(1, "a", "b", "a"),), byes=())
    assert any("score sum" in v for v in bad_sum.validate())
    bad_winner = TournamentResult(
        scores={"a": 1}, matches=(Match(1, "a", "b", "zzz"),), byes=()
    )
    assert any("winner" in v for v in bad_winner.validate())


@pytest.mark.parametrize(
    "value, expected",
    [
        (TrendReport(""), "TrendReport.text: must be nonempty"),
        (IdeaPool(0, (dataclasses.replace(SAMPLES["idea"], idea=""),)),
         "Idea.idea: must be nonempty"),
        (IterationRecords((IterationRecord(0, 1, 1, (), {}),)),
         "IterationRecord.generation: must be positive"),
        (IterationRecord(1, 1, 1, (SearchPlan("i1", ()),), {}),
         "SearchPlan.directions: at least one direction required"),
        (Representatives(("i9",), {"i1": 0}),
         "Representatives.idea_ids: i9 has no cluster assignment"),
        (DecompositionPlan("t", ()), "DecompositionPlan.modules: at least one module required"),
        (DecompositionPlan("t", (DecompositionModule("M", "p", "i", ()),)),
         "DecompositionPlan.modules[0]: module needs a name and >=1 keyword"),
        (dataclasses.replace(SAMPLES["run_metrics"], non_duplicate_fraction=1.5),
         "RunMetrics.non_duplicate_fraction: must be in [0, 1]"),
        (dataclasses.replace(SAMPLES["run_metrics"], unique_novel_per_generation={"0": -1}),
         "RunMetrics.unique_novel_per_generation[0]: must be nonnegative"),
        (dataclasses.replace(SAMPLES["run_state"], stage_cursor="later"),
         "RunState.stage_cursor: 'later' not in"),
        (dataclasses.replace(SAMPLES["run_state"], backend="cloud"),
         "RunState.backend: 'cloud' not in"),
        (dataclasses.replace(SAMPLES["run_state"], pools={"0": "ABC"}),
         "RunState: 'ABC' is not a sha256 digest"),
        (dataclasses.replace(SAMPLES["run_state"], config=PipelineConfig(keep_count=20)),
         "PipelineConfig.keep_count: must be <= expand_count"),
        (dataclasses.replace(SAMPLES["proposal_set"], decomposition=DecompositionPlan("t", ())),
         "DecompositionPlan.modules: at least one module required"),
        (dataclasses.replace(SAMPLES["run_state"], proposals={"i1": "final"}),
         "RunState: 'final' is not a sha256 digest"),
        (dataclasses.replace(SAMPLES["idea"], embedding=(1.3e154, 1.3e154)),
         "Idea.embedding: norm 1.83848e+154 is not 1"),  # its squares overflow a float
    ],
)
def test_stored_record_invariants(value, expected):
    """One broken invariant fails the record's decode with one problem naming the field.

    A broken nested record (a pool's idea, a run state's config) fails its own
    decode inside its parent's, so the parent's `validate()` does not repeat it.
    """
    with pytest.raises(DomainParseError) as info:
        type(value).from_dict(value.to_dict())
    problems = info.value.problems
    assert len(problems) == 1 and problems[0].startswith(expected), problems


def test_a_decode_lists_every_broken_invariant():
    data = {**SAMPLES["idea"].to_dict(), "idea": "", "source": "dream"}
    with pytest.raises(DomainParseError) as info:
        Idea.from_dict(data)
    assert info.value.problems == [
        "Idea.idea: must be nonempty",
        "Idea.source: 'dream' not in ('internal_knowledge', 'trend', 'discovery_theory', "
        "'iteration')",
    ]
    assert str(info.value) == "; ".join(info.value.problems)


def test_config_invariants():
    assert any("keep_count" in v for v in PipelineConfig(expand_count=2, keep_count=5).validate())
    assert any("[0, 1]" in v for v in PipelineConfig(dup_sim_threshold=1.5).validate())
    assert PipelineConfig(iterations_T=0).validate() == []  # identity iteration is legal


@given(
    st.text(min_size=1, max_size=60),
    st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=9),
)
def test_idea_round_trip_property(text, keywords, generation):
    idea = Idea(
        id="i", thinking="t", idea=text, keywords=tuple(keywords),
        source="internal_knowledge", generation=generation,
    )
    assert Idea.from_dict(json.loads(json.dumps(idea.to_dict(), ensure_ascii=False))) == idea


# ---------------------------------------------------------------------------
# The derived codec
# ---------------------------------------------------------------------------

CODEC_SAMPLES = {
    **SAMPLES,
    "idea_no_embedding": Idea(id="i2", thinking="th", idea="x", keywords=("k",), source="trend"),
    "iteration_record": IterationRecord(
        generation=1, input_pool_size=2, output_pool_size=3,
        plans=(SearchPlan(idea_id="i1", directions=(Direction("d", ("k",)),)),),
        retrieved_counts={"i1": 2},
    ),
}

# JSON bytes of CODEC_SAMPLES as written by the hand-written codecs the derived
# one replaced: key order and omission rules are part of the artifact format.
GOLDEN_JSON = {
    "seed_paper": '{"id": "p1", "title": "T", "abstract": "A", "references": [{"title": "R1", '
    '"abstract": "a1"}, {"title": "R2", "abstract": ""}], "source_meta": {"likes": 3, '
    '"comments": 0}}',
    "idea": '{"id": "i1", "thinking": "th", "idea": "the idea", "keywords": ["k1", "k2"], '
    '"source": "iteration", "generation": 2, "parent_id": "i0", '
    '"embedding": "MzMzMzMz4z+amZmZmZnpPw=="}',
    "search_plan": '{"idea_id": "i1", "directions": [{"thinking": "d1", "keywords": ["k1"]}, '
    '{"thinking": "d2", "keywords": ["k2", "k3"]}], "created_at_generation": 1}',
    "proposal": '{"idea_id": "i1", "stage": "initial", "sections": {"Problem": "body of Problem", '
    '"Existing Methods": "body of Existing Methods", "Motivation": "body of Motivation", '
    '"Proposed Method": "body of Proposed Method", "Experiment Plan": "body of Experiment '
    'Plan"}}',
    "proposal_set": '{"initial": {"idea_id": "i1", "stage": "initial", "sections": {"Problem": '
    '"body of Problem", "Existing Methods": "body of Existing Methods", "Motivation": "body of '
    'Motivation", "Proposed Method": "body of Proposed Method", "Experiment Plan": "body of '
    'Experiment Plan"}}, "decomposition": {"thinking": "split", "modules": [{"name": "M1", '
    '"purpose": "p", "implementation": "impl", "search_keywords": ["k1", "k2"]}]}, "final": '
    '{"idea_id": "i1", "stage": "final", "sections": {"Title": "body of Title", "Problem '
    'Statement": "body of Problem Statement", "Motivation": "body of Motivation", "Proposed '
    'Method": "body of Proposed Method", "Step-by-Step Experiment Plan": "body of Step-by-Step '
    'Experiment Plan"}}}',
    "pipeline_config": '{"iterations_T": 3, "initial_seed_count": 15, "expand_count": 10, '
    '"keep_count": 3, "retrieve_K": 5, "cluster_count": 100, "tournament_rounds": 5, '
    '"novelty_topk": 10, "novelty_sim_threshold": 0.3, "dup_sim_threshold": 0.8, "rng_seed": 0}',
    "tournament_result": '{"scores": {"a": 1, "b": 1, "c": 1}, "matches": [{"round": 1, "a": "a", '
    '"b": "b", "winner": "a"}, {"round": 2, "a": "a", "b": "c", "winner": "c"}], "byes": '
    '[{"round": 1, "idea_id": "c"}]}',
    "idea_no_embedding": '{"id": "i2", "thinking": "th", "idea": "x", "keywords": ["k"], '
    '"source": "trend", "generation": 0}',
    "iteration_record": '{"generation": 1, "input_pool_size": 2, "output_pool_size": 3, "plans": '
    '[{"idea_id": "i1", "directions": [{"thinking": "d", "keywords": ["k"]}], '
    '"created_at_generation": 0}], "retrieved_counts": {"i1": 2}}',
    "trend_report": '{"text": "Agents that plan retrieval are trending."}',
    "idea_pool": '{"generation": 1, "ideas": [{"id": "i3", "thinking": "t", "idea": "x", "keywords": '
    '["k"], "source": "iteration", "generation": 1, "parent_id": "i1", '
    '"embedding": "AAAAAAAA8D8AAAAAAAAAAA=="}]}',
    "iteration_records": '{"records": [{"generation": 1, "input_pool_size": 1, "output_pool_size": '
    '2, "plans": [{"idea_id": "i1", "directions": [{"thinking": "d", "keywords": ["k"]}], '
    '"created_at_generation": 0}], "retrieved_counts": {"i1": 0}}]}',
    "representatives": '{"idea_ids": ["i1"], "assignments": {"i1": 0, "i2": 0}}',
    "decomposition_plan": '{"thinking": "split", "modules": [{"name": "M1", "purpose": "p", '
    '"implementation": "impl", "search_keywords": ["k1", "k2"]}]}',
    "run_metrics": '{"unique_novel_per_generation": {"0": 3, "1": 5}, "non_duplicate_fraction": '
    '0.75, "retained_count": 6, "score_histogram": {"0": 1, "1": 2}}',
    # `*_ref` fields without a value are written as null, not omitted.
    "run_state": '{"run_id": "run-1", "config": {"iterations_T": 3, "initial_seed_count": 15, '
    '"expand_count": 10, "keep_count": 3, "retrieve_K": 5, "cluster_count": 100, '
    '"tournament_rounds": 5, "novelty_topk": 10, "novelty_sim_threshold": 0.3, '
    '"dup_sim_threshold": 0.8, "rng_seed": 0}, "stage_cursor": "proposed", "backend": "mock", '
    f'"seed_paper_ref": "{"a" * 64}", "trend_report_ref": null, "pools": {{"0": "{"b" * 64}"}}, '
    f'"iteration_records_ref": null, "representatives_ref": "{"c" * 64}", "proposals": '
    f'{{"i1": "{"d" * 64}"}}, '
    '"failed_proposals": ["i2"], "tournament_ref": null, "metrics_ref": null, "id_counter": 4, '
    '"event_seq": 3}',
}


@pytest.mark.parametrize("kind", sorted(CODEC_SAMPLES))
def test_golden_json_bytes(kind):
    value = CODEC_SAMPLES[kind]
    assert json.dumps(value.to_dict(), ensure_ascii=False) == GOLDEN_JSON[kind]
    assert type(value).from_dict(json.loads(GOLDEN_JSON[kind])) == value


IDEA_DICT = SAMPLES["idea"].to_dict()
PROPOSAL_DICT = SAMPLES["proposal"].to_dict()
PROPOSAL_SET_DICT = SAMPLES["proposal_set"].to_dict()
RESULT_DICT = SAMPLES["tournament_result"].to_dict()
STATE_DICT = SAMPLES["run_state"].to_dict()


@pytest.mark.parametrize(
    "cls, data, field_name, bad, message",
    [
        (Idea, IDEA_DICT, "generation", "2", "generation must be an integer"),
        (Idea, IDEA_DICT, "generation", True, "generation must be an integer"),
        (Match, {"round": 1, "a": "a", "b": "b", "winner": "a"}, "round", 1.0,
         "round must be an integer"),
        (PipelineConfig, {}, "novelty_sim_threshold", "0.5",
         "novelty_sim_threshold must be a number"),
        (PipelineConfig, {}, "novelty_sim_threshold", False,
         "novelty_sim_threshold must be a number"),
        (Idea, IDEA_DICT, "keywords", "k1", "keywords must be a list of strings"),
        (Idea, IDEA_DICT, "keywords", ["k1", 2], "keywords must be a list of strings"),
        (Idea, IDEA_DICT, "embedding", {"0": 1.0}, "embedding must be a base64 string"),
        (Idea, IDEA_DICT, "embedding", [0.6, 0.8], "embedding must be a base64 string"),
        (Idea, IDEA_DICT, "embedding", ["1.0"], "embedding must be a base64 string"),
        (SeedPaper, SAMPLES["seed_paper"].to_dict(), "references", {"title": "R"},
         "references must be a list"),
        (SeedPaper, SAMPLES["seed_paper"].to_dict(), "references", ["R1"],
         "Reference: expected object, got str"),
        (SeedPaper, SAMPLES["seed_paper"].to_dict(), "source_meta", {"likes": 1.5},
         "source_meta must map strings to integers"),
        (TournamentResult, RESULT_DICT, "scores", {"a": True}, "scores must map strings to integers"),
        (TournamentResult, RESULT_DICT, "scores", {1: 1}, "scores must map strings to integers"),
        (TournamentResult, RESULT_DICT, "scores", [["a", 1]], "scores must map strings to integers"),
        (TournamentResult, RESULT_DICT, "matches", {"round": 1}, "matches must be a list"),
        (Proposal, PROPOSAL_DICT, "sections", {"Problem": 1}, "sections must map strings to strings"),
        (Proposal, PROPOSAL_DICT, "sections", {2: "x"}, "sections must map strings to strings"),
        (ProposalSet, PROPOSAL_SET_DICT, "decomposition", "M1",
         "DecompositionPlan: expected object, got str"),
        (ProposalSet, PROPOSAL_SET_DICT, "decomposition",
         {"thinking": "t", "modules": [{"module_name": "M", "purpose": "p",
                                        "implementation": "i", "keywords": ["k"]}]},
         "DecompositionModule: unknown fields \\['keywords', 'module_name'\\]"),
        (PipelineConfig, {}, "cluster_count", 2.0, "cluster_count must be an integer"),
        (PipelineConfig, {}, "dup_sim_threshold", "0.5", "dup_sim_threshold must be a number"),
        (Reference, {"title": "R"}, "title", 5, "title must be a string"),
        (Idea, IDEA_DICT, "id", 12345, "id must be a string"),
        (Idea, IDEA_DICT, "parent_id", ["i0"], "parent_id must be a string"),
        (RunState, STATE_DICT, "trend_report_ref", {"__wrong__": True},
         "trend_report_ref must be a string"),
        (RunState, STATE_DICT, "proposals", "x", "proposals must map strings to strings"),
        (RunState, STATE_DICT, "proposals", {"i1": {"final": "f" * 64}},
         "proposals must map strings to strings"),
        (RunState, STATE_DICT, "proposals", {"i1": 1}, "proposals must map strings to strings"),
        (RunState, STATE_DICT, "config", 12345, "PipelineConfig: expected object, got int"),
        (RunState, STATE_DICT, "failed_proposals", [1], "failed_proposals must be a list of strings"),
        (Idea, IDEA_DICT, "generation", 1.0, "generation must be an integer"),
        (RunState, STATE_DICT, "id_counter", 1.0, "id_counter must be an integer"),
        (RunState, STATE_DICT, "id_counter", True, "id_counter must be an integer"),
    ],
)
def test_wrong_typed_field_rejected(cls, data, field_name, bad, message):
    with pytest.raises(DomainParseError, match=message):
        cls.from_dict({**data, field_name: bad})


def test_no_artifact_field_is_a_json_integer_or_a_bool():
    """`JsonInt` and `bool` fields are for LLM replies: no stored record may take 1.0 or true."""
    todo, seen = [*ARTIFACT_TYPES.values(), RunState], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        for name, hint in typing.get_type_hints(cls, include_extras=True).items():
            parts = [hint]
            while parts:
                part = parts.pop()
                assert part is not bool and part != JsonInt, f"{cls.__name__}.{name}"
                if isinstance(part, type) and dataclasses.is_dataclass(part):
                    todo.append(part)
                parts += typing.get_args(part)
    assert {Idea, DecompositionModule, Match, PipelineConfig} <= seen


def test_scalar_coercions():
    config = PipelineConfig.from_dict({"novelty_sim_threshold": 1})
    assert config.novelty_sim_threshold == 1.0 and isinstance(config.novelty_sim_threshold, float)
    ints = dataclasses.replace(SAMPLES["idea"], embedding=(1, 0))
    assert ints.to_dict() == dataclasses.replace(SAMPLES["idea"], embedding=(1.0, 0.0)).to_dict()
    decoded = Idea.from_dict(ints.to_dict()).embedding
    assert decoded == (1.0, 0.0) and all(type(v) is float for v in decoded)
    assert Idea.from_dict({**IDEA_DICT, "parent_id": None, "embedding": None}) == dataclasses.replace(
        SAMPLES["idea"], parent_id=None, embedding=None
    )


def test_retrieved_doc_holds_a_read_only_array_outside_equality():
    source = [0.6, 0.8]
    doc = RetrievedDoc(title="Doc", embedding=source)
    assert doc.embedding.dtype == np.float64 and doc.embedding.shape == (2,)
    with pytest.raises(ValueError, match="read-only"):
        doc.embedding[0] = 1.0
    owned = np.array([0.6, 0.8])
    copied = RetrievedDoc(title="Doc", embedding=owned)
    assert copied.embedding is not owned and owned.flags.writeable  # the caller's array is left alone
    frozen = owned.copy()
    frozen.flags.writeable = False
    assert RetrievedDoc(title="Doc", embedding=frozen).embedding is frozen  # no copy needed
    assert doc == RetrievedDoc(title="Doc", embedding=[1.0, 0.0]) == RetrievedDoc(title="Doc")
    assert hash(doc) == hash(RetrievedDoc(title="Doc"))
    assert not hasattr(RetrievedDoc, "to_dict")  # never stored


@pytest.mark.parametrize(
    "cls", [Idea, SeedPaper, TournamentResult, PipelineConfig, IterationRecord, IdeaPool, RunState]
)
def test_non_object_rejected(cls):
    with pytest.raises(DomainParseError, match=f"{cls.__name__}: expected object, got list"):
        cls.from_dict([])


@pytest.mark.parametrize(
    "cls, data, expected",
    [
        (SeedPaper, {"id": "p", "title": "T", "abstract": "A"},
         SeedPaper(id="p", title="T", abstract="A", references=(), source_meta=None)),
        (Idea, {"id": "i", "thinking": "t", "idea": "x", "keywords": ["k"], "source": "trend"},
         Idea(id="i", thinking="t", idea="x", keywords=("k",), source="trend", generation=0)),
        (SearchPlan, {"idea_id": "i", "directions": [{"thinking": "d", "keywords": ["k"]}]},
         SearchPlan("i", (Direction("d", ("k",)),), 0)),
        (Reference, {"title": "R"}, Reference("R", "")),
        (TournamentResult, {}, TournamentResult({}, (), ())),
        (PipelineConfig, {"rng_seed": 7}, dataclasses.replace(PipelineConfig(), rng_seed=7)),
    ],
)
def test_missing_field_with_default_takes_default(cls, data, expected):
    assert cls.from_dict(data) == expected


@pytest.mark.parametrize(
    "cls, data, missing",
    [
        (Idea, {"id": "i", "thinking": "t", "keywords": ["k"], "source": "trend"}, "\\['idea'\\]"),
        (SeedPaper, {"title": "T"}, "\\['abstract', 'id'\\]"),
        (Match, {"round": 1, "a": "a", "b": "b"}, "\\['winner'\\]"),
        (Proposal, {"idea_id": "i", "stage": "final"}, "\\['sections'\\]"),
        (RunState, {k: v for k, v in STATE_DICT.items() if not k.endswith("_ref")},
         "\\['iteration_records_ref', 'metrics_ref', 'representatives_ref', 'seed_paper_ref', "
         "'tournament_ref', 'trend_report_ref'\\]"),
        (ProposalSet, {"initial": PROPOSAL_DICT}, "\\['decomposition', 'final'\\]"),
    ],
)
def test_missing_field_without_default_rejected(cls, data, missing):
    with pytest.raises(DomainParseError, match=f"{cls.__name__}: missing fields {missing}"):
        cls.from_dict(data)


def test_iteration_record_round_trip():
    record = CODEC_SAMPLES["iteration_record"]
    assert IterationRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record
    with pytest.raises(DomainParseError, match="IterationRecord: retrieved_counts must map"):
        IterationRecord.from_dict({**record.to_dict(), "retrieved_counts": {"i1": "2"}})


# ---------------------------------------------------------------------------
# The embedding wire format: base64 of little-endian float64
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Vector(Record):
    """The `Embedding` wire format alone, without `Idea`'s unit-norm invariant."""

    embedding: Embedding


def test_embedding_golden_base64():
    """A dtype, byte-order or alphabet change fails here."""
    vector = (1.0, -0.0, 0.1, -2.5)
    wire = "AAAAAAAA8D8AAAAAAAAAgJqZmZmZmbk/AAAAAAAABMA="
    assert Vector(vector).to_dict()["embedding"] == wire
    decoded = Vector.from_dict({"embedding": wire}).embedding
    assert struct.pack("<4d", *decoded) == struct.pack("<4d", *vector)
    unit_wire = Idea.from_dict(IDEA_DICT).to_dict()["embedding"]
    assert unit_wire == IDEA_DICT["embedding"] == Vector(SAMPLES["idea"].embedding).to_dict()[
        "embedding"]


FLOAT64 = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
)


@given(st.lists(FLOAT64, min_size=1, max_size=384))
def test_embedding_round_trips_bit_exactly(values):
    decoded = Vector.from_dict(json.loads(json.dumps(Vector(tuple(values)).to_dict()))).embedding
    assert isinstance(decoded, tuple) and all(type(v) is float for v in decoded)
    layout = f"<{len(values)}d"
    assert struct.pack(layout, *decoded) == struct.pack(layout, *values)


@pytest.mark.parametrize(
    "cls, data, bad, message",
    [
        (Idea, IDEA_DICT, 3.5, "embedding must be a base64 string"),
        (Idea, IDEA_DICT, "AAAA AAAA8D8=", "embedding is not valid base64"),
        (Idea, IDEA_DICT, "AAAAAAAA8D8", "embedding is not valid base64"),
        (Idea, IDEA_DICT, "AAAAAAAA8D-=", "embedding is not valid base64"),
        (Idea, IDEA_DICT, "", "embedding decodes to 0 bytes"),
        (Idea, IDEA_DICT, base64.b64encode(bytes(12)).decode(), "embedding decodes to 12 bytes"),
    ],
    ids=["non_string", "whitespace", "unpadded", "urlsafe_alphabet", "empty", "12_bytes"],
)
def test_embedding_decode_rejects(cls, data, bad, message):
    with pytest.raises(DomainParseError, match=f"{cls.__name__}: {message}"):
        cls.from_dict({**data, "embedding": bad})
