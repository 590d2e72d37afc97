"""Seed-pool generation: sources, quotas, self-correction, refills.

Each source is exercised through `generate_pool`, the one entry point.
"""

from __future__ import annotations

import json

import pytest

from nova.domain import PipelineConfig
from nova.ids import IdFactory
from nova.gateway import BackendUnavailableError, TransientBackendError
from nova.replies import Evaluation
from nova.seeding import SeedGenerator, reflect, source_quotas
from tests.conftest import RuleBackend, make_idea



def idea_list_json(ideas):
    return "```json\n" + json.dumps(
        [
            {"thinking": f"t{i}", "idea": text, "keywords": list(kws)}
            for i, (text, kws) in enumerate(ideas)
        ]
    ) + "\n```"


def reflect_json(evaluations):
    return json.dumps({"evaluations": evaluations})


def make_seeder(backend, make_gateway, config=None) -> SeedGenerator:
    config = config or PipelineConfig()
    return SeedGenerator(make_gateway(backend), IdFactory(seed=0), config)


INTERNAL_SIG = "propose some innovative and valuable research ideas based on the target paper."
TREND_SIG = "high-quality research trends"
THEORY_SIG = "familiar with Science Discovery Theory"
REFLECT_SIG = "critically reviewing a numbered list"


def from_source(seeder, paper, source):
    """The ideas `source` contributed to a generation-0 pool built without trend inputs."""
    return [i for i in seeder.generate_pool(paper, None, []) if i.source == source]


def test_internal_scripted_five_ideas(make_gateway, sample_paper):
    scripted = idea_list_json(
        [("Integrate real-time data feeds",
          ["real-time data integration", "recent publications tracking"])]
        + [(f"idea {i}", [f"kw{i}"]) for i in range(4)]
    )
    backend = RuleBackend(rules=[(INTERNAL_SIG, scripted)])
    seeder = make_seeder(backend, make_gateway)
    ideas = from_source(seeder, sample_paper, "internal_knowledge")
    assert len(ideas) == 5
    assert all(i.generation == 0 for i in ideas)
    assert "real-time data integration" in ideas[0].keywords


def test_internal_empty_script_and_refill_gives_shortfall(make_gateway, sample_paper, caplog):
    backend = RuleBackend(rules=[(INTERNAL_SIG, "no json here at all")])
    seeder = make_seeder(backend, make_gateway)
    ideas = from_source(seeder, sample_paper, "internal_knowledge")
    assert ideas == []
    assert any("internal_knowledge shortfall" in r.message for r in caplog.records)


def test_seven_candidates_quota_five_top_scored_survive(make_gateway, sample_paper):
    scripted = idea_list_json([(f"candidate {i}", [f"kw{i}"]) for i in range(1, 8)])
    # reflection scores rise with index, so the five highest-indexed survive
    scores = reflect_json(
        [{"index": i, "sound": True, "score": i} for i in range(1, 8)]
    )
    backend = RuleBackend(rules=[(INTERNAL_SIG, scripted), (REFLECT_SIG, scores)])
    seeder = make_seeder(backend, make_gateway)
    ideas = from_source(seeder, sample_paper, "internal_knowledge")
    assert [i.idea for i in ideas] == [f"candidate {i}" for i in (7, 6, 5, 4, 3)]


def test_refill_tops_up_to_quota(make_gateway, sample_paper):
    short = idea_list_json([("only idea", ["kw"])])
    more = idea_list_json([(f"refill idea {i}", ["kw"]) for i in range(6)])
    backend = RuleBackend(rules=[("Refill attempt 1", more), (INTERNAL_SIG, short)])
    seeder = make_seeder(backend, make_gateway)
    ideas = from_source(seeder, sample_paper, "internal_knowledge")
    assert len(ideas) == 5
    assert any("Refill attempt 1" in p and INTERNAL_SIG in p for p in backend.prompts)


def test_trend_prompt_embeds_existing_ideas(make_gateway, sample_paper, trend_papers):
    scripted = idea_list_json([("prior idea alpha", ["a"]), ("prior idea beta", ["b"])])
    backend = RuleBackend(rules=[(INTERNAL_SIG, scripted)])
    seeder = make_seeder(backend, make_gateway, PipelineConfig(initial_seed_count=6))
    pool = seeder.generate_pool(sample_paper, "the trend report", trend_papers)
    internal = [i.idea for i in pool if i.source == "internal_knowledge"]
    assert internal == ["prior idea alpha", "prior idea beta"]
    trend_prompts = [p for p in backend.prompts if TREND_SIG in p]
    assert trend_prompts, "trend prompt never sent"
    assert "- prior idea alpha\n- prior idea beta" in trend_prompts[0]
    assert "the trend report" in trend_prompts[0]
    assert [i.source for i in pool].count("trend") == 2


def test_theory_prompt_contains_catalog_and_tags_source(make_gateway, sample_paper):
    backend = RuleBackend()
    seeder = make_seeder(backend, make_gateway)
    ideas = from_source(seeder, sample_paper, "discovery_theory")
    theory_prompts = [p for p in backend.prompts if THEORY_SIG in p]
    assert "Kuhn's paradigm theory" in theory_prompts[0]
    assert len(ideas) == 5


# ---------------------------------------------------------------------------
# self_correct
# ---------------------------------------------------------------------------


def test_self_correct_identity_when_all_pass(make_gateway):
    candidates = [make_idea(i) for i in range(3)]
    backend = RuleBackend(
        rules=[(REFLECT_SIG, reflect_json(
            [{"index": i, "sound": True, "score": 5} for i in (1, 2, 3)]))]
    )
    seeder = make_seeder(backend, make_gateway)
    assert seeder.self_correct(candidates, keep=5) == candidates


def test_self_correct_excludes_failed_check(make_gateway):
    candidates = [make_idea(i) for i in range(3)]
    backend = RuleBackend(
        rules=[(REFLECT_SIG, reflect_json([
            {"index": 1, "sound": True, "score": 5},
            {"index": 2, "sound": False, "score": 5},
            {"index": 3, "sound": True, "score": 5},
        ]))]
    )
    seeder = make_seeder(backend, make_gateway)
    kept = seeder.self_correct(candidates, keep=5)
    assert [k.id for k in kept] == [candidates[0].id, candidates[2].id]


def test_self_correct_top_three_by_score(make_gateway):
    candidates = [make_idea(i, text=f"cand {i}") for i in range(10)]
    backend = RuleBackend(
        rules=[(REFLECT_SIG, reflect_json(
            [{"index": i, "sound": True, "score": 11 - i} for i in range(1, 11)]))]
    )
    seeder = make_seeder(backend, make_gateway)
    kept = seeder.self_correct(candidates, keep=3)
    assert [k.idea for k in kept] == ["cand 0", "cand 1", "cand 2"]


def test_self_correct_ties_keep_original_order(make_gateway):
    candidates = [make_idea(i, text=f"cand {i}") for i in range(4)]
    backend = RuleBackend(
        rules=[(REFLECT_SIG, reflect_json(
            [{"index": i, "sound": True, "score": 5} for i in range(1, 5)]))]
    )
    seeder = make_seeder(backend, make_gateway)
    kept = seeder.self_correct(candidates, keep=2)
    assert [k.idea for k in kept] == ["cand 0", "cand 1"]


def test_self_correct_all_rejected_returns_empty(make_gateway):
    candidates = [make_idea(1)]
    backend = RuleBackend(
        rules=[(REFLECT_SIG, reflect_json([{"index": 1, "sound": False, "score": 1}]))]
    )
    seeder = make_seeder(backend, make_gateway)
    assert seeder.self_correct(candidates, keep=3) == []


def test_reflect_defaults_unreviewed_candidates_to_sound_score_one(make_gateway):
    backend = RuleBackend(
        rules=[(REFLECT_SIG, reflect_json([{"index": 2, "sound": False, "score": 7}]))]
    )
    evaluations = reflect(make_gateway(backend), ["a", "b", "c"])
    assert evaluations == [
        Evaluation(index=1, sound=True, score=1),
        Evaluation(index=2, sound=False, score=7),
        Evaluation(index=3, sound=True, score=1),
    ]
    assert "1. a\n2. b\n3. c" in backend.prompts[0]


def test_self_correct_prose_reflection_keeps_the_first_ideas(make_gateway, caplog):
    candidates = [make_idea(i, text=f"cand {i}") for i in range(4)]
    backend = RuleBackend(rules=[(REFLECT_SIG, "They all seem fine.")])
    seeder = make_seeder(backend, make_gateway)
    assert seeder.self_correct(candidates, keep=2) == candidates[:2]
    assert "self_reflect_cut: no schema-valid reply" in caplog.text
    assert "using fallback ReflectReply(evaluations=())" in caplog.text


def test_self_correct_backend_outage_propagates(make_gateway):
    def down(prompt):
        raise TransientBackendError("backend down")

    seeder = make_seeder(RuleBackend(rules=[(REFLECT_SIG, down)]), make_gateway)
    with pytest.raises(BackendUnavailableError):
        seeder.self_correct([make_idea(1)], keep=1)


# ---------------------------------------------------------------------------
# quotas and pool assembly
# ---------------------------------------------------------------------------


def test_quota_split_sums_to_initial_seed_count():
    for count in (15, 6, 7, 8, 1, 2):
        assert sum(source_quotas(count)) == count
    assert source_quotas(PipelineConfig().initial_seed_count) == (5, 5, 5)
    assert source_quotas(7) == (3, 2, 2)
    assert source_quotas(8) == (3, 3, 2)


def test_generate_pool_full_and_valid(make_gateway, sample_paper, trend_papers):
    seeder = make_seeder(RuleBackend(), make_gateway)
    pool = seeder.generate_pool(sample_paper, "trend report text", trend_papers)
    assert len(pool) == 15
    by_source = {}
    for idea in pool:
        by_source[idea.source] = by_source.get(idea.source, 0) + 1
        assert idea.validate() == []
        assert idea.generation == 0
    assert by_source == {"internal_knowledge": 5, "trend": 5, "discovery_theory": 5}


def test_generate_pool_without_trend_inputs_short(make_gateway, sample_paper, caplog):
    seeder = make_seeder(RuleBackend(), make_gateway)
    pool = seeder.generate_pool(sample_paper, None, [])
    assert len(pool) == 10
    assert not any(i.source == "trend" for i in pool)
    assert any("no trend inputs" in r.message for r in caplog.records)


def test_pool_reproducible_modulo_ids(make_gateway, sample_paper, trend_papers, tmp_path):
    def build(cache):
        from nova.gateway import Gateway

        gateway = Gateway(RuleBackend(), tmp_path / cache)
        seeder = SeedGenerator(gateway, IdFactory(seed=0), PipelineConfig())
        return seeder.generate_pool(sample_paper, "report", trend_papers)

    first = build("c1")
    second = build("c2")
    assert [(i.idea, i.source, i.keywords) for i in first] == [
        (i.idea, i.source, i.keywords) for i in second
    ]
