"""Planner loop: plans, retrieval merging, expansion, and the growth law."""

from __future__ import annotations

import json
import re

import pytest

from nova.domain import PipelineConfig, RetrievedDoc
from nova.gateway import Gateway, GatewayOptions, TransientBackendError
from nova.ids import IdFactory
from nova.literature import HashEmbedder, LiteratureError, OfflineCorpus, SearchQuery
from nova.mockllm import MockBackend
from nova.orchestrator import Runner, RunnerOptions
from nova.domain import IterationRecords
from nova.planner import IterationRecord, PlannerLoop
from tests.conftest import (
    FAST_GATEWAY, RuleBackend, embedded_idea, make_idea, validate_lineage,
)


PLAN_SIG = "develop a detailed paper search plan"
EXPAND_SIG = "learn from new knowledge and provide some impactful and creative"
REFLECT_SIG = "critically reviewing a numbered list"


def make_planner(backend, make_gateway, corpus=None, config=None,
                 embedder=None, parallelism=1) -> PlannerLoop:
    config = config or PipelineConfig()
    options = GatewayOptions(backoff_base=0.0, backoff_cap=0.0, parallelism=parallelism)
    gateway = make_gateway(backend, options=options)
    embedder = embedder or HashEmbedder(dim=8, seed=1)
    return PlannerLoop(gateway, corpus, embedder, IdFactory(seed=2), config)


def plan_json(directions):
    return json.dumps({"directions": directions})


def embedded(n, seed=1, **kwargs):
    vec = HashEmbedder(dim=8, seed=seed).embed([f"idea text {n}"])[0]
    return embedded_idea(n, vec, **kwargs)


def run_generations(planner, paper, pool, iterations):
    """Generations 1..iterations, chained the way the orchestrator's iterate stage does."""
    records = []
    for step in range(1, iterations + 1):
        pool, record = planner.run_generation(paper, pool, step)
        records.append(record)
    return pool, records


def expand_one(planner, paper, old):
    """The next-generation pool grown from `old` alone."""
    pool, _ = planner.run_generation(paper, [old], old.generation + 1)
    return pool


class StaticSearch:
    """Search backend that answers every query with the same docs."""

    def __init__(self, docs):
        self.docs = list(docs)

    def search(self, query):
        return list(self.docs)


# ---------------------------------------------------------------------------
# make_plan
# ---------------------------------------------------------------------------


def test_make_plan_scripted_four_areas(make_gateway):
    directions = [
        {"thinking": "LLM idea generation methods", "keywords": ["LLM creativity"]},
        {"thinking": "study the scientific process", "keywords": [
            "philosophy of science", "history of scientific innovation"]},
        {"thinking": "community dynamics", "keywords": ["sociology of science"]},
        {"thinking": "policy angle", "keywords": ["science policy"]},
    ]
    backend = RuleBackend(rules=[(PLAN_SIG, "Thinking:\n" + plan_json(directions))])
    planner = make_planner(backend, make_gateway)
    idea = make_idea(1)
    plan = planner.make_plan(idea)
    assert len(plan.directions) == 4
    assert any("philosophy of science" in d.keywords for d in plan.directions)
    assert plan.idea_id == idea.id
    assert plan.validate() == []


def test_make_plan_fallback_on_garbage(make_gateway, caplog):
    backend = RuleBackend(rules=[(PLAN_SIG, "complete nonsense, no json")])
    planner = make_planner(backend, make_gateway)
    idea = make_idea(7)
    plan = planner.make_plan(idea)
    assert len(plan.directions) == 1
    assert plan.directions[0].keywords == idea.keywords
    assert any("fallback" in r.message for r in caplog.records)


def test_make_plan_drops_empty_keyword_directions(make_gateway):
    directions = [
        {"thinking": "empty", "keywords": ["  ", ""]},
        {"thinking": "good", "keywords": ["solid keyword"]},
    ]
    backend = RuleBackend(rules=[(PLAN_SIG, plan_json(directions))])
    planner = make_planner(backend, make_gateway)
    plan = planner.make_plan(make_idea(3))
    assert len(plan.directions) == 1
    assert plan.directions[0].keywords == ("solid keyword",)


def test_make_plan_all_directions_dropped_falls_back(make_gateway):
    directions = [{"thinking": "empty", "keywords": [""]}]
    backend = RuleBackend(rules=[(PLAN_SIG, plan_json(directions))])
    planner = make_planner(backend, make_gateway)
    idea = make_idea(4)
    plan = planner.make_plan(idea)
    assert plan.directions[0].keywords == idea.keywords


def test_make_plan_prompt_carries_default_example(make_gateway):
    backend = RuleBackend()
    planner = make_planner(backend, make_gateway)
    planner.make_plan(make_idea(5))
    prompt = next(p for p in backend.prompts if PLAN_SIG in p)
    assert "philosophy of science" in prompt  # shipped in-context example


# ---------------------------------------------------------------------------
# execute_plan
# ---------------------------------------------------------------------------


def make_corpus(tmp_path, n_docs, embedder):
    cdir = tmp_path / "corpus"
    cdir.mkdir(exist_ok=True)
    for i in range(n_docs):
        (cdir / f"d{i:02d}.json").write_text(
            json.dumps({"title": f"doc {i:02d}", "abstract": f"text {i}"}),
            encoding="utf-8",
        )
    return OfflineCorpus(cdir, embedder)


def test_execute_plan_two_directions_top_k_unique(tmp_path, make_gateway):
    embedder = HashEmbedder(dim=8, seed=1)
    corpus = make_corpus(tmp_path, 20, embedder)
    planner = make_planner(RuleBackend(), make_gateway, corpus=corpus, embedder=embedder)
    idea = embedded(1)
    docs = planner.execute_plan(idea, [("alpha", "beta"), ("gamma",)])
    titles = [d.title for d in docs]
    assert len(docs) == 5
    assert len(set(titles)) == 5


def test_execute_plan_fewer_than_k(tmp_path, make_gateway):
    embedder = HashEmbedder(dim=8, seed=1)
    corpus = make_corpus(tmp_path, 3, embedder)
    planner = make_planner(RuleBackend(), make_gateway, corpus=corpus, embedder=embedder)
    idea = embedded(2)
    assert len(planner.execute_plan(idea, [("kw",)])) == 3


def test_execute_plan_merge_matches_brute_force(tmp_path, make_gateway):
    """Title-dedup then rank-by-cosine equals an independent merge."""
    embedder = HashEmbedder(dim=8, seed=1)
    corpus = make_corpus(tmp_path, 12, embedder)
    K = 4
    planner = make_planner(RuleBackend(), make_gateway, corpus=corpus, embedder=embedder,
                           config=PipelineConfig(retrieve_K=K))
    idea = embedded(3)
    groups = [("query one",), ("query two",)]
    got = [d.title for d in planner.execute_plan(idea, groups)]

    # brute force: per-group searches, first-seen merge, cosine sort
    import numpy as np

    seen = {}
    for keywords in groups:
        for doc in corpus.search(SearchQuery(text=" ".join(keywords), limit=K)):
            seen.setdefault(doc.title, doc)
    expected = sorted(
        seen.values(),
        key=lambda d: (-float(np.asarray(idea.embedding) @ np.asarray(d.embedding)), d.title),
    )[:K]
    assert got == [d.title for d in expected]
    assert len(set(got)) == len(got)  # a doc reachable from both groups appears once


def test_execute_plan_no_backend_returns_empty(make_gateway):
    planner = make_planner(RuleBackend(), make_gateway, corpus=None)
    idea = embedded(4)
    assert planner.execute_plan(idea, [("kw",)]) == []


def test_execute_plan_search_failures_propagate(make_gateway):
    """A failed search is an availability failure: it leaves the plan at once,
    so the stage aborts instead of going on without retrieval."""
    class BrokenCorpus:
        def __init__(self):
            self.queries = []

        def search(self, query):
            self.queries.append(query.text)
            if query.text == "down":
                raise TransientBackendError("backend down")
            raise LiteratureError("malformed reply")

    corpus = BrokenCorpus()
    planner = make_planner(RuleBackend(), make_gateway, corpus=corpus)
    idea = embedded(5)
    with pytest.raises(TransientBackendError, match="backend down"):
        planner.execute_plan(idea, [("down",), ("bad",)])
    with pytest.raises(LiteratureError, match="malformed reply"):
        planner.execute_plan(idea, [("bad",), ("down",)])
    assert corpus.queries == ["down", "bad"]


@pytest.mark.parametrize("error", [TypeError, AttributeError, KeyError])
def test_execute_plan_programming_errors_propagate(make_gateway, error):
    class BuggyCorpus:
        def search(self, query):
            raise error("bug")

    planner = make_planner(RuleBackend(), make_gateway, corpus=BuggyCorpus())
    idea = embedded(5)
    with pytest.raises(error):
        planner.execute_plan(idea, [("kw",)])


class CountingEmbedder(HashEmbedder):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.batches: list[list[str]] = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return super().embed(texts)


def test_execute_plan_all_embedded_sends_no_embed_call(make_gateway):
    vec = tuple(HashEmbedder(dim=8, seed=9).embed(["stored"])[0])

    class StubSearch:
        def search(self, query):
            return [RetrievedDoc(title="doc", abstract="", source_query="q", embedding=vec)]

    embedder = CountingEmbedder(dim=8, seed=1)
    planner = make_planner(RuleBackend(), make_gateway, corpus=StubSearch(), embedder=embedder)
    idea = embedded(5)
    assert [d.title for d in planner.execute_plan(idea, [("kw",)])] == ["doc"]
    assert embedder.batches == []


# ---------------------------------------------------------------------------
# expansion of one idea, through run_generation
# ---------------------------------------------------------------------------


def expand_json(texts):
    return "```json\n" + json.dumps(
        [{"thinking": "t", "idea": t, "keywords": ["k"]} for t in texts]
    ) + "\n```"


def test_expand_scripted_keeps_named_idea(make_gateway, sample_paper):
    scripted = expand_json(
        ["Dynamic Knowledge Graph Integration",
         "Context-Aware Research Idea Generation",
         "Real-Time Peer Review Feedback Integration"]
    )
    backend = RuleBackend(rules=[(EXPAND_SIG, scripted)])
    planner = make_planner(backend, make_gateway)
    old = embedded(1)
    children = expand_one(planner, sample_paper, old)
    assert len(children) == 3
    assert children[0].idea == "Dynamic Knowledge Graph Integration"
    assert all(c.parent_id == old.id and c.generation == old.generation + 1 for c in children)
    assert all(c.source == "iteration" for c in children)


def test_expand_failure_returns_old_unchanged(make_gateway, sample_paper, caplog):
    backend = RuleBackend(rules=[(EXPAND_SIG, "garbage")])
    planner = make_planner(backend, make_gateway)
    old = embedded(9, generation=2, source="iteration")
    out = expand_one(planner, sample_paper, old)
    assert out == [old]
    assert out[0].generation == 2
    assert re.search(r"expand_ideas: no schema-valid reply to request [0-9a-f]{12}, "
                     r"using fallback None", caplog.text)


def test_expand_ten_candidates_top_three_survive(make_gateway, sample_paper):
    scripted = expand_json([f"candidate {i}" for i in range(1, 11)])
    scores = json.dumps({"evaluations": [
        {"index": i, "sound": True, "score": i} for i in range(1, 11)]})
    backend = RuleBackend(rules=[(EXPAND_SIG, scripted), (REFLECT_SIG, scores)])
    planner = make_planner(backend, make_gateway)
    children = expand_one(planner, sample_paper, embedded(1))
    assert [c.idea for c in children] == ["candidate 10", "candidate 9", "candidate 8"]


def test_expand_unsound_candidates_dropped(make_gateway, sample_paper):
    scripted = expand_json([f"candidate {i}" for i in range(1, 11)])
    evaluations = [{"index": i, "sound": i > 5, "score": i} for i in range(1, 11)]
    backend = RuleBackend(rules=[(EXPAND_SIG, scripted),
                                 (REFLECT_SIG, json.dumps({"evaluations": evaluations}))])
    planner = make_planner(backend, make_gateway)
    children = expand_one(planner, sample_paper, embedded(1))
    assert [c.idea for c in children] == ["candidate 10", "candidate 9", "candidate 8"]


def test_expand_prose_reflection_keeps_the_first_candidates(make_gateway, sample_paper):
    scripted = expand_json([f"candidate {i}" for i in range(1, 11)])
    backend = RuleBackend(rules=[(EXPAND_SIG, scripted), (REFLECT_SIG, "All ten are good.")])
    planner = make_planner(backend, make_gateway)
    children = expand_one(planner, sample_paper, embedded(1))
    assert [c.idea for c in children] == ["candidate 1", "candidate 2", "candidate 3"]


def test_expand_prompt_includes_docs_and_old_idea(make_gateway, sample_paper):
    backend = RuleBackend()
    old = embedded(1, text="the old idea text")
    doc = RetrievedDoc(title="Known Doc Title", abstract="known abstract",
                       source_query="q", score=0.5, embedding=old.embedding)
    planner = make_planner(backend, make_gateway, corpus=StaticSearch([doc]))
    expand_one(planner, sample_paper, old)
    prompt = next(p for p in backend.prompts if EXPAND_SIG in p)
    assert "Known Doc Title" in prompt
    assert "the old idea text" in prompt


# ---------------------------------------------------------------------------
# chained generations
# ---------------------------------------------------------------------------


def small_pool(n, config=None):
    return [embedded(i) for i in range(n)]


def test_growth_law_t2(make_gateway, sample_paper):
    config = PipelineConfig(iterations_T=2, expand_count=4, keep_count=3)
    planner = make_planner(MockBackend(seed=0), make_gateway, config=config)
    pool, records = run_generations(planner, sample_paper, small_pool(5), config.iterations_T)
    assert len(pool) == 5 * 3 * 3
    assert [r.output_pool_size for r in records] == [15, 45]
    assert all(i.generation == 2 for i in pool)


def test_t_zero_identity(tmp_path, paper_input_file):
    """With iterations_T=0 the iterate stage keeps the seed pool and records nothing."""
    config = PipelineConfig(iterations_T=0, initial_seed_count=4)
    runner = Runner(tmp_path / "t0", config, RunnerOptions(backend="mock"))
    runner.advance_to("seeded", paper_input=str(paper_input_file))
    pool_in = runner._load_pool(0)
    state = runner.advance_to("iterated")
    assert set(state.pools) == {"0"}
    assert runner._load_pool(config.iterations_T) == pool_in
    records = runner.store.get(state.iteration_records_ref, IterationRecords)
    assert records == IterationRecords(records=())


def test_lineage_chain_reaches_generation_zero(make_gateway, sample_paper):
    config = PipelineConfig(iterations_T=2, expand_count=4, keep_count=2)
    planner = make_planner(MockBackend(seed=0), make_gateway, config=config)
    roots = small_pool(3)
    pool, _ = run_generations(planner, sample_paper, roots, config.iterations_T)
    known = {i.id: i for i in roots}
    # walk every final idea's ancestry without gaps
    all_snapshots = {i.id: i for i in roots}
    assert validate_lineage(list(all_snapshots.values()) + pool) == []
    for idea in pool:
        assert idea.generation == 2
        assert idea.parent_id is not None


def test_replacement_no_stale_generation(make_gateway, sample_paper):
    config = PipelineConfig(iterations_T=1, expand_count=4, keep_count=2)
    planner = make_planner(MockBackend(seed=0), make_gateway, config=config)
    roots = small_pool(4)
    pool, _ = run_generations(planner, sample_paper, roots, config.iterations_T)
    root_ids = {i.id for i in roots}
    assert not root_ids & {i.id for i in pool}


def test_failure_survivor_keeps_old_generation(make_gateway, sample_paper):
    backend = RuleBackend(rules=[(EXPAND_SIG, "never valid json")])
    config = PipelineConfig(iterations_T=1)
    planner = make_planner(backend, make_gateway, config=config)
    roots = small_pool(3)
    pool, records = run_generations(planner, sample_paper, roots, config.iterations_T)
    assert {i.id for i in pool} == {i.id for i in roots}
    assert all(i.generation == 0 for i in pool)
    assert records[0].output_pool_size == 3


def test_iteration_record_round_trip(make_gateway, sample_paper):
    config = PipelineConfig(iterations_T=1, expand_count=4, keep_count=2)
    planner = make_planner(MockBackend(seed=0), make_gateway, config=config)
    _, records = run_generations(planner, sample_paper, small_pool(2), config.iterations_T)
    record = records[0]
    assert IterationRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record
    assert set(record.retrieved_counts) == {i.id for i in small_pool(2)}


def test_parallel_iterate_reproducible(make_gateway, sample_paper, tmp_path):
    """Thread fan-out must not change pool contents or idea IDs."""
    config = PipelineConfig(iterations_T=2, expand_count=4, keep_count=2)

    def build(parallelism, cache_name):
        options = GatewayOptions(backoff_base=0.0, parallelism=parallelism)
        gateway = Gateway(MockBackend(seed=3), tmp_path / cache_name, options)
        planner = PlannerLoop(gateway, None, HashEmbedder(dim=8, seed=1), IdFactory(seed=2),
                              config)
        pool, _ = run_generations(planner, sample_paper, small_pool(4), config.iterations_T)
        return [(i.id, i.idea, i.parent_id) for i in pool]

    sequential = build(1, "c1")
    parallel = build(8, "c2")
    assert sequential == parallel
