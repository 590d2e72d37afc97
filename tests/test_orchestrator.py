"""Orchestrator: stage sequencing, durable state, resume, reports."""

from __future__ import annotations

import builtins
import dataclasses
import io
import json
import logging
import os
import stat
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nova.domain import (
    FINAL_SECTIONS, INITIAL_SECTIONS, DecompositionModule, DecompositionPlan, Idea, IdeaPool,
    PipelineConfig, Proposal, ProposalSet, Representatives, RunMetrics, SeedPaper,
)
from nova import orchestrator
from nova.gateway import GatewayError, GatewayOptions, HttpChatBackend, TransientBackendError
from nova.literature import HashEmbedder, LiteratureError, OfflineCorpus
from nova.mockllm import MockBackend, prompt_digest
from nova.orchestrator import (
    ARTIFACT_TYPES,
    STAGES,
    ArtifactStore,
    _dump_bytes,
    OrchestratorError,
    PipelineAborted,
    Runner,
    RunnerOptions,
    load_paper_input,
    load_state,
    metrics_report,
)
from nova.ids import IdFactory
from nova.selector import non_duplicate_fraction
from tests.conftest import FAST_GATEWAY, RuleBackend


def tree_bytes(root: Path, exclude=("events.jsonl",)) -> dict[str, bytes]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in exclude:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def options_for(corpus_dir, **kwargs) -> RunnerOptions:
    return RunnerOptions(backend="mock", corpus_dir=corpus_dir, **kwargs)


@pytest.fixture
def run_env(tmp_path, corpus_dir, paper_input_file, small_config):
    def _run(name: str, config=None, **kwargs):
        runner = Runner(tmp_path / name, config or small_config,
                        options_for(corpus_dir, **kwargs))
        return runner

    return _run


def test_full_run_reaches_done(run_env, paper_input_file, small_config):
    runner = _ = run_env("full")
    state = runner.run(paper_input=str(paper_input_file))
    assert state.stage_cursor == "done"
    assert set(state.pools) == {"0", "1", "2"}
    assert len(runner._load_pool(0)) == small_config.initial_seed_count
    assert len(runner._load_pool(2)) == small_config.initial_seed_count * (
        small_config.keep_count ** 2
    )
    assert len(state.proposals) == small_config.cluster_count
    assert state.tournament_ref is not None
    assert (runner.out_dir / "report" / "summary.json").is_file()
    assert (runner.out_dir / "report" / "unique_novel.csv").is_file()


def test_stage_subcommands_advance_one_at_a_time(run_env, paper_input_file):
    runner = run_env("steps")
    state = runner.advance_to("seeded", paper_input=str(paper_input_file))
    assert state.stage_cursor == "seeded"
    # a fresh Runner picks up the persisted state and continues
    runner2 = run_env("steps")
    state = runner2.advance_to("iterated")
    assert state.stage_cursor == "iterated"
    runner3 = run_env("steps")
    assert runner3.advance_to("done").stage_cursor == "done"


def test_seed_stage_idempotent(run_env, paper_input_file):
    runner = run_env("idem")
    runner.advance_to("seeded", paper_input=str(paper_input_file))
    snapshot = (runner.out_dir / "state.json").read_bytes()
    again = run_env("idem")
    again.advance_to("seeded", paper_input=str(paper_input_file))
    assert (again.out_dir / "state.json").read_bytes() == snapshot


def test_abort_then_resume_matches_clean_run(run_env, paper_input_file, tmp_path):
    clean = run_env("clean")
    clean.run(paper_input=str(paper_input_file))
    reference = tree_bytes(clean.out_dir)

    for stage in STAGES[:-1]:
        name = f"abort_{stage}"
        run_env(name).advance_to(stage, paper_input=str(paper_input_file))
        interrupted_state = json.loads((tmp_path / name / "state.json").read_text())
        assert interrupted_state["stage_cursor"] == stage
        run_env(name).run(paper_input=str(paper_input_file))
        resumed = tree_bytes(tmp_path / name)
        assert resumed == reference, f"tree mismatch after abort at {stage}"


def test_event_log_is_append_only_across_stages(run_env, paper_input_file):
    runner = run_env("events")
    runner.advance_to("seeded", paper_input=str(paper_input_file))
    first = (runner.out_dir / "events.jsonl").read_text()
    run_env("events").advance_to("iterated")
    second = (runner.out_dir / "events.jsonl").read_text()
    assert second.startswith(first)
    seqs = [json.loads(line)["seq"] for line in second.splitlines()]
    assert seqs == sorted(seqs)


def test_second_run_with_shared_cache_makes_zero_live_calls(
    run_env, paper_input_file, tmp_path
):
    shared_cache = tmp_path / "shared_cache"
    first = run_env("cache1", cache_dir=shared_cache)
    first.run(paper_input=str(paper_input_file))
    assert first.gateway.stats.snapshot()["live_calls"] > 0

    second = run_env("cache2", cache_dir=shared_cache)
    second.run(paper_input=str(paper_input_file))
    stats = second.gateway.stats.snapshot()
    assert stats["live_calls"] == 0
    assert stats["cache_hits"] == stats["requests"]


def test_parallel_run_reproducible(tmp_path, corpus_dir, paper_input_file, small_config,
                                  monkeypatch):
    """Every stage's fan-out leaves the tree and the call ledger as at parallelism 1.

    The run makes novelty-judge calls, and one prompt in three of every template
    fails twice before its reply, so retries overlap the fan-out.
    """
    sent: list[str] = []
    send = MockBackend.send

    def recording_send(self, model_id, prompt, *args):
        sent.append(prompt)
        return send(self, model_id, prompt, *args)

    monkeypatch.setattr(MockBackend, "send", recording_send)
    Runner(tmp_path / "discover", small_config, options_for(corpus_dir)).run(
        paper_input=str(paper_input_file)
    )
    monkeypatch.undo()
    assert any("already contains the core of a proposed research idea" in p for p in sent)
    synth = MockBackend(seed=small_config.rng_seed)
    script = {
        prompt_digest(prompt): {"text": synth.send("m", prompt, 0.0, 0), "transient_failures": 2}
        for prompt in sorted(set(sent))[::3]
    }
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")

    def run(parallelism: int):
        out = tmp_path / f"p{parallelism}"
        options = options_for(
            corpus_dir, mock_script=script_path,
            gateway=GatewayOptions(parallelism=parallelism, backoff_base=0.0, backoff_cap=0.0),
        )
        runner = Runner(out, small_config, options)
        assert runner.run(paper_input=str(paper_input_file)).stage_cursor == "done"
        return tree_bytes(out), runner.gateway.stats.snapshot()

    (tree_1, stats_1), (tree_8, stats_8) = run(1), run(8)
    assert tree_1 == tree_8
    assert stats_1 == stats_8
    assert stats_1["live_calls"] == stats_1["requests"] - stats_1["cache_hits"] + 2 * len(script)


def test_clamped_small_run_t0(tmp_path, corpus_dir, paper_input_file):
    config = PipelineConfig(iterations_T=0, initial_seed_count=15, cluster_count=5,
                            tournament_rounds=3, rng_seed=4)
    runner = Runner(tmp_path / "t0", config, options_for(corpus_dir))
    state = runner.run(paper_input=str(paper_input_file))
    assert set(state.pools) == {"0"}
    reps = runner.store.get(state.representatives_ref, Representatives)
    assert len(reps.idea_ids) == 5
    assert len(state.proposals) == 5  # one proposal set per representative
    for digest in state.proposals.values():
        proposals = runner.store.get(digest, ProposalSet)
        assert (proposals.initial.stage, proposals.final.stage) == ("initial", "final")


def test_all_artifacts_decode_and_validate(run_env, paper_input_file):
    """An uninterrupted run writes every kind of the store's map and no other.

    So a new artifact cannot be stored without a `Record` type. Each artifact
    and `state.json` decodes, re-encodes to what was written, and validates.
    """
    runner = run_env("record_walk")
    runner.run(paper_input=str(paper_input_file))
    envelopes = {p.stem: json.loads(p.read_text())
                 for p in (runner.out_dir / "artifacts").glob("*.json")}
    assert set(ARTIFACT_TYPES) == {
        "seed_paper", "trend_report", "idea_pool", "iteration_records", "representatives",
        "proposal_set", "tournament_result", "run_metrics",
    }
    assert {envelope["kind"] for envelope in envelopes.values()} == set(ARTIFACT_TYPES)
    for digest, envelope in envelopes.items():
        record = runner.store.get(digest, ARTIFACT_TYPES[envelope["kind"]])
        assert record.to_dict() == envelope["data"]
        assert record.validate() == [], (digest, envelope["kind"], record.validate()[:3])
    state = load_state(runner.out_dir)
    assert state == runner.state
    assert state.to_dict() == json.loads((runner.out_dir / "state.json").read_text())
    assert state.validate() == []


# A record of each kind the runner reads back, with one invariant broken, and
# the problem its decode names.
BROKEN_ARTIFACTS = {
    "seed_paper": (SeedPaper(id="p", title="T", abstract=""),
                   "SeedPaper.abstract: must be nonempty"),
    "idea_pool": (
        IdeaPool(0, (Idea(id="i", thinking="t", idea="x", keywords=("k",), source="trend",
                          embedding=(0.3, 0.4)),)),
        "Idea.embedding: norm 0.5 is not 1",
    ),
    "representatives": (Representatives(("i9",), {"i1": 0}),
                        "Representatives.idea_ids: i9 has no cluster assignment"),
    "proposal_set": (
        ProposalSet(
            Proposal("i", "initial", {name: "x" for name in INITIAL_SECTIONS}),
            DecompositionPlan("t", (DecompositionModule("M", "p", "i", ("k",)),)),
            Proposal("i", "final", {name: "" if name == "Motivation" else "x"
                                    for name in FINAL_SECTIONS}),
        ),
        "Proposal.sections[Motivation]: must be nonempty",
    ),
    "run_metrics": (RunMetrics({"0": 1}, 1.5, 1, {}),
                    "RunMetrics.non_duplicate_fraction: must be in [0, 1]"),
}


@pytest.mark.parametrize("kind", sorted(BROKEN_ARTIFACTS))
def test_get_refuses_an_artifact_that_breaks_an_invariant(tmp_path, kind):
    """`put` stores the record as given; `get` decodes it, naming the kind, digest and field."""
    record, problem = BROKEN_ARTIFACTS[kind]
    assert ARTIFACT_TYPES[kind] is type(record)
    store = ArtifactStore(tmp_path)
    digest = store.put(record)
    with pytest.raises(OrchestratorError) as info:
        store.get(digest, type(record))
    assert str(info.value).startswith(f"{kind.replace('_', ' ')} artifact {digest}: {problem}")


def test_get_refuses_an_idea_pool_with_an_unembedded_idea(tmp_path):
    """A run embeds each pool before it stores it; the decode refuses one that is not."""
    idea = Idea(id="i", thinking="t", idea="x", keywords=("k",), source="trend")
    store = ArtifactStore(tmp_path)
    digest = store.put(IdeaPool(1, (idea,)))
    with pytest.raises(OrchestratorError) as info:
        store.get(digest, IdeaPool)
    assert str(info.value) == f"idea pool artifact {digest}: IdeaPool.ideas[0]: has no embedding"


def test_report_on_partial_run_flags_gaps(run_env, paper_input_file):
    runner = run_env("partial")
    runner.advance_to("seeded", paper_input=str(paper_input_file))
    summary = metrics_report(runner.out_dir)
    assert summary["pool_sizes"] == {"0": 6}
    assert any("metrics" in gap for gap in summary["gaps"])
    assert not (runner.out_dir / "report" / "score_histogram.csv").exists()


def test_report_requires_existing_run(tmp_path):
    with pytest.raises(OrchestratorError, match="no run state"):
        metrics_report(tmp_path / "nowhere")


def test_metrics_counts_match_per_pool_replay(run_env, paper_input_file):
    """Each generation's judged count, replayed one pool at a time, sends no call."""
    runner = run_env("novmetrics")
    state = runner.run(paper_input=str(paper_input_file))
    metrics = runner.store.get(state.metrics_ref, RunMetrics)
    from nova.selector import non_duplicate_fraction
    from nova.tournament import unique_novel_count

    before = runner.gateway.stats.snapshot()
    for generation in state.pools:
        pool = runner._load_pool(int(generation))
        expected = unique_novel_count(pool, runner.corpus, runner.config, runner.gateway)
        assert metrics.unique_novel_per_generation[generation] == expected
    after = runner.gateway.stats.snapshot()
    assert after["requests"] > before["requests"]  # the replay asked the judge
    assert after["live_calls"] == before["live_calls"]
    fraction, retained = non_duplicate_fraction(
        runner._load_pool(runner.config.iterations_T), runner.config.dup_sim_threshold
    )
    assert metrics.non_duplicate_fraction == fraction
    assert metrics.retained_count == len(retained)


def test_run_without_paper_input_fails_cleanly(tmp_path, corpus_dir, small_config):
    runner = Runner(tmp_path / "nopaper", small_config, options_for(corpus_dir))
    with pytest.raises(OrchestratorError, match="paper input"):
        runner.run(paper_input=None)


def test_load_paper_input_wrapper_and_bare(tmp_path):
    factory = IdFactory(seed=0)
    bare = {"title": "T", "abstract": "A"}
    paper, trend = load_paper_input(bare, factory)
    assert paper.title == "T" and trend == []
    wrapped = {
        "paper": {"title": "T2", "abstract": "A2"},
        "trend_papers": [{"title": "H", "abstract": "h", "source_meta": {"likes": 1}}],
    }
    paper, trend = load_paper_input(wrapped, factory)
    assert paper.title == "T2"
    assert len(trend) == 1 and trend[0].source_meta == {"likes": 1}


def test_stage_cursor_only_advances(run_env, paper_input_file):
    runner = run_env("cursor")
    seen = []
    for target in STAGES:
        state = (
            runner.advance_to(target, paper_input=str(paper_input_file))
            if target == "seeded"
            else run_env("cursor").advance_to(target)
        )
        seen.append(state.stage_cursor)
    assert seen == list(STAGES)


@pytest.fixture
def pool_reads(monkeypatch):
    """Digests of the idea_pool artifacts read through `ArtifactStore.get`, in order."""
    reads: list[str] = []
    original = ArtifactStore.get

    def get(self, digest, cls):
        if cls is IdeaPool:
            reads.append(digest)
        return original(self, digest, cls)

    monkeypatch.setattr(ArtifactStore, "get", get)
    return reads


def test_fresh_run_decodes_no_pool(run_env, paper_input_file, pool_reads):
    runner = run_env("fresh")
    runner.run(paper_input=str(paper_input_file))
    assert pool_reads == []
    summary = json.loads((runner.out_dir / "report" / "summary.json").read_text())
    assert summary["pool_sizes"] == {"0": 6, "1": 12, "2": 24}
    # The report command counts the pools from the store; the summary was
    # written before the `done` commit, so only the cursor differs.
    assert metrics_report(runner.out_dir) == {**summary, "stage_cursor": "done"}
    assert len(pool_reads) == len(runner.state.pools)


def test_resumed_run_decodes_each_pool_at_most_once(run_env, paper_input_file, pool_reads):
    for stage in STAGES[:-1]:
        name = f"resume_{stage}"
        run_env(name).advance_to(stage, paper_input=str(paper_input_file))
        assert pool_reads == []
        resumed = run_env(name)
        resumed.run()
        assert len(pool_reads) == len(set(pool_reads)), stage
        assert set(pool_reads) <= set(resumed.state.pools.values())
        pool_reads.clear()


def test_loaded_pool_is_a_copy(run_env, paper_input_file):
    runner = run_env("copy")
    runner.advance_to("seeded", paper_input=str(paper_input_file))
    pool = runner._load_pool(0)
    pool.clear()
    assert len(runner._load_pool(0)) == 6


def test_runner_construction_creates_only_the_run_directory(
    run_env, paper_input_file, small_config
):
    """No `artifacts/` or `cache/` until the first write; the finished tree is as before."""
    runner = run_env("lazy")
    assert list(runner.out_dir.iterdir()) == []
    runner.run(paper_input=str(paper_input_file))
    assert sorted(p.name for p in runner.out_dir.iterdir()) == [
        "artifacts", "cache", "events.jsonl", "proposals", "report", "state.json",
    ]
    for path in runner.out_dir.rglob("*"):
        if path.is_file():
            assert stat.S_IMODE(path.stat().st_mode) == 0o600, path
    assert len(list((runner.out_dir / "proposals").iterdir())) == small_config.cluster_count
    path = runner.out_dir / "artifacts" / f"{runner.state.representatives_ref}.json"
    assert sorted(json.loads(path.read_text())["data"]) == ["assignments", "idea_ids"]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _json_values, max_size=5))
def test_dump_bytes_equals_json_dumps(payload):
    reference = (json.dumps(payload, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
    assert _dump_bytes(payload) == reference


# ---------------------------------------------------------------------------
# the failure rule: content failures fall back, availability failures abort
# ---------------------------------------------------------------------------

REFLECT_SIG = "critically reviewing a numbered list"
PAIR_SIG = "decide which one is better"
JUDGE_SIG = "already contains the core of a proposed research idea"


class FailingBackend:
    """Raises `error` for each prompt containing `needle`; the mock answers the rest."""

    def __init__(self, error: Exception, needle: str, seed: int):
        self.error = error
        self.needle = needle
        self.inner = MockBackend(seed=seed)
        self.failures = 0

    def send(self, model_id, prompt, temperature, max_tokens):
        if self.needle in prompt:
            self.failures += 1
            raise self.error
        return self.inner.send(model_id, prompt, temperature, max_tokens)


class BackendRunner(Runner):
    """`Runner` that talks to a given chat backend."""

    def __init__(self, out_dir, config, options, backend):
        self._given_backend = backend
        super().__init__(out_dir, config, options)

    def _make_backend(self):
        return self._given_backend


def test_prose_reflection_replies_do_not_abort_the_run(
    tmp_path, corpus_dir, paper_input_file, small_config, caplog
):
    backend = RuleBackend(
        rules=[(REFLECT_SIG, "These all look promising to me.")],
        fallback=MockBackend(seed=small_config.rng_seed),
    )
    runner = BackendRunner(tmp_path / "prose", small_config, options_for(corpus_dir), backend)
    with caplog.at_level(logging.WARNING):
        state = runner.run(paper_input=str(paper_input_file))
    assert state.stage_cursor == "done"
    assert any(REFLECT_SIG in prompt for prompt in backend.prompts)
    assert "self_reflect_cut: no schema-valid reply" in caplog.text
    assert "using fallback ReflectReply(evaluations=())" in caplog.text
    # every candidate counts as sound with score 1, so each source keeps its first ideas
    assert len(runner._load_pool(0)) == small_config.initial_seed_count


@pytest.mark.parametrize(
    "needle, error",
    [
        ("", TransientBackendError("backend down")),
        (PAIR_SIG, GatewayError("HTTP 400: bad request")),
        (JUDGE_SIG, GatewayError("HTTP 403: forbidden")),
    ],
    ids=["dead_backend", "ranker_http_4xx", "judge_http_4xx"],
)
def test_availability_failure_aborts_then_resume_matches_clean_run(
    run_env, tmp_path, corpus_dir, paper_input_file, small_config, caplog, needle, error
):
    clean = run_env("clean")
    clean.run(paper_input=str(paper_input_file))
    reference = tree_bytes(clean.out_dir)

    run_env("outage").advance_to("proposed", paper_input=str(paper_input_file))
    backend = FailingBackend(error, needle, small_config.rng_seed)
    failing = BackendRunner(
        tmp_path / "outage", small_config, options_for(corpus_dir, gateway=FAST_GATEWAY), backend
    )
    with caplog.at_level(logging.WARNING), pytest.raises(PipelineAborted) as aborted:
        failing.run()
    assert aborted.value.stage == "proposed"
    assert str(error) in str(aborted.value)
    retried = isinstance(error, TransientBackendError)
    assert backend.failures == (FAST_GATEWAY.retry_budget if retried else 1)
    assert "coin-flipping" not in caplog.text
    assert "novelty_judge: no schema-valid reply" not in caplog.text
    state = json.loads((tmp_path / "outage" / "state.json").read_text())
    assert state["stage_cursor"] == "proposed"

    assert run_env("outage").run().stage_cursor == "done"
    assert tree_bytes(tmp_path / "outage") == reference


class BrokenEmbedder(HashEmbedder):
    """An embedding service whose every reply is malformed."""

    def embed(self, texts):
        raise LiteratureError("malformed embedding reply: KeyError('data')")


def test_an_embedding_failure_aborts_then_resumes(tmp_path, paper_input_file, small_config,
                                                   monkeypatch):
    """A `LiteratureError` out of a stage takes the abort path a `GatewayError` takes."""
    options = RunnerOptions(backend="mock")
    clean = Runner(tmp_path / "clean", small_config, options)
    clean.run(paper_input=str(paper_input_file))
    Runner(tmp_path / "broken", small_config, options).advance_to(
        "seeded", paper_input=str(paper_input_file)
    )
    monkeypatch.setattr(orchestrator, "HashEmbedder", BrokenEmbedder)
    with pytest.raises(PipelineAborted, match="malformed embedding reply") as aborted:
        Runner(tmp_path / "broken", small_config, options).run()
    assert aborted.value.stage == "seeded"
    assert load_state(tmp_path / "broken").stage_cursor == "seeded"

    monkeypatch.setattr(orchestrator, "HashEmbedder", HashEmbedder)
    assert Runner(tmp_path / "broken", small_config, options).run().stage_cursor == "done"
    assert tree_bytes(tmp_path / "broken") == tree_bytes(clean.out_dir)


class DownSearchCorpus(OfflineCorpus):
    """A corpus whose search service is down."""

    def search(self, query):
        raise TransientBackendError("search endpoint: HTTP 503")


def test_a_search_failure_aborts_then_resumes(run_env, tmp_path, paper_input_file,
                                               monkeypatch):
    """A failed search aborts the iterate stage; the run never goes on without retrieval."""
    run_env("clean").run(paper_input=str(paper_input_file))
    run_env("outage").advance_to("seeded", paper_input=str(paper_input_file))
    monkeypatch.setattr(orchestrator, "OfflineCorpus", DownSearchCorpus)
    with pytest.raises(PipelineAborted, match="search endpoint: HTTP 503") as aborted:
        run_env("outage").run()
    assert aborted.value.stage == "seeded"
    assert load_state(tmp_path / "outage").stage_cursor == "seeded"

    monkeypatch.setattr(orchestrator, "OfflineCorpus", OfflineCorpus)
    assert run_env("outage").run().stage_cursor == "done"
    assert tree_bytes(tmp_path / "outage") == tree_bytes(tmp_path / "clean")


def test_a_tournament_abort_keeps_the_novelty_replies_for_the_resume(
    run_env, tmp_path, corpus_dir, paper_input_file, small_config
):
    """The novelty branch runs to its end beside the failing Swiss branch, and
    its replies stay in the journal, so the resume sends no judge prompt."""
    run_env("clean").run(paper_input=str(paper_input_file))
    reference = tree_bytes(tmp_path / "clean")
    run_env("outage").advance_to("proposed", paper_input=str(paper_input_file))
    backend = FailingBackend(GatewayError("HTTP 400: bad request"), PAIR_SIG,
                             small_config.rng_seed)
    backend.inner = RuleBackend(fallback=MockBackend(seed=small_config.rng_seed))
    failing = BackendRunner(
        tmp_path / "outage", small_config, options_for(corpus_dir, gateway=FAST_GATEWAY), backend
    )
    threads = threading.active_count()
    with pytest.raises(PipelineAborted) as aborted:
        failing.run()
    assert aborted.value.stage == "proposed"
    assert threading.active_count() == threads
    assert backend.failures == 1
    assert any(JUDGE_SIG in prompt for prompt in backend.inner.prompts)
    assert (tmp_path / "outage" / "cache" / "journal.jsonl").is_file()

    resumed_backend = RuleBackend(fallback=MockBackend(seed=small_config.rng_seed))
    resumed = BackendRunner(tmp_path / "outage", small_config, options_for(corpus_dir),
                            resumed_backend)
    assert resumed.run().stage_cursor == "done"
    assert not any(JUDGE_SIG in prompt for prompt in resumed_backend.prompts)
    assert any(PAIR_SIG in prompt for prompt in resumed_backend.prompts)
    assert tree_bytes(tmp_path / "outage") == reference


def test_missing_api_key_aborts_instead_of_coin_flipping(
    run_env, tmp_path, corpus_dir, paper_input_file, small_config, caplog, monkeypatch
):
    monkeypatch.delenv("NOVA_LLM_API_KEY", raising=False)
    run_env("nokey").advance_to("proposed", paper_input=str(paper_input_file))
    backend = HttpChatBackend("https://example.test/v1", post=lambda url, **kwargs: None)
    runner = BackendRunner(tmp_path / "nokey", small_config, options_for(corpus_dir), backend)
    with caplog.at_level(logging.WARNING), pytest.raises(PipelineAborted, match="NOVA_LLM_API_KEY"):
        runner.run()
    assert "coin-flipping" not in caplog.text
    assert runner.state.stage_cursor == "proposed"
    assert runner.state.tournament_ref is None


SEED_SIG = "new ideas worth exploring"


def test_empty_seed_pool_stops_before_the_seeded_commit(
    tmp_path, corpus_dir, paper_input_file, small_config
):
    """Every seed source answers with prose: the run stops with a named reason, twice."""
    backend = RuleBackend(
        rules=[(SEED_SIG, "I would rather not list any ideas.")],
        fallback=MockBackend(seed=small_config.rng_seed),
    )
    out = tmp_path / "empty"
    for _ in range(2):  # a resume replays the cached replies and stops the same way
        runner = BackendRunner(out, small_config, options_for(corpus_dir), backend)
        with pytest.raises(OrchestratorError, match="seeding produced no ideas") as info:
            runner.run(paper_input=str(paper_input_file))
        assert not isinstance(info.value, PipelineAborted)
        assert runner.state is None
        assert not (out / "state.json").exists()
    assert sum(SEED_SIG in prompt for prompt in backend.prompts) > 0


def test_run_without_corpus_counts_each_pools_dedup(tmp_path, paper_input_file, small_config):
    """Without a corpus no doc can be a novelty candidate: each count is the pool's dedup."""
    config = dataclasses.replace(small_config, dup_sim_threshold=0.3)
    runner = Runner(tmp_path / "nocorpus", config, RunnerOptions(backend="mock"))
    assert runner.corpus is None
    state = runner.advance_to("evaluated", paper_input=str(paper_input_file))
    metrics = runner.store.get(state.metrics_ref, RunMetrics)
    pools = {g: runner._load_pool(int(g)) for g in state.pools}
    dedup = {g: non_duplicate_fraction(pool, 0.3) for g, pool in pools.items()}
    assert metrics.unique_novel_per_generation == {g: len(d[1]) for g, d in dedup.items()}
    assert any(len(dedup[g][1]) < len(pool) for g, pool in pools.items())
    final = str(config.iterations_T)
    assert metrics.non_duplicate_fraction == dedup[final][0]
    assert metrics.retained_count == len(dedup[final][1])


def test_aborted_seeding_attempts_log_no_run_start(
    tmp_path, corpus_dir, paper_input_file, small_config
):
    """Only a seeding attempt that commits appends `run_started`."""
    out = tmp_path / "dead"
    for _ in range(3):
        backend = FailingBackend(TransientBackendError("backend down"), "", small_config.rng_seed)
        runner = BackendRunner(
            out, small_config, options_for(corpus_dir, gateway=FAST_GATEWAY), backend
        )
        with pytest.raises(PipelineAborted):
            runner.run(paper_input=str(paper_input_file))
        assert not (out / "events.jsonl").exists()
    assert not (out / "state.json").exists()

    Runner(out, small_config, options_for(corpus_dir)).run(paper_input=str(paper_input_file))
    lines = (out / "events.jsonl").read_text(encoding="utf-8").splitlines()
    types = [json.loads(line)["type"] for line in lines]
    assert types.count("run_started") == 1
    assert types[0] == "run_started"


class _Crash(BaseException):
    """A process death inside a write: nothing in the program catches it."""


@pytest.mark.parametrize("stage", ["seeded", "iterated"])
def test_a_crash_inside_a_commit_leaves_each_event_once_after_the_resume(
    run_env, paper_input_file, monkeypatch, stage
):
    """The commit's event is appended before its `state.json` write fails; the
    resume must not log it a second time."""
    clean = run_env("clean")
    clean.run(paper_input=str(paper_input_file))
    write = orchestrator.atomic_write

    def crash_at_the_commit(path, data):
        if Path(path).name == "state.json" and f'"stage_cursor": "{stage}"'.encode() in data:
            raise _Crash
        write(path, data)

    monkeypatch.setattr(orchestrator, "atomic_write", crash_at_the_commit)
    runner = run_env("crash")
    with pytest.raises(_Crash):
        runner.run(paper_input=str(paper_input_file))
    monkeypatch.undo()
    log = runner.out_dir / "events.jsonl"
    assert len(log.read_text(encoding="utf-8").splitlines()) == STAGES.index(stage) + 2

    run_env("crash").run(paper_input=str(paper_input_file))
    seqs = [json.loads(line)["seq"] for line in log.read_text(encoding="utf-8").splitlines()]
    assert seqs == list(range(len(STAGES) + 1))
    assert log.read_bytes() == (clean.out_dir / "events.jsonl").read_bytes()
    assert stat.S_IMODE(log.stat().st_mode) == 0o600


INITIAL_SIG = "brainstorm the detailed research project proposal"
FINAL_SIG = "expand a brief project idea into a full project proposal"


class ReversedSectionsBackend:
    """The mock's replies, with the sections of both proposal replies reversed."""

    def __init__(self, seed: int):
        self.inner = MockBackend(seed=seed)
        self.reversed = 0

    def send(self, model_id, prompt, temperature, max_tokens):
        reply = self.inner.send(model_id, prompt, temperature, max_tokens)
        if INITIAL_SIG not in prompt and FINAL_SIG not in prompt:
            return reply
        value = json.loads(reply[reply.index("{"):reply.rindex("}") + 1])
        if INITIAL_SIG in prompt:  # {proposal name: sections}
            value = {name: dict(reversed(body.items())) for name, body in value.items()}
        else:
            value = dict(reversed(value.items()))
        self.reversed += 1
        return "```json\n" + json.dumps(value) + "\n```"


def test_proposal_sections_in_any_reply_order_are_stored_canonically(
    tmp_path, corpus_dir, paper_input_file, small_config
):
    backend = ReversedSectionsBackend(small_config.rng_seed)
    runner = BackendRunner(tmp_path / "reversed", small_config, options_for(corpus_dir), backend)
    state = runner.run(paper_input=str(paper_input_file))
    assert state.stage_cursor == "done"
    assert backend.reversed == 2 * small_config.cluster_count
    assert len(state.proposals) == small_config.cluster_count
    for digest in state.proposals.values():
        proposals = runner.store.get(digest, ProposalSet)
        assert tuple(proposals.initial.sections) == INITIAL_SECTIONS
        assert tuple(proposals.final.sections) == FINAL_SECTIONS


def cache_listing(cache_dir: Path) -> dict[str, tuple[int, int, bytes]]:
    return {
        p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
        for p in sorted(cache_dir.iterdir())
    }


def test_runner_over_a_filled_shared_cache_touches_no_cache_file(
    run_env, paper_input_file, tmp_path, monkeypatch
):
    """Building a `Runner` opens, stats and lists nothing under the cache
    directory, and a replay that hits every request writes nothing there."""
    shared_cache = tmp_path / "shared_cache"
    run_env("fill", cache_dir=shared_cache).run(paper_input=str(paper_input_file))
    before = cache_listing(shared_cache)
    assert list(before) == ["entries.jsonl"]

    touched: list[str] = []

    def spy(module, name):
        original = getattr(module, name)

        def call(path, *args, **kwargs):
            if isinstance(path, (str, Path)) and str(path).startswith(str(shared_cache)):
                touched.append(f"{name}({path})")
            return original(path, *args, **kwargs)

        monkeypatch.setattr(module, name, call)

    for module, name in [(os, "open"), (builtins, "open"), (io, "open"), (os, "stat"),
                         (os, "lstat"), (os, "listdir"), (os, "scandir"), (os, "mkdir")]:
        spy(module, name)
    runner = run_env("replay", cache_dir=shared_cache)
    monkeypatch.undo()
    assert touched == []
    assert cache_listing(shared_cache) == before

    runner.run(paper_input=str(paper_input_file))
    stats = runner.gateway.stats.snapshot()
    assert stats["live_calls"] == 0 and stats["cache_hits"] == stats["requests"]
    assert cache_listing(shared_cache) == before


def test_a_crash_before_the_commit_leaves_the_journal_for_the_resume(
    run_env, paper_input_file, tmp_path, monkeypatch
):
    """Replies cached after the last commit stay in the journal, so the resume
    sends none of them again, and its commit folds them into the entries file."""
    run_env("clean").run(paper_input=str(paper_input_file))
    runner = run_env("crash")
    runner.advance_to("seeded", paper_input=str(paper_input_file))

    def crash(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(Runner, "_commit", crash)
    with pytest.raises(KeyboardInterrupt):
        runner.advance_to("iterated")
    monkeypatch.undo()
    cache = runner.out_dir / "cache"
    assert sorted(os.listdir(cache)) == ["entries.jsonl", "journal.jsonl"]
    assert runner.gateway.stats.snapshot()["live_calls"] > 0

    resumed = run_env("crash")
    resumed.advance_to("iterated")
    assert resumed.gateway.stats.snapshot()["live_calls"] == 0
    assert os.listdir(cache) == ["entries.jsonl"]
    resumed.run()
    assert tree_bytes(runner.out_dir) == tree_bytes(tmp_path / "clean")
