"""Which Nova functions the traced run wraps, and the per-layer metrics from them.

Every timing below is the self time of a span summed over its calls, except
the stage spans, which are the wall time of `advance_to` for one stage, and
`gateway.backend_busy_s`, which sums whole backend calls across threads.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from pathlib import Path

from nova import gateway, literature, orchestrator, planner, prompts, proposals, seeding
from nova import selector, tournament
from nova.prompts import REGISTRY_NAMES

from .latency import LatencyBackend
from .spans import Patches, SpanRecorder

INFLIGHT_STAGES = ("iterated", "proposed", "evaluated")

# (owner, attribute, span name) for spans that need no extra counting.
_PLAIN = (
    (gateway.Gateway, "complete", "gateway.complete"),
    (gateway.Gateway, "complete_json", "gateway.complete_json"),
    (gateway.ResponseCache, "get", "gateway.cache.get"),
    (gateway.ResponseCache, "put", "gateway.cache.put"),
    (gateway, "extract_json", "gateway.extract_json"),
    (orchestrator.ArtifactStore, "put", "orchestrator.store.put"),
    (orchestrator.ArtifactStore, "get", "orchestrator.store.get"),
    (literature.OfflineCorpus, "__init__", "literature.corpus_load"),
    (literature.OfflineCorpus, "search", "literature.search"),
    (literature.OfflineCorpus, "nearest", "literature.nearest"),
    (literature.HashEmbedder, "embed", "literature.embed"),
    (planner.PlannerLoop, "make_plan", "planner.make_plan"),
    (planner.PlannerLoop, "execute_plan", "planner.execute_plan"),
    (seeding.SeedGenerator, "generate_pool", "seeding.generate_pool"),
    (proposals.ProposalBuilder, "build_all", "proposals.build_all"),
    (selector, "non_duplicate_fraction", "selector.dedup"),
    (tournament, "non_duplicate_fraction", "selector.dedup"),
    (tournament, "unique_novel_count", "tournament.unique_novel_count"),
)


class Tracing:
    """Wraps every traced layer of Nova in spans for the life of the `with`."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self._patches = Patches()
        self._templates: dict[str, str] = {}

    def __enter__(self) -> "Tracing":
        rec, wrap = self.recorder, self._patches.wrap
        for owner, attr, name in _PLAIN:
            wrap(owner, attr, rec.traced(name))
        wrap(prompts.PromptLibrary, "render", rec.traced(
            "prompts.render",
            on_return=lambda args, kwargs, prompt: self._templates.__setitem__(prompt, args[1]),
        ))
        wrap(LatencyBackend, "send", rec.traced(
            "gateway.backend.send",
            on_call=lambda args, kwargs: rec.count(f"gateway.calls.{self._template(args[2])}"),
        ))
        wrap(planner.PlannerLoop, "run_generation", rec.traced(
            "planner.generation", on_return=self._count_unexpanded
        ))
        wrap(selector, "cluster_pool", rec.traced(
            "selector.cluster_pool",
            on_return=lambda args, kwargs, result: rec.count(
                "selector.kmeans_iterations", len(result.inertia_history)
            ),
        ))
        wrap(tournament, "swiss_tournament", rec.traced(
            "tournament.swiss",
            on_return=lambda args, kwargs, result: rec.count(
                "tournament.matches", len(result.matches)
            ),
        ))
        wrap(tournament, "novelty_judge", rec.traced(
            "tournament.novelty_judge",
            on_return=lambda args, kwargs, result: rec.count(
                "tournament.judge_llm_calls", result.judge_calls
            ),
        ))
        ranker_span = rec.traced("tournament.rank")
        wrap(tournament, "make_llm_ranker",
             lambda original: lambda *a, **k: ranker_span(original(*a, **k)))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _template(self, prompt: str) -> str:
        # Re-prompts and seeding refills append "\n\n(...)" to a rendered prompt.
        while prompt not in self._templates:
            cut = prompt.rfind("\n\n(")
            if cut < 0:
                return "unattributed"
            prompt = prompt[:cut]
        return self._templates[prompt]

    def _count_unexpanded(self, args, kwargs, result) -> None:
        pool = args[2]
        next_pool, _ = result
        before = {idea.id for idea in pool}
        self.recorder.count("planner.ideas_attempted", len(pool))
        self.recorder.count(
            "planner.ideas_unexpanded", sum(idea.id in before for idea in next_pool)
        )


def layer_metrics(rec: SpanRecorder, stats: dict, run_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans, counters and run dir."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    failed: Counter = Counter()
    by_id = {span.id: span for span in rec.spans}
    selfs = rec.self_times()
    stage_wall: dict[str, float] = {}
    stage_busy: dict[str, float] = defaultdict(float)
    nested_completes = 0
    for span in rec.spans:
        self_s[span.name] += selfs[span.id]
        calls[span.name] += 1
        failed[span.name] += span.failed
        if span.name.startswith("orchestrator.stage."):
            stage_wall[span.stage] = span.end - span.start
        elif span.name == "gateway.backend.send":
            stage_busy[span.stage] += span.end - span.start
        elif span.name == "gateway.complete" and span.parent in by_id:
            nested_completes += by_id[span.parent].name == "gateway.complete_json"

    counts = rec.counts
    out: dict[str, float] = {}
    for stage, wall in stage_wall.items():
        out[f"orchestrator.stage.{stage}_s"] = wall
    out["orchestrator.store.put_calls"] = calls["orchestrator.store.put"]
    out["orchestrator.store.put_s"] = self_s["orchestrator.store.put"]
    out["orchestrator.store.get_s"] = self_s["orchestrator.store.get"]
    out["orchestrator.store.bytes"] = sum(
        p.stat().st_size for p in (run_dir / "artifacts").iterdir()
    )

    misses = stats["requests"] - stats["cache_hits"]
    out["gateway.requests"] = stats["requests"]
    out["gateway.cache_hits"] = stats["cache_hits"]
    out["gateway.live_calls"] = stats["live_calls"]
    out["gateway.retries"] = stats["live_calls"] - misses
    out["gateway.reprompts"] = nested_completes - calls["gateway.complete_json"]
    out["gateway.cache_hit_share"] = stats["cache_hits"] / stats["requests"]
    for name in REGISTRY_NAMES:
        out[f"gateway.calls.{name}"] = counts[f"gateway.calls.{name}"]
    out["gateway.backend_busy_s"] = sum(stage_busy.values())
    for stage in INFLIGHT_STAGES:
        out[f"gateway.inflight_mean.{stage}"] = stage_busy[stage] / stage_wall[stage]
    out["gateway.cache.get_s"] = self_s["gateway.cache.get"]
    out["gateway.cache.put_s"] = self_s["gateway.cache.put"]
    out["gateway.extract_json_s"] = self_s["gateway.extract_json"]

    out["prompts.render_calls"] = calls["prompts.render"]
    out["prompts.render_s"] = self_s["prompts.render"]
    out["literature.corpus_load_s"] = self_s["literature.corpus_load"]
    for layer in ("search", "nearest", "embed"):
        out[f"literature.{layer}_calls"] = calls[f"literature.{layer}"]
        out[f"literature.{layer}_s"] = self_s[f"literature.{layer}"]

    out["planner.generation_s"] = self_s["planner.generation"]
    out["planner.make_plan_s"] = self_s["planner.make_plan"]
    out["planner.execute_plan_s"] = self_s["planner.execute_plan"]
    out["planner.failed_expansion_share"] = (
        counts["planner.ideas_unexpanded"] / counts["planner.ideas_attempted"]
    )
    out["seeding.generate_pool_s"] = self_s["seeding.generate_pool"]
    out["proposals.build_all_calls"] = calls["proposals.build_all"]
    out["proposals.build_all_s"] = self_s["proposals.build_all"]
    out["proposals.failed_share"] = (
        failed["proposals.build_all"] / calls["proposals.build_all"]
    )
    out["selector.cluster_pool_s"] = self_s["selector.cluster_pool"]
    out["selector.kmeans_iterations"] = counts["selector.kmeans_iterations"]
    out["selector.dedup_calls"] = calls["selector.dedup"]
    out["selector.dedup_s"] = self_s["selector.dedup"]
    out["tournament.swiss_s"] = self_s["tournament.swiss"]
    out["tournament.matches"] = counts["tournament.matches"]
    out["tournament.coin_flips"] = failed["tournament.rank"]
    out["tournament.novelty_judge_calls"] = calls["tournament.novelty_judge"]
    out["tournament.judge_llm_calls"] = counts["tournament.judge_llm_calls"]
    out["tournament.novelty_judge_s"] = self_s["tournament.novelty_judge"]
    return out
