"""The core iteration: plan a search per idea, retrieve, expand, cut, replace.

Each generation (`run_generation`) maps every pool idea through make_plan ->
execute_plan -> expansion and replaces the pool with the union of the
outputs. The orchestrator runs one generation per iteration step. Expansion
failures let the old idea survive the generation unchanged, keeping the
pool-growth law near-exact and runs resumable. Idea-level work goes through
`Gateway.fan_out`, which turns concurrent once calls go live; IDs are assigned
at the ordered join, so results are reproducible regardless of scheduling.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    Direction, Idea, IterationRecord, PipelineConfig, RetrievedDoc, SearchPlan, SeedPaper,
)
from .gateway import Gateway
from .ids import IdFactory
from .literature import Embedder, SearchQuery, cosine
from .replies import IdeaReply, SearchPlanReply
from .seeding import format_idea, new_ideas, reflect

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class _ExpandOutcome:
    """Per-idea result of one generation's worker, before materialization."""

    plan: SearchPlan
    retrieved: int
    candidates: tuple[IdeaReply, ...] | None  # None = expansion failed, idea survives


def format_docs(docs: list[RetrievedDoc]) -> str:
    if not docs:
        return "(no new knowledge retrieved)"
    lines = []
    for d in docs:
        lines.append(f"Title: {d.title}\nAbstract: {d.abstract}")
    return "\n\n".join(lines)


class PlannerLoop:
    def __init__(
        self,
        gateway: Gateway,
        search_backend,
        embedder: Embedder,
        id_factory: IdFactory,
        config: PipelineConfig,
    ):
        self._gateway = gateway
        self._search = search_backend
        self._embedder = embedder
        self._ids = id_factory
        self._config = config

    # -- planning ------------------------------------------------------------

    def make_plan(self, idea: Idea) -> SearchPlan:
        """Search plan for one idea; falls back to its own keywords on failure."""
        directions: list[Direction] = []
        reply = self._gateway.ask(
            "search_plan", {"idea_info": format_idea(idea)}, fallback=SearchPlanReply(())
        )
        for direction in reply.directions:
            keywords = tuple(k for k in direction.keywords if k.strip())
            if not keywords:
                logger.info("dropping keywordless direction for idea %s", idea.id)
                continue
            directions.append(replace(direction, keywords=keywords))
        if not directions:
            directions = [Direction(thinking="fallback: idea keywords", keywords=idea.keywords)]
        return SearchPlan(
            idea_id=idea.id,
            directions=tuple(directions),
            created_at_generation=idea.generation,
        )

    def execute_plan(self, idea: Idea, keyword_groups) -> list[RetrievedDoc]:
        """One search per keyword group, merged by title, ranked by cosine to
        the idea's embedding, top `retrieve_K`.

        The planner passes one group per search-plan direction; proposals pass
        the idea's own keywords, or one group per decomposition module. Every
        doc a search returns carries its embedding as a read-only float64 array:
        the search backend embeds it (`OfflineCorpus` stores them,
        `HttpSearchClient` embeds each reply). The idea's embedding becomes an
        array once per call, and each doc is ranked by `cosine` of the two
        arrays. A failed search raises out of here, so the stage aborts at its
        last checkpoint rather than go on without retrieval.
        """
        if self._search is None:
            return []
        K = self._config.retrieve_K
        merged: dict[str, RetrievedDoc] = {}
        for keywords in keyword_groups:
            for doc in self._search.search(SearchQuery(text=" ".join(keywords), limit=K)):
                merged.setdefault(doc.title, doc)
        if not merged:
            logger.info("search for idea %s retrieved nothing", idea.id)
            return []
        qvec = np.asarray(idea.embedding, dtype=np.float64)
        ranked = sorted(
            ((cosine(qvec, doc.embedding), doc) for doc in merged.values()),
            key=lambda pair: (-pair[0], pair[1].title),
        )
        return [doc for _, doc in ranked[:K]]

    # -- expansion -------------------------------------------------------------

    def _expand_candidates(
        self, paper: SeedPaper, old: Idea, docs: list[RetrievedDoc]
    ) -> tuple[IdeaReply, ...] | None:
        """Expand one idea into candidates cut to keep_count; None on failure."""
        bindings = {
            "expand_count": str(self._config.expand_count),
            "paper_title": paper.title,
            "paper_abstract": paper.abstract,
            "old_idea": format_idea(old),
            "new_knowledge": format_docs(docs),
        }
        candidates = self._gateway.ask("expand_ideas", bindings, fallback=None)
        if candidates is None:
            return None
        return self._reflect_cut(candidates, self._config.keep_count)

    def _reflect_cut(self, candidates: tuple[IdeaReply, ...], keep: int) -> tuple[IdeaReply, ...]:
        """Self-reflection cut: drop unsound candidates, keep the top-scored."""
        if len(candidates) <= keep:
            return candidates
        evaluations = reflect(self._gateway, [c.idea for c in candidates])
        sound = [n for n, ev in enumerate(evaluations) if ev.sound]
        if not sound:
            sound = list(range(len(candidates)))
        ranked = sorted(sound, key=lambda n: (-evaluations[n].score, n))
        return tuple(candidates[n] for n in ranked[:keep])

    # -- the loop ---------------------------------------------------------------

    def _process_idea(self, paper: SeedPaper, idea: Idea) -> _ExpandOutcome:
        plan = self.make_plan(idea)
        docs = self.execute_plan(idea, [d.keywords for d in plan.directions])
        candidates = self._expand_candidates(paper, idea, docs)
        return _ExpandOutcome(plan=plan, retrieved=len(docs), candidates=candidates)

    def _embed_new(self, ideas: list[Idea]) -> list[Idea]:
        missing = [i for i in ideas if i.embedding is None]
        if not missing:
            return ideas
        vectors = self._embedder.embed([i.idea for i in missing])
        replacements = {
            i.id: tuple(vec.tolist()) for i, vec in zip(missing, vectors)
        }
        return [
            i if i.embedding is not None else replace(i, embedding=replacements[i.id])
            for i in ideas
        ]

    def run_generation(
        self, paper: SeedPaper, pool: list[Idea], step: int
    ) -> tuple[list[Idea], IterationRecord]:
        """One plan/search/expand/replace pass over the whole pool."""
        if not pool:
            raise ValueError("run_generation requires a nonempty pool")
        outcomes = self._gateway.fan_out(pool, lambda idea: self._process_idea(paper, idea))

        next_pool: list[Idea] = []
        plans: list[SearchPlan] = []
        retrieved_counts: dict[str, int] = {}
        for idea, outcome in zip(pool, outcomes):
            plans.append(outcome.plan)
            retrieved_counts[idea.id] = outcome.retrieved
            if outcome.candidates is None:
                next_pool.append(idea)  # failure survival, generation unchanged
            else:
                next_pool.extend(new_ideas(
                    self._ids, outcome.candidates, "iteration", idea.generation + 1, idea.id
                ))
        next_pool = self._embed_new(next_pool)
        assert len(next_pool) <= len(pool) * max(self._config.keep_count, 1)
        record = IterationRecord(
            generation=step,
            input_pool_size=len(pool),
            output_pool_size=len(next_pool),
            plans=tuple(plans),
            retrieved_counts=retrieved_counts,
        )
        logger.info("generation %d: %d -> %d ideas", step, len(pool), len(next_pool))
        return next_pool, record

