"""Initial seed-idea pool: three generation sources plus self-correction.

`SOURCES` lists the sources in the order they run: internal knowledge, research
trends and discovery theories. Each renders its template from one shared set of
bindings and asks for its share of `initial_seed_count` (`source_quotas`); the
trend source lists the ideas kept so far, and is skipped when the run has no
trend inputs. Self-correction runs a binary soundness pass followed by a
reflection-scoring pass (two judge calls over the same review template). When a
cut drops a source below quota, the prompt is re-issued with the surviving ideas
appended, up to two refills. A reply without a valid idea list adds no ideas
(its `Gateway.ask` fallback); remaining shortfall is tolerated and logged.
"""

from __future__ import annotations

import logging

from .domain import Idea, PipelineConfig, SeedPaper
from .gateway import Gateway
from .ids import IdFactory
from .replies import Evaluation, IdeaReply, ReflectReply

logger = logging.getLogger(__name__)

MAX_REFILLS = 2

# (source tag, template), in the order the sources run.
SOURCES = (
    ("internal_knowledge", "initial_seed"),
    ("trend", "trend_ideas"),
    ("discovery_theory", "theory_ideas"),
)


def source_quotas(total: int) -> tuple[int, int, int]:
    """Split `total` ideas as evenly as possible across `SOURCES`, earlier first."""
    base, extra = divmod(total, 3)
    return base + (1 if extra >= 1 else 0), base + (1 if extra >= 2 else 0), base


def new_ideas(ids: IdFactory, entries: tuple[IdeaReply, ...], source: str,
              generation: int = 0, parent_id: str | None = None) -> list[Idea]:
    """`Idea`s from the ideas of an `idea_list` reply; IDs are drawn in reply order."""
    return [
        Idea(
            id=ids.new_id(),
            thinking=entry.thinking,
            idea=entry.idea,
            keywords=entry.keywords,
            source=source,
            generation=generation,
            parent_id=parent_id,
        )
        for entry in entries
    ]


def format_references(paper: SeedPaper) -> tuple[str, str]:
    if not paper.references:
        return "(none provided)", "(none provided)"
    titles = "\n".join(f"{n}. {r.title}" for n, r in enumerate(paper.references, 1))
    abstracts = "\n".join(
        f"{n}. {r.abstract or '(no abstract)'}" for n, r in enumerate(paper.references, 1)
    )
    return titles, abstracts


def format_idea(idea: Idea) -> str:
    return (
        f"Thinking: {idea.thinking}\n"
        f"Idea: {idea.idea}\n"
        f"Keywords: {', '.join(idea.keywords)}"
    )


def reflect(gateway: Gateway, texts: list[str]) -> list[Evaluation]:
    """One self-reflection review of candidate idea texts: per text, its `Evaluation`.

    A candidate the reply leaves out, or every candidate when no valid reply
    arrives, counts as sound with the lowest score, 1.
    """
    listing = "\n".join(f"{n}. {text}" for n, text in enumerate(texts, 1))
    reply = gateway.ask("self_reflect_cut", {"candidate_list": listing}, fallback=ReflectReply(()))
    by_index = {e.index: e for e in reply.evaluations}
    return [by_index.get(n, Evaluation(n, True, 1)) for n in range(1, len(texts) + 1)]


class SeedGenerator:
    def __init__(self, gateway: Gateway, id_factory: IdFactory, config: PipelineConfig):
        self._gateway = gateway
        self._ids = id_factory
        self._config = config

    # -- self-correction -----------------------------------------------------

    def self_correct(self, candidates: list[Idea], keep: int) -> list[Idea]:
        """Soundness check, then reflection-ranked cut to at most `keep` ideas."""
        checked = reflect(self._gateway, [c.idea for c in candidates])
        sound = [idea for idea, ev in zip(candidates, checked) if ev.sound]
        if not sound:
            return []
        scored = reflect(self._gateway, [idea.idea for idea in sound])
        ranked = sorted(
            range(len(sound)), key=lambda n: (-scored[n].score, n)
        )
        return [sound[n] for n in ranked[:keep]]

    # -- pool assembly -------------------------------------------------------

    def generate_pool(
        self, paper: SeedPaper, trend_report: str | None, hot_papers: list[SeedPaper]
    ) -> list[Idea]:
        """Assemble the generation-0 pool from the three sources, in `SOURCES` order.

        The trend source is skipped (with a logged shortfall) when no trend
        inputs are supplied.
        """
        titles, abstracts = format_references(paper)
        bindings = {
            "paper_title": paper.title,
            "paper_abstract": paper.abstract,
            "related_paper_titles": titles,
            "related_paper_abstracts": abstracts,
            "target_paper_base_info": f"Title: {paper.title}\nAbstract: {paper.abstract}",
            "research_trending_info": trend_report,
            "high_quality_paper_list": "\n".join(
                f"{n}. {p.title}: {p.abstract}" for n, p in enumerate(hot_papers, 1)
            ),
        }
        pool: list[Idea] = []
        quotas = source_quotas(self._config.initial_seed_count)
        for (source, template), quota in zip(SOURCES, quotas):
            if source == "trend" and not (trend_report and hot_papers):
                if quota:
                    logger.warning("no trend inputs supplied; pool starts %d short", quota)
                continue
            bindings["idea_count"] = str(quota)
            bindings["exist_idea"] = "\n".join(f"- {i.idea}" for i in pool) or "(none yet)"
            pool += self._generate(source, template, bindings, quota)
        if len(pool) < self._config.initial_seed_count:
            logger.warning(
                "seed pool shortfall: %d of %d ideas",
                len(pool),
                self._config.initial_seed_count,
            )
        return pool

    # -- internals -----------------------------------------------------------

    def _generate(self, source: str, template: str, bindings: dict, quota: int) -> list[Idea]:
        if quota == 0:
            return []
        reply = self._gateway.ask(template, bindings, fallback=())
        candidates = new_ideas(self._ids, reply, source)
        kept = self.self_correct(candidates, quota) if candidates else []
        refills = 0
        while len(kept) < quota and refills < MAX_REFILLS:
            refills += 1
            have = "\n".join(f"- {i.idea}" for i in kept) or "(none)"
            suffix = (
                f"\n\n(Refill attempt {refills}: propose ideas different from these "
                f"already-accepted ones.)\nAccepted so far:\n{have}"
            )
            reply = self._gateway.ask(template, bindings, suffix, fallback=None)
            if reply is None:
                continue
            candidates = kept + new_ideas(self._ids, reply, source)
            if candidates:
                kept = self.self_correct(candidates, quota)
        if len(kept) < quota:
            logger.warning("%s shortfall: kept %d of %d", source, len(kept), quota)
        return kept
