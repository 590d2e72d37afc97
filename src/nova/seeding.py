"""Initial seed-idea pool: three generation sources plus self-correction.

Each source asks for its quota of ideas, then self-correction runs a binary
soundness pass followed by a reflection-scoring pass (two judge calls over
the same review template). When a cut drops a source below quota, the prompt
is re-issued with the surviving ideas appended, up to two refills; remaining
shortfall is tolerated and logged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .domain import Idea, PipelineConfig, SeedPaper
from .gateway import ExtractionFailedError, Gateway
from .ids import IdFactory
from .prompts import PromptLibrary

logger = logging.getLogger(__name__)

MAX_REFILLS = 2


class SeedingError(Exception):
    pass


@dataclass(frozen=True)
class SourceQuota:
    internal_knowledge: int = 5
    trend: int = 5
    discovery_theory: int = 5

    @classmethod
    def from_config(cls, config: PipelineConfig) -> "SourceQuota":
        """Split initial_seed_count as evenly as possible across the 3 sources."""
        base, extra = divmod(config.initial_seed_count, 3)
        return cls(
            internal_knowledge=base + (1 if extra >= 1 else 0),
            trend=base + (1 if extra >= 2 else 0),
            discovery_theory=base,
        )

    @property
    def total(self) -> int:
        return self.internal_knowledge + self.trend + self.discovery_theory


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


def reflect(
    gateway: Gateway, library: PromptLibrary, model_id: str, texts: list[str]
) -> list[dict]:
    """One self-reflection review of candidate idea texts: per text, its
    ``{"sound", "score"}`` evaluation.

    A candidate the reply leaves out, or every candidate when no valid reply
    arrives, counts as sound with the lowest score, 1.
    """
    listing = "\n".join(f"{n}. {text}" for n, text in enumerate(texts, 1))
    try:
        parsed = gateway.ask(library, "self_reflect_cut", {"candidate_list": listing}, model_id)
    except ExtractionFailedError as exc:
        logger.warning("self-reflection failed, counting %d candidates sound: %s", len(texts), exc)
        parsed = {"evaluations": []}
    by_index = {
        e["index"]: {"sound": e["sound"], "score": e["score"]} for e in parsed["evaluations"]
    }
    return [by_index.get(n, {"sound": True, "score": 1}) for n in range(1, len(texts) + 1)]


class SeedGenerator:
    def __init__(
        self,
        gateway: Gateway,
        library: PromptLibrary,
        id_factory: IdFactory,
        config: PipelineConfig,
        model_id: str,
    ):
        self._gateway = gateway
        self._library = library
        self._ids = id_factory
        self._config = config
        self._model_id = model_id
        self._quota = SourceQuota.from_config(config)

    # -- per-source generation ---------------------------------------------

    def generate_internal(self, paper: SeedPaper) -> list[Idea]:
        """Ideas from the model's own reading of the paper and its references."""
        self._require_valid(paper)
        titles, abstracts = format_references(paper)
        defaults = self._library.default_bindings()
        bindings = {
            "qa_info_with_idea_json_format": defaults["qa_info_with_idea_json_format"],
            "idea_count": str(self._quota.internal_knowledge),
            "paper_title": paper.title,
            "paper_abstract": paper.abstract,
            "related_paper_titles": titles,
            "related_paper_abstracts": abstracts,
        }
        return self._generate(
            "internal_knowledge", "initial_seed", bindings, self._quota.internal_knowledge
        )

    def generate_trend(
        self,
        paper: SeedPaper,
        trend_report: str,
        hot_papers: list[SeedPaper],
        existing: list[Idea],
    ) -> list[Idea]:
        """Ideas grounded in the trend report and high-engagement papers."""
        self._require_valid(paper)
        if not trend_report:
            raise SeedingError("trend_report must be nonempty")
        if not hot_papers:
            raise SeedingError("hot_papers must be nonempty")
        base_info = f"Title: {paper.title}\nAbstract: {paper.abstract}"
        hot_list = "\n".join(
            f"{n}. {p.title}: {p.abstract}" for n, p in enumerate(hot_papers, 1)
        )
        exist = (
            "\n".join(f"- {i.idea}" for i in existing) if existing else "(none yet)"
        )
        bindings = {
            "idea_count": str(self._quota.trend),
            "paper_title": paper.title,
            "paper_abstract": paper.abstract,
            "target_paper_base_info": base_info,
            "research_trending_info": trend_report,
            "high_quality_paper_list": hot_list,
            "exist_idea": exist,
        }
        return self._generate("trend", "trend_ideas", bindings, self._quota.trend)

    def generate_theory(self, paper: SeedPaper) -> list[Idea]:
        """Ideas steered by the 10-entry scientific-discovery catalog."""
        self._require_valid(paper)
        titles, abstracts = format_references(paper)
        bindings = {
            "scientific_discovery_theory": self._library.theory_catalog_text(),
            "idea_count": str(self._quota.discovery_theory),
            "related_paper_titles": titles,
            "related_paper_abstracts": abstracts,
            "paper_title": paper.title,
            "paper_abstract": paper.abstract,
        }
        return self._generate(
            "discovery_theory", "theory_ideas", bindings, self._quota.discovery_theory
        )

    # -- self-correction -----------------------------------------------------

    def self_correct(self, candidates: list[Idea], keep: int) -> list[Idea]:
        """Soundness check, then reflection-ranked cut to at most `keep` ideas."""
        if not candidates:
            raise SeedingError("self_correct requires candidates")
        checked = self._reflect(candidates)
        sound = [idea for idea, ev in zip(candidates, checked) if ev["sound"]]
        if not sound:
            return []
        scored = self._reflect(sound)
        ranked = sorted(
            range(len(sound)), key=lambda n: (-scored[n]["score"], n)
        )
        return [sound[n] for n in ranked[:keep]]

    def _reflect(self, candidates: list[Idea]) -> list[dict]:
        return reflect(self._gateway, self._library, self._model_id, [c.idea for c in candidates])

    # -- pool assembly -------------------------------------------------------

    def generate_pool(
        self, paper: SeedPaper, trend_report: str | None, hot_papers: list[SeedPaper]
    ) -> list[Idea]:
        """Assemble the generation-0 pool from the three sources.

        The trend source is skipped (with a logged shortfall) when no trend
        inputs are supplied.
        """
        pool = self.generate_internal(paper)
        if trend_report and hot_papers:
            pool = pool + self.generate_trend(paper, trend_report, hot_papers, pool)
        elif self._quota.trend:
            logger.warning(
                "no trend inputs supplied; pool starts %d short", self._quota.trend
            )
        pool = pool + self.generate_theory(paper)
        if len(pool) < self._config.initial_seed_count:
            logger.warning(
                "seed pool shortfall: %d of %d ideas",
                len(pool),
                self._config.initial_seed_count,
            )
        return pool

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _require_valid(paper: SeedPaper) -> None:
        problems = paper.validate()
        if problems:
            raise SeedingError(f"invalid seed paper: {problems}")

    def _parse_ideas(self, source: str, raw: list[dict]) -> list[Idea]:
        return [
            Idea(
                id=self._ids.new_id(),
                thinking=entry["thinking"],
                idea=entry["idea"],
                keywords=tuple(entry["keywords"]),
                source=source,
                generation=0,
            )
            for entry in raw
        ]

    def _generate(self, source: str, template: str, bindings: dict, quota: int) -> list[Idea]:
        if quota == 0:
            return []
        try:
            raw = self._gateway.ask(self._library, template, bindings, self._model_id)
        except ExtractionFailedError as exc:
            logger.warning("%s generation failed: %s", source, exc)
            raw = []
        candidates = self._parse_ideas(source, raw)
        kept = self.self_correct(candidates, quota) if candidates else []
        refills = 0
        while len(kept) < quota and refills < MAX_REFILLS:
            refills += 1
            have = "\n".join(f"- {i.idea}" for i in kept) or "(none)"
            suffix = (
                f"\n\n(Refill attempt {refills}: propose ideas different from these "
                f"already-accepted ones.)\nAccepted so far:\n{have}"
            )
            try:
                raw = self._gateway.ask(self._library, template, bindings, self._model_id, suffix)
            except ExtractionFailedError as exc:
                logger.warning("%s refill %d failed: %s", source, refills, exc)
                continue
            candidates = kept + self._parse_ideas(source, raw)
            if candidates:
                kept = self.self_correct(candidates, quota)
        if len(kept) < quota:
            logger.warning("%s shortfall: kept %d of %d", source, len(kept), quota)
        return kept
