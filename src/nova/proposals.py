"""Proposal building: initial proposal, method decomposition, final proposal.

The three stages for one idea run sequentially; the decomposition's per-module
search keywords feed retrieved knowledge into the final stage. `build_all`
returns the three as one `ProposalSet`, the one record a run stores per idea;
the final `Proposal` holds only its sections, and the decomposition lives in
the set. Conditional prompt content (relevant papers, method decomposition,
new knowledge) is composed here as pre-rendered blocks so empty inputs simply
vanish from the prompt. The initial proposal's self-reflection block always
renders empty.
"""

from __future__ import annotations

import logging
from dataclasses import replace

from .domain import (
    DecompositionPlan,
    Idea,
    Proposal,
    ProposalSet,
    RetrievedDoc,
    SeedPaper,
)
from . import jsontext
from .gateway import Gateway
from .planner import PlannerLoop, format_docs
from .seeding import format_idea

logger = logging.getLogger(__name__)


def _indented(value) -> str:
    """`json.dumps(value, ensure_ascii=False, indent=2)`."""
    return jsontext.dumps(value, indent=True).decode("utf-8")


class ProposalFailure(Exception):
    """A proposal stage got no decodable reply within the re-prompt budget."""


class ProposalBuilder:
    """Writes the three proposal stages for one idea (`build_all`), as one `ProposalSet`.

    Retrieval goes through `PlannerLoop.execute_plan`: the idea's keywords for
    the initial proposal, one keyword group per decomposition module for the
    final one. Sections are stored in `INITIAL_SECTIONS`/`FINAL_SECTIONS` order,
    the order their replies decode to.
    """

    def __init__(self, gateway: Gateway, planner: PlannerLoop):
        self._gateway = gateway
        self._planner = planner

    # -- stage 1: initial proposal -------------------------------------------

    def retrieve_context(self, idea: Idea) -> list[RetrievedDoc]:
        """Background docs for the initial proposal, from the idea's keywords."""
        return self._planner.execute_plan(idea, [idea.keywords])

    def build_initial(
        self, paper: SeedPaper, idea: Idea, context_docs: list[RetrievedDoc]
    ) -> Proposal:
        relevant_block = ""
        if context_docs:
            relevant_block = (
                "Here are some relevant papers on this idea just for your background "
                "knowledge:\n" + format_docs(context_docs)
            )
        bindings = {
            "idea": format_idea(idea),
            "paper_title": paper.title,
            "paper_abstract": paper.abstract,
            "relevant_papers_block": relevant_block,
            "self_reflection_block": "",
        }
        reply = self._gateway.ask("initial_proposal", bindings, fallback=None)
        if reply is None:
            raise ProposalFailure(f"initial proposal failed for idea {idea.id}")
        name, sections = reply
        logger.debug("initial proposal %r for idea %s", name, idea.id)
        return Proposal(idea_id=idea.id, stage="initial", sections=sections)

    # -- stage 2: method decomposition -----------------------------------------

    def decompose(self, proposal: Proposal) -> DecompositionPlan:
        """Break the initial proposal's method into keyword-carrying submodules."""
        bindings = {
            "initial_idea_json": _indented(proposal.sections),
        }
        reply = self._gateway.ask("method_decompose", bindings, fallback=None)
        if reply is None:
            raise ProposalFailure(f"decomposition failed for idea {proposal.idea_id}")
        modules = []
        for module in reply.modules:
            keywords = tuple(k for k in module.search_keywords if k.strip())
            if not keywords:
                logger.info("dropping keywordless module %r", module.name)
                continue
            modules.append(replace(module, search_keywords=keywords))
        if not modules:
            raise ProposalFailure(
                f"decomposition for idea {proposal.idea_id} had no usable modules"
            )
        return DecompositionPlan(thinking=reply.thinking, modules=tuple(modules))

    def module_knowledge(self, idea: Idea, decomposition: DecompositionPlan) -> str | None:
        """Merged retrieval over the decomposition's per-module keywords."""
        docs = self._planner.execute_plan(idea, [m.search_keywords for m in decomposition.modules])
        if not docs:
            return None
        return format_docs(docs)

    # -- stage 3: final proposal -------------------------------------------------

    def build_final(
        self,
        paper: SeedPaper,
        idea: Idea,
        initial: Proposal,
        decomposition: DecompositionPlan,
        new_knowledge: str | None = None,
    ) -> Proposal:
        decomposition_block = (
            "You will be given a method decomposition info (possible method module "
            "design). You need to analyze whether the design of these modules is "
            "reasonable. Please learn from the good places to complete the detailed "
            "design of the final method.\nMethod decomposition info:\n"
            + _indented(decomposition.to_dict())
        )
        knowledge_block = f"The new knowledge is:\n{new_knowledge}" if new_knowledge else ""
        bindings = {
            "idea_json": _indented(initial.sections),
            "paper_title": paper.title,
            "paper_abstract": paper.abstract,
            "method_decomposition_block": decomposition_block,
            "new_knowledge_block": knowledge_block,
        }
        sections = self._gateway.ask("final_proposal", bindings, fallback=None)
        if sections is None:
            raise ProposalFailure(f"final proposal failed for idea {idea.id}")
        return Proposal(idea_id=idea.id, stage="final", sections=sections)

    # -- whole pipeline for one idea ----------------------------------------------

    def build_all(self, paper: SeedPaper, idea: Idea) -> ProposalSet:
        context = self.retrieve_context(idea)
        initial = self.build_initial(paper, idea, context)
        decomposition = self.decompose(initial)
        knowledge = self.module_knowledge(idea, decomposition)
        final = self.build_final(paper, idea, initial, decomposition, new_knowledge=knowledge)
        return ProposalSet(initial, decomposition, final)


def render_markdown(idea: Idea, initial: Proposal, final: Proposal) -> str:
    """Human-readable rendering of one idea's proposals."""
    lines = [f"# Proposal for idea {idea.id}", "", f"**Idea:** {idea.idea}", ""]
    if idea.keywords:
        lines.append(f"**Keywords:** {', '.join(idea.keywords)}")
        lines.append("")
    for heading, proposal in (("Initial proposal", initial), ("Final proposal", final)):
        lines += [f"## {heading}", ""]
        for name, body in proposal.sections.items():
            lines += [f"### {name}", "", body, ""]
    return "\n".join(lines).rstrip() + "\n"
