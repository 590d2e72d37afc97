"""Proposal building: section gates, decomposition, conditional blocks."""

from __future__ import annotations

import json

import pytest

from nova.domain import (
    FINAL_SECTIONS,
    INITIAL_SECTIONS,
    DecompositionPlan,
    PipelineConfig,
    Proposal,
    ProposalSet,
    RetrievedDoc,
)
from nova.gateway import REPROMPT_BUDGET, GatewayOptions
from nova.ids import IdFactory
from nova.literature import HashEmbedder
from nova.planner import PlannerLoop
from nova.proposals import ProposalBuilder, ProposalFailure, render_markdown
from tests.conftest import RuleBackend, embedded_idea, make_idea


INITIAL_SIG = "brainstorm the detailed research project proposal"
DECOMPOSE_SIG = "break down the research method into multiple submodules"
FINAL_SIG = "expand a brief project idea into a full project proposal"


def make_builder(backend, make_gateway, config=None) -> ProposalBuilder:
    config = config or PipelineConfig()
    gateway = make_gateway(backend, options=GatewayOptions(backoff_base=0.0))
    planner = PlannerLoop(gateway, None, HashEmbedder(dim=8, seed=1), IdFactory(seed=5), config)
    return ProposalBuilder(gateway, planner)


def idea(n=1, **kwargs):
    vec = HashEmbedder(dim=8, seed=1).embed([f"idea text {n}"])[0]
    return embedded_idea(n, vec, **kwargs)


AEDS_SECTIONS = {
    "Problem": "Researchers often face ethical dilemmas in real-time decision-making "
    "processes, and current large language models lack the capability to provide "
    "immediate, context-specific ethical feedback.",
    "Existing Methods": "Static guidelines and compliance checklists.",
    "Motivation": "A dynamic, interactive system can evolve with user behavior.",
    "Proposed Method": "An Adaptive Ethical Dialogue System with a real-time dialogue "
    "engine and an adaptive learning module.",
    "Experiment Plan": "Three phases: implementation, pilot testing, deployment.",
}


def initial_reply(sections=AEDS_SECTIONS, name="Adaptive Ethical Dialogue System"):
    return "Thinking: draft.\n```json\n" + json.dumps({name: sections}) + "\n```"


def decompose_reply(modules):
    return json.dumps({"thinking": "split the method", "modules": modules})


SIX_MODULES = [
    {"name": name, "purpose": f"purpose of {name}", "implementation": f"impl of {name}",
     "search_keywords": [f"kw {name.lower()}"]}
    for name in (
        "Real-Time Dialogue Engine",
        "Context Understanding Module",
        "Ethical Decision-Making Engine",
        "Adaptive Learning Module",
        "User Feedback Loop",
        "Evaluation and Metrics Module",
    )
]


def final_reply():
    sections = {name: f"final {name}" for name in FINAL_SECTIONS}
    sections["Proposed Method"] = (
        "Combines the Real-Time Dialogue Engine and Context Understanding Module."
    )
    sections["Step-by-Step Experiment Plan"] = "\n".join(
        f"Step {i}: do part {i}." for i in range(1, 10)
    )
    return "```json\n" + json.dumps(sections) + "\n```"


# ---------------------------------------------------------------------------
# build_initial
# ---------------------------------------------------------------------------


def test_build_initial_scripted_sections(make_gateway, sample_paper):
    backend = RuleBackend(rules=[(INITIAL_SIG, initial_reply())])
    builder = make_builder(backend, make_gateway)
    proposal = builder.build_initial(sample_paper, idea(), [])
    assert proposal.stage == "initial"
    assert tuple(proposal.sections) == INITIAL_SECTIONS
    assert "ethical dilemmas in real-time decision-making" in proposal.sections["Problem"]
    assert proposal.validate() == []


def test_build_initial_missing_section_reprompts_then_fails(make_gateway, sample_paper):
    broken = dict(AEDS_SECTIONS)
    del broken["Motivation"]
    backend = RuleBackend(rules=[(INITIAL_SIG, initial_reply(sections=broken))])
    builder = make_builder(backend, make_gateway)
    with pytest.raises(ProposalFailure, match="initial proposal failed"):
        builder.build_initial(sample_paper, idea(), [])
    assert len(backend.prompts) == 3  # initial prompt + 2 re-prompts


def test_build_initial_context_block_conditional(make_gateway, sample_paper):
    backend = RuleBackend(rules=[(INITIAL_SIG, initial_reply())])
    builder = make_builder(backend, make_gateway)
    builder.build_initial(sample_paper, idea(), [])
    without = backend.prompts[-1]
    assert "Here are some relevant papers" not in without

    doc = RetrievedDoc(title="Background Doc", abstract="bg", source_query="q", score=0.1)
    builder.build_initial(sample_paper, idea(2), [doc])
    with_docs = backend.prompts[-1]
    assert "Here are some relevant papers" in with_docs
    assert "Background Doc" in with_docs


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_six_modules(make_gateway, sample_paper):
    backend = RuleBackend(rules=[(INITIAL_SIG, initial_reply()),
                                 (DECOMPOSE_SIG, decompose_reply(SIX_MODULES))])
    builder = make_builder(backend, make_gateway)
    initial = builder.build_initial(sample_paper, idea(), [])
    plan = builder.decompose(initial)
    assert len(plan.modules) == 6
    assert plan.modules[0].name == "Real-Time Dialogue Engine"
    assert all(m.search_keywords for m in plan.modules)


def test_decompose_single_module_valid(make_gateway, sample_paper):
    backend = RuleBackend(rules=[(INITIAL_SIG, initial_reply()),
                                 (DECOMPOSE_SIG, decompose_reply(SIX_MODULES[:1]))])
    builder = make_builder(backend, make_gateway)
    plan = builder.decompose(builder.build_initial(sample_paper, idea(), []))
    assert len(plan.modules) == 1


def test_decompose_drops_keywordless_modules(make_gateway, sample_paper):
    modules = [dict(SIX_MODULES[0]), dict(SIX_MODULES[1])]
    modules[0]["search_keywords"] = ["", "  "]
    backend = RuleBackend(rules=[(INITIAL_SIG, initial_reply()),
                                 (DECOMPOSE_SIG, decompose_reply(modules))])
    builder = make_builder(backend, make_gateway)
    plan = builder.decompose(builder.build_initial(sample_paper, idea(), []))
    assert [m.name for m in plan.modules] == ["Context Understanding Module"]


def test_decompose_all_dropped_is_failure(make_gateway, sample_paper):
    modules = [dict(SIX_MODULES[0])]
    modules[0]["search_keywords"] = [""]
    backend = RuleBackend(rules=[(INITIAL_SIG, initial_reply()),
                                 (DECOMPOSE_SIG, decompose_reply(modules))])
    builder = make_builder(backend, make_gateway)
    with pytest.raises(ProposalFailure, match="no usable modules"):
        builder.decompose(builder.build_initial(sample_paper, idea(), []))


# ---------------------------------------------------------------------------
# build_final
# ---------------------------------------------------------------------------


def full_backend():
    return RuleBackend(rules=[
        (INITIAL_SIG, initial_reply()),
        (DECOMPOSE_SIG, decompose_reply(SIX_MODULES)),
        (FINAL_SIG, final_reply()),
    ])


def test_build_final_sections_and_steps(make_gateway, sample_paper):
    backend = full_backend()
    builder = make_builder(backend, make_gateway)
    the_idea = idea()
    initial = builder.build_initial(sample_paper, the_idea, [])
    plan = builder.decompose(initial)
    final = builder.build_final(sample_paper, the_idea, initial, plan)
    assert final.stage == "final"
    assert tuple(final.sections) == FINAL_SECTIONS
    assert "Real-Time Dialogue Engine" in final.sections["Proposed Method"]
    assert final.sections["Step-by-Step Experiment Plan"].count("Step ") == 9
    assert final.validate() == []


def test_build_final_prompt_names_every_module(make_gateway, sample_paper):
    backend = full_backend()
    builder = make_builder(backend, make_gateway)
    the_idea = idea()
    initial = builder.build_initial(sample_paper, the_idea, [])
    plan = builder.decompose(initial)
    builder.build_final(sample_paper, the_idea, initial, plan)
    final_prompt = next(p for p in backend.prompts if FINAL_SIG in p)
    for module in plan.modules:
        assert module.name in final_prompt


def test_build_final_optional_blocks_omitted(make_gateway, sample_paper):
    backend = full_backend()
    builder = make_builder(backend, make_gateway)
    the_idea = idea()
    initial = builder.build_initial(sample_paper, the_idea, [])
    plan = builder.decompose(initial)
    builder.build_final(sample_paper, the_idea, initial, plan)
    prompt = next(p for p in backend.prompts if FINAL_SIG in p)
    assert "The new knowledge is:" not in prompt

    builder.build_final(sample_paper, the_idea, initial, plan, new_knowledge="Title: Known Doc")
    prompt = backend.prompts[-1]
    assert "The new knowledge is:\nTitle: Known Doc" in prompt


def test_build_final_two_module_decomposition_referenced(make_gateway, sample_paper):
    two = SIX_MODULES[:2]
    backend = RuleBackend(rules=[
        (INITIAL_SIG, initial_reply()),
        (DECOMPOSE_SIG, decompose_reply(two)),
        (FINAL_SIG, final_reply()),
    ])
    builder = make_builder(backend, make_gateway)
    the_idea = idea()
    initial = builder.build_initial(sample_paper, the_idea, [])
    plan = builder.decompose(initial)
    final = builder.build_final(sample_paper, the_idea, initial, plan)
    for module in plan.modules:
        assert module.name in final.sections["Proposed Method"]


def test_decomposition_plan_round_trip(make_gateway):
    keywordless = {"name": "Blank", "purpose": "p", "implementation": "i",
                   "search_keywords": ["", "  "]}
    modules = [SIX_MODULES[0], keywordless, SIX_MODULES[1]]
    backend = RuleBackend(rules=[(DECOMPOSE_SIG, decompose_reply(modules))])
    builder = make_builder(backend, make_gateway)
    plan = builder.decompose(Proposal(idea_id="x", stage="initial", sections=AEDS_SECTIONS))
    assert plan.modules[0].name == SIX_MODULES[0]["name"]
    assert plan.to_dict() == {"thinking": "split the method", "modules": SIX_MODULES[:2]}
    assert DecompositionPlan.from_dict(plan.to_dict()) == plan


def test_render_markdown_contains_both_stages():
    initial = Proposal(idea_id="x", stage="initial",
                       sections={n: f"i-{n}" for n in INITIAL_SECTIONS})
    final = Proposal(idea_id="x", stage="final",
                     sections={n: f"f-{n}" for n in FINAL_SECTIONS})
    text = render_markdown(make_idea(1), initial, final)
    assert "## Initial proposal" in text and "## Final proposal" in text
    assert "i-Problem" in text and "f-Title" in text


def test_build_all_round_trip(make_gateway, sample_paper):
    builder = make_builder(full_backend(), make_gateway)
    proposals = builder.build_all(sample_paper, idea())
    assert (proposals.initial.stage, proposals.final.stage) == ("initial", "final")
    assert [m.name for m in proposals.decomposition.modules] == [
        m["name"] for m in SIX_MODULES
    ]
    assert proposals.validate() == []
    assert ProposalSet.from_dict(json.loads(json.dumps(proposals.to_dict()))) == proposals


@pytest.mark.parametrize(
    "signature, message",
    [(DECOMPOSE_SIG, "decomposition failed for idea"), (FINAL_SIG, "final proposal failed")],
    ids=["method_decompose", "final_proposal"],
)
def test_build_all_raises_on_a_content_failure_of_a_later_stage(make_gateway, sample_paper,
                                                                signature, message):
    """The stage's `ask` fallback is None, which `build_all` turns into a `ProposalFailure`."""
    backend = full_backend()
    backend.rules.insert(0, (signature, "I would rather describe it in prose."))
    builder = make_builder(backend, make_gateway)
    with pytest.raises(ProposalFailure, match=message):
        builder.build_all(sample_paper, idea())
    assert sum(signature in prompt for prompt in backend.prompts) == REPROMPT_BUDGET + 1
