"""Shared fixtures: deterministic inputs, scripted backends, tiny configs."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest

from nova.domain import Idea, PipelineConfig, Reference, SeedPaper
from nova.gateway import Gateway, GatewayOptions, TransientBackendError
from nova.literature import HashEmbedder, normalize
from nova.mockllm import MockBackend


class RuleBackend:
    """Test backend: first substring rule wins; falls back to the mock synth."""

    def __init__(self, rules=(), fallback: MockBackend | None = None):
        self.rules = list(rules)
        self.fallback = fallback if fallback is not None else MockBackend()
        self.prompts: list[str] = []

    def send(self, model_id, prompt, temperature, max_tokens):
        self.prompts.append(prompt)
        for needle, reply in self.rules:
            if needle in prompt:
                return reply(prompt) if callable(reply) else reply
        return self.fallback.send(model_id, prompt, temperature, max_tokens)


class FlakyBackend:
    """Fails with a transient error a fixed number of times, then delegates."""

    def __init__(self, failures: int, inner):
        self.remaining = failures
        self.inner = inner

    def send(self, model_id, prompt, temperature, max_tokens):
        if self.remaining > 0:
            self.remaining -= 1
            raise TransientBackendError("injected transient failure")
        return self.inner.send(model_id, prompt, temperature, max_tokens)


FAST_GATEWAY = GatewayOptions(backoff_base=0.0, backoff_cap=0.0)


@pytest.fixture
def make_gateway(tmp_path):
    def _make(backend, **kwargs) -> Gateway:
        options = kwargs.pop("options", FAST_GATEWAY)
        cache_dir = kwargs.pop("cache_dir", tmp_path / "cache")
        return Gateway(backend, cache_dir, options, **kwargs)

    return _make


@pytest.fixture
def similar_judge(tmp_path) -> Gateway:
    """A gateway whose novelty judge answers "similar" for every candidate doc.

    Every doc above the similarity threshold then makes an idea non-novel, so
    a count through it is the threshold rule alone, with one judge call per
    candidate.
    """
    backend = RuleBackend(rules=[("contains the core", '{"verdict": "similar"}')])
    return Gateway(backend, tmp_path / "similar-judge-cache", FAST_GATEWAY)


@pytest.fixture
def template_copy(tmp_path) -> Path:
    """A copy of the shipped template set, for tests that edit one file of it."""
    copy = tmp_path / "templates"
    copy.mkdir()
    for entry in resources.files("nova.templates").iterdir():
        if entry.is_file():
            (copy / entry.name).write_bytes(entry.read_bytes())
    return copy


@pytest.fixture
def sample_paper() -> SeedPaper:
    return SeedPaper(
        id="0000000001PAPER0000000001X",
        title="Grounded Planning for Retrieval Agents",
        abstract="We study how agents plan literature retrieval to refine ideas.",
        references=(
            Reference(title="Alpha Retrieval", abstract="Dense retrieval baseline."),
            Reference(title="Beta Planning", abstract="Planner architectures."),
        ),
    )


@pytest.fixture
def trend_papers() -> list[SeedPaper]:
    return [
        SeedPaper(
            id=f"trend-{i}",
            title=f"Hot Paper {i}",
            abstract=f"Trending abstract {i}.",
            source_meta={"likes": 20 - i, "comments": i, "reposts": 1},
        )
        for i in range(4)
    ]


@pytest.fixture
def small_config() -> PipelineConfig:
    return PipelineConfig(
        iterations_T=2,
        initial_seed_count=6,
        expand_count=4,
        keep_count=2,
        retrieve_K=3,
        cluster_count=4,
        tournament_rounds=3,
        novelty_topk=5,
        rng_seed=11,
    )


def make_idea(n: int, source: str = "internal_knowledge", generation: int = 0,
              parent_id: str | None = None, embedding=None, text: str | None = None) -> Idea:
    return Idea(
        id=f"{n:010d}IDEA{n:012d}",
        thinking=f"thinking {n}",
        idea=text if text is not None else f"idea text {n}",
        keywords=(f"kw-{n}-a", f"kw-{n}-b"),
        source=source,
        generation=generation,
        parent_id=parent_id,
        embedding=embedding,
    )


def embedded_idea(n: int, vector, **kwargs) -> Idea:
    return make_idea(n, embedding=tuple(float(v) for v in normalize(vector)), **kwargs)


def validate_lineage(pool: list[Idea]) -> list[str]:
    """Cross-object check: a child's generation is its parent's plus one."""
    by_id = {i.id: i for i in pool}
    out: list[str] = []
    for idea in pool:
        if idea.parent_id is None:
            continue
        parent = by_id.get(idea.parent_id)
        if parent is None:
            continue  # parent may live in an earlier generation snapshot
        if idea.generation != parent.generation + 1:
            out.append(
                f"Idea {idea.id}: generation {idea.generation} != parent generation "
                f"{parent.generation} + 1"
            )
    return out


@pytest.fixture
def corpus_dir(tmp_path):
    """Eight-doc offline corpus with embeddings computed at load time."""
    path = tmp_path / "corpus"
    path.mkdir()
    for i in range(8):
        (path / f"doc{i}.json").write_text(
            json.dumps(
                {
                    "title": f"Corpus paper {i}",
                    "abstract": f"Abstract {i} about planning, retrieval, and agents.",
                }
            ),
            encoding="utf-8",
        )
    return path


@pytest.fixture
def paper_input_file(tmp_path, sample_paper, trend_papers):
    payload = {
        "paper": {
            "id": sample_paper.id,
            "title": sample_paper.title,
            "abstract": sample_paper.abstract,
            "references": [r.to_dict() for r in sample_paper.references],
        },
        "trend_papers": [p.to_dict() for p in trend_papers],
    }
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture
def hash_embedder() -> HashEmbedder:
    return HashEmbedder(dim=16, seed=3)


class PlantedCorpus:
    """In-memory searchable doc set with caller-chosen embeddings."""

    def __init__(self, docs):
        self.docs = list(docs)

    def nearest(self, embedding, k: int):
        import numpy as np

        scored = sorted(
            ((float(np.asarray(embedding) @ np.asarray(d.embedding)), d) for d in self.docs),
            key=lambda pair: (-pair[0], pair[1].title),
        )
        return [d for _, d in scored[:k]]
