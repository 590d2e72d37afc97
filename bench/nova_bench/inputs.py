"""Seeded run inputs: the target paper, its trend papers and an offline corpus.

The same seed writes byte-identical files. Nova receives only these files;
the seed itself never reaches the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

_TOPICS = (
    "retrieval", "planning", "agents", "reasoning", "alignment", "distillation",
    "graphs", "proteins", "robotics", "compilers", "scheduling", "caching",
    "diffusion", "tokenizers", "benchmarks", "curricula", "search", "memory",
    "sparsity", "calibration", "interpretability", "federated", "streaming",
    "quantization", "simulation", "verification", "causality", "ranking",
)
_VERBS = (
    "Scaling", "Grounding", "Rethinking", "Steering", "Compressing",
    "Evaluating", "Accelerating", "Composing", "Auditing", "Bootstrapping",
)

TREND_PAPER_COUNT = 10
REFERENCE_COUNT = 3


def _title(rng: random.Random) -> str:
    a, b = rng.sample(_TOPICS, 2)
    return f"{rng.choice(_VERBS)} {a} for {b}"


def _abstract(rng: random.Random) -> str:
    words = rng.sample(_TOPICS, 4)
    return (
        f"We study {words[0]} and {words[1]}, and show that {words[2]} "
        f"improves {words[3]} on {rng.randint(2, 9)} tasks."
    )


def paper_input(seed: int) -> dict:
    """The run input: {"paper", "trend_papers"}, as `load_paper_input` reads it."""
    rng = random.Random(f"paper:{seed}")
    return {
        "paper": {
            "title": _title(rng),
            "abstract": _abstract(rng),
            "references": [
                {"title": f"{_title(rng)} ({i})", "abstract": _abstract(rng)}
                for i in range(REFERENCE_COUNT)
            ],
        },
        "trend_papers": [
            {
                "title": f"{_title(rng)} ({i})",
                "abstract": _abstract(rng),
                "source_meta": {
                    "likes": rng.randint(0, 500),
                    "comments": rng.randint(0, 50),
                    "reposts": rng.randint(0, 20),
                },
            }
            for i in range(TREND_PAPER_COUNT)
        ],
    }


def corpus_docs(seed: int, count: int, embed_dim: int | None) -> list[dict]:
    """`count` corpus docs; with `embed_dim`, each stores a unit embedding."""
    rng = random.Random(f"corpus:{seed}")
    docs = [
        {"title": f"{_title(rng)} ({i:05d})", "abstract": _abstract(rng)}
        for i in range(count)
    ]
    if embed_dim is not None:
        vectors = np.random.default_rng(seed).standard_normal((count, embed_dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        for doc, row in zip(docs, vectors):
            doc["embedding"] = row.tolist()
    return docs


def write_inputs(root: Path, seed: int, doc_count: int, embed_dim: int | None
                 ) -> tuple[Path, Path]:
    """Write paper.json and corpus/doc*.json under `root`; return both paths."""
    root.mkdir(parents=True, exist_ok=True)
    paper = root / "paper.json"
    paper.write_text(json.dumps(paper_input(seed), indent=2) + "\n", encoding="utf-8")
    corpus = root / "corpus"
    corpus.mkdir(exist_ok=True)
    for i, doc in enumerate(corpus_docs(seed, doc_count, embed_dim)):
        (corpus / f"doc{i:05d}.json").write_text(json.dumps(doc), encoding="utf-8")
    return paper, corpus
