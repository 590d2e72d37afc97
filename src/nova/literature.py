"""Paper search and text embedding clients, plus the vector math they share.

Two backends exist for each contract: an HTTP client for live use and a
deterministic offline variant (hash-to-sphere embedder, JSON corpus directory)
for desk-scale and replay runs. Corpus docs are parsed by orjson, whose floats
are the correctly rounded ones the stdlib parser gives, and by the stdlib `json`
when orjson refuses a doc, so every doc loads or is refused exactly as the
stdlib alone would. The HTTP clients send through
`gateway.post_json`, so they classify HTTP failures exactly as the chat
backend does. All embeddings are unit-normalized at write time so cosine
similarity reduces to a dot product.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np
import orjson

from .domain import RetrievedDoc, SeedPaper, lone_surrogate
from .gateway import Gateway, post_json

SEARCH_API_KEY_ENV = "NOVA_SEARCH_API_KEY"
EMBED_API_KEY_ENV = "NOVA_EMBED_API_KEY"

DEFAULT_EMBED_MODEL = "sentence-transformers/all-MiniLM-L6-v2"

DEFAULT_TREND_PAPER_COUNT = 20

# Largest gap allowed between a float64 BLAS or einsum score and the `cosine`
# of the same unit vectors; float64 rounding stays far below it. The float32
# scan of `OfflineCorpus` shortlists by `_shortlist_margin` instead.
ROUNDING_MARGIN = 1e-9

# The unit roundoff of float32, 2**-24.
_F32_U = float(np.finfo(np.float32).eps) / 2

# Embeddings per matrix product in `OfflineCorpus.max_similarity`; bounds the
# score block to 64 x corpus size floats.
PREFILTER_BLOCK = 64


class LiteratureError(Exception):
    pass


def normalize(values) -> np.ndarray:
    """Unit-normalize a vector; rejects zero and non-finite input."""
    vec = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise LiteratureError("embedding entries must be finite")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise LiteratureError("cannot normalize the zero vector")
    return vec / norm


def _finite_number(value) -> bool:
    """True for a finite int or float; False for a bool, a non-number or an overflow."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def cosine(a, b) -> float:
    """Dot product of two unit-norm vectors of equal dimension."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise LiteratureError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    return float(va @ vb)


def _shortlist_margin(qvec: np.ndarray) -> float:
    """Twice the largest gap between a float32 scan score of `qvec` against a unit
    row and their exact dot product, plus `ROUNDING_MARGIN` for the float64 `cosine`.

    A float32 dot product of dimension d rounds both inputs and makes d
    products and sums, so it is within ``gamma(d + 2) * |q|`` of the exact one
    for a unit row, whatever the summation order (``gamma(n) = n*u / (1 - n*u)``,
    Higham's bound; about ``(d + 2) * u``).
    """
    n = qvec.shape[0] + 2
    gamma = n * _F32_U / (1 - n * _F32_U)
    return 2 * gamma * math.sqrt(np.einsum("i,i->", qvec, qvec)) + ROUNDING_MARGIN


def _refuse_lone_surrogates(doc: dict, where: str) -> None:
    """Raise `LiteratureError` if the title or abstract of `doc` is not valid Unicode."""
    for key in ("title", "abstract"):
        if (at := lone_surrogate(doc.get(key, ""))) is not None:
            raise LiteratureError(
                f'{where}: "{key}" holds a lone surrogate at offset {at}, '
                "which is not valid Unicode"
            )


@dataclass(frozen=True)
class SearchQuery:
    text: str
    limit: int = 10

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("SearchQuery.limit must be >= 1")


class Embedder(Protocol):
    dim: int  # the width of every vector `embed` returns

    def embed(self, texts: list[str]) -> list[np.ndarray]: ...


class HashEmbedder:
    """Seeded hash-to-sphere mock embedder.

    Each text maps to a unit vector drawn from a PRNG keyed by (seed, text),
    so batched calls equal per-item calls and reruns are byte-identical.
    """

    def __init__(self, dim: int = 32, seed: int = 0):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim
        self.seed = seed

    def _one(self, text: str) -> np.ndarray:
        digest = hashlib.blake2b(
            f"{self.seed}\x1f{text}".encode("utf-8"), digest_size=8
        ).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))
        return normalize(rng.standard_normal(self.dim))

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        if not texts:
            raise LiteratureError("embed requires at least one text")
        return [self._one(t) for t in texts]


class HttpEmbedder:
    """Embeddings client over `gateway.post_json`: POST {model, input} -> {data: [...]}.

    The key comes from NOVA_EMBED_API_KEY, empty if unset. A reply without one
    ``{"embedding": [...]}`` row of `dim` numbers per text raises
    `LiteratureError`.
    """

    def __init__(self, endpoint: str, dim: int, post=None, timeout: float = 60.0):
        self._endpoint = endpoint
        self.dim = dim
        self._post = post
        self._timeout = timeout

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        if not texts:
            raise LiteratureError("embed requires at least one text")
        payload = {"model": DEFAULT_EMBED_MODEL, "input": list(texts)}
        resp = post_json(self._endpoint, payload, EMBED_API_KEY_ENV, self._post, self._timeout)
        try:
            vectors = [normalize(row["embedding"]) for row in resp.json()["data"]]
        except (ValueError, LookupError, TypeError) as exc:
            raise LiteratureError(f"malformed embedding reply: {exc!r}") from exc
        if len(vectors) != len(texts):
            raise LiteratureError("embedding response length mismatch")
        for vec in vectors:
            if vec.shape != (self.dim,):
                raise LiteratureError(
                    f"embedding reply row has shape {vec.shape}, expected ({self.dim},)"
                )
        return vectors


class OfflineCorpus:
    """Directory of *.json docs; retrieval ranks by embedding cosine.

    Each doc file holds {"title", "abstract"} and optionally "embedding"; any
    other key is ignored. Docs without a stored embedding are embedded from
    "<title>\\n<abstract>" at load time. Every embedding must be in the
    embedder's space, so of shape ``(embedder.dim,)``. A doc that is not a JSON
    object, whose title is not a nonempty string, whose abstract is not a
    string, or whose stored embedding is zero, not finite or of another shape
    raises `LiteratureError` naming the doc file; a shape error also names the
    title and both widths. A `Runner` loads its corpus before it creates the
    run directory.

    Each doc is parsed by `orjson.loads` from its bytes. A doc orjson refuses
    (NaN or Infinity literals, a lone surrogate, a BOM, bytes that are not
    UTF-8) is parsed again by `json.loads` from its UTF-8 text, which loads it
    or refuses it with the stdlib's message; a title or abstract that it reads
    with a lone surrogate, which is not valid Unicode, is refused too.

    The normalized embeddings are stored once, as the rows of one float64
    ``(docs, embedder.dim)`` matrix, made read-only after load; a hit's
    embedding is a view of its row, so no hit can change the corpus. A float32
    copy of the matrix serves the scan of `search` and `nearest`: one
    `np.einsum` pass over it scores every row, reading half the bytes of the
    float64 matrix. Each float32 score is within ``gamma(d + 2) * |q|`` of the
    exact dot product, where ``gamma(n) = n*u / (1 - n*u)`` and ``u = 2**-24``
    (two input roundings and ``d`` products and sums, in any order). So every
    doc of the true top k scores within twice that of the k-th float32 score,
    and the scan only shortlists those docs; the shortlist is rescored with the
    exact float64 `cosine` and sorted by (-cosine, title), as a full float64
    ranking would be (`_ranked`). The scan calls no BLAS routine, and the
    rescoring's dot products are over single vectors, so many threads can
    search at once without BLAS's thread pool.
    `max_similarity`, the novelty prefilter, scores many embeddings at once on
    the calling thread, with one float64 BLAS matrix product per block of
    `PREFILTER_BLOCK` embeddings.
    """

    def __init__(self, corpus_dir: str | Path, embedder: Embedder):
        self._embedder = embedder
        corpus_dir = Path(corpus_dir)
        if not corpus_dir.is_dir():
            raise LiteratureError(f"corpus directory {corpus_dir} does not exist")
        paths = sorted(corpus_dir.glob("*.json"))
        self._matrix = np.empty((len(paths), embedder.dim))
        self._docs: list[dict] = []
        todo: list[int] = []  # rows of the docs without a stored embedding
        for row, path in enumerate(paths):
            by_stdlib = False
            try:
                try:
                    raw = orjson.loads(path.read_bytes())
                except orjson.JSONDecodeError:
                    # orjson refuses some docs the stdlib reads (NaN, lone surrogates) and
                    # words its refusals otherwise, so the stdlib decides those. It reads
                    # text, not decoded bytes: its messages count a CRLF as one character.
                    raw = json.loads(path.read_text(encoding="utf-8"))
                    by_stdlib = True
                if not isinstance(raw, dict):
                    raise ValueError(f"must hold a JSON object, got {type(raw).__name__}")
                if "embedding" in raw:
                    # An array takes a quarter of the memory of a list of Python floats.
                    raw["embedding"] = np.asarray(raw["embedding"], dtype=np.float64)
            except (ValueError, TypeError, OverflowError) as exc:
                raise LiteratureError(f"corpus doc {path.name}: {exc}") from exc
            if not isinstance(raw.get("title"), str) or not raw["title"]:
                raise LiteratureError(
                    f'corpus doc {path.name} has no title: "title" must be a nonempty string'
                )
            if not isinstance(raw.get("abstract", ""), str):
                raise LiteratureError(
                    f'corpus doc {path.name} ({raw["title"]!r}): "abstract" must be a string'
                )
            if by_stdlib:  # orjson refuses a lone surrogate
                _refuse_lone_surrogates(raw, f"corpus doc {path.name}")
            self._docs.append(raw)
            if "embedding" in raw:
                self._fill(row, raw.pop("embedding"), path.name)
            else:
                todo.append(row)
        if todo:
            docs = [self._docs[row] for row in todo]
            vectors = self._embedder.embed([f"{d['title']}\n{d.get('abstract', '')}" for d in docs])
            for row, vec in zip(todo, vectors):
                self._fill(row, vec, paths[row].name)
        self._matrix.flags.writeable = False
        self._matrix32 = self._matrix.astype(np.float32)

    def _fill(self, row: int, embedding, name: str) -> None:
        """Normalize doc `row`'s embedding into its matrix row."""
        title = self._docs[row]["title"]
        vec = np.asarray(embedding, dtype=np.float64)
        if vec.shape != self._matrix.shape[1:]:
            raise LiteratureError(
                f"corpus doc {name} ({title!r}) has embedding shape {vec.shape}, "
                f"but the embedder makes vectors of shape {self._matrix.shape[1:]}"
            )
        try:
            self._matrix[row] = normalize(vec)
        except LiteratureError as exc:
            raise LiteratureError(f"corpus doc {name} ({title!r}): {exc}") from exc

    def __len__(self) -> int:
        return len(self._docs)

    def _ranked(self, qvec: np.ndarray, k: int, source_query: str) -> list[RetrievedDoc]:
        """The first k docs sorted by (-cosine, title), with exact `cosine` scores.

        When k is below the corpus size, the float32 scan shortlists every doc
        whose score is within `_shortlist_margin` of the k-th float32 score,
        which includes every doc tied with the k-th; only the shortlist is
        rescored with `cosine` and sorted by the exact key.
        """
        if qvec.shape != self._matrix.shape[1:]:
            raise LiteratureError(
                f"dimension mismatch: {qvec.shape} vs {self._matrix.shape[1:]}"
            )
        rows = range(len(self._docs))
        if k < len(rows):
            approx = np.einsum("ij,j->i", self._matrix32, qvec.astype(np.float32))
            kth = np.partition(approx, len(rows) - k)[len(rows) - k]
            # A float64 floor, so the comparison runs in float64 (NEP 50): a float32
            # `kth - margin` would round the margin.
            floor = np.float64(kth) - _shortlist_margin(qvec)
            rows = np.flatnonzero(approx >= floor)
        scored = [(cosine(qvec, self._matrix[i]), i) for i in rows]
        scored.sort(key=lambda pair: (-pair[0], self._docs[pair[1]]["title"]))
        return [
            RetrievedDoc(
                title=self._docs[i]["title"],
                abstract=self._docs[i].get("abstract", ""),
                source_query=source_query,
                score=sim,
                embedding=self._matrix[i],
            )
            for sim, i in scored[:k]
        ]

    def search(self, query: SearchQuery) -> list[RetrievedDoc]:
        if not self._docs:
            return []
        qvec = np.asarray(self._embedder.embed([query.text])[0], dtype=np.float64)
        return self._ranked(qvec, query.limit, query.text)

    def nearest(self, embedding, k: int) -> list[RetrievedDoc]:
        """Top-k docs by cosine to an existing embedding (no query text)."""
        if not self._docs:
            return []
        return self._ranked(np.asarray(embedding, dtype=np.float64), k, "")

    def max_similarity(self, embeddings) -> np.ndarray:
        """Approximate best cosine over all docs for each row of an (n, dim) array.

        Each value is within `ROUNDING_MARGIN` of the largest `cosine` that
        `nearest` would report; it is -inf for every row when the corpus is
        empty.
        """
        queries = np.asarray(embeddings, dtype=np.float64)
        best = np.full(queries.shape[0], -np.inf)
        if not self._docs:
            return best
        if queries.shape[1:] != self._matrix.shape[1:]:
            raise LiteratureError(
                f"dimension mismatch: {queries.shape[1:]} vs {self._matrix.shape[1:]}"
            )
        for start in range(0, queries.shape[0], PREFILTER_BLOCK):
            scores = queries[start : start + PREFILTER_BLOCK] @ self._matrix.T
            best[start : start + PREFILTER_BLOCK] = scores.max(axis=1)
        return best


class HttpSearchClient:
    """Paper-search client over `gateway.post_json`: POST {query, limit} -> {results: [...]}.

    The key comes from NOVA_SEARCH_API_KEY, empty if unset. A reply that is not
    an object with a list of results, each an object with a nonempty string
    title, an abstract (if any) that is a string, a title and abstract without
    a lone surrogate (not valid Unicode) and a score (if any) that is a finite
    number, raises `LiteratureError` naming the first bad result. Returned
    docs are embedded from "<title>\\n<abstract>" with `embedder`, in one call.
    """

    def __init__(self, endpoint: str, embedder: Embedder, post=None, timeout: float = 60.0):
        self._endpoint = endpoint
        self._embedder = embedder
        self._post = post
        self._timeout = timeout

    def search(self, query: SearchQuery) -> list[RetrievedDoc]:
        payload = {"query": query.text, "limit": query.limit}
        resp = post_json(self._endpoint, payload, SEARCH_API_KEY_ENV, self._post, self._timeout)
        try:
            body = resp.json()
        except ValueError as exc:
            raise LiteratureError(f"search reply is not JSON: {exc}") from exc
        rows = body.get("results", []) if isinstance(body, dict) else None
        if not isinstance(rows, list):
            raise LiteratureError("search reply has no list of results")
        rows = rows[: query.limit]
        for n, row in enumerate(rows):
            title = row.get("title") if isinstance(row, dict) else None
            if not isinstance(title, str) or not title:
                raise LiteratureError(f"search result {n} has no title")
            if not isinstance(row.get("abstract", ""), str):
                raise LiteratureError(f"search result {n} has an abstract that is not a string")
            if "score" in row and not _finite_number(row["score"]):
                raise LiteratureError(
                    f"search result {n} has a score that is not a finite number: {row['score']!r}"
                )
            _refuse_lone_surrogates(row, f"search result {n}")
        if not rows:
            return []
        vectors = self._embedder.embed(
            [f"{row['title']}\n{row.get('abstract', '')}" for row in rows]
        )
        return [
            RetrievedDoc(
                title=row["title"],
                abstract=row.get("abstract", ""),
                source_query=query.text,
                score=float(row.get("score", 0.0)),
                embedding=vec,
            )
            for row, vec in zip(rows, vectors)
        ]


# ---------------------------------------------------------------------------
# Trend report
# ---------------------------------------------------------------------------


def engagement_score(paper: SeedPaper) -> int:
    """Unweighted sum of engagement counts (likes + comments + reposts + ...)."""
    if not paper.source_meta:
        return 0
    return sum(paper.source_meta.values())


def rank_by_engagement(recent: list[SeedPaper]) -> list[SeedPaper]:
    return sorted(recent, key=lambda p: (-engagement_score(p), p.title))


def format_paper_list(papers: list[SeedPaper]) -> str:
    lines = []
    for n, p in enumerate(papers, 1):
        lines.append(f"{n}. Title: {p.title}\n   Abstract: {p.abstract}")
    return "\n".join(lines)


def build_trend_report(recent: list[SeedPaper], gateway: Gateway) -> str:
    """Summarize the `DEFAULT_TREND_PAPER_COUNT` highest-engagement recent papers.

    `recent` is nonempty and every paper has engagement metrics; the run
    input's loader, `orchestrator.load_paper_input`, checks both.
    """
    ranked = rank_by_engagement(recent)[:DEFAULT_TREND_PAPER_COUNT]
    bindings = {"popular_paper_list": format_paper_list(ranked)}
    return gateway.ask("trend_report", bindings)
