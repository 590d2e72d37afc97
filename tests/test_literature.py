"""Vector math, embedders, offline retrieval, and the trend report."""

from __future__ import annotations

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nova.cli import main
from nova.domain import SeedPaper
from nova.ids import IdFactory
from nova.literature import (
    DEFAULT_EMBED_MODEL,
    DEFAULT_TREND_PAPER_COUNT,
    HashEmbedder,
    HttpEmbedder,
    HttpSearchClient,
    LiteratureError,
    OfflineCorpus,
    SearchQuery,
    build_trend_report,
    cosine,
    engagement_score,
    normalize,
    rank_by_engagement,
)
from nova.mockllm import MockBackend
from nova.orchestrator import InvalidPaperError, load_paper_input
from tests.conftest import RuleBackend

GOLDEN = Path(__file__).parent / "golden" / "hash_embedder.json"



# ---------------------------------------------------------------------------
# cosine / normalize
# ---------------------------------------------------------------------------


def test_cosine_self_is_one():
    v = normalize([1.0, 2.0, 2.0])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthonormal_basis():
    e1, e2 = np.eye(2)
    assert cosine(e1, e2) == 0.0


def test_cosine_analytic_value():
    assert cosine(normalize([0.6, 0.8]), normalize([1.0, 0.0])) == pytest.approx(0.6)


def test_cosine_dimension_mismatch():
    with pytest.raises(LiteratureError, match="dimension mismatch"):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


def test_normalize_rejects_zero_and_nonfinite():
    with pytest.raises(LiteratureError):
        normalize([0.0, 0.0])
    with pytest.raises(LiteratureError):
        normalize([float("nan"), 1.0])


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8), st.integers(0, 2**31))
def test_cosine_bounded_and_symmetric(values, seed):
    if all(abs(v) < 1e-9 for v in values):
        values[0] = 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    a = normalize(values)
    b = normalize(rng.standard_normal(len(values)))
    assert abs(cosine(a, b)) <= 1.0 + 1e-9
    assert cosine(a, b) == cosine(b, a)  # exactly symmetric


# ---------------------------------------------------------------------------
# HashEmbedder
# ---------------------------------------------------------------------------


def test_embed_identical_texts_identical_vectors(hash_embedder):
    a, b = hash_embedder.embed(["a", "a"])
    assert np.array_equal(a, b)
    assert cosine(a, b) == pytest.approx(1.0, abs=1e-6)


def test_batched_equals_per_item(hash_embedder):
    texts = ["one", "two", "three"]
    batched = hash_embedder.embed(texts)
    single = [hash_embedder.embed([t])[0] for t in texts]
    for u, v in zip(batched, single):
        assert np.array_equal(u, v)


def test_embed_requires_nonempty(hash_embedder):
    with pytest.raises(LiteratureError):
        hash_embedder.embed([])


def test_hash_embedder_matches_recorded_goldens():
    embedder = HashEmbedder(dim=8, seed=42)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    vectors = embedder.embed(list(golden.keys()))
    for (text, expected), got in zip(golden.items(), vectors):
        assert np.allclose(got, expected, atol=1e-12), text


def test_hash_embedder_unit_norm(hash_embedder):
    for vec in hash_embedder.embed([f"text {i}" for i in range(5)]):
        assert math.isclose(float(np.linalg.norm(vec)), 1.0, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# OfflineCorpus
# ---------------------------------------------------------------------------


def test_corpus_self_match_ranks_first(tmp_path, hash_embedder):
    docs = [
        {"title": "Quantized attention kernels", "abstract": "kernels"},
        {"title": "Protein folding pipelines", "abstract": "folding"},
        {"title": "Sparse retrieval agents", "abstract": "agents"},
    ]
    cdir = tmp_path / "c"
    cdir.mkdir()
    for n, d in enumerate(docs):
        (cdir / f"{n}.json").write_text(json.dumps(d), encoding="utf-8")
    corpus = OfflineCorpus(cdir, hash_embedder)
    # query equal to one stored doc's embedded text self-matches at cosine 1
    hits = corpus.search(SearchQuery(text="Protein folding pipelines\nfolding", limit=3))
    assert hits[0].title == "Protein folding pipelines"
    assert hits[0].score == pytest.approx(1.0, abs=1e-9)


def test_corpus_limit_exactly_k(tmp_path, hash_embedder):
    cdir = tmp_path / "c"
    cdir.mkdir()
    for n in range(100):
        (cdir / f"{n:03d}.json").write_text(
            json.dumps({"title": f"doc {n:03d}", "abstract": "text"}), encoding="utf-8"
        )
    corpus = OfflineCorpus(cdir, hash_embedder)
    assert len(corpus.search(SearchQuery(text="anything", limit=5))) == 5


def test_corpus_fewer_docs_than_limit(tmp_path, hash_embedder):
    cdir = tmp_path / "c"
    cdir.mkdir()
    for n in range(3):
        (cdir / f"{n}.json").write_text(
            json.dumps({"title": f"d{n}", "abstract": ""}), encoding="utf-8"
        )
    corpus = OfflineCorpus(cdir, hash_embedder)
    assert len(corpus.search(SearchQuery(text="q", limit=10))) == 3


def test_orthogonal_query_ties_fall_back_to_title_order(tmp_path, hash_embedder):
    """Docs sharing one near-orthogonal embedding tie exactly and rank by title."""
    qvec = hash_embedder.embed(["the query"])[0]
    raw = np.eye(hash_embedder.dim)[0] - (np.eye(hash_embedder.dim)[0] @ qvec) * qvec
    shared = raw / np.linalg.norm(raw)  # same vector for every doc: exact tie
    assert abs(float(shared @ qvec)) < 1e-12
    cdir = tmp_path / "c"
    cdir.mkdir()
    titles = ["zeta doc", "alpha doc", "mid doc"]
    for n, title in enumerate(titles):
        (cdir / f"{n}.json").write_text(
            json.dumps({"title": title, "abstract": "", "embedding": shared.tolist()}),
            encoding="utf-8",
        )
    corpus = OfflineCorpus(cdir, hash_embedder)
    hits = corpus.search(SearchQuery(text="the query", limit=3))
    # brute-force oracle over the corpus: every sim is the identical float,
    # so the ordering must equal the title sort
    oracle = sorted((float(shared @ qvec), t) for t in titles)
    assert [h.title for h in hits] == [t for _, t in oracle] == sorted(titles)


def test_corpus_determinism(tmp_path, hash_embedder, corpus_dir):
    corpus = OfflineCorpus(corpus_dir, hash_embedder)
    first = [d.title for d in corpus.search(SearchQuery(text="agents", limit=8))]
    second = [d.title for d in corpus.search(SearchQuery(text="agents", limit=8))]
    assert first == second


def test_search_query_invariants():
    with pytest.raises(ValueError):
        SearchQuery(text="x", limit=0)


def test_corpus_nearest_uses_existing_embedding(corpus_dir, hash_embedder):
    corpus = OfflineCorpus(corpus_dir, hash_embedder)
    probe = corpus.search(SearchQuery(text="anything", limit=1))[0]
    hits = corpus.nearest(probe.embedding, 3)
    assert hits[0].title == probe.title
    assert hits[0].score == pytest.approx(1.0, abs=1e-9)


def ranking_corpus(tmp_path, embedder: HashEmbedder):
    """Stored and embedded docs, duplicate embeddings, and keys the corpus ignores.

    Returns the corpus dir and, per title, the normalized embedding.
    """
    rng = np.random.Generator(np.random.PCG64(77))
    shared = rng.standard_normal(embedder.dim)  # eight docs repeat this vector
    cdir = tmp_path / "ranking"
    cdir.mkdir()
    truth = {}
    for n in range(40):
        title = f"doc {(n * 7) % 40:02d}"  # file order differs from title order
        raw = {"title": title, "abstract": f"abstract {n}",
               "categories": [["NLP"], ["CV"], ["NLP", "ML"]][n % 3],
               "date": f"202{n % 4}-0{1 + n % 9}-15"}
        if n % 5 == 0:
            raw["embedding"] = shared.tolist()
            vector = normalize(shared)
        elif n % 2:
            raw["embedding"] = rng.standard_normal(embedder.dim).tolist()
            vector = normalize(raw["embedding"])
        else:
            vector = normalize(embedder.embed([f"{title}\nabstract {n}"])[0])  # as at load
        (cdir / f"{n:02d}.json").write_text(json.dumps(raw), encoding="utf-8")
        truth[title] = vector
    return cdir, truth, normalize(shared)


def reference_ranking(truth, qvec, k):
    """Brute force: sort every doc by (-cosine, title)."""
    rows = sorted((-cosine(qvec, vector), title) for title, vector in truth.items())
    return [(title, -neg) for neg, title in rows[:k]]


@pytest.mark.parametrize("k", [1, 3, 5, 8, 9, 39, 40, 100])
def test_corpus_ranking_equals_brute_force(tmp_path, k):
    embedder = HashEmbedder(dim=12, seed=4)
    cdir, truth, shared = ranking_corpus(tmp_path, embedder)
    corpus = OfflineCorpus(cdir, embedder)
    probes = [shared, truth["doc 13"], embedder.embed(["free text"])[0]]
    for qvec in probes:
        hits = corpus.nearest(tuple(qvec.tolist()), k)
        assert [(h.title, h.score) for h in hits] == reference_ranking(truth, qvec, k)
        for h in hits:
            assert h.embedding.dtype == np.float64
            assert h.embedding.tobytes() == truth[h.title].tobytes()
    for text in ("agents", "planning", "nothing"):
        query = SearchQuery(text=text, limit=k)
        qvec = embedder.embed([query.text])[0]
        hits = corpus.search(query)
        assert [(h.title, h.score) for h in hits] == reference_ranking(truth, qvec, k)
        assert all(h.source_query == query.text for h in hits)


def test_corpus_ties_at_kth_score_break_by_title(tmp_path):
    """Eight docs share one vector: the cut at k keeps the first titles among them."""
    embedder = HashEmbedder(dim=12, seed=4)
    cdir, truth, shared = ranking_corpus(tmp_path, embedder)
    corpus = OfflineCorpus(cdir, embedder)
    tied = sorted(t for t, vec in truth.items() if np.array_equal(vec, shared))
    assert len(tied) == 8
    for k in (1, 4, 8):
        assert [h.title for h in corpus.nearest(tuple(shared.tolist()), k)] == tied[:k]


def near_tie_corpus(path: Path, embedder: HashEmbedder, query: str, seed: int):
    """40 docs at cosines near 0.9 to the query's vector, 1e-7 apart, and 8 more repeating
    some of their vectors under other titles. Returns the dir and, per title,
    the normalized embedding."""
    rng = np.random.Generator(np.random.PCG64(seed))
    q = embedder.embed([query])[0]
    vectors = []
    for cos in 0.9 + 1e-7 * rng.permutation(40):
        p = rng.standard_normal(embedder.dim)
        p -= (p @ q) * q
        vectors.append(cos * q + math.sqrt(1 - cos * cos) * p / np.linalg.norm(p))
    vectors += [vectors[n] for n in rng.choice(40, size=8, replace=False)]
    path.mkdir()
    truth = {}
    for n, title in enumerate(rng.permutation([f"doc {n:02d}" for n in range(48)])):
        (path / f"{n:02d}.json").write_text(
            json.dumps({"title": str(title), "embedding": vectors[n].tolist()}), encoding="utf-8"
        )
        truth[str(title)] = normalize(vectors[n])
    return path, truth


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim", [384, 1536])
def test_float32_shortlist_keeps_near_ties_exact(tmp_path, dim, seed):
    """Float32 scores cannot order cosines 1e-7 apart; the shortlist must still
    hold the exact top k, so titles and scores equal a float64 brute force."""
    embedder = HashEmbedder(dim=dim, seed=seed)
    cdir, truth = near_tie_corpus(tmp_path / "c", embedder, "near tie", seed)
    corpus = OfflineCorpus(cdir, embedder)
    qvec = embedder.embed(["near tie"])[0]
    for k in (1, 3, 5, 10, len(truth)):
        expected = reference_ranking(truth, qvec, k)
        for hits in (corpus.nearest(qvec, k), corpus.search(SearchQuery("near tie", k))):
            assert [(h.title, h.score) for h in hits] == expected


def test_a_hit_cannot_change_the_corpus(corpus_dir, hash_embedder):
    corpus = OfflineCorpus(corpus_dir, hash_embedder)
    query = SearchQuery(text="agents", limit=3)
    before = [(h.title, h.embedding.tobytes()) for h in corpus.search(query)]
    hits = corpus.search(query) + corpus.nearest(hash_embedder.embed(["agents"])[0], 3)
    for hit in hits:
        with pytest.raises(ValueError, match="read-only"):
            hit.embedding[0] = 0.0
    assert [(h.title, h.embedding.tobytes()) for h in corpus.search(query)] == before

    rows = [{"title": "t", "abstract": "a"}]
    client = HttpSearchClient("https://s.test", embedder=hash_embedder,
                              post=lambda url, **k: _FakeResponse(200, {"results": rows}))
    [hit] = client.search(query)
    with pytest.raises(ValueError, match="read-only"):
        hit.embedding[0] = 0.0


def test_corpus_rejects_zero_nonfinite_and_mismatched_embeddings(tmp_path, hash_embedder):
    for n, embedding in enumerate(([0.0] * 16, [float("nan")] + [1.0] * 15, [1.0] * 5)):
        cdir = tmp_path / f"bad{n}"
        cdir.mkdir()
        (cdir / "ok.json").write_text(json.dumps({"title": "ok", "abstract": ""}))
        (cdir / "z.json").write_text(json.dumps({"title": "bad", "embedding": embedding}))
        with pytest.raises(LiteratureError):
            OfflineCorpus(cdir, hash_embedder)
    # A corpus wholly in another embedding space: every doc is 384-d, the embedder 16-d.
    cdir = tmp_path / "wide"
    cdir.mkdir()
    for n in range(3):
        (cdir / f"d{n}.json").write_text(json.dumps({"title": f"w{n}", "embedding": [1.0] * 384}))
    with pytest.raises(LiteratureError, match=re.escape(
        "corpus doc d0.json ('w0') has embedding shape (384,), "
        "but the embedder makes vectors of shape (16,)"
    )):
        OfflineCorpus(cdir, hash_embedder)


def test_corpus_query_dimension_mismatch(corpus_dir, hash_embedder):
    corpus = OfflineCorpus(corpus_dir, hash_embedder)
    with pytest.raises(LiteratureError, match="dimension mismatch"):
        corpus.nearest([1.0, 0.0], 3)


# ---------------------------------------------------------------------------
# Corpus doc parsing: orjson first, the stdlib for what orjson refuses
# ---------------------------------------------------------------------------

PARSE_DIM = 4
EDGE_FLOATS = [
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, -0.0, 0.0,
    1.7976931348623157e308, -1.7976931348623157e308, 1.7976931348623155e308,
    0.1, 1e-05, 123456789012345678.0, 9007199254740993.0,
]
# One number as JSON text: the shortest repr (what json.dumps writes), 17 significant
# digits, 17-digit and short exponent forms (a short form may round past the float
# range, to a value both parsers must refuse alike), or an integer of up to 81 bits.
_NUMBER_TEXT = st.one_of(
    st.builds(json.dumps, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(lambda form, x: format(x, form),
              st.sampled_from([".17g", ".17e", ".16e", ".3e"]),
              st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(EDGE_FLOATS))),
    st.builds(str, st.integers(-2**80, 2**80)),
)


def _reference_rows(texts: list[str]) -> tuple[dict[str, list[int]], str | None]:
    """Per title, the bits of `normalize(json.loads(...))`; or the first refusal's message."""
    rows = {}
    for n, text in enumerate(texts):
        title = f"d{n}"
        try:
            vec = normalize(np.asarray(json.loads(text)["embedding"], dtype=np.float64))
        except LiteratureError as exc:
            return {}, f"corpus doc {title}.json ({title!r}): {exc}"
        rows[title] = vec.view(np.uint64).tolist()
    return rows, None


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # norms past 1.8e308
@given(st.lists(st.lists(_NUMBER_TEXT, min_size=PARSE_DIM, max_size=PARSE_DIM),
                min_size=1, max_size=4))
def test_corpus_matrix_equals_the_stdlib_parse_bit_for_bit(docs):
    texts = [f'{{"title": "d{n}", "embedding": [{", ".join(numbers)}]}}'
             for n, numbers in enumerate(docs)]
    expected, refusal = _reference_rows(texts)
    with tempfile.TemporaryDirectory() as tmp:
        for n, text in enumerate(texts):
            (Path(tmp) / f"d{n}.json").write_text(text, encoding="utf-8")
        if refusal is not None:
            with pytest.raises(LiteratureError) as info:
                OfflineCorpus(tmp, HashEmbedder(dim=PARSE_DIM))
            assert str(info.value) == refusal
            return
        corpus = OfflineCorpus(tmp, HashEmbedder(dim=PARSE_DIM))
    hits = corpus.nearest([1.0] + [0.0] * (PARSE_DIM - 1), len(texts))
    loaded = {h.title: np.asarray(h.embedding).view(np.uint64).tolist() for h in hits}
    assert loaded == expected


_UNIT = b"[0.6, 0.8]"


# Each outcome was pinned on the stdlib-only load that orjson replaced: the loaded
# title and the bits of its row, or the exact refusal (but for the lone surrogate,
# which that load accepted).
@pytest.mark.parametrize("data, outcome", [
    (b'{"title": "n", "embedding": [1.0, NaN]}',
     "corpus doc doc.json ('n'): embedding entries must be finite"),
    (b'{"title": "i", "embedding": [-Infinity, 1.0]}',
     "corpus doc doc.json ('i'): embedding entries must be finite"),
    # The stdlib loads a lone surrogate, which is not valid Unicode: refused.
    (b'{"title": "s\\ud800", "embedding": ' + _UNIT + b"}",
     'corpus doc doc.json: "title" holds a lone surrogate at offset 1, '
     "which is not valid Unicode"),
    (b'{"title": "big", "embedding": [1180591620717411303424, 0]}',
     ("big", [4607182418800017408, 0])),
    (b'\xef\xbb\xbf{"title": "b", "embedding": ' + _UNIT + b"}",
     "corpus doc doc.json: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    (b'{"title": "\xff", "embedding": ' + _UNIT + b"}",
     "corpus doc doc.json: 'utf-8' codec can't decode byte 0xff in position 11: "
     "invalid start byte"),
    ('{"title": "u", "embedding": [0.6, 0.8]}'.encode("utf-16"),
     "corpus doc doc.json: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    # The stdlib reads the doc as text, so "\r\n" counts as one character.
    (b'{"title": "c",\r\n"embedding": [0.6, 0.8],\r\n"x": nope}',
     "corpus doc doc.json: Expecting value: line 3 column 6 (char 45)"),
], ids=["nan", "infinity", "lone_surrogate", "int_past_64_bits", "bom", "invalid_utf8",
        "utf16", "crlf_then_error"])
def test_a_doc_orjson_refuses_loads_as_the_stdlib_decides(tmp_path, data, outcome):
    (tmp_path / "doc.json").write_bytes(data)
    if isinstance(outcome, str):
        with pytest.raises(LiteratureError) as info:
            OfflineCorpus(tmp_path, HashEmbedder(dim=2))
        assert str(info.value) == outcome
        return
    title, bits = outcome
    [hit] = OfflineCorpus(tmp_path, HashEmbedder(dim=2)).nearest([1.0, 0.0], 1)
    assert (hit.title, np.asarray(hit.embedding).view(np.uint64).tolist()) == (title, bits)


# ---------------------------------------------------------------------------
# HTTP clients (transport injected)
# ---------------------------------------------------------------------------


class _FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self._body = body

    def json(self):
        return self._body


def test_http_embedder_normalizes(monkeypatch):
    body = {"data": [{"embedding": [3.0, 4.0]}]}
    embedder = HttpEmbedder("https://e.test", 2, post=lambda url, **k: _FakeResponse(200, body))
    vec = embedder.embed(["x"])[0]
    assert np.allclose(vec, [0.6, 0.8])


def test_http_embedder_refuses_a_row_of_another_width():
    body = {"data": [{"embedding": [3.0, 4.0]}, {"embedding": [1.0, 2.0, 2.0]}]}
    embedder = HttpEmbedder("https://e.test", 2, post=lambda url, **k: _FakeResponse(200, body))
    assert embedder.dim == 2
    with pytest.raises(LiteratureError, match=re.escape("row has shape (3,), expected (2,)")):
        embedder.embed(["x", "y"])


def test_http_search_client_limits_and_embeds(hash_embedder):
    rows = {"results": [{"title": f"t{i}", "abstract": "a", "score": i} for i in range(9)]}
    client = HttpSearchClient(
        "https://s.test", embedder=hash_embedder,
        post=lambda url, **k: _FakeResponse(200, rows),
    )
    docs = client.search(SearchQuery(text="q", limit=4))
    assert len(docs) == 4
    assert all(d.embedding is not None for d in docs)


class _CountingPost:
    """One fake transport for both services: search rows, and per-text embeddings."""

    def __init__(self, rows):
        self.rows = rows
        self.requests: list[tuple[str, dict]] = []

    def __call__(self, url, json=None, **kwargs):
        self.requests.append((url, json))
        if url == "https://s.test":
            return _FakeResponse(200, {"results": self.rows})
        vectors = [HashEmbedder(dim=6, seed=2).embed([text])[0].tolist() for text in json["input"]]
        return _FakeResponse(200, {"data": [{"embedding": v} for v in vectors]})


@pytest.mark.parametrize("count", [0, 1, 5])
def test_http_search_client_embeds_rows_in_one_request(count):
    rows = [{"title": f"t{i}", "abstract": f"a{i}", "score": i} for i in range(count)]
    post = _CountingPost(rows)
    embedder = HttpEmbedder("https://e.test", 6, post=post)
    client = HttpSearchClient("https://s.test", embedder=embedder, post=post)
    docs = client.search(SearchQuery(text="q", limit=10))

    # The search request carries only the query text and the limit.
    assert [body for url, body in post.requests if url == "https://s.test"] == [
        {"query": "q", "limit": 10}
    ]
    embed_requests = [body for url, body in post.requests if url == "https://e.test"]
    assert embed_requests == ([{"model": DEFAULT_EMBED_MODEL,
                                "input": [f"t{i}\na{i}" for i in range(count)]}]
                              if count else [])
    # The same vectors as one embed request per row.
    for row, doc in zip(rows, docs):
        alone = embedder.embed([f"{row['title']}\n{row['abstract']}"])[0]
        assert doc.embedding.dtype == np.float64
        assert doc.embedding.tobytes() == alone.tobytes()
    assert [d.title for d in docs] == [r["title"] for r in rows]


class _NotJson(_FakeResponse):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


@pytest.mark.parametrize("response", [
    _NotJson(200, None),
    _FakeResponse(200, ["not", "an", "object"]),
    _FakeResponse(200, {"results": {"title": "t"}}),
    _FakeResponse(200, {"results": [{"abstract": "no title"}]}),
    _FakeResponse(200, {"results": [{"title": "ok"}, "not a row"]}),
    _FakeResponse(200, {"results": [{"title": None}]}),
])
def test_http_search_client_malformed_reply_is_literature_error(hash_embedder, response):
    client = HttpSearchClient("https://s.test", embedder=hash_embedder,
                              post=lambda url, **k: response)
    with pytest.raises(LiteratureError):
        client.search(SearchQuery(text="q", limit=4))


def test_http_search_client_refuses_an_untitled_result(hash_embedder):
    """Two untitled results would merge into one doc by title; the index is named instead."""
    rows = {"results": [{"title": "ok"}, {"title": ""}, {"title": ""}]}
    client = HttpSearchClient("https://s.test", embedder=hash_embedder,
                              post=lambda url, **k: _FakeResponse(200, rows))
    with pytest.raises(LiteratureError, match="^search result 1 has no title$"):
        client.search(SearchQuery(text="q", limit=4))


_BAD_SCORE = "search result 1 has a score that is not a finite number: "


@pytest.mark.parametrize("row, message", [
    ({"title": "x", "score": "high"}, _BAD_SCORE + "'high'"),
    ({"title": "x", "score": None}, _BAD_SCORE + "None"),
    ({"title": "x", "score": float("nan")}, _BAD_SCORE + "nan"),
    ({"title": "x", "score": float("inf")}, _BAD_SCORE + "inf"),
    ({"title": "x", "score": True}, _BAD_SCORE + "True"),
    ({"title": "x", "score": 10**400}, _BAD_SCORE + repr(10**400)),
    ({"title": "x", "abstract": 7}, "search result 1 has an abstract that is not a string"),
    ({"title": "x", "abstract": None}, "search result 1 has an abstract that is not a string"),
    ({"title": "x\ud800"},
     'search result 1: "title" holds a lone surrogate at offset 1, which is not valid Unicode'),
    ({"title": "x", "abstract": "ab\udfff"},
     'search result 1: "abstract" holds a lone surrogate at offset 2, which is not valid Unicode'),
], ids=["text_score", "null_score", "nan_score", "inf_score", "bool_score", "huge_int_score",
        "int_abstract", "null_abstract", "lone_surrogate_title", "lone_surrogate_abstract"])
def test_http_search_client_refuses_a_malformed_field(hash_embedder, row, message):
    rows = {"results": [{"title": "ok", "abstract": "a", "score": 0.5}, row]}
    client = HttpSearchClient("https://s.test", embedder=hash_embedder,
                              post=lambda url, **k: _FakeResponse(200, rows))
    with pytest.raises(LiteratureError) as info:
        client.search(SearchQuery(text="q", limit=4))
    assert str(info.value) == message


def test_http_search_client_takes_integer_and_absent_scores(hash_embedder):
    rows = {"results": [{"title": "a", "score": 3}, {"title": "b"}]}
    client = HttpSearchClient("https://s.test", embedder=hash_embedder,
                              post=lambda url, **k: _FakeResponse(200, rows))
    docs = client.search(SearchQuery(text="q", limit=4))
    assert [(d.title, d.abstract, d.score) for d in docs] == [("a", "", 3.0), ("b", "", 0.0)]


@pytest.mark.parametrize("response", [
    _NotJson(200, None),
    _FakeResponse(200, {"rows": []}),
    _FakeResponse(200, {"data": [{"vector": [1.0, 0.0]}]}),
    _FakeResponse(200, {"data": ["not a row"]}),
    _FakeResponse(200, {"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]}),
    _FakeResponse(200, {"data": [{"embedding": ["a", "b"]}]}),
    _FakeResponse(200, {"data": [{"embedding": [[1.0, 0.0], [1.0]]}]}),
])
def test_http_embedder_malformed_reply_is_literature_error(response):
    embedder = HttpEmbedder("https://e.test", 2, post=lambda url, **k: response)
    with pytest.raises(LiteratureError):
        embedder.embed(["x"])


# ---------------------------------------------------------------------------
# Trend report
# ---------------------------------------------------------------------------


def test_engagement_sort_higher_first(make_gateway, trend_papers):
    ranked = rank_by_engagement(trend_papers)
    scores = [engagement_score(p) for p in ranked]
    assert scores == sorted(scores, reverse=True)


def test_trend_prompt_lists_higher_engagement_first(make_gateway):
    papers = [
        SeedPaper(id="lo", title="Low Paper", abstract="l", source_meta={"likes": 5}),
        SeedPaper(id="hi", title="High Paper", abstract="h", source_meta={"likes": 10}),
    ]
    backend = RuleBackend()
    gateway = make_gateway(backend)
    build_trend_report(papers, gateway)
    prompt = backend.prompts[0]
    assert prompt.index("High Paper") < prompt.index("Low Paper")


def test_trend_report_echo_contains_both_titles(make_gateway):
    papers = [
        SeedPaper(id="a", title="Title Alpha", abstract="x", source_meta={"likes": 1}),
        SeedPaper(id="b", title="Title Beta", abstract="y", source_meta={"likes": 2}),
    ]
    backend = RuleBackend(rules=[("research trending report", lambda p: p)])
    gateway = make_gateway(backend)
    report = build_trend_report(papers, gateway)
    assert "Title Alpha" in report and "Title Beta" in report


def test_trend_prompt_takes_exactly_top_n(make_gateway):
    papers = [
        SeedPaper(id=f"p{i}", title=f"Trend Paper {i:02d}", abstract="x",
                  source_meta={"likes": i})
        for i in range(25)
    ]
    backend = RuleBackend()
    gateway = make_gateway(backend)
    build_trend_report(papers, gateway)
    prompt = backend.prompts[0]
    listed = [i for i in range(25) if f"Trend Paper {i:02d}" in prompt]
    assert listed == list(range(25 - DEFAULT_TREND_PAPER_COUNT, 25))  # the most liked


def test_trend_report_preconditions(tmp_path, capsys):
    """The run input is refused before any call when a trend paper could not be ranked.

    `build_trend_report` needs papers with a title, an abstract and engagement
    metrics; `load_paper_input`, and so `nova validate` and `nova run`, check
    each trend paper and name it in every violation.
    """
    ok = {"title": "H", "abstract": "B", "source_meta": {"likes": 1}}
    bad = {
        "empty_text": {"title": "", "abstract": "", "source_meta": {"likes": 3}},
        "no_meta": {"title": "T", "abstract": "A"},
        "empty_meta": {"title": "T", "abstract": "A", "source_meta": {}},
    }
    for name, trend in bad.items():
        source = {"paper": {"title": "P", "abstract": "Q"}, "trend_papers": [trend, ok, trend]}
        with pytest.raises(InvalidPaperError) as info:
            load_paper_input(source, IdFactory(seed=0))
        violations = info.value.violations
        assert violations, name
        assert {v.split(": ", 1)[0] for v in violations} == {"trend_papers[0]", "trend_papers[2]"}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**source, "trend_papers": [trend]}), encoding="utf-8")
        assert main(["validate", "--paper", str(path)]) == 2, name
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] and all(
            v.startswith("trend_papers[0]: ") for v in report["violations"]
        ), report
    paper, trend_papers = load_paper_input(
        {"paper": {"title": "P", "abstract": "Q"}, "trend_papers": [ok]}, IdFactory(seed=0)
    )
    assert [p.title for p in trend_papers] == ["H"]
    for not_a_list in (5, {"title": "H"}, "H"):
        with pytest.raises(InvalidPaperError, match="trend_papers: must be a list"):
            load_paper_input({"paper": {"title": "P", "abstract": "Q"}, "trend_papers": not_a_list},
                             IdFactory(seed=0))
