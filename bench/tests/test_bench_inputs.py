import json

import numpy as np

from nova.ids import IdFactory
from nova.literature import HashEmbedder, OfflineCorpus
from nova.orchestrator import load_paper_input
from nova_bench.inputs import TREND_PAPER_COUNT, write_inputs


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_byte_identical_files(tmp_path):
    write_inputs(tmp_path / "a", 4, 30, 8)
    write_inputs(tmp_path / "b", 4, 30, 8)
    write_inputs(tmp_path / "c", 5, 30, 8)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a")["paper.json"] != _tree(tmp_path / "c")["paper.json"]
    assert _tree(tmp_path / "a")["corpus/doc00000.json"] != _tree(tmp_path / "c")[
        "corpus/doc00000.json"]


def test_inputs_load_into_nova(tmp_path):
    paper, corpus = write_inputs(tmp_path, 1, 25, None)
    seed_paper, trend = load_paper_input(str(paper), IdFactory(seed=0))
    assert seed_paper.validate() == []
    assert len(trend) == TREND_PAPER_COUNT
    assert len(OfflineCorpus(corpus, HashEmbedder(dim=32))) == 25


def test_stored_embeddings_are_unit_vectors_of_the_given_dim(tmp_path):
    _, corpus = write_inputs(tmp_path, 2, 10, 384)
    for path in corpus.glob("*.json"):
        vec = np.asarray(json.loads(path.read_text())["embedding"])
        assert vec.shape == (384,)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    titles = {json.loads(p.read_text())["title"] for p in corpus.glob("*.json")}
    assert len(titles) == 10
