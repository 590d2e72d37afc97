"""CLI surface: exit codes, flag handling, determinism, error prefix."""

from __future__ import annotations

import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nova
from nova.cli import main
from nova.orchestrator import _dump_bytes


@pytest.fixture
def mock_script(tmp_path) -> Path:
    path = tmp_path / "script.json"
    path.write_text("{}", encoding="utf-8")
    return path


@pytest.fixture
def cli_env(tmp_path, paper_input_file, corpus_dir, mock_script):
    def _argv(command: str, out: str, *extra: str) -> list[str]:
        if command == "report":
            return [command, "--out", str(tmp_path / out), *extra]
        argv = [command, "--out", str(tmp_path / out),
                "--backend", "mock", "--mock-script", str(mock_script),
                "--corpus", str(corpus_dir)]
        if command in ("run", "seed"):  # the commands that start a run take its config
            argv += ["--paper", str(paper_input_file),
                     "--set", "iterations_T=1", "--set", "initial_seed_count=6",
                     "--set", "expand_count=4", "--set", "keep_count=2",
                     "--set", "cluster_count=3", "--set", "tournament_rounds=2",
                     "--seed", "5"]
        return argv + list(extra)

    return _argv


def wide(*head: float) -> list[float]:
    """A 32-d embedding, the width of the CLI's embedder, that starts with `head`."""
    return [*head] + [0.0] * (32 - len(head))


def read_state(tmp_path, out):
    return json.loads((tmp_path / out / "state.json").read_text(encoding="utf-8"))


def test_run_happy_path(cli_env, tmp_path, capsys):
    assert main(cli_env("run", "d")) == 0
    captured = capsys.readouterr()
    assert "stage reached: done" in captured.out
    assert str(tmp_path / "d") in captured.out
    assert read_state(tmp_path, "d")["stage_cursor"] == "done"


def test_missing_paper_is_usage_error(cli_env, capsys):
    argv = [a for a in cli_env("run", "d2")]
    cut = argv.index("--paper")
    del argv[cut : cut + 2]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("nova-error:")
    assert "usage" in err


def test_mock_backend_requires_script(cli_env, capsys):
    argv = cli_env("run", "d3")
    cut = argv.index("--mock-script")
    del argv[cut : cut + 2]
    assert main(argv) == 1
    assert "--mock-script" in capsys.readouterr().err


def test_overrides_echoed_verbatim_into_state(cli_env, tmp_path):
    assert main(cli_env("run", "d4")) == 0
    config = read_state(tmp_path, "d4")["config"]
    assert config["iterations_T"] == 1
    assert config["initial_seed_count"] == 6
    assert config["rng_seed"] == 5


def test_unknown_override_key_rejected(cli_env, capsys):
    assert main(cli_env("run", "d5", "--set", "bogus_key=3")) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_config_value_rejected(cli_env, capsys):
    assert main(cli_env("run", "d6", "--set", "keep_count=9")) == 1
    assert "invalid config" in capsys.readouterr().err


def test_stage_subcommands_compose_a_partial_pipeline(cli_env, tmp_path, capsys):
    assert main(cli_env("seed", "steps")) == 0
    assert read_state(tmp_path, "steps")["stage_cursor"] == "seeded"
    assert main(cli_env("iterate", "steps")) == 0
    assert read_state(tmp_path, "steps")["stage_cursor"] == "iterated"
    assert main(cli_env("select", "steps")) == 0
    assert main(cli_env("propose", "steps")) == 0
    assert main(cli_env("evaluate", "steps")) == 0
    assert read_state(tmp_path, "steps")["stage_cursor"] == "evaluated"


def test_report_on_partial_run_exits_zero_with_gaps(cli_env, tmp_path, capsys):
    assert main(cli_env("seed", "partial")) == 0
    capsys.readouterr()
    assert main(cli_env("report", "partial")) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["gaps"], "expected gap flags for the unevaluated run"
    assert (tmp_path / "partial" / "report" / "summary.json").is_file()


def test_report_takes_only_the_run_directory(cli_env, tmp_path, capsys):
    """`nova report` reads a run; run flags, which it would ignore, are usage errors."""
    argv = cli_env("report", "r", "--backend", "live", "--seed", "9", "--set", "bogus=1")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --backend live --seed 9 --set bogus=1" in err
    assert not (tmp_path / "r").exists()


def test_identical_argv_identical_run_directory(cli_env, tmp_path):
    assert main(cli_env("run", "same1")) == 0
    assert main(cli_env("run", "same2")) == 0

    def tree(root: Path):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    assert tree(tmp_path / "same1") == tree(tmp_path / "same2")


def test_validate_command(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"title": "T", "abstract": "A"}), encoding="utf-8")
    assert main(["validate", "--paper", str(good)]) == 0
    assert json.loads(capsys.readouterr().out) == {"violations": []}

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"title": "", "abstract": "A"}), encoding="utf-8")
    assert main(["validate", "--paper", str(bad)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["violations"]


def test_missing_paper_file_reported(cli_env, tmp_path, capsys):
    argv = cli_env("run", "d7")
    argv[argv.index("--paper") + 1] = str(tmp_path / "ghost.json")
    assert main(argv) == 1
    assert "does not exist" in capsys.readouterr().err


def test_run_prints_stage_on_abort(cli_env, tmp_path, capsys, monkeypatch):
    # break the corpus mid-flight by pointing at a file, forcing a stage error
    argv = cli_env("run", "d8")
    argv[argv.index("--corpus") + 1] = str(tmp_path / "not-a-dir")
    assert main(argv) == 1  # usage error: corpus must exist
    assert "corpus" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    [{"title": "T", "abstract": "A"}], {"paper": ["T"]}, "T", [],
    {"paper": {"title": "T", "abstract": "A"}, "trend_papers": [5]},
])
def test_validate_non_object_paper_is_reported(tmp_path, capsys, payload):
    """A paper that is not an object is listed as a violation, like any other flaw."""
    path = tmp_path / "list.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["validate", "--paper", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    [violation] = json.loads(captured.out)["violations"]
    expected = "input paper must be a JSON object, got "
    if isinstance(payload, dict) and "trend_papers" in payload:
        expected = "trend_papers[0]: " + expected
    assert violation.startswith(expected)


@pytest.mark.parametrize(
    "payload", [[{"title": "T", "abstract": "A"}], {"paper": ["T"]}, {"paper": {"title": "T"}}]
)
def test_seed_unparseable_paper_is_reported(cli_env, tmp_path, capsys, payload):
    path = tmp_path / "bad_paper.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    argv = cli_env("seed", "d9")
    argv[argv.index("--paper") + 1] = str(path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("nova-error:")
    assert "input paper" in err


def test_non_object_config_is_usage_error(cli_env, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([["iterations_T", 1]]), encoding="utf-8")
    assert main(cli_env("seed", "d10", "--config", str(path))) == 1
    err = capsys.readouterr().err
    assert err.startswith("nova-error:")
    assert "must hold a JSON object" in err


def test_missing_paper_file_creates_no_run_directory(cli_env, tmp_path, capsys):
    argv = cli_env("run", "d11")
    argv[argv.index("--paper") + 1] = str(tmp_path / "ghost.json")
    assert main(argv) == 1
    assert "does not exist" in capsys.readouterr().err
    assert not (tmp_path / "d11").exists()


@pytest.mark.parametrize(
    "docs, message",
    [
        ([{"title": "ok", "abstract": "a"}, {"abstract": "no title"}], "has no title"),
        ([{"title": "flat", "embedding": [1.0, 0.0]},
          {"title": "deep", "embedding": [1.0, 0.0, 0.0]}], "has embedding shape"),
        ([{"title": "ok", "embedding": wide(1.0)}, {"title": "z", "embedding": wide()}],
         "corpus doc doc1.json ('z'): cannot normalize the zero vector"),
        ([{"title": "ok", "embedding": wide(1.0)},
          {"title": "n", "embedding": wide(1.0, float("nan"))}],
         "corpus doc doc1.json ('n'): embedding entries must be finite"),
        ([{"title": "ok", "abstract": "a"}, {"title": 5, "abstract": "a"}],
         'corpus doc doc1.json has no title: "title" must be a nonempty string'),
        ([{"title": "ok", "abstract": "a"}, {"title": "odd", "abstract": 7}],
         """corpus doc doc1.json ('odd'): "abstract" must be a string"""),
        ([{"title": "ok", "abstract": "a"}, {"title": "big", "embedding": [10**400, 1]}],
         "corpus doc doc1.json: int too large to convert to float"),
        # Embedded from its text at load, which a lone surrogate made crash.
        ([{"title": "ok", "abstract": "a"}, {"title": "s\ud800", "abstract": "a"}],
         'corpus doc doc1.json: "title" holds a lone surrogate at offset 1, '
         "which is not valid Unicode"),
    ],
    ids=["untitled_doc", "mixed_embedding_shapes", "zero_embedding", "non_finite_embedding",
         "non_string_title", "non_string_abstract", "overflowing_embedding",
         "lone_surrogate_title"],
)
def test_malformed_corpus_exits_2_before_creating_the_run_dir(cli_env, tmp_path, capsys,
                                                              docs, message):
    corpus = tmp_path / "bad_corpus"
    corpus.mkdir()
    for n, doc in enumerate(docs):
        (corpus / f"doc{n}.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = cli_env("run", "bad")
    argv[argv.index("--corpus") + 1] = str(corpus)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("nova-error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "bad").exists()


def test_a_corpus_in_another_embedding_space_exits_2_at_load(cli_env, tmp_path, capsys):
    """200 docs with stored 384-d embeddings against the run's 32-d embedder."""
    corpus = tmp_path / "wide_corpus"
    corpus.mkdir()
    vectors = np.random.default_rng(0).standard_normal((200, 384))
    for n, vec in enumerate(vectors):
        doc = {"title": f"Paper {n}", "abstract": "a", "embedding": vec.tolist()}
        (corpus / f"doc{n:03d}.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = cli_env("run", "wide")
    argv[argv.index("--corpus") + 1] = str(corpus)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("nova-error: corpus doc doc000.json ('Paper 0')")
    assert "embedding shape (384,)" in err and "shape (32,)" in err
    assert not (tmp_path / "wide").exists()


def test_a_resume_with_another_config_exits_2(cli_env, tmp_path, capsys):
    """Explicit config flags that differ from the stored run's are refused, by field."""
    assert main(cli_env("seed", "fixed")) == 0
    state_path = tmp_path / "fixed" / "state.json"
    before = state_path.read_bytes()
    capsys.readouterr()

    argv = cli_env("run", "fixed", "--set", "iterations_T=0", "--set", "keep_count=1",
                   "--seed", "99")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("nova-error:")
    for field in ("iterations_T is 1, asked 0", "keep_count is 2, asked 1",
                  "rng_seed is 5, asked 99"):
        assert field in err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"novelty_sim_threshold": 0.5}), encoding="utf-8")
    assert main(cli_env("run", "fixed", "--config", str(config))) == 2
    assert "novelty_sim_threshold is 0.3, asked 0.5" in capsys.readouterr().err
    assert state_path.read_bytes() == before

    # Without config flags, or with the ones the run started with, it resumes.
    argv = cli_env("run", "fixed")
    bare = [a for n, a in enumerate(argv)
            if a not in ("--set", "--seed") and argv[n - 1] not in ("--set", "--seed")]
    assert main(bare) == 0
    assert read_state(tmp_path, "fixed")["stage_cursor"] == "done"
    assert main(argv) == 0


def test_validate_checks_trend_papers_as_run_does(cli_env, tmp_path, capsys):
    path = tmp_path / "trend.json"
    path.write_text(json.dumps({
        "paper": {"title": "T", "abstract": "A"},
        "trend_papers": [{"title": "H", "abstract": "B", "colour": "red"}],
    }), encoding="utf-8")
    assert main(["validate", "--paper", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert any("colour" in violation for violation in report["violations"])

    argv = cli_env("run", "trend-bad")
    argv[argv.index("--paper") + 1] = str(path)
    assert main(argv) == 2
    assert "colour" in capsys.readouterr().err


_TREND = {"title": "H", "abstract": "B", "source_meta": {"likes": 1}}


@pytest.mark.parametrize("payload, violations", [
    ({"paper": {"title": "", "abstract": "A"}, "trend_papers": [5]},
     ["SeedPaper.title: must be nonempty",
      "trend_papers[0]: input paper must be a JSON object, got int"]),
    ({"paper": {"title": "T", "abstract": "A"},
      "trend_papers": [_TREND, {"title": "", "abstract": "", "source_meta": {}}, 7]},
     ["trend_papers[1]: SeedPaper.source_meta: must be nonempty",
      "trend_papers[1]: SeedPaper.title: must be nonempty",
      "trend_papers[1]: SeedPaper.abstract: must be nonempty",
      "trend_papers[2]: input paper must be a JSON object, got int"]),
], ids=["bad_paper_and_unparsed_trend", "bad_trend_then_unparsed_trend"])
def test_validate_lists_every_bad_paper(tmp_path, capsys, payload, violations):
    """A trend paper that does not parse hides no other paper's violations."""
    path = tmp_path / "papers.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["validate", "--paper", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["violations"] == violations


@pytest.mark.parametrize("flag, content, code", [
    ("--paper", '{"title": "T",}', 2),
    ("--config", "{iterations_T: 1}", 1),
    ("--mock-script", '{"a": ', 2),
    ("--mock-script", "[]", 2),
    ("--corpus", '{"title": "T",', 2),
    ("--corpus", "[1]", 2),
], ids=["paper_json", "config_json", "mock_script_json", "mock_script_list", "corpus_doc_json",
        "corpus_doc_list"])
def test_a_malformed_input_file_is_named(cli_env, tmp_path, capsys, flag, content, code):
    """One `nova-error:` line that names the file, with the exit code of its kind."""
    path = tmp_path / "malformed.json"
    path.write_text(content, encoding="utf-8")
    argv = cli_env("run", "d12")
    if flag == "--config":
        argv += [flag, str(path)]
    elif flag == "--corpus":
        corpus = tmp_path / "bad_corpus"
        corpus.mkdir()
        path = path.rename(corpus / "doc0.json")
        argv[argv.index(flag) + 1] = str(corpus)
    else:
        argv[argv.index(flag) + 1] = str(path)
    assert main(argv) == code
    err = capsys.readouterr().err
    named = path.name if flag == "--corpus" else str(path)  # corpus docs go by file name
    assert err.startswith("nova-error:") and named in err.splitlines()[0]
    if flag != "--paper":  # the paper is read only when seeding starts
        assert not (tmp_path / "d12").exists()


def test_run_refuses_a_pool_stored_as_a_list_of_numbers(cli_env, tmp_path, capsys):
    """A pool written with embeddings as JSON number lists is refused, naming the artifact."""
    assert main(cli_env("seed", "old")) == 0
    run_dir = tmp_path / "old"
    state = read_state(tmp_path, "old")
    path = run_dir / "artifacts" / f"{state['pools']['0']}.json"
    envelope = json.loads(path.read_text(encoding="utf-8"))
    for idea in envelope["data"]["ideas"]:
        idea["embedding"] = np.frombuffer(base64.b64decode(idea["embedding"]), "<f8").tolist()
    payload = _dump_bytes(envelope)
    digest = hashlib.sha256(payload).hexdigest()
    (run_dir / "artifacts" / f"{digest}.json").write_bytes(payload)
    state["pools"]["0"] = digest
    (run_dir / "state.json").write_text(json.dumps(state), encoding="utf-8")
    capsys.readouterr()

    assert main(cli_env("run", "old")) == 2
    err = capsys.readouterr().err
    assert f"idea pool artifact {digest}" in err
    assert "embedding must be a base64 string" in err
    assert read_state(tmp_path, "old")["stage_cursor"] == "seeded"


def test_evaluate_refuses_a_proposal_set_with_an_empty_section(cli_env, tmp_path, capsys):
    """A hand-edited proposal set that still decodes is refused by the resume that reads it."""
    assert main(cli_env("seed", "motivation")) == 0
    assert main(cli_env("propose", "motivation")) == 0
    run_dir = tmp_path / "motivation"
    digest = sorted(read_state(tmp_path, "motivation")["proposals"].values())[0]
    path = run_dir / "artifacts" / f"{digest}.json"
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["data"]["final"]["sections"]["Motivation"] = ""
    path.write_bytes(_dump_bytes(envelope))
    state = (run_dir / "state.json").read_bytes()
    capsys.readouterr()

    assert main(cli_env("evaluate", "motivation")) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"nova-error: proposal set artifact {digest}: "
        "Proposal.sections[Motivation]: must be nonempty"
    ]
    assert (run_dir / "state.json").read_bytes() == state


def test_evaluate_refuses_an_artifact_whose_bytes_no_longer_match_its_digest(cli_env, tmp_path,
                                                                           capsys):
    """An edit that keeps every invariant is still refused: the bytes must hash to the name."""
    assert main(cli_env("seed", "edited")) == 0
    assert main(cli_env("propose", "edited")) == 0
    run_dir = tmp_path / "edited"
    digest = sorted(read_state(tmp_path, "edited")["proposals"].values())[0]
    path = run_dir / "artifacts" / f"{digest}.json"
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["data"]["final"]["sections"]["Motivation"] = "Another motivation."
    path.write_bytes(_dump_bytes(envelope))
    state = (run_dir / "state.json").read_bytes()
    capsys.readouterr()

    assert main(cli_env("evaluate", "edited")) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"nova-error: proposal set artifact {digest}: content does not match its digest"
    ]
    assert (run_dir / "state.json").read_bytes() == state


@pytest.mark.parametrize(
    "damage, reason",
    [
        ({"surprise": 1}, "RunState: unknown fields ['surprise']"),
        ({"stage_cursor": "bogus"}, "RunState.stage_cursor: 'bogus' not in"),
        ({"config": {"keep_count": 20}}, "PipelineConfig.keep_count: must be <= expand_count"),
        ({"id_counter": -1}, "RunState.id_counter: must be nonnegative"),
    ],
    ids=["unknown_field", "unknown_stage", "config_invariant", "negative_id_counter"],
)
def test_a_damaged_run_state_exits_2(cli_env, tmp_path, capsys, damage, reason):
    """A damaged `state.json` is named with the field at fault, not a traceback."""
    assert main(cli_env("seed", "damaged")) == 0
    path = tmp_path / "damaged" / "state.json"
    path.write_text(json.dumps({**read_state(tmp_path, "damaged"), **damage}), encoding="utf-8")
    capsys.readouterr()
    assert main(cli_env("iterate", "damaged")) == 2
    err = capsys.readouterr().err
    assert err.startswith("nova-error:")
    assert f"run state {path}: {reason}" in err


def test_representatives_without_idea_ids_exits_2(cli_env, tmp_path, capsys):
    """A damaged artifact is named by its digest and the field at fault, not a traceback."""
    assert main(cli_env("seed", "reps")) == 0
    assert main(cli_env("select", "reps")) == 0
    run_dir = tmp_path / "reps"
    state = read_state(tmp_path, "reps")
    path = run_dir / "artifacts" / f"{state['representatives_ref']}.json"
    envelope = json.loads(path.read_text(encoding="utf-8"))
    del envelope["data"]["idea_ids"]
    payload = _dump_bytes(envelope)
    digest = hashlib.sha256(payload).hexdigest()
    (run_dir / "artifacts" / f"{digest}.json").write_bytes(payload)
    state["representatives_ref"] = digest
    (run_dir / "state.json").write_text(json.dumps(state), encoding="utf-8")
    capsys.readouterr()

    assert main(cli_env("propose", "reps")) == 2
    err = capsys.readouterr().err
    assert err.startswith("nova-error:")
    assert f"representatives artifact {digest}: Representatives: missing fields ['idea_ids']" in err
    assert read_state(tmp_path, "reps")["stage_cursor"] == "selected"


def test_a_non_string_paper_title_exits_2(cli_env, tmp_path, capsys):
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps({"title": 5, "abstract": "A"}), encoding="utf-8")
    assert main(["validate", "--paper", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == ["SeedPaper: title must be a string"]

    argv = cli_env("run", "numeric")
    argv[argv.index("--paper") + 1] = str(path)
    assert main(argv) == 2
    assert "SeedPaper: title must be a string" in capsys.readouterr().err


def test_a_paper_with_a_lone_surrogate_exits_2(cli_env, tmp_path, capsys):
    """A lone surrogate is not valid Unicode; it crashed the first cache key of seeding."""
    path = tmp_path / "surrogate.json"
    trend = {"title": "T", "abstract": "\udc00", "source_meta": {"likes": 1}}
    path.write_text(json.dumps({"paper": {"title": "P\ud800", "abstract": "A"},
                                "trend_papers": [trend]}), encoding="utf-8")
    violations = [
        "SeedPaper.title: holds a lone surrogate at offset 1, which is not valid Unicode",
        "trend_papers[0]: SeedPaper.abstract: holds a lone surrogate at offset 0, "
        "which is not valid Unicode",
    ]
    assert main(["validate", "--paper", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["violations"] == violations

    argv = cli_env("run", "surrogate")
    argv[argv.index("--paper") + 1] = str(path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert violations[0] in err and "Traceback" not in err


def test_a_mock_run_needs_no_jsonschema(cli_env, tmp_path):
    """`jsonschema` is a test dependency only: a run with it unimportable reaches `done`."""
    src = Path(nova.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from nova.cli import main\n"
        f"code = main({cli_env('run', 'no-jsonschema')!r})\n"
        "assert sys.modules['jsonschema'] is None\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "stage reached: done" in done.stdout
    assert read_state(tmp_path, "no-jsonschema")["stage_cursor"] == "done"


@pytest.mark.parametrize("command", ["iterate", "select", "propose", "evaluate"])
def test_resume_commands_refuse_config_flags(cli_env, tmp_path, capsys, command):
    """The run's config is fixed at `seed`/`run`; a later stage refuses flags it would ignore."""
    assert main(cli_env("seed", "fixed")) == 0
    state = read_state(tmp_path, "fixed")
    capsys.readouterr()
    flags = ["--set", "iterations_T=0", "--seed", "99", "--config", "c.json"]
    assert main(cli_env(command, "fixed", *flags)) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert read_state(tmp_path, "fixed") == state


def test_a_run_state_with_nested_proposals_exits_2(cli_env, tmp_path, capsys):
    """A `state.json` that maps each idea to three digests is refused, naming `proposals`."""
    for command in ("seed", "iterate", "select", "propose"):
        assert main(cli_env(command, "nested")) == 0
    path = tmp_path / "nested" / "state.json"
    state = read_state(tmp_path, "nested")
    assert state["proposals"]
    state["proposals"] = {
        idea_id: {"initial": digest, "decomposition": digest, "final": digest}
        for idea_id, digest in state["proposals"].items()
    }
    path.write_text(json.dumps(state), encoding="utf-8")
    capsys.readouterr()

    assert main(cli_env("evaluate", "nested")) == 2
    err = capsys.readouterr().err
    assert err.startswith("nova-error:")
    assert f"run state {path}: RunState: proposals must map strings to strings" in err
