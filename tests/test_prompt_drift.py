"""Prompt-drift guard: a small mock run must send exactly the recorded requests.

The run covers every generation stage: three seed sources with uneven quotas
(``initial_seed_count=7`` splits 3/2/2), a trend report from trend papers,
retrieval against an offline corpus, proposals and the tournament. A changed
binding, template byte or request order changes a cache key; a changed reply
path or artifact shape changes a tree digest. Both are compared with
``tests/golden/pipeline_drift.json``.

To record a new golden after an intended prompt change, write
``json.dumps(snapshot(run_dir), indent=2) + "\\n"`` for a run made as in
`test_mock_run_matches_recorded_requests_and_tree`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from nova.orchestrator import Runner, RunnerOptions

GOLDEN = Path(__file__).parent / "golden" / "pipeline_drift.json"


def _digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under `root`."""
    h = hashlib.sha256()
    files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(root.parent)).encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def snapshot(run_dir: Path) -> dict:
    """Sorted response-cache keys and one digest per top-level entry of the run."""
    return {
        "cache_keys": sorted(
            json.loads(line)["key"]
            for line in (run_dir / "cache" / "entries.jsonl").read_bytes().splitlines()
        ),
        "tree": {p.name: _digest(p) for p in sorted(run_dir.iterdir())},
    }


def test_mock_run_matches_recorded_requests_and_tree(
    tmp_path, corpus_dir, paper_input_file, small_config
):
    config = dataclasses.replace(small_config, initial_seed_count=7)
    runner = Runner(tmp_path / "run", config, RunnerOptions(backend="mock", corpus_dir=corpus_dir))
    assert runner.run(paper_input=str(paper_input_file)).stage_cursor == "done"
    got = snapshot(runner.out_dir)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert got["cache_keys"] == want["cache_keys"]
    assert got["tree"] == want["tree"]
