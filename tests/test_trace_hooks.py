"""The traced benchmark wraps Nova attributes by name; each must still exist."""

from __future__ import annotations

from pathlib import Path

from nova import tournament

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_traced_harness_wraps_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from nova_bench.layers import Tracing

    before = vars(tournament)["novelty_judge"]
    with Tracing():  # KeyError here names an attribute a refactor deleted
        assert vars(tournament)["novelty_judge"] is not before
    assert vars(tournament)["novelty_judge"] is before
