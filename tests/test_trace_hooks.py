"""The traced benchmark wraps Nova attributes by name; each must still exist."""

from __future__ import annotations

from pathlib import Path

from nova import tournament
from nova.prompts import PromptLibrary
from tests.conftest import RuleBackend

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_traced_harness_wraps_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from nova_bench.layers import Tracing

    before = vars(tournament)["novelty_judge"]
    with Tracing():  # KeyError here names an attribute a refactor deleted
        assert vars(tournament)["novelty_judge"] is not before
    assert vars(tournament)["novelty_judge"] is before


def test_ask_with_a_suffix_is_attributed_to_its_template(monkeypatch, make_gateway):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from nova_bench.latency import LatencyBackend
    from nova_bench.layers import Tracing

    backend = LatencyBackend(RuleBackend(rules=[("", '{"winner": "A"}')]), seed=0)
    gateway = make_gateway(backend)
    bindings = {"proposal_a": "first", "proposal_b": "second"}
    suffix = "\n\n(Refill attempt 1: propose ideas different from these.)\nAccepted so far:\n- x"
    with Tracing() as tracing:
        assert gateway.ask(PromptLibrary(), "pairwise_rank", bindings, "m", suffix) == {
            "winner": "A"
        }
    calls = {k: n for k, n in tracing.recorder.counts.items() if k.startswith("gateway.calls.")}
    assert calls == {"gateway.calls.pairwise_rank": 1}
