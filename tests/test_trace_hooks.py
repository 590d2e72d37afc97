"""The traced benchmark wraps Nova attributes by name; each must still exist."""

from __future__ import annotations

from pathlib import Path

from nova import tournament
from nova.orchestrator import Runner, RunnerOptions
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
        assert gateway.ask("pairwise_rank", bindings, suffix) == "A"
    calls = {k: n for k, n in tracing.recorder.counts.items() if k.startswith("gateway.calls.")}
    assert calls == {"gateway.calls.pairwise_rank": 1}


def test_evaluate_dedups_each_pool_once(monkeypatch, tmp_path, corpus_dir, paper_input_file,
                                        small_config):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from nova_bench.layers import Tracing

    runner = Runner(tmp_path / "run", small_config,
                    RunnerOptions(backend="mock", corpus_dir=corpus_dir))
    with Tracing() as tracing:
        state = runner.advance_to("evaluated", paper_input=str(paper_input_file))
    dedups = [span for span in tracing.recorder.spans if span.name == "selector.dedup"]
    assert len(dedups) == len(state.pools) == small_config.iterations_T + 1
