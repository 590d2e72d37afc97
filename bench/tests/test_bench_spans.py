import threading
from dataclasses import replace

import pytest

from nova import gateway, planner, prompts, selector, tournament
from nova.gateway import Gateway, GatewayOptions, TransientBackendError
from nova_bench import layers
from nova_bench.latency import LatencyBackend
from nova_bench.layers import Tracing
from nova_bench.spans import Patches, SpanRecorder
from nova_bench.workloads import OpCounter


def _targets():
    extra = (
        (prompts.PromptLibrary, "render"),
        (LatencyBackend, "send"),
        (planner.PlannerLoop, "run_generation"),
        (selector, "cluster_pool"),
        (tournament, "swiss_tournament"),
        (tournament, "novelty_judge"),
        (tournament, "make_llm_ranker"),
    )
    return [(owner, attr) for owner, attr, _ in layers._PLAIN] + list(extra)


def test_tracing_restores_every_patched_name():
    before = {(id(o), a): vars(o)[a] for o, a in _targets()}
    with Tracing():
        for owner, attr in _targets():
            assert vars(owner)[attr] is not before[(id(owner), attr)], (owner, attr)
    for owner, attr in _targets():
        assert vars(owner)[attr] is before[(id(owner), attr)], (owner, attr)


def test_patches_restore_after_an_exception():
    original = vars(gateway)["extract_json"]
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            patches.wrap(gateway, "extract_json", lambda f: lambda *a: None)
            raise RuntimeError("boom")
    assert vars(gateway)["extract_json"] is original


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_worker_spans_hang_below_the_running_stage():
    rec = SpanRecorder()
    parents = {}

    def worker(key):
        with rec.span("worker") as span:
            parents[key] = span.parent

    with rec.stage("iterated") as stage:
        t = threading.Thread(target=worker, args=("stage",))
        t.start()
        t.join(timeout=10)
        with rec.span("planner.generation") as generation:
            t = threading.Thread(target=worker, args=("generation",))
            t.start()
            t.join(timeout=10)
    assert not t.is_alive()
    assert parents == {"stage": stage.id, "generation": generation.id}
    assert {s.stage for s in rec.spans} == {"iterated"}
    with rec.span("after"):
        pass
    assert rec.spans[-1].parent is None


def test_self_time_subtracts_children_on_the_same_thread_only():
    rec = SpanRecorder(clock=FakeClock(), cpu_clock=FakeClock())
    with rec.span("parent") as parent:
        with rec.span("child") as child:
            pass
    rec.spans.append(replace(child, name="remote", id=99, thread=-1))
    selfs = rec.self_times()
    child_cpu = child.cpu_end - child.cpu_start
    assert child_cpu > 0
    assert selfs[child.id] == child_cpu
    assert selfs[parent.id] == parent.cpu_end - parent.cpu_start - child_cpu


def test_traced_marks_failures_and_counts_calls_that_raise():
    rec = SpanRecorder()
    seen = []

    def boom():
        raise ValueError("x")

    wrapped = rec.traced("op", on_call=lambda a, k: seen.append("call"))(boom)
    with pytest.raises(ValueError):
        wrapped()
    assert seen == ["call"]
    assert [(s.name, s.failed) for s in rec.spans] == [("op", True)]


class AlwaysFails:
    def send(self, *args):
        raise TransientBackendError("down")


def test_op_counter_counts_outermost_calls_and_their_failures(tmp_path):
    with Patches() as patches:
        ops = OpCounter(patches)
        gw = Gateway(AlwaysFails(), tmp_path, GatewayOptions(retry_budget=1))
        with pytest.raises(gateway.GatewayError):
            gw.complete_json(gateway.ChatRequest(model_id="m", prompt="p"), "pair_verdict")
    assert (ops.attempted, ops.failed) == (1, 1)
    assert vars(Gateway)["complete"] is gateway.Gateway.complete
