import threading

import pytest

from nova.gateway import TransientBackendError
from nova.mockllm import MockBackend, prompt_digest
from nova_bench.latency import LatencyBackend

PROMPTS = [f"prompt {i}: decide which one is better overall" for i in range(40)] + [
    "propose some innovative and valuable research ideas based on the target paper. "
    "Output about 5 new ideas",
    "develop a detailed paper search plan for idea 3",
]


class Recorder:
    """Sleep stand-in that remembers each latency and the outcome it belonged to."""

    def __init__(self):
        self.slept = []

    def __call__(self, seconds):
        self.slept.append(seconds)


def _send_until_ok(backend, prompt):
    while True:
        try:
            return backend.send("m", prompt, 0.0, 100)
        except TransientBackendError:
            continue


def _draw_log(order, threads=1):
    """{(digest, attempt): (latency, faulted)} seen when sending `order`."""
    log = {}
    lock = threading.Lock()
    sleep = Recorder()
    backend = LatencyBackend(MockBackend(seed=0), seed=7, median_s=0.01, sigma=0.6,
                             fault_rate=0.3, sleep=sleep)
    original = backend.draw

    def draw(digest, attempt):
        result = original(digest, attempt)
        with lock:
            log[(digest, attempt)] = result
        return result

    backend.draw = draw
    chunks = [order[i::threads] for i in range(threads)]
    workers = [
        threading.Thread(target=lambda c=c: [_send_until_ok(backend, p) for p in c])
        for c in chunks
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
        assert not w.is_alive()
    return log


def test_draws_do_not_depend_on_call_order_or_threads():
    forward = _draw_log(PROMPTS)
    assert forward == _draw_log(list(reversed(PROMPTS)))
    assert forward == _draw_log(PROMPTS, threads=4)
    assert any(faulted for _, faulted in forward.values())


def test_draw_is_a_pure_function_of_seed_digest_and_attempt():
    a = LatencyBackend(None, seed=1, median_s=0.01, sigma=0.6, fault_rate=0.02)
    b = LatencyBackend(None, seed=1, median_s=0.01, sigma=0.6, fault_rate=0.02)
    c = LatencyBackend(None, seed=2, median_s=0.01, sigma=0.6, fault_rate=0.02)
    digest = prompt_digest("x")
    assert a.draw(digest, 1) == b.draw(digest, 1)
    assert a.draw(digest, 1) != a.draw(digest, 2)
    assert a.draw(digest, 1) != c.draw(digest, 1)


def test_latency_median_and_fault_rate_match_parameters():
    backend = LatencyBackend(None, seed=3, median_s=0.01, sigma=0.6, fault_rate=0.02)
    draws = [backend.draw(prompt_digest(str(i)), 1) for i in range(20000)]
    latencies = sorted(latency for latency, _ in draws)
    assert latencies[len(latencies) // 2] == pytest.approx(0.01, rel=0.05)
    assert sum(faulted for _, faulted in draws) / len(draws) == pytest.approx(0.02, abs=0.004)


def test_replies_are_byte_equal_to_the_mock():
    mock = MockBackend(seed=5)
    backend = LatencyBackend(MockBackend(seed=5), seed=9, median_s=0.01, sigma=0.6,
                             fault_rate=0.5, sleep=Recorder())
    for prompt in PROMPTS:
        assert _send_until_ok(backend, prompt) == mock.send("m", prompt, 0.0, 100)


def test_latency_is_slept_in_the_calling_thread():
    before = threading.active_count()
    sleep = Recorder()
    backend = LatencyBackend(MockBackend(), seed=0, median_s=0.01, sigma=0.6, sleep=sleep)
    backend.send("m", PROMPTS[0], 0.0, 100)
    assert threading.active_count() == before
    assert sleep.slept == [backend.draw(prompt_digest(PROMPTS[0]), 1)[0]]


def test_zero_median_never_sleeps():
    sleep = Recorder()
    backend = LatencyBackend(MockBackend(), seed=0, sleep=sleep)
    for prompt in PROMPTS:
        backend.send("m", prompt, 0.0, 100)
    assert sleep.slept == []
