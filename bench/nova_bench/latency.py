"""A chat backend that puts seeded latency and transient faults in front of a mock.

Every draw is a pure function of (seed, prompt digest, attempt), where the
attempt is how many times this backend has been sent that prompt. Timing and
the retry path therefore do not depend on which worker thread sends first.
The latency is slept in the calling thread, so the backend starts no threads.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from statistics import NormalDist
from typing import Callable

from nova.gateway import TransientBackendError
from nova.mockllm import prompt_digest

_STANDARD_NORMAL = NormalDist()


class LatencyBackend:
    """Wraps a backend (normally `MockBackend`) with lognormal latency and faults.

    Args:
        inner: the backend whose replies are returned unchanged.
        seed: workload seed the draws are keyed by.
        median_s: median latency per attempt; 0 disables sleeping.
        sigma: lognormal shape parameter.
        fault_rate: share of attempts that raise `TransientBackendError`
            after their latency has elapsed, like a rate-limited API.
        sleep: injectable for tests.
    """

    def __init__(self, inner, seed: int, median_s: float = 0.0, sigma: float = 0.0,
                 fault_rate: float = 0.0, sleep: Callable[[float], None] = time.sleep):
        self._inner = inner
        self._seed = seed
        self._median_s = median_s
        self._sigma = sigma
        self._fault_rate = fault_rate
        self._sleep = sleep
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}

    def draw(self, digest: str, attempt: int) -> tuple[float, bool]:
        """(latency in seconds, whether the attempt faults) for one attempt."""
        h = hashlib.blake2b(
            f"{self._seed}:{digest}:{attempt}".encode("ascii"), digest_size=16
        ).digest()
        u_fault = int.from_bytes(h[:8], "big") / 2**64
        u_latency = (int.from_bytes(h[8:], "big") + 0.5) / 2**64
        latency = self._median_s * math.exp(self._sigma * _STANDARD_NORMAL.inv_cdf(u_latency))
        return latency, u_fault < self._fault_rate

    def send(self, model_id: str, prompt: str, temperature: float, max_tokens: int) -> str:
        digest = prompt_digest(prompt)
        with self._lock:
            attempt = self._attempts.get(digest, 0) + 1
            self._attempts[digest] = attempt
        latency, fault = self.draw(digest, attempt)
        if latency > 0:
            self._sleep(latency)
        if fault:
            raise TransientBackendError(f"injected fault for {digest[:12]} attempt {attempt}")
        return self._inner.send(model_id, prompt, temperature, max_tokens)
