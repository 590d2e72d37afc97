"""In-memory span recording around calls into Nova's public functions.

Nothing under `nova` is edited: `Patches` swaps a module or class attribute
for a wrapper and puts every original back on exit. `SpanRecorder` keeps a
parent stack per thread. A span opened on a thread with an empty stack (a
`PlannerLoop` worker) takes as parent the innermost span open on the thread
running the current stage: the stage span itself, or a span below it such as
the generation that started the workers.

Self time is measured on the span's own thread CPU clock. Wall-clock self time
would count, on every worker thread at once, the time spent waiting for the
interpreter lock, and summed over eight workers it can exceed the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable


class Patches:
    """Replaces attributes with wrappers; `restore` (or leaving the `with`) undoes all."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper: Callable) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    thread: int
    stage: str | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    failed: bool = False


class SpanRecorder:
    """Collects spans and counters; computes self time once the run is over."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.thread_time):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stage_stack: list[Span] | None = None
        self._stage: str | None = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        try:
            return self._stage_stack[-1]
        except (TypeError, IndexError):
            return None

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = self._parent(stack)
        span = Span(name, next(self._ids), parent.id if parent else None,
                    threading.get_ident(), self._stage, self._clock(), self._cpu_clock())
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.cpu_end = self._cpu_clock()
            span.end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def stage(self, stage: str):
        """Span `orchestrator.stage.<stage>`; worker-thread spans hang below it."""
        self._stage_stack = self._stack()
        self._stage = stage
        try:
            with self.span(f"orchestrator.stage.{stage}") as span:
                yield span
        finally:
            self._stage_stack = None
            self._stage = None

    def traced(self, name: str, on_call: Callable | None = None,
               on_return: Callable | None = None) -> Callable:
        """A `Patches.wrap` factory: run the original inside span `name`.

        `on_call(args, kwargs)` runs before the call, whether or not it then
        raises; `on_return(args, kwargs, result)` runs after a normal return.
        """

        def make_wrapper(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(args, kwargs)
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(args, kwargs, result)
                return result

            return wrapper

        return make_wrapper

    def self_times(self) -> dict[int, float]:
        """Span id -> thread CPU time minus that of its children on the same thread."""
        out = {span.id: span.cpu_end - span.cpu_start for span in self.spans}
        by_id = {span.id: span for span in self.spans}
        for span in self.spans:
            parent = by_id.get(span.parent)
            if parent is not None and parent.thread == span.thread:
                out[parent.id] -= span.cpu_end - span.cpu_start
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
