"""The three workloads, and one timed Nova run with its correctness checks.

Every run is a closed loop: one caller, one run at a time, default
`PipelineConfig`, and the default gateway parallelism of 8.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from nova import gateway
from nova.domain import PipelineConfig
from nova.gateway import GatewayOptions
from nova.mockllm import MockBackend
from nova.orchestrator import STAGES, Runner, RunnerOptions

from .latency import LatencyBackend

EXPECTED_POOL_SIZES = {"0": 15, "1": 45, "2": 135, "3": 405}
EXPECTED_REPRESENTATIVES = 100
TREE_DIRS = ("artifacts", "proposals", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    doc_count: int
    embed_dim: int
    stored_embeddings: bool
    latency_median_s: float = 0.0
    latency_sigma: float = 0.0
    fault_rate: float = 0.0
    replay: bool = False  # time replays against a cache filled by an untimed cold run

    def backend(self, seed: int, config_seed: int) -> LatencyBackend:
        return LatencyBackend(MockBackend(seed=config_seed), seed, self.latency_median_s,
                              self.latency_sigma, self.fault_rate)

    def gateway_options(self) -> GatewayOptions:
        # Backoff scaled to the injected latency, as a rate-limited API would ask.
        base = 2 * self.latency_median_s
        return GatewayOptions(parallelism=8, backoff_base=base, backoff_cap=32 * base)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "llm_latency",
            doc_count=20, embed_dim=32, stored_embeddings=False,
            latency_median_s=0.010, latency_sigma=0.6, fault_rate=0.02,
        ),
        Workload(
            "corpus_2k",
            doc_count=2000, embed_dim=384, stored_embeddings=True,
        ),
        Workload(
            "cache_replay",
            doc_count=20, embed_dim=32, stored_embeddings=False,
            latency_median_s=0.010, latency_sigma=0.6, fault_rate=0.02, replay=True,
        ),
    )
}


class BenchRunner(Runner):
    """`Runner` whose chat backend is a `LatencyBackend` built by the benchmark."""

    def __init__(self, out_dir, config, options, make_backend):
        self._bench_backend = make_backend
        super().__init__(out_dir, config, options)

    def _make_backend(self):
        return self._bench_backend(self.config.rng_seed)


class OpCounter:
    """Counts outermost `Gateway.complete`/`complete_json` calls and those that raised."""

    def __init__(self, patches):
        self.attempted = 0
        self.failed = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        for attr in ("complete", "complete_json"):
            patches.wrap(gateway.Gateway, attr, self._wrap)

    def _wrap(self, original):
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, "depth", 0)
            self._local.depth = depth + 1
            try:
                return original(*args, **kwargs)
            except BaseException:
                if depth == 0:
                    with self._lock:
                        self.failed += 1
                raise
            finally:
                self._local.depth = depth
                if depth == 0:
                    with self._lock:
                        self.attempted += 1

        return wrapper


@dataclass
class RunResult:
    run_s: float
    stats: dict
    digest: str
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)


def make_runner(workload: Workload, seed: int, run_dir: Path, corpus: Path,
                cache_dir: Path | None = None) -> BenchRunner:
    options = RunnerOptions(
        backend="mock", corpus_dir=corpus, cache_dir=cache_dir,
        embed_dim=workload.embed_dim, gateway=workload.gateway_options(),
    )
    return BenchRunner(run_dir, PipelineConfig(), options,
                       lambda config_seed: workload.backend(seed, config_seed))


def tree_digest(run_dir: Path) -> str:
    """sha256 over the relative path and bytes of every file in the artifact tree."""
    h = hashlib.sha256()
    for sub in TREE_DIRS:
        for path in sorted((run_dir / sub).rglob("*")):
            if path.is_file():
                h.update(path.relative_to(run_dir).as_posix().encode("utf-8") + b"\0")
                h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_summary(run_dir: Path, cursor: str) -> list[str]:
    """Problems with a finished run's shape; empty when it is correct."""
    problems = []
    if cursor != "done":
        problems.append(f"run stopped at {cursor!r}, not 'done'")
    summary = json.loads((run_dir / "report" / "summary.json").read_text(encoding="utf-8"))
    if summary["pool_sizes"] != EXPECTED_POOL_SIZES:
        problems.append(f"pool sizes {summary['pool_sizes']}, want {EXPECTED_POOL_SIZES}")
    if summary.get("representative_count") != EXPECTED_REPRESENTATIVES:
        problems.append(f"{summary.get('representative_count')} representatives")
    built = summary.get("proposal_count", 0) + summary.get("failed_proposal_count", 0)
    if built != EXPECTED_REPRESENTATIVES:
        problems.append(f"{built} proposals plus failed proposals")
    return problems


def timed_run(runner: Runner, paper: Path, tracing=None) -> RunResult:
    """Run to `done`: in one `advance_to` call, or stage by stage under `tracing`."""
    started = time.perf_counter()
    if tracing is None:
        state = runner.advance_to("done", paper_input=str(paper))
    else:
        for stage in STAGES:
            with tracing.recorder.stage(stage):
                state = runner.advance_to(stage, paper_input=str(paper))
    run_s = time.perf_counter() - started
    return RunResult(
        run_s=run_s,
        stats=runner.gateway.stats.snapshot(),
        digest=tree_digest(runner.out_dir),
        problems=check_summary(runner.out_dir, state.stage_cursor),
    )
