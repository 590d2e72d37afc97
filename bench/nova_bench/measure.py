"""One benchmark invocation: inputs, set-up samples, timed runs, checks, metrics."""

from __future__ import annotations

import gc
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from .inputs import write_inputs
from .layers import Tracing, layer_metrics
from .spans import Patches
from .workloads import OpCounter, RunResult, Workload, make_runner, timed_run

MIN_RUNS = 2  # two runs per invocation, so the tree digest is compared every time
# Set-up samples taken before each timed run.
MIN_SETUP_SAMPLES = 2
MAX_SETUP_SAMPLES = 20
SETUP_BUDGET_S = 0.2


@dataclass
class Measurement:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    runs: list[dict] = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)


def _setup_samples(workload: Workload, seed: int, work: Path, corpus: Path,
                   cache_dir: Path | None) -> list[float]:
    """Wall times of `Runner` construction, repeated until a small budget is spent.

    Called before every timed run, so the samples spread over the invocation.
    """
    samples: list[float] = []
    while len(samples) < MIN_SETUP_SAMPLES or sum(samples) < SETUP_BUDGET_S:
        run_dir = Path(tempfile.mkdtemp(dir=work, prefix="setup"))
        gc.collect()
        started = time.perf_counter()
        make_runner(workload, seed, run_dir, corpus, cache_dir)
        samples.append(time.perf_counter() - started)
        if len(samples) >= MAX_SETUP_SAMPLES:
            break
    return samples


def _one_run(workload: Workload, seed: int, work: Path, paper: Path, corpus: Path,
             cache_dir: Path | None, tracing: Tracing | None = None
             ) -> tuple[RunResult, float]:
    """One run from a fresh run directory; returns it with its `Runner` set-up time.

    Run directories are deleted with the rest of `work` after the last run, so
    no file deletion competes with a timed run.
    """
    run_dir = Path(tempfile.mkdtemp(dir=work, prefix="run"))
    gc.collect()
    with tracing or nullcontext():
        started = time.perf_counter()
        runner = make_runner(workload, seed, run_dir, corpus, cache_dir)
        setup_s = time.perf_counter() - started
        result = timed_run(runner, paper, tracing)
        if tracing is not None:
            result.layers = layer_metrics(tracing.recorder, result.stats, run_dir)
    return result, setup_s


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
            spans_stem: Path) -> Measurement:
    """Measure `workload` for at most about `seconds`, and at least `MIN_RUNS` runs.

    With `trace`, untraced and traced runs alternate and the metrics are the
    per-layer ones.
    """
    embed_dim = workload.embed_dim if workload.stored_embeddings else None
    paper, corpus = write_inputs(work / "inputs", seed, workload.doc_count, embed_dim)
    problems: list[str] = []
    with Patches() as patches:
        ops = OpCounter(patches)
        cache_dir = fill = None
        if workload.replay:
            cold = replace(workload, latency_median_s=0.0, fault_rate=0.0)
            cache_dir = work / "fill" / "cache"
            fill = timed_run(make_runner(cold, seed, work / "fill", corpus), paper)
            problems += [f"cold fill: {p}" for p in fill.problems]
        # Warm imports and the page cache before anything is timed.
        make_runner(workload, seed, work / "warm", corpus, cache_dir)
        setup: list[float] = []
        ops.attempted = ops.failed = 0

        plain: list[RunResult] = []
        traced: list[RunResult] = []
        recorders = []
        # Start no run that would end past the deadline, judging by the last run.
        deadline = time.perf_counter() + seconds
        last_s = 0.0
        while len(plain) + len(traced) < MIN_RUNS or time.perf_counter() + last_s < deadline:
            started = time.perf_counter()
            if trace and len(traced) < len(plain):
                tracing = Tracing()
                result, _ = _one_run(workload, seed, work, paper, corpus, cache_dir, tracing)
                traced.append(result)
                recorders.append(tracing.recorder)
            else:
                if not trace:
                    setup += _setup_samples(workload, seed, work, corpus, cache_dir)
                result, setup_s = _one_run(workload, seed, work, paper, corpus, cache_dir)
                plain.append(result)
                setup.append(setup_s)
            last_s = time.perf_counter() - started

    runs = plain + traced
    for result in runs:
        problems += result.problems
    digests = {r.digest for r in runs}
    if len(digests) != 1:
        problems.append(f"artifact tree differs between runs: {sorted(digests)}")
    live = {r.stats["live_calls"] for r in runs}
    if len(live) != 1:
        problems.append(f"live call count differs between runs: {sorted(live)}")
    if fill is not None:
        if digests != {fill.digest}:
            problems.append("replayed artifact tree differs from the cold fill's")
        if live != {0}:
            problems.append(f"replay made live calls: {sorted(live)}")

    if trace:
        for result in traced:
            templated = sum(v for k, v in result.layers.items() if k.startswith("gateway.calls."))
            if templated != result.stats["live_calls"]:
                problems.append(
                    f"{templated} live calls attributed to templates, of {result.stats['live_calls']}"
                )
        # median_low keeps every per-layer value one that a traced run measured.
        metrics = {
            name: statistics.median_low(r.layers[name] for r in traced)
            for name in traced[0].layers
        }
        metrics["trace.overhead_share"] = (
            statistics.median(r.run_s for r in traced)
            / statistics.median(r.run_s for r in plain) - 1
        )
        for i, recorder in enumerate(recorders):
            recorder.write(spans_stem.with_name(f"{spans_stem.name}.run{i}.spans.jsonl"))
    else:
        metrics = {
            "run_s": statistics.median(r.run_s for r in plain),
            "setup_s": statistics.median(setup),
            "llm_calls": fill.stats["live_calls"] if fill else plain[0].stats["live_calls"],
            "ok_ops_share": (ops.attempted - ops.failed) / ops.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return Measurement(
        metrics=metrics,
        attempted=ops.attempted,
        failed=ops.failed,
        problems=problems,
        runs=[
            {"traced": is_traced, "run_s": r.run_s, "digest": r.digest, "stats": r.stats}
            for is_traced, group in ((False, plain), (True, traced))
            for r in group
        ],
        setup_samples=setup,
    )
