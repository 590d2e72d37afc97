#!/usr/bin/env python3
"""Benchmark a Nova run on one workload, or on every workload in turn.

    python3 bench/run.py --workload llm_latency --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout: it imports Nova from `src/`. With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer ones from a traced run. The last line of standard
output is one JSON object; the exit code is 1 if a correctness check failed.
Scratch files go under `.bench_work/`, result and span files under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "platform": platform.platform(),
    }


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))


def run_one(args, spec: dict) -> int:
    from nova_bench.measure import measure
    from nova_bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        m = measure(workload, args.seed, args.seconds, bool(args.trace), work, out / stem)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in m.metrics]
    if missing:
        m.problems.append(f"metrics not measured: {missing}")
    metrics = {
        w["name"]: {"value": m.metrics[w["name"]], "unit": w["unit"]}
        for w in wanted if w["name"] in m.metrics
    }
    (out / f"{stem}.json").write_text(json.dumps({
        "machine": machine_info(), "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "problems": m.problems,
        "attempted": m.attempted, "failed": m.failed, "metrics": metrics,
        "setup_samples": m.setup_samples, "runs": m.runs,
    }, indent=2) + "\n", encoding="utf-8")

    for problem in m.problems:
        print(f"CHECK FAILED [{workload.name}]: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    _print_result(not m.problems, m.attempted, m.failed, metrics)
    return 0 if not m.problems else 1


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, one after another (peak RSS is per process)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    _print_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nova" / "__init__.py").is_file():
        print(f"error: no src/nova under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Nova logs each retry and fallback; the counters carry them, so keep stderr quiet.
    logging.getLogger("nova").addHandler(logging.NullHandler())
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or 'all'")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
