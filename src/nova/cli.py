"""Command-line surface over the orchestrator.

Subcommands map 1:1 to pipeline stages so partial pipelines are scriptable:

    nova run      --paper p.json --out d/ --backend mock --mock-script s.json
    nova seed     --paper p.json --out d/ ...      (first stage only)
    nova iterate  --out d/                         (next stage, and so on)
    nova report   --out d/                         (metrics for whatever exists)
    nova validate --paper p.json                   (parse + invariant check)

Only `run` and `seed` take the config flags (`--config`, `--seed`, `--set`):
a run's config is fixed when it starts, and `iterate`, `select`, `propose`
and `evaluate` resume with the config stored in its `state.json`. A `run` or
`seed` on a directory that holds a run resumes it too: every field its flags
set (`--seed` sets `rng_seed`) must equal the stored one, or the command exits
2, naming each field that differs, and leaves the run as it was.

Exit codes: 0 success, 1 usage error (a malformed `--config` file included),
2 pipeline abort, failed validation, a config that differs from the run's
stored one, or a malformed paper, corpus doc or mock script. Errors go to
stderr with the machine-parsable prefix "nova-error:", naming the file an input
error comes from.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .domain import DomainParseError, PipelineConfig
from .gateway import GatewayError
from .ids import IdFactory
from .literature import LiteratureError
from .orchestrator import (
    InvalidPaperError,
    OrchestratorError,
    PipelineAborted,
    Runner,
    RunnerOptions,
    load_paper_input,
    load_state,
    metrics_report,
)

ERROR_PREFIX = "nova-error:"

_STAGE_COMMANDS = {
    "seed": "seeded",
    "iterate": "iterated",
    "select": "selected",
    "propose": "proposed",
    "evaluate": "evaluated",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract is 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="nova", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"nova {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p, starts_run: bool):
        if starts_run:
            p.add_argument("--paper", required=True, help="input paper JSON file")
            p.add_argument("--config", help="config JSON file mirroring the pipeline config")
            p.add_argument("--seed", type=int, help="override rng_seed")
            p.add_argument(
                "--set",
                action="append",
                default=[],
                metavar="KEY=VALUE",
                help="config override, repeatable (e.g. --set iterations_T=2)",
            )
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--backend", choices=["live", "mock"], default="mock")
        p.add_argument("--mock-script", help="mock backend script (required with --backend mock)")
        p.add_argument("--corpus", help="offline retrieval corpus directory")

    for command in ("run", "seed"):
        add_run_flags(sub.add_parser(command), starts_run=True)
    for command in ("iterate", "select", "propose", "evaluate"):
        add_run_flags(sub.add_parser(command), starts_run=False)

    sub.add_parser("report").add_argument("--out", required=True, help="run directory")

    validate = sub.add_parser("validate")
    validate.add_argument("--paper", required=True, help="paper JSON file to validate")
    return parser


def _parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
    key, raw = item.split("=", 1)
    types = get_type_hints(PipelineConfig)
    if key not in types:
        raise UsageError(f"unknown config key {key!r}")
    caster = types[key]
    try:
        return key, caster(raw)
    except ValueError:
        raise UsageError(f"--set {key}: cannot parse {raw!r} as {caster.__name__}") from None


def load_config(args) -> tuple[PipelineConfig, set[str]]:
    """The run config the flags ask for, and the fields they set explicitly."""
    data: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise UsageError(f"config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        data.update(loaded)
    for item in getattr(args, "set", []):
        key, value = _parse_override(item)
        data[key] = value
    if getattr(args, "seed", None) is not None:
        data["rng_seed"] = args.seed
    try:
        return PipelineConfig.from_dict(data), set(data)
    except DomainParseError as exc:
        raise UsageError(f"invalid config: {exc}") from exc


def check_resumed_config(out: Path, config: PipelineConfig, asked: set[str]) -> None:
    """Refuse fields in `asked` whose value in `config` differs from the run's in `out`."""
    state = load_state(out)
    stored = config if state is None else state.config
    differ = [f"{key} is {getattr(stored, key)!r}, asked {getattr(config, key)!r}"
              for key in sorted(asked) if getattr(config, key) != getattr(stored, key)]
    if differ:
        raise OrchestratorError(f"run directory {out} holds a run with another config "
                                f"(a run's config is fixed when it starts): {'; '.join(differ)}")


def build_options(args) -> RunnerOptions:
    if args.backend == "mock" and not args.mock_script:
        raise UsageError("--backend mock requires --mock-script")
    if args.mock_script and not Path(args.mock_script).is_file():
        raise UsageError(f"mock script {args.mock_script} does not exist")
    if args.corpus and not Path(args.corpus).is_dir():
        raise UsageError(f"corpus directory {args.corpus} does not exist")
    return RunnerOptions(
        backend=args.backend,
        mock_script=args.mock_script,
        corpus_dir=args.corpus,
    )


def _run_command(args, target_stage: str) -> int:
    config, asked = load_config(args)
    options = build_options(args)
    paper_input = getattr(args, "paper", None)
    if paper_input is not None and not Path(paper_input).is_file():
        raise UsageError(f"paper file {paper_input} does not exist")
    if asked:
        check_resumed_config(Path(args.out), config, asked)
    runner = Runner(args.out, config, options)
    try:
        state = runner.advance_to(target_stage, paper_input=paper_input)
    except PipelineAborted as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        cursor = runner.state.stage_cursor if runner.state else "(none)"
        print(f"run directory: {args.out}\nstage reached: {cursor}")
        return 2
    print(f"run directory: {args.out}\nstage reached: {state.stage_cursor}")
    return 0


def _validate_command(args) -> int:
    path = Path(args.paper)
    if not path.is_file():
        raise UsageError(f"paper file {path} does not exist")
    # The same parse and checks as `nova run`, trend papers included.
    try:
        load_paper_input(path, IdFactory(seed=0))
        violations = []
    except InvalidPaperError as exc:
        violations = exc.violations
    print(json.dumps({"violations": violations}, ensure_ascii=False, indent=2))
    return 0 if not violations else 2


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "validate":
            return _validate_command(args)
        if args.command == "report":  # summarizes whatever exists; never advances the run
            print(json.dumps(metrics_report(args.out), ensure_ascii=False, indent=2))
            return 0
        if args.command == "run":
            return _run_command(args, "done")
        return _run_command(args, _STAGE_COMMANDS[args.command])
    except UsageError as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except (OrchestratorError, GatewayError, LiteratureError, OSError) as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
