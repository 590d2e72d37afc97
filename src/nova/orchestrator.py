"""End-to-end run coordination: stage sequencing, durable state, and resume.

One directory per run:

    state.json      atomic snapshot of RunState (write-temp-then-rename)
    events.jsonl    append-only log: run_started, then one stage_completed per commit
    artifacts/      content-addressed typed envelopes {"kind", "data"}
    proposals/      rendered Markdown, one file per surviving idea
    report/         metric CSVs and the JSON summary
    cache/          gateway response cache (unless redirected): entries.jsonl,
                    and journal.jsonl between stage commits

Every file but `events.jsonl` and the cache journal is written whole through
`gateway.atomic_write` (mode 0o600). `artifacts/` is made by the first
artifact write and `cache/` by the first cached reply, so building a `Runner`
creates no directory but the run's own and touches no file of a shared cache.
Each stage commit first folds the cache journal into the entries file
(`Gateway.compact_cache`), so a committed run directory holds no journal.

An artifact's data is one `domain.Record` of the type its kind names in
`ARTIFACT_TYPES`, and `state.json` is a `RunState`: the `Record` codec is
their only description. The eight kinds are seed_paper, trend_report,
idea_pool, iteration_records, representatives, proposal_set (one per proposed
idea: the initial proposal, the method decomposition and the final
proposal), tournament_result and run_metrics; `RunState.proposals` maps each
proposed idea to its proposal_set.
`ArtifactStore.get` and `load_state` turn data that does not decode (a pool
with list-of-numbers embeddings, say), or that breaks an invariant of its
`Record` (an empty proposal section, say), into an `OrchestratorError` naming
the kind, the artifact digest or the file, and the field. `put` checks
nothing: a stored record is built from schema-checked replies or by code that
holds its invariants.

Stages commit atomically in order seeded -> iterated -> selected -> proposed
-> evaluated -> done; a crash between stages leaves a resumable checkpoint.
A `GatewayError` or `LiteratureError` out of a stage aborts the run with
`PipelineAborted`, naming the last committed stage, from which it resumes.
Nothing written under the run directory carries wall-clock time, so a resumed
run reproduces the artifact tree of an uninterrupted one byte for byte.

The `Runner` builds one `Gateway`, which holds the prompt set: the manifest
entry of each template names its model, the generator or the judge (the Swiss
tournament and the novelty check).

The LLM-bound stages (iterate, propose, evaluate) map their per-item work
through `Gateway.fan_out`, bounded by `GatewayOptions.parallelism`; work runs
inline until a call goes live. The evaluate stage runs two branches that share
no data as the two items of one `fan_out`: the novelty branch dedups each
generation's pool once and judges the novelty of every retained idea through
one fan-out (`tournament.unique_novel_counts`; without a corpus each count is
the pool's dedup count), and the Swiss branch plays the tournament round by
round. So the judge calls fill the send slots the tournament's round barriers
leave idle. Results are written at the join, in input order, so the artifact
tree does not depend on scheduling or parallelism.

A `Runner` keeps each idea pool it writes or reads, keyed by artifact digest,
so a fresh run never decodes a pool it wrote and a resumed run decodes each
pool at most once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from . import planner as planner_mod
from . import proposals as proposals_mod
from . import selector, tournament
from .domain import (
    DomainParseError, Idea, IdeaPool, IterationRecords, PipelineConfig, ProposalSet, Record,
    Representatives, RunMetrics, SeedPaper, TournamentResult, TrendReport,
)
from .gateway import Gateway, GatewayError, GatewayOptions, HttpChatBackend, atomic_write
from .ids import IdFactory
from .literature import (
    HashEmbedder,
    HttpEmbedder,
    HttpSearchClient,
    LiteratureError,
    OfflineCorpus,
    build_trend_report,
)
from .mockllm import MockBackend
from .seeding import SeedGenerator

logger = logging.getLogger(__name__)

STAGES = ("seeded", "iterated", "selected", "proposed", "evaluated", "done")


class OrchestratorError(Exception):
    pass


class InvalidPaperError(OrchestratorError):
    """A run-input paper that does not parse or validate; `violations` says why."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid input paper: " + "; ".join(violations))
        self.violations = violations


class PipelineAborted(OrchestratorError):
    """A stage aborted; the run directory holds a resumable checkpoint."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"aborted after stage {stage!r}: {reason}")
        self.stage = stage


@dataclass
class RunnerOptions:
    backend: str = "mock"  # "mock" | "live"
    mock_script: str | Path | None = None
    corpus_dir: str | Path | None = None
    cache_dir: str | Path | None = None  # default: <out>/cache
    llm_endpoint: str = "https://api.openai.com/v1/chat/completions"
    search_endpoint: str = ""
    embed_endpoint: str = ""
    embed_dim: int = 32
    gateway: GatewayOptions = field(default_factory=GatewayOptions)


_DIGEST = re.compile("[0-9a-f]{64}")


@dataclass(kw_only=True)
class RunState(Record):
    """The run's progress; each `*_ref` is an artifact digest, null until written."""

    run_id: str
    config: PipelineConfig
    stage_cursor: str
    backend: str
    seed_paper_ref: str
    trend_report_ref: str | None
    pools: dict[str, str] = field(default_factory=dict)
    iteration_records_ref: str | None
    representatives_ref: str | None
    proposals: dict[str, str] = field(default_factory=dict)  # idea id -> proposal_set digest
    failed_proposals: tuple[str, ...] = ()
    tournament_ref: str | None
    metrics_ref: str | None
    id_counter: int = 0
    event_seq: int = 0

    @classmethod
    def start(cls, run_id: str, config: PipelineConfig, backend: str) -> "RunState":
        """The state of a run before its first commit."""
        return cls(run_id=run_id, config=config, stage_cursor="seeded", backend=backend,
                   seed_paper_ref="0" * 64, trend_report_ref=None, iteration_records_ref=None,
                   representatives_ref=None, tournament_ref=None, metrics_ref=None)

    def validate(self) -> list[str]:
        out = []
        for name, allowed in (("stage_cursor", STAGES), ("backend", ("live", "mock"))):
            if getattr(self, name) not in allowed:
                out.append(f"RunState.{name}: {getattr(self, name)!r} not in {allowed}")
        refs = [v for k, v in vars(self).items() if k.endswith("_ref") and v is not None]
        refs += [*self.pools.values(), *self.proposals.values()]
        return out + [f"RunState: {r!r} is not a sha256 digest" for r in refs
                      if not _DIGEST.fullmatch(r)]


def load_state(out_dir: Path) -> RunState | None:
    """The run state persisted in `out_dir`, or None if no run started there."""
    path = out_dir / "state.json"
    if not path.is_file():
        return None
    try:
        return RunState.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except ValueError as exc:  # not JSON, or a DomainParseError
        raise OrchestratorError(f"run state {path}: {exc}") from exc


_ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2)


def _dump_bytes(payload: dict) -> bytes:
    """`json.dumps(payload, ensure_ascii=False, indent=2)` and a newline, as UTF-8.

    The chunks are streamed into one buffer: `json.dumps` with an indent first
    collects every chunk in a list, several times the size of the output, and
    that list for the largest idea pool was a run's peak memory.
    """
    buf = io.StringIO()
    buf.writelines(_ENCODER.iterencode(payload))
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


# The envelope kind of each stored type; built at import, read by every put and get.
ARTIFACT_TYPES: dict[str, type[Record]] = {
    "seed_paper": SeedPaper,
    "trend_report": TrendReport,
    "idea_pool": IdeaPool,
    "iteration_records": IterationRecords,
    "representatives": Representatives,
    "proposal_set": ProposalSet,
    "tournament_result": TournamentResult,
    "run_metrics": RunMetrics,
}
_KINDS = {cls: kind for kind, cls in ARTIFACT_TYPES.items()}
R = TypeVar("R", bound=Record)


class ArtifactStore:
    """Content-addressed `Record`s under <run>/artifacts, in {"kind", "data"} envelopes."""

    def __init__(self, run_dir: Path):
        self._dir = run_dir / "artifacts"

    def put(self, record: Record) -> str:
        payload = _dump_bytes({"kind": _KINDS[type(record)], "data": record.to_dict()})
        digest = hashlib.sha256(payload).hexdigest()
        path = self._dir / f"{digest}.json"
        if not path.exists():
            atomic_write(path, payload)
        return digest

    def get(self, digest: str, cls: type[R]) -> R:
        """Artifact `digest` decoded as `cls`; a missing, malformed, foreign or edited one raises.

        The file is read once. Its bytes are decoded first, so an edit that breaks an
        invariant is named by that invariant, and then hashed: an edit that keeps every
        invariant still fails the digest.
        """
        path = self._dir / f"{digest}.json"
        if not path.is_file():
            raise OrchestratorError(f"missing artifact {digest}")
        kind = _KINDS[cls]
        label = f"{kind.replace('_', ' ')} artifact {digest}"
        data = path.read_bytes()
        try:
            envelope = json.loads(data.decode("utf-8"))
            found = envelope.get("kind") if isinstance(envelope, dict) else None
            if found != kind:
                raise OrchestratorError(f"artifact {digest} has kind {found!r}, expected {kind!r}")
            record = cls.from_dict(envelope.get("data"))
        except ValueError as exc:  # not UTF-8 or not JSON, or a DomainParseError
            raise OrchestratorError(f"{label}: {exc}") from exc
        if hashlib.sha256(data).hexdigest() != digest:
            raise OrchestratorError(f"{label}: content does not match its digest")
        return record


class EventLog:
    """Append-only JSONL event log with a logical sequence counter."""

    def __init__(self, run_dir: Path):
        self._path = run_dir / "events.jsonl"

    def append(self, event: dict) -> None:
        line = json.dumps(event, ensure_ascii=False) + "\n"
        with open(self._path, "a", encoding="utf-8") as fh:
            fh.write(line)


def load_paper_input(source: dict | str | Path, id_factory: IdFactory) -> tuple[SeedPaper, list[SeedPaper]]:
    """Parse the run input: a bare paper object or {"paper", "trend_papers"}.

    Papers without an "id" get one from the factory, so the counter must be
    fresh when a new run starts. A file that is not JSON raises
    `OrchestratorError` naming it. Every paper that does not parse or
    validate, and every trend paper without engagement metrics
    (`source_meta`), adds its violations to one `InvalidPaperError`; each trend
    paper's violations start ``trend_papers[<n>]: ``.
    """
    if not isinstance(source, dict):
        try:
            source = json.loads(Path(source).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise OrchestratorError(f"paper file {source}: {exc}") from exc
    if isinstance(source, dict) and "paper" in source:
        paper_raw, trend_raw = source["paper"], source.get("trend_papers", [])
    else:
        paper_raw, trend_raw = source, []
    if not isinstance(trend_raw, list):
        raise InvalidPaperError([f"trend_papers: must be a list, got {type(trend_raw).__name__}"])
    problems: list[str] = []
    papers: list[SeedPaper] = []
    for n, raw in enumerate([paper_raw, *trend_raw]):
        try:
            papers.append(_parse_paper(raw, id_factory, f"trend_papers[{n - 1}]: " if n else ""))
        except InvalidPaperError as exc:
            problems += exc.violations
    if problems:
        raise InvalidPaperError(problems)
    return papers[0], papers[1:]


def _parse_paper(raw, id_factory: IdFactory, where: str) -> SeedPaper:
    """Decode one input paper; `where` is empty for the seed paper, else its trend prefix."""
    if not isinstance(raw, dict):
        kind = type(raw).__name__
        raise InvalidPaperError([f"{where}input paper must be a JSON object, got {kind}"])
    problems = []
    if where and not raw.get("source_meta"):
        problems.append(f"{where}SeedPaper.source_meta: must be nonempty")
    try:
        paper = SeedPaper.from_dict({"id": id_factory.new_id(), **raw})
    except DomainParseError as exc:
        problems += [where + problem for problem in exc.problems]
    if problems:
        raise InvalidPaperError(problems)
    return paper


class Runner:
    """Single writer of RunState; builds and wires all pipeline components."""

    def __init__(self, out_dir: str | Path, config: PipelineConfig, options: RunnerOptions):
        self.out_dir = Path(out_dir)
        self.config = config
        self.options = options
        self.state: RunState | None = load_state(self.out_dir)
        if self.state is not None:
            self.config = self.state.config
        # A malformed corpus or mock script fails here, before the run directory is created.
        self.embedder = self._make_embedder()
        self.corpus = self._make_corpus()
        backend = self._make_backend()

        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.store = ArtifactStore(self.out_dir)
        self._pools: dict[str, tuple[Idea, ...]] = {}  # artifact digest -> pool
        self.events = EventLog(self.out_dir)
        self.ids = IdFactory(
            seed=self.config.rng_seed,
            counter=self.state.id_counter if self.state else 0,
        )
        cache_dir = Path(options.cache_dir) if options.cache_dir else self.out_dir / "cache"
        self.gateway = Gateway(backend, cache_dir, options.gateway)
        self.seeder = SeedGenerator(self.gateway, self.ids, self.config)
        self.planner = planner_mod.PlannerLoop(
            self.gateway, self.corpus, self.embedder, self.ids, self.config
        )
        self.builder = proposals_mod.ProposalBuilder(self.gateway, self.planner)

    # -- component wiring ----------------------------------------------------

    def _make_backend(self):
        if self.options.backend == "mock":
            if self.options.mock_script is not None:
                return MockBackend.from_file(self.options.mock_script, seed=self.config.rng_seed)
            return MockBackend(seed=self.config.rng_seed)
        return HttpChatBackend(self.options.llm_endpoint)

    def _make_embedder(self):
        if self.options.backend == "mock" or not self.options.embed_endpoint:
            return HashEmbedder(dim=self.options.embed_dim, seed=self.config.rng_seed)
        return HttpEmbedder(self.options.embed_endpoint, self.options.embed_dim)

    def _make_corpus(self):
        if self.options.corpus_dir is not None:
            return OfflineCorpus(self.options.corpus_dir, self.embedder)
        if self.options.backend == "live" and self.options.search_endpoint:
            return HttpSearchClient(self.options.search_endpoint, self.embedder)
        return None

    # -- state plumbing --------------------------------------------------------

    def _write_state(self) -> None:
        atomic_write(self.out_dir / "state.json", _dump_bytes(self.state.to_dict()))

    def _commit(self, stage: str, delta: dict) -> None:
        self.gateway.compact_cache()
        for key, value in delta.items():
            setattr(self.state, key, value)
        self.state.stage_cursor = stage
        self.state.id_counter = self.ids.counter
        self.state.event_seq += 1
        self.events.append(
            {
                "seq": self.state.event_seq,
                "type": "stage_completed",
                "stage": stage,
                "delta": delta,
                "id_counter": self.state.id_counter,
            }
        )
        self._write_state()
        logger.info("stage %s committed", stage)

    # -- artifact helpers --------------------------------------------------------

    def _load_pool(self, generation: int) -> list[Idea]:
        digest = self.state.pools[str(generation)]
        if digest not in self._pools:
            self._pools[digest] = self.store.get(digest, IdeaPool).ideas
        return list(self._pools[digest])

    def _store_pool(self, generation: int, pool: list[Idea]) -> str:
        digest = self.store.put(IdeaPool(generation, tuple(pool)))
        self._pools[digest] = tuple(pool)
        return digest

    # -- stages ---------------------------------------------------------------

    def _stage_seed(self, paper_input) -> None:
        if paper_input is None:
            raise OrchestratorError("a paper input is required to start a run")
        paper, trend_papers = load_paper_input(paper_input, self.ids)
        run_id = "run-" + hashlib.sha256(
            json.dumps(
                {"paper": paper.id, "config": self.config.to_dict()}, sort_keys=True
            ).encode("utf-8")
        ).hexdigest()[:12]

        trend_report = None
        if trend_papers:
            trend_report = build_trend_report(trend_papers, self.gateway)
        pool = self.seeder.generate_pool(paper, trend_report, trend_papers)
        if not pool:
            raise OrchestratorError(
                "seeding produced no ideas: every source failed or was cut to nothing"
            )
        pool = self.planner._embed_new(pool)
        self.state = RunState.start(run_id, self.config, self.options.backend)
        delta = {
            "seed_paper_ref": self.store.put(paper),
            "trend_report_ref": self.store.put(TrendReport(trend_report)) if trend_report else None,
            "pools": {"0": self._store_pool(0, pool)},
        }
        # Logged only now, so an attempt that fails or aborts while seeding
        # leaves no start event behind.
        self.events.append(
            {
                "seq": 0,
                "type": "run_started",
                "run_id": run_id,
                "backend": self.options.backend,
                "config": self.config.to_dict(),
            }
        )
        self._commit("seeded", delta)

    def _stage_iterate(self) -> None:
        paper = self.store.get(self.state.seed_paper_ref, SeedPaper)
        pool = self._load_pool(0)
        pools = dict(self.state.pools)
        records = []
        # Per-generation snapshots are retained (not just the final pool) so
        # the per-step unique-novel curve can be computed later.
        for step in range(1, self.config.iterations_T + 1):
            pool, record = self.planner.run_generation(paper, pool, step)
            records.append(record)
            pools[str(step)] = self._store_pool(step, pool)
        records_ref = self.store.put(IterationRecords(tuple(records)))
        self._commit("iterated", {"pools": pools, "iteration_records_ref": records_ref})

    def _stage_select(self) -> None:
        pool = self._load_pool(self.config.iterations_T)
        k = min(self.config.cluster_count, len(pool))
        assignment = selector.cluster_pool(pool, k, self.config.rng_seed)
        chosen = Representatives(assignment.representative_ids, dict(assignment.assignments))
        self._commit("selected", {"representatives_ref": self.store.put(chosen)})

    def _stage_propose(self) -> None:
        paper = self.store.get(self.state.seed_paper_ref, SeedPaper)
        pool = {i.id: i for i in self._load_pool(self.config.iterations_T)}
        ids = self.store.get(self.state.representatives_ref, Representatives).idea_ids
        representatives = [pool[idea_id] for idea_id in ids]
        proposal_refs: dict[str, str] = {}
        failed: list[str] = []
        proposals_dir = self.out_dir / "proposals"
        proposals_dir.mkdir(exist_ok=True)

        def build(idea: Idea):
            try:
                return self.builder.build_all(paper, idea)
            except proposals_mod.ProposalFailure as exc:
                return exc

        outcomes = self.gateway.fan_out(representatives, build)
        for idea, outcome in zip(representatives, outcomes):
            if isinstance(outcome, proposals_mod.ProposalFailure):
                logger.warning("proposal failed, skipping idea downstream: %s", outcome)
                failed.append(idea.id)
                continue
            proposal_refs[idea.id] = self.store.put(outcome)
            markdown = proposals_mod.render_markdown(idea, outcome.initial, outcome.final)
            atomic_write(proposals_dir / f"{idea.id}.md", markdown.encode("utf-8"))
        self._commit("proposed", {"proposals": proposal_refs, "failed_proposals": tuple(failed)})

    def _stage_evaluate(self) -> None:
        proposals = self.state.proposals
        finals = [self.store.get(proposals[i], ProposalSet).final for i in sorted(proposals)]
        pools = {g: self._load_pool(int(g)) for g in sorted(self.state.pools, key=int)}

        def novelty():
            retained = {
                g: tournament.retained_ideas(pool, self.config.dup_sim_threshold)
                for g, pool in pools.items()
            }
            return retained, tournament.unique_novel_counts(
                retained, self.corpus, self.config, self.gateway
            )

        def swiss():
            if len(finals) < 2:
                logger.warning("fewer than 2 final proposals; skipping tournament")
                return None
            ranker = tournament.make_llm_ranker(self.gateway)
            return tournament.swiss_tournament(
                finals, self.config.tournament_rounds, ranker, self.config.rng_seed,
                fan_out=self.gateway.fan_out,
            )

        # Novelty goes first, so its prefilter (`OfflineCorpus.max_similarity`,
        # a BLAS product) runs on this thread: OpenBLAS allocates a buffer for
        # each new thread that calls it, which on a 2,000-doc corpus raised
        # the run's peak RSS by a quarter when the prefilter ran on a second
        # thread.
        (retained, unique_novel), result = self.gateway.fan_out(
            (novelty, swiss), lambda branch: branch()
        )
        tournament_ref = None
        histogram: dict[str, int] = {}
        if result is not None:
            tournament_ref = self.store.put(result)
            histogram = {
                str(score): count
                for score, count in tournament.score_histogram(
                    result, self.config.tournament_rounds
                ).items()
            }
        final = str(self.config.iterations_T)
        metrics = RunMetrics(
            unique_novel_per_generation=unique_novel,
            non_duplicate_fraction=len(retained[final]) / len(pools[final]),
            retained_count=len(retained[final]),
            score_histogram=histogram,
        )
        self._commit(
            "evaluated", {"tournament_ref": tournament_ref, "metrics_ref": self.store.put(metrics)}
        )

    def _stage_done(self) -> None:
        pool_sizes = {g: len(self._load_pool(int(g))) for g in self.state.pools}
        write_report(self.out_dir, self.state, self.store, pool_sizes)
        self._commit("done", {})

    # -- driving -----------------------------------------------------------------

    def advance_to(self, target: str, paper_input=None) -> RunState:
        """Run stages in order until the cursor reaches `target`.

        A `GatewayError` out of a stage, which by the gateway's failure rule is
        an availability failure, or a `LiteratureError` (a failed search or
        embedding call) raises `PipelineAborted` naming the last committed
        stage; the run resumes from there.
        """
        if target not in STAGES:
            raise OrchestratorError(f"unknown stage {target!r}")
        runners = {
            "seeded": lambda: self._stage_seed(paper_input),
            "iterated": self._stage_iterate,
            "selected": self._stage_select,
            "proposed": self._stage_propose,
            "evaluated": self._stage_evaluate,
            "done": self._stage_done,
        }
        start = STAGES.index(self.state.stage_cursor) + 1 if self.state else 0
        for stage in STAGES[start : STAGES.index(target) + 1]:
            committed = self.state.stage_cursor if self.state else "(fresh)"
            try:
                runners[stage]()
            except (GatewayError, LiteratureError) as exc:
                raise PipelineAborted(committed, str(exc)) from exc
        return self.state

    def run(self, paper_input=None) -> RunState:
        """Execute (or resume) the full pipeline to the terminal state."""
        return self.advance_to("done", paper_input=paper_input)


def write_report(out_dir: Path, state: RunState, store: ArtifactStore,
                 pool_sizes: dict[str, int]) -> dict:
    """Emit metric CSVs and the JSON summary; flags gaps for missing stages.

    `pool_sizes` maps each generation in `state.pools` to its idea count.
    """
    report_dir = out_dir / "report"
    gaps: list[str] = []
    summary: dict = {
        "run_id": state.run_id,
        "stage_cursor": state.stage_cursor,
        "pool_sizes": {},
        "gaps": gaps,
    }
    for generation in sorted(state.pools, key=int):
        summary["pool_sizes"][generation] = pool_sizes[generation]
    if state.representatives_ref:
        representatives = store.get(state.representatives_ref, Representatives)
        summary["representative_count"] = len(representatives.idea_ids)
    else:
        gaps.append("representatives: run not selected yet")
    if state.proposals:
        summary["proposal_count"] = len(state.proposals)
        summary["failed_proposal_count"] = len(state.failed_proposals)
    elif STAGES.index(state.stage_cursor) < STAGES.index("proposed"):
        gaps.append("proposals: run not proposed yet")
    if state.metrics_ref:
        metrics = store.get(state.metrics_ref, RunMetrics)
        summary["metrics"] = metrics.to_dict()
        _write_csv(
            report_dir / "unique_novel.csv",
            ["generation", "unique_novel"],
            sorted(((int(g), n) for g, n in metrics.unique_novel_per_generation.items())),
        )
        if metrics.score_histogram:
            _write_csv(
                report_dir / "score_histogram.csv",
                ["score", "count"],
                sorted(((int(s), c) for s, c in metrics.score_histogram.items())),
            )
        else:
            gaps.append("score_histogram: tournament was skipped")
    else:
        gaps.append("metrics: run not evaluated yet")
    atomic_write(report_dir / "summary.json", _dump_bytes(summary))
    return summary


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue().encode("utf-8"))


def metrics_report(out_dir: str | Path) -> dict:
    """Regenerate the report for an existing run directory."""
    out_dir = Path(out_dir)
    state = load_state(out_dir)
    if state is None:
        raise OrchestratorError(f"no run state at {out_dir / 'state.json'}")
    store = ArtifactStore(out_dir)
    pool_sizes = {g: len(store.get(digest, IdeaPool).ideas) for g, digest in state.pools.items()}
    return write_report(out_dir, state, store, pool_sizes)
