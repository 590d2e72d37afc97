"""Swiss-system pairwise quality ranking and the LLM-judged novelty metric.

Pairing policy: round 1 is uniform-random under the seed; later rounds sort
by (score desc, id asc) and pair adjacent entries with a greedy scan-forward
rematch avoidance, falling back to a rematch when forced. With an odd field,
the lowest-sorted idea without a prior bye sits out for 1 point. Each match
presents the pair to the judge in seed-randomized order.

A match fails in one way: the ranker returns anything but "A" or "B" (the LLM
ranker's `Gateway.ask` fallback is None), and the match is decided by a
seeded coin flip. Any exception from the ranker propagates.

The matches of one round depend only on earlier rounds, so a round is paired
first and its matches are judged through one fan-out. The presentation swap
flags are drawn in match order before dispatch, and the coin flips for failed
matches in match order after the join, so the random stream, and with it the
result, does not depend on how the matches were scheduled. With no failed
match the stream is the swap flags alone, as when matches ran one by one.

Novelty is counted per generation pool, on the ideas its dedup retains
(`retained_ideas`): a similarity prefilter against the literature, then an
LLM judge of every doc above the threshold (`novelty_judge`, the only code
that decides a verdict). `unique_novel_counts` scores every pool of a run in
one pass: one batched prefilter over all retained ideas clears those no doc
comes close to, and the rest go through one fan-out of `novelty_judge`.
Without a corpus no doc can be a candidate, so every retained idea is novel.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .domain import Bye, Idea, Match, PipelineConfig, Proposal, RetrievedDoc, TournamentResult
from .gateway import Gateway
from .literature import ROUNDING_MARGIN, cosine
from .selector import non_duplicate_fraction

logger = logging.getLogger(__name__)


# A ranker judges the pair as presented and returns "A" or "B"; any other
# return value, such as None for a reply without a valid verdict, makes the
# match a coin flip.
RankerFn = Callable[[Proposal, Proposal], str | None]

# An ordered map, such as `Gateway.fan_out`: [fn(item) for item in items].
FanOut = Callable[[Iterable, Callable], list]


def in_order(items: Iterable, fn: Callable) -> list:
    """The sequential `FanOut`."""
    return [fn(item) for item in items]


@dataclass(frozen=True)
class NoveltyEvidence:
    doc: RetrievedDoc
    similarity: float
    verdict: str  # "similar" | "different" | "not_candidate"


@dataclass(frozen=True)
class NoveltyResult:
    novel: bool
    evidence: tuple[NoveltyEvidence, ...]
    judge_calls: int


def proposal_text(proposal: Proposal) -> str:
    return "\n".join(f"{name}: {body}" for name, body in proposal.sections.items())


def make_llm_ranker(gateway: Gateway) -> RankerFn:
    """Zero-shot pairwise judge over the gateway.

    Returns None when no valid verdict arrives; any other gateway error
    propagates.
    """

    def ranker(a: Proposal, b: Proposal) -> str | None:
        bindings = {"proposal_a": proposal_text(a), "proposal_b": proposal_text(b)}
        return gateway.ask("pairwise_rank", bindings, fallback=None)

    return ranker


def swiss_tournament(
    proposals: list[Proposal],
    rounds: int,
    ranker: RankerFn,
    seed: int,
    fan_out: FanOut = in_order,
) -> TournamentResult:
    """Run a Swiss tournament; 1 point per win, 1 point per bye.

    Args:
        proposals: at least two proposals, identified by idea_id.
        rounds: number of rounds; every idea plays (or sits out) each round.
        ranker: pairwise judge for the presented order; a verdict other than
            "A" or "B" is replaced by a seeded coin flip.
        seed: drives round-1 pairing, presentation order, and failure coin-flips.
        fan_out: ordered map the matches of one round are judged through.

    Returns:
        TournamentResult with scores for every participant, the match list,
        and the bye list.
    """
    if len(proposals) < 2:
        raise ValueError("swiss_tournament requires at least 2 proposals")
    by_id = {p.idea_id: p for p in proposals}
    if len(by_id) != len(proposals):
        raise ValueError("proposal idea_ids must be unique")
    ids = sorted(by_id)
    rng = random.Random(seed)

    scores = {idea_id: 0 for idea_id in ids}
    opponents: dict[str, set[str]] = {idea_id: set() for idea_id in ids}
    had_bye: set[str] = set()
    matches: list[Match] = []
    byes: list[Bye] = []

    for rnd in range(1, rounds + 1):
        if rnd == 1:
            order = list(ids)
            rng.shuffle(order)
        else:
            order = sorted(ids, key=lambda i: (-scores[i], i))

        if len(order) % 2 == 1:
            bye_id = next(
                (cand for cand in reversed(order) if cand not in had_bye), order[-1]
            )
            if bye_id in had_bye:
                logger.warning("round %d: every idea already had a bye; repeating", rnd)
            had_bye.add(bye_id)
            order.remove(bye_id)
            scores[bye_id] += 1
            byes.append(Bye(round=rnd, idea_id=bye_id))

        pairs: list[tuple[str, str]] = []
        used: set[str] = set()
        for pos, a in enumerate(order):
            if a in used:
                continue
            opp = next(
                (b for b in order[pos + 1 :] if b not in used and b not in opponents[a]),
                None,
            )
            if opp is None:  # forced rematch: nearest unpaired neighbor
                opp = next((b for b in order[pos + 1 :] if b not in used), None)
            if opp is None:
                break
            used.add(a)
            used.add(opp)
            pairs.append((a, opp))

        presented = [(opp, a) if rng.random() < 0.5 else (a, opp) for a, opp in pairs]
        verdicts = fan_out(presented, lambda pair: ranker(by_id[pair[0]], by_id[pair[1]]))
        for (a, opp), (first, second), verdict in zip(pairs, presented, verdicts):
            if verdict not in ("A", "B"):
                logger.warning(
                    "round %d: ranker returned %r for (%s, %s), coin-flipping",
                    rnd, verdict, a, opp,
                )
                verdict = rng.choice(["A", "B"])
            winner = first if verdict == "A" else second
            scores[winner] += 1
            opponents[a].add(opp)
            opponents[opp].add(a)
            matches.append(Match(round=rnd, a=a, b=opp, winner=winner))

    return TournamentResult(scores=scores, matches=tuple(matches), byes=tuple(byes))


def score_histogram(result: TournamentResult, rounds: int) -> dict[int, int]:
    """Count of ideas at each score from 0 to `rounds`."""
    hist = {s: 0 for s in range(rounds + 1)}
    for score in result.scores.values():
        hist[score] = hist.get(score, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# Novelty
# ---------------------------------------------------------------------------


def _top_docs(idea: Idea, corpus, k: int) -> list[RetrievedDoc]:
    if hasattr(corpus, "nearest"):
        return corpus.nearest(idea.embedding, k)
    from .literature import SearchQuery

    return corpus.search(SearchQuery(text=idea.idea, limit=k))


def novelty_judge(
    idea: Idea, corpus, config: PipelineConfig, gateway: Gateway
) -> NoveltyResult:
    """Two-stage novelty check: similarity prefilter, then per-candidate judge.

    Retrieves the novelty_topk most similar docs; docs with cosine strictly
    above novelty_sim_threshold become candidates. The cosine is computed
    here, on the idea's embedding as an array (converted once per call) and
    the doc's read-only array. Each candidate is judged individually and the
    idea is novel iff none is judged similar. A judge reply with no valid
    verdict counts the candidate as similar; any other gateway error
    propagates.
    """
    docs = _top_docs(idea, corpus, config.novelty_topk)
    qvec = np.asarray(idea.embedding, dtype=np.float64)
    evidence: list[NoveltyEvidence] = []
    judge_calls = 0
    for doc in docs:
        sim = cosine(qvec, doc.embedding)
        if sim <= config.novelty_sim_threshold:
            evidence.append(NoveltyEvidence(doc=doc, similarity=sim, verdict="not_candidate"))
            continue
        bindings = {
            "idea_text": idea.idea, "paper_title": doc.title, "paper_abstract": doc.abstract
        }
        judge_calls += 1
        verdict = gateway.ask("novelty_judge", bindings, fallback="similar")
        evidence.append(NoveltyEvidence(doc=doc, similarity=sim, verdict=verdict))
    novel = not any(e.verdict == "similar" for e in evidence)
    return NoveltyResult(novel=novel, evidence=tuple(evidence), judge_calls=judge_calls)


def retained_ideas(pool: list[Idea], threshold: float) -> list[Idea]:
    """The ideas of `pool` its dedup retains, in scan order; [] for an empty pool."""
    if not pool:
        return []
    _, retained_ids = non_duplicate_fraction(pool, threshold)
    by_id = {i.id: i for i in pool}
    return [by_id[idea_id] for idea_id in retained_ids]


def _cleared_by_prefilter(ideas: list[Idea], corpus, threshold: float) -> list[bool]:
    """Per idea: True when no doc can be a novelty candidate, so it is novel.

    The approximate best cosine must sit at least `ROUNDING_MARGIN` below the
    threshold, so every exact `cosine` that `novelty_judge` would compute is at
    most the threshold. No corpus (None) clears every idea; a corpus without
    `max_similarity` clears none.
    """
    if corpus is None:
        return [True] * len(ideas)
    if not ideas or not hasattr(corpus, "max_similarity"):
        return [False] * len(ideas)
    best = corpus.max_similarity([idea.embedding for idea in ideas])
    return (best <= threshold - ROUNDING_MARGIN).tolist()


def unique_novel_counts(
    retained_pools: dict[str, list[Idea]], corpus, config: PipelineConfig, gateway: Gateway
) -> dict[str, int]:
    """Per key, the number of ideas judged novel among already deduplicated ones.

    Each value of `retained_pools` is what `retained_ideas` keeps of one pool.
    The ideas of all pools are checked together. One batched similarity
    prefilter counts an idea novel outright when no doc is close enough to be
    a candidate; with `corpus=None` no doc can be one, so every idea is novel.
    Each other idea goes to `novelty_judge`, all of them through one
    `gateway.fan_out`. An idea retained by several pools is judged once per
    pool, as a per-pool count would judge it.
    """
    owners = [key for key, ideas in retained_pools.items() for _ in ideas]
    retained = [idea for ideas in retained_pools.values() for idea in ideas]
    cleared = _cleared_by_prefilter(retained, corpus, config.novelty_sim_threshold)

    def is_novel(idea: Idea) -> bool:
        # Only the flag crosses the join; the evidence is dropped in the worker.
        return novelty_judge(idea, corpus, config, gateway).novel

    judged = iter(gateway.fan_out([i for i, c in zip(retained, cleared) if not c], is_novel))
    counts = dict.fromkeys(retained_pools, 0)
    for key, skip in zip(owners, cleared):
        counts[key] += 1 if skip else int(next(judged))
    return counts


def unique_novel_count(
    pool: list[Idea], corpus, config: PipelineConfig, gateway: Gateway
) -> int:
    """`unique_novel_counts` for a single pool, deduplicated here."""
    retained = {"pool": retained_ideas(pool, config.dup_sim_threshold)}
    return unique_novel_counts(retained, corpus, config, gateway)["pool"]
