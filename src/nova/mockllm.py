"""Deterministic mock chat backend for replay testing and desk-scale runs.

Replies are a pure function of (script, seed, prompt): a script entry keyed by
the sha256 digest of the prompt wins; otherwise the synthesizer recognizes
which registry template produced the prompt and fabricates a reply that its
`nova.replies` decoder accepts, derived from the prompt digest. Identical
request sequences therefore yield byte-identical responses.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from pathlib import Path

from .domain import FINAL_SECTIONS, INITIAL_SECTIONS
from .gateway import GatewayError, TransientBackendError

# Distinctive template phrases, checked in order (most specific first).
_SIGNATURES = (
    ("trend_ideas", "based on the target paper and some high-quality research trends"),
    ("theory_ideas", "familiar with Science Discovery Theory"),
    ("expand_ideas", "learn from new knowledge and provide some impactful and creative"),
    ("initial_seed", "propose some innovative and valuable research ideas based on the target paper"),
    ("trend_report", "summarise the current hot research trends"),
    ("initial_proposal", "brainstorm the detailed research project proposal"),
    ("method_decompose", "break down the research method into multiple submodules"),
    ("final_proposal", "expand a brief project idea into a full project proposal"),
    ("search_plan", "develop a detailed paper search plan"),
    ("pairwise_rank", "decide which one is better overall"),
    ("novelty_judge", "already contains the core of a proposed research idea"),
    ("self_reflect_cut", "critically reviewing a numbered list of candidate research ideas"),
)

_IDEA_COUNT_RE = re.compile(r"Output about (\d+) new ideas")
_EXPAND_COUNT_RE = re.compile(r"Generate (\d+) most innovative")
_NUMBERED_RE = re.compile(r"^(\d+)\.", re.MULTILINE)


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class MockBackend:
    """Script-driven mock with a deterministic fallback synthesizer.

    Script format: {"<sha256 of prompt>": reply} where reply is either the
    reply string or {"text": str, "transient_failures": int} to fault-inject
    that many retryable failures before succeeding. `from_file` refuses any
    other entry with a `GatewayError`.
    """

    def __init__(self, script: dict | None = None, seed: int = 0):
        self._script = dict(script or {})
        self._seed = seed
        self._lock = threading.Lock()
        self._remaining_failures: dict[str, int] = {}

    @classmethod
    def from_file(cls, path: str | Path, seed: int = 0) -> "MockBackend":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise GatewayError(f"mock script {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise GatewayError(f"mock script {path} must hold a JSON object")
        for digest, entry in data.items():
            if isinstance(entry, dict):
                failures = entry.get("transient_failures", 0)
                if not isinstance(entry.get("text"), str):
                    problem = 'an object entry needs a string "text"'
                elif type(failures) is not int or failures < 0:
                    problem = f'"transient_failures" must be a non-negative int, not {failures!r}'
                else:
                    continue
            elif isinstance(entry, str):
                continue
            else:
                problem = f"must be a reply string or an object, got {type(entry).__name__}"
            raise GatewayError(f"mock script {path}: entry {digest}: {problem}")
        return cls(script=data, seed=seed)

    def send(self, model_id: str, prompt: str, temperature: float, max_tokens: int) -> str:
        digest = prompt_digest(prompt)
        with self._lock:
            entry = self._script.get(digest)
            if isinstance(entry, dict):
                if digest not in self._remaining_failures:
                    self._remaining_failures[digest] = int(entry.get("transient_failures", 0))
                if self._remaining_failures[digest] > 0:
                    self._remaining_failures[digest] -= 1
                    raise TransientBackendError(f"scripted transient failure for {digest[:12]}")
                return entry["text"]
            if isinstance(entry, str):
                return entry
        return self._synthesize(prompt, digest)

    # -- synthesizer ------------------------------------------------------

    def _synthesize(self, prompt: str, digest: str) -> str:
        kind = None
        for name, signature in _SIGNATURES:
            if signature in prompt:
                kind = name
                break
        h = hashlib.sha256(f"{self._seed}:{digest}".encode("utf-8")).hexdigest()
        if kind in ("initial_seed", "trend_ideas", "theory_ideas"):
            m = _IDEA_COUNT_RE.search(prompt)
            return self._idea_list(h, int(m.group(1)) if m else 5)
        if kind == "expand_ideas":
            m = _EXPAND_COUNT_RE.search(prompt)
            return self._idea_list(h, int(m.group(1)) if m else 3)
        if kind == "trend_report":
            return (
                f"Current research trends ({h[:8]}): retrieval-grounded agents, "
                "iterative self-improvement loops, and evaluation harnesses for "
                "generated scientific content.\n"
                "These directions transfer to adjacent fields through shared tooling."
            )
        if kind == "search_plan":
            plan = {
                "directions": [
                    {
                        "thinking": f"Survey methods adjacent to topic {h[:6]}.",
                        "keywords": [f"topic-{h[:6]}", f"method-{h[6:12]}"],
                    },
                    {
                        "thinking": f"Collect evaluation practice for topic {h[12:18]}.",
                        "keywords": [f"benchmark-{h[12:18]}"],
                    },
                ]
            }
            return "Thinking:\nMock planning.\nSearch Plan Output:\n" + json.dumps(plan)
        if kind == "initial_proposal":
            body = {
                f"Mock Proposal {h[:6]}": {
                    name: f"Mock {name.lower()} content {h[:8]}." for name in INITIAL_SECTIONS
                }
            }
            return "Thinking: mock proposal draft.\n```json\n" + json.dumps(body) + "\n```"
        if kind == "method_decompose":
            body = {
                "thinking": f"Mock decomposition rationale {h[:8]}.",
                "modules": [
                    {
                        "name": f"Module {h[:4]}-{i}",
                        "purpose": f"Handle concern {i} of the method.",
                        "implementation": f"Implementation sketch {h[4:10]}-{i}.",
                        "search_keywords": [f"module-kw-{h[:5]}-{i}"],
                    }
                    for i in range(1, 4)
                ],
            }
            return "MethodSubmodulesJsonList:\n" + json.dumps(body)
        if kind == "final_proposal":
            body = {name: f"Mock final {name.lower()} {h[:8]}." for name in FINAL_SECTIONS}
            return "Final proposal follows.\n```json\n" + json.dumps(body) + "\n```"
        if kind == "pairwise_rank":
            winner = "A" if int(h[:8], 16) % 2 == 0 else "B"
            return json.dumps({"winner": winner})
        if kind == "novelty_judge":
            return json.dumps({"verdict": "different"})
        if kind == "self_reflect_cut":
            matches = [int(m) for m in _NUMBERED_RE.findall(prompt)]
            count = max(matches) if matches else 1
            evaluations = [
                {"index": i, "sound": True, "score": max(1, 10 - (i - 1))}
                for i in range(1, count + 1)
            ]
            return json.dumps({"evaluations": evaluations})
        return f"Mock reply {h[:12]}."

    def _idea_list(self, h: str, count: int) -> str:
        ideas = [
            {
                "thinking": f"Mock rationale {h[:8]}-{i}: gap identified in prior approach.",
                "idea": f"Mock idea {h[:8]}-{i}: adaptive mechanism for aspect {h[8 + i:12 + i]}.",
                "keywords": [f"kw-{h[:5]}-{i}", f"kw-{h[5:10]}-{i}"],
            }
            for i in range(1, count + 1)
        ]
        return "Thinking:\nMock source analysis.\n```json\n" + json.dumps(ideas) + "\n```"
