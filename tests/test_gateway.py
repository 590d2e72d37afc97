"""Gateway behavior: caching, retries, concurrency, and JSON extraction."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import stat
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nova import gateway as gateway_mod
from nova.gateway import (
    ENTRIES_FILE,
    JOURNAL_FILE,
    REPROMPT_BUDGET,
    BackendUnavailableError,
    ChatRequest,
    ExtractionFailedError,
    Gateway,
    GatewayError,
    GatewayOptions,
    HttpChatBackend,
    NoValidJsonError,
    ResponseCache,
    TransientBackendError,
    extract_json,
)
from nova.domain import PipelineConfig, TrendReport
from nova.literature import (
    DEFAULT_EMBED_MODEL,
    HashEmbedder,
    HttpEmbedder,
    HttpSearchClient,
    SearchQuery,
)
from nova.mockllm import MockBackend, prompt_digest
from nova.orchestrator import ArtifactStore, Runner, RunnerOptions, RunState, _dump_bytes
from nova.prompts import REGISTRY_NAMES, PromptLibrary
from nova.replies import SearchPlanReply
from tests.conftest import FAST_GATEWAY, FlakyBackend, RuleBackend
from tests.test_prompts import edit_manifest


def req(prompt: str, model="m") -> ChatRequest:
    return ChatRequest(model_id=model, prompt=prompt)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Every thread a test starts, through the gateway or itself, is joined by its end."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# complete()
# ---------------------------------------------------------------------------


def test_cache_key_is_pure_function_of_fields():
    a = ChatRequest("m", "p", temperature=0.5, max_tokens=10)
    b = ChatRequest("m", "p", temperature=0.5, max_tokens=10)
    assert a.cache_key == b.cache_key
    assert a.cache_key != ChatRequest("m", "p", temperature=0.6, max_tokens=10).cache_key
    assert len(a.cache_key) == 64


def old_cache_key(request: ChatRequest) -> str:
    """`ChatRequest.cache_key` as the stdlib encoder wrote it before orjson did."""
    payload = json.dumps(
        {
            "model_id": request.model_id,
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        },
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def key_outcome(fn):
    try:
        return fn()
    except UnicodeEncodeError:
        return UnicodeEncodeError


ANY_TEXT = st.text(st.characters(blacklist_categories=()))  # lone surrogates included


@settings(max_examples=300)
@given(
    model=st.one_of(st.text(max_size=8), ANY_TEXT),
    prompt=st.one_of(ANY_TEXT, st.text(st.characters(max_codepoint=0x7f))),
    temperature=st.one_of(st.floats(), st.integers(), st.sampled_from([0.0, 1e-5, 1e16])),
    max_tokens=st.integers(),
)
def test_cache_key_equals_the_stdlib_form(model, prompt, temperature, max_tokens):
    request = ChatRequest(model, prompt, temperature=temperature, max_tokens=max_tokens)
    assert key_outcome(lambda: request.cache_key) == key_outcome(lambda: old_cache_key(request))


@settings(max_examples=300)
@given(key=ANY_TEXT, text=ANY_TEXT)
def test_cache_line_equals_the_stdlib_form(key, text):
    assert key_outcome(lambda: gateway_mod._entry_line(key, text)) == key_outcome(
        lambda: entry_line(key, text))


def test_second_identical_request_hits_cache(make_gateway):
    gateway = make_gateway(MockBackend({prompt_digest("hello"): "X"}))
    assert gateway.complete(req("hello")) == "X"
    assert gateway.stats.snapshot() == {"requests": 1, "cache_hits": 0, "live_calls": 1}
    assert gateway.complete(req("hello")) == "X"  # byte-identical to the stored response
    assert gateway.stats.snapshot() == {"requests": 2, "cache_hits": 1, "live_calls": 1}


def test_mock_scripted_reply_passthrough(make_gateway):
    gateway = make_gateway(MockBackend({prompt_digest("ping"): "pong"}))
    assert gateway.complete(req("ping")) == "pong"
    assert gateway.stats.snapshot()["live_calls"] == 1


def test_two_transient_failures_then_success_counts_attempts(make_gateway):
    backend = FlakyBackend(2, MockBackend({prompt_digest("q"): "ok"}))
    gateway = make_gateway(backend)
    assert gateway.complete(req("q")) == "ok"
    assert gateway.stats.snapshot() == {"requests": 1, "cache_hits": 0, "live_calls": 3}


def test_retry_budget_exhaustion_raises(make_gateway):
    backend = FlakyBackend(99, MockBackend())
    gateway = make_gateway(backend)
    with pytest.raises(BackendUnavailableError, match="after 5 attempts"):
        gateway.complete(req("q"))
    assert gateway.stats.snapshot()["live_calls"] == 5


def test_scripted_fault_injection_through_mock_script(make_gateway):
    script = {prompt_digest("flaky"): {"text": "fine", "transient_failures": 2}}
    gateway = make_gateway(MockBackend(script))
    assert gateway.complete(req("flaky")) == "fine"
    assert gateway.stats.snapshot()["live_calls"] == 3


MALFORMED_SCRIPT_ENTRIES = {
    "no_text": ({"transient_failures": 0}, 'needs a string "text"'),
    "non_string_text": ({"text": 7}, 'needs a string "text"'),
    "negative_failures": ({"text": "t", "transient_failures": -1}, "non-negative int"),
    "fractional_failures": ({"text": "t", "transient_failures": 1.5}, "non-negative int"),
    "bool_failures": ({"text": "t", "transient_failures": True}, "non-negative int"),
    "number": (5, "a reply string or an object, got int"),
    "list": (["t"], "a reply string or an object, got list"),
}


@pytest.mark.parametrize("entry, problem", MALFORMED_SCRIPT_ENTRIES.values(),
                         ids=MALFORMED_SCRIPT_ENTRIES)
def test_mock_script_refuses_a_malformed_entry(tmp_path, entry, problem):
    path = tmp_path / "script.json"
    digest = prompt_digest("p")
    path.write_text(json.dumps({prompt_digest("ok"): "fine", digest: entry}), encoding="utf-8")
    with pytest.raises(GatewayError) as info:
        MockBackend.from_file(path)
    assert str(info.value).startswith(f"mock script {path}: entry {digest}: ")
    assert problem in str(info.value)


def test_attempts_never_exceed_budget(make_gateway):
    options = GatewayOptions(retry_budget=3, backoff_base=0.0)
    gateway = make_gateway(FlakyBackend(1, MockBackend({prompt_digest("z"): "t"})),
                           options=options)
    assert gateway.complete(req("z")) == "t"
    assert gateway.stats.snapshot()["live_calls"] <= options.retry_budget


def test_mock_determinism_byte_identical_across_instances():
    prompts = ["alpha", "beta", "develop a detailed paper search plan for gamma"]
    first = [MockBackend(seed=5).send("m", p, 0.0, 64) for p in prompts]
    second = [MockBackend(seed=5).send("m", p, 0.0, 64) for p in prompts]
    assert first == second
    assert first != [MockBackend(seed=6).send("m", p, 0.0, 64) for p in prompts]


def test_concurrent_completes_are_consistent(make_gateway, tmp_path):
    gateway = make_gateway(MockBackend(seed=2), cache_dir=tmp_path / "ccache")
    prompts = [f"prompt {i % 7}" for i in range(40)]
    results: dict[int, str] = {}

    def worker(n: int):
        results[n] = gateway.complete(req(prompts[n]))

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(len(prompts))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    reference = {p: MockBackend(seed=2).send("m", p, 0.0, 4096) for p in set(prompts)}
    assert all(results[n] == reference[prompts[n]] for n in range(len(prompts)))


class SlowBackend:
    """Sleeps `delay` per send; records sends and the peak number in flight."""

    def __init__(self, delay: float, fail: bool = False):
        self.delay = delay
        self.fail = fail
        self.sends: list[str] = []
        self.threads: set[int] = set()
        self.inflight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def send(self, model_id, prompt, temperature, max_tokens):
        with self._lock:
            self.sends.append(prompt)
            self.threads.add(threading.get_ident())
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            time.sleep(self.delay)
        finally:
            with self._lock:
                self.inflight -= 1
        if self.fail:
            raise TransientBackendError("slow and down")
        return f"reply to {prompt}"


def run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(n,)) for n in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)


def test_concurrent_identical_requests_make_one_live_call(make_gateway):
    backend = SlowBackend(delay=0.2)
    gateway = make_gateway(backend)
    texts: dict[int, str] = {}
    run_threads(lambda n: texts.__setitem__(n, gateway.complete(req("same"))), 2)
    assert backend.sends == ["same"]
    assert texts == {0: "reply to same", 1: "reply to same"}
    assert gateway.stats.snapshot() == {"requests": 2, "cache_hits": 1, "live_calls": 1}


def test_waiter_sends_itself_when_the_leader_fails(make_gateway):
    """As one after another: each request spends its own retry budget."""
    backend = SlowBackend(delay=0.05, fail=True)
    gateway = make_gateway(backend, options=GatewayOptions(retry_budget=2, backoff_base=0.0))
    errors: dict[int, Exception] = {}

    def worker(n: int):
        try:
            gateway.complete(req("down"))
        except BackendUnavailableError as exc:
            errors[n] = exc

    run_threads(worker, 2)
    assert len(errors) == 2
    assert len(backend.sends) == 4
    assert gateway.stats.snapshot() == {"requests": 2, "cache_hits": 0, "live_calls": 4}


def test_single_flight_stress_counts_match_sequential(make_gateway):
    """Many threads over few keys: one live call per key, every other request a hit."""
    backend = SlowBackend(delay=0.001)
    gateway = make_gateway(backend)
    prompts = [f"prompt {n % 5}" for n in range(64)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads(lambda n: gateway.complete(req(prompts[n])), len(prompts))
    finally:
        sys.setswitchinterval(old_interval)
    assert sorted(backend.sends) == sorted(set(prompts))
    assert gateway.stats.snapshot() == {"requests": 64, "cache_hits": 59, "live_calls": 5}


# ---------------------------------------------------------------------------
# ResponseCache
# ---------------------------------------------------------------------------


def entry_line(key: str, text: str) -> bytes:
    """One cache line, as the journal and the entries file hold it."""
    return json.dumps({"key": key, "text": text}, ensure_ascii=False).encode() + b"\n"


UNREADABLE_ENTRIES = {
    "truncated": b'{"key": "%s", "text": "half a rep',
    "non_object": b'["%s", "a reply"]\n',
    "string": b'"%s: a reply"\n',
    "no_text": b'{"key": "%s", "reply": "a reply"}\n',
    "non_string_text": b'{"key": "%s", "text": 42}\n',
    "null_text": b'{"key": "%s", "text": null}\n',
    "not_utf8": b'{"key": "%s", "text": "\xff\xfe"}\n',
}


@pytest.mark.parametrize("raw", UNREADABLE_ENTRIES.values(), ids=UNREADABLE_ENTRIES)
def test_unreadable_cache_entry_is_a_miss_and_is_replaced(make_gateway, tmp_path, caplog, raw):
    """A journal line that is cut off or not an entry is skipped and named in a
    warning; the reply sent in its place is appended, and a compaction keeps it."""
    request = req("hello")
    journal = tmp_path / "cache" / JOURNAL_FILE
    journal.parent.mkdir(parents=True)
    journal.write_bytes(raw % request.cache_key.encode())

    gateway = make_gateway(MockBackend({prompt_digest("hello"): "X"}))
    with caplog.at_level(logging.WARNING, logger="nova.gateway"):
        assert gateway.complete(request) == "X"
    assert gateway.stats.snapshot() == {"requests": 1, "cache_hits": 0, "live_calls": 1}
    assert str(journal) in caplog.text
    assert journal.read_bytes().endswith(entry_line(request.cache_key, "X"))
    assert gateway.complete(request) == "X"
    assert gateway.stats.snapshot() == {"requests": 2, "cache_hits": 1, "live_calls": 1}
    assert ResponseCache(tmp_path / "cache").get(request.cache_key) == "X"

    gateway.compact_cache()
    assert os.listdir(tmp_path / "cache") == [ENTRIES_FILE]
    assert (tmp_path / "cache" / ENTRIES_FILE).read_bytes() == entry_line(request.cache_key, "X")


def test_unreadable_line_of_the_entries_file_is_a_miss(make_gateway, tmp_path, caplog):
    request = req("hello")
    entries = tmp_path / "cache" / ENTRIES_FILE
    entries.parent.mkdir(parents=True)
    entries.write_bytes(b'{"key": "%s", "text": 42}\n' % request.cache_key.encode()
                        + entry_line("0" * 64, "kept"))
    gateway = make_gateway(MockBackend({prompt_digest("hello"): "X"}))
    with caplog.at_level(logging.WARNING, logger="nova.gateway"):
        assert gateway.complete(request) == "X"
    assert f"line 1 of response cache {entries}" in caplog.text
    gateway.compact_cache()
    kept, sent = entry_line("0" * 64, "kept"), entry_line(request.cache_key, "X")
    assert entries.read_bytes() == kept + sent


def test_cache_entry_bytes_are_unchanged(tmp_path):
    """Existing caches keep replaying: the line layout and encoding are fixed,
    and a compaction writes the lines sorted by key."""
    cache = ResponseCache(tmp_path)
    first, second = "ab" + "0" * 62, "0c" + "1" * 62
    cache.put(first, "caf\u00e9 \"q\"\n")
    line = f'{{"key": "{first}", "text": "caf\u00e9 \\"q\\"\\n"}}\n'.encode()
    assert (tmp_path / JOURNAL_FILE).read_bytes() == line
    cache.put(second, "two")
    cache.compact()
    assert os.listdir(tmp_path) == [ENTRIES_FILE]
    assert (tmp_path / ENTRIES_FILE).read_bytes() == entry_line(second, "two") + line
    assert ResponseCache(tmp_path).get(first) == "caf\u00e9 \"q\"\n"


def cache_files(cache_dir):
    return [p for p in cache_dir.rglob("*") if p.is_file()]


def test_cache_stress_without_a_lock(tmp_path, caplog):
    """16 threads put and get overlapping keys in lock-step rounds.

    Within a round a get sees the entry of this round or the previous one,
    never a partial one. After each round every entry holds that round's
    value, both in the cache and on disk as a fresh reader sees it; every
    third round ends with a compaction.
    """
    cache = ResponseCache(tmp_path)
    keys = [f"{n:02x}" + "f" * 62 for n in range(8)]

    def value(key: str, rnd: int) -> str:
        return f"{key[:2]}:{rnd}:" + "\u00e9x" * (300 + 37 * rnd % 500)

    errors: list[str] = []
    rounds = {"done": 0, "stop": False}
    deadline = time.monotonic() + 2.0

    def end_of_round():
        rnd = rounds["done"]
        if rnd % 3 == 2:
            cache.compact()
        fresh = ResponseCache(tmp_path)
        for key in keys:
            if cache.get(key) != value(key, rnd) or fresh.get(key) != value(key, rnd):
                errors.append(f"round {rnd}: {key[:2]} does not hold its last value")
        leftovers = [p.name for p in cache_files(tmp_path) if p.name.endswith(".tmp")]
        if leftovers:
            errors.append(f"round {rnd}: temporary files left: {leftovers}")
        rounds["done"] += 1
        rounds["stop"] = rounds["done"] >= 200 or time.monotonic() > deadline

    barrier = threading.Barrier(16, action=end_of_round, timeout=30)

    def worker(n: int):
        rnd = 0
        try:
            while not rounds["stop"]:
                for j in range(4):
                    key = keys[(n + j) % len(keys)]
                    cache.put(key, value(key, rnd))
                    other = keys[(n + 2 * j + 1) % len(keys)]
                    seen = cache.get(other)
                    if seen not in (value(other, rnd), value(other, rnd - 1), None):
                        errors.append(f"round {rnd}: read {str(seen)[:20]!r} for {other[:2]}")
                    if seen is None and rnd > 0:
                        errors.append(f"round {rnd}: {other[:2]} vanished")
                barrier.wait()
                rnd += 1
        except Exception as exc:  # reported through `errors`, and frees the other threads
            errors.append(f"worker {n}, round {rnd}: {exc!r}")
            barrier.abort()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with caplog.at_level(logging.WARNING, logger="nova.gateway"):
            run_threads(worker, 16)
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []
    assert "unreadable" not in caplog.text  # no line was ever torn
    assert rounds["done"] >= 2
    cache.compact()
    files = cache_files(tmp_path)
    assert [p.name for p in files] == [ENTRIES_FILE]
    assert stat.S_IMODE(files[0].stat().st_mode) == 0o600
    last = rounds["done"] - 1
    assert files[0].read_bytes() == b"".join(entry_line(k, value(k, last)) for k in keys)


def test_a_line_after_a_torn_tail_is_read(tmp_path, caplog):
    key, other = "a" * 64, "b" * 64
    (tmp_path / JOURNAL_FILE).write_bytes(entry_line(other, "whole")[:-9])
    cache = ResponseCache(tmp_path)
    cache.put(key, "after")
    with caplog.at_level(logging.WARNING, logger="nova.gateway"):
        fresh = ResponseCache(tmp_path)
        assert (fresh.get(key), fresh.get(other)) == ("after", None)
    assert f"line 1 of response cache {tmp_path / JOURNAL_FILE}" in caplog.text


def test_failed_compaction_leaves_the_entries_file_and_the_journal(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path)
    cache.put("a" * 64, "old")
    cache.compact()
    cache.put("b" * 64, "new")
    before = file_bytes(tmp_path)
    assert sorted(p.name for p in before) == [ENTRIES_FILE, JOURNAL_FILE]

    def refuse(src, dst):
        raise OSError("disk said no")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk said no"):
        cache.compact()
    monkeypatch.undo()
    assert file_bytes(tmp_path) == before
    cache.put("c" * 64, "later")  # the journal reopens after a failed compaction
    cache.compact()
    assert (tmp_path / ENTRIES_FILE).read_bytes() == b"".join(
        entry_line(k * 64, t) for k, t in (("a", "old"), ("b", "new"), ("c", "later"))
    )
    assert os.listdir(tmp_path) == [ENTRIES_FILE]


def test_two_gateways_with_interleaved_compactions_lose_no_entry(make_gateway, tmp_path):
    """Two gateways put and compact in a random interleaving; a third reader
    sees every reply either of them was given."""
    rnd = random.Random(5)
    gateways = [make_gateway(MockBackend(seed=1), cache_dir=tmp_path) for _ in range(2)]
    given: dict[str, str] = {}
    for n in range(120):
        gateway = rnd.choice(gateways)
        if rnd.random() < 0.2:
            gateway.compact_cache()
        else:
            request = req(f"prompt {n}")
            given[request.cache_key] = gateway.complete(request)
    for gateway in gateways:
        gateway.compact_cache()
    reader = ResponseCache(tmp_path)
    assert {key: reader.get(key) for key in given} == given
    assert os.listdir(tmp_path) == [ENTRIES_FILE]


def test_a_compaction_keeps_the_uncommitted_lines_of_another_cache(tmp_path):
    """A cache that compacts folds in the journal lines another cache appended
    after it loaded, so they survive that cache dying before its own commit."""
    survivor, doomed = ResponseCache(tmp_path), ResponseCache(tmp_path)
    assert survivor.get("a" * 64) is None  # loads the (empty) index
    doomed.put("a" * 64, "from the cache that dies")
    survivor.put("b" * 64, "from the survivor")
    survivor.compact()
    del doomed
    reader = ResponseCache(tmp_path)
    assert reader.get("a" * 64) == "from the cache that dies"
    assert reader.get("b" * 64) == "from the survivor"


def test_overlapping_compactions_cost_a_resend_never_a_wrong_reply(
    make_gateway, tmp_path, monkeypatch
):
    """A compaction that renames its entries file over one written while it
    merged drops the entries only the other had; a later gateway re-sends
    those requests and gets the same replies."""
    first, second = (make_gateway(MockBackend(seed=1), cache_dir=tmp_path) for _ in range(2))
    given = {}
    for n, gateway in enumerate((first, second, first)):
        request = req(f"prompt {n}")
        given[request.cache_key] = gateway.complete(request)
    overlapping = req("put while the first gateway compacts")
    write = gateway_mod.atomic_write

    def write_after_the_other(path, data):
        monkeypatch.setattr(gateway_mod, "atomic_write", write)
        given[overlapping.cache_key] = second.complete(overlapping)
        second.compact_cache()
        write(path, data)

    monkeypatch.setattr(gateway_mod, "atomic_write", write_after_the_other)
    first.compact_cache()
    reader = ResponseCache(tmp_path)
    assert reader.get(overlapping.cache_key) is None  # lost: the cost is one re-send
    assert all(reader.get(key) in (None, text) for key, text in given.items())

    third = make_gateway(MockBackend(seed=1), cache_dir=tmp_path)
    assert third.complete(overlapping) == given[overlapping.cache_key]
    assert third.stats.snapshot()["live_calls"] == 1


def cache_writer(root: Path):
    cache = ResponseCache(root)

    def write(text: str) -> None:
        cache.put("cd" + "1" * 62, text)
        cache.compact()

    return (lambda text: root / ENTRIES_FILE), write


def artifact_writer(root: Path):
    store = ArtifactStore(root)

    def target(text: str) -> Path:
        envelope = {"kind": "trend_report", "data": {"text": text}}
        return root / "artifacts" / f"{hashlib.sha256(_dump_bytes(envelope)).hexdigest()}.json"

    return target, (lambda text: store.put(TrendReport(text)))


def state_writer(root: Path):
    runner = Runner(root, PipelineConfig(), RunnerOptions())

    def write(text: str) -> None:
        runner.state = RunState.start(text, runner.config, "mock")
        runner._write_state()

    return (lambda text: root / "state.json"), write


# Every file the run directory and the response cache replace goes through
# `atomic_write`; each case writes through one of its callers (for the cache,
# a put and a compaction).
WRITERS = {"cache": cache_writer, "artifact": artifact_writer, "state": state_writer}


def file_bytes(root: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in cache_files(root)}


@pytest.mark.parametrize("make_writer", WRITERS.values(), ids=WRITERS)
def test_failed_rename_leaves_no_temp_file_and_the_old_entry(tmp_path, monkeypatch, make_writer):
    _, write = make_writer(tmp_path)
    write("old")
    before = file_bytes(tmp_path)
    assert before

    def refuse(src, dst):
        raise OSError("disk said no")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk said no"):
        write("new")
    monkeypatch.undo()
    after = file_bytes(tmp_path)
    # The cache keeps the new reply in its journal until a compaction succeeds
    # (`test_failed_compaction_leaves_the_entries_file_and_the_journal`).
    after.pop(tmp_path / JOURNAL_FILE, None)
    assert after == before


@pytest.mark.parametrize("make_writer", WRITERS.values(), ids=WRITERS)
def test_put_overwrites_a_stale_temp_file(tmp_path, make_writer):
    """A temporary file left by a crashed writer of the same name is truncated,
    and its mode does not carry over to the file it replaces."""
    target, write = make_writer(tmp_path / "run")
    path = target("fresh")
    path.parent.mkdir(parents=True, exist_ok=True)
    stale = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    stale.write_text("x" * 100_000)
    stale.chmod(0o644)
    write("fresh")
    assert cache_files(tmp_path / "run") == [path]
    assert stat.S_IMODE(path.stat().st_mode) == 0o600

    clean_target, clean_write = make_writer(tmp_path / "clean")
    clean_write("fresh")
    assert path.read_bytes() == clean_target("fresh").read_bytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("make_writer", WRITERS.values(), ids=WRITERS)
def test_put_closes_its_descriptor_on_every_path(tmp_path, monkeypatch, make_writer):
    """`-X dev` cannot see a leaked raw descriptor, so count them."""
    _, write = make_writer(tmp_path)
    before = len(os.listdir("/proc/self/fd"))
    for n in range(20):
        write(f"text {n}")

    def refuse(*args):
        raise OSError("disk said no")

    for name in ("write", "replace"):
        with monkeypatch.context() as patch:
            patch.setattr(os, name, refuse)
            with pytest.raises(OSError, match="disk said no"):
                write("one more")
    assert len(os.listdir("/proc/self/fd")) == before
    assert not any(p.name.endswith(".tmp") for p in cache_files(tmp_path))


# ---------------------------------------------------------------------------
# fan_out()
# ---------------------------------------------------------------------------


def test_fan_out_cached_items_stay_on_the_calling_thread(make_gateway):
    backend = SlowBackend(delay=0.0)
    gateway = make_gateway(backend)
    for n in range(6):
        gateway.complete(req(f"p{n}"))
    threads: list[int] = []

    def fn(n: int) -> str:
        threads.append(threading.get_ident())
        return gateway.complete(req(f"p{n}"))

    assert gateway.fan_out(range(6), fn) == [f"reply to p{n}" for n in range(6)]
    assert threads == [threading.get_ident()] * 6


def test_fan_out_pools_the_rest_once_a_call_goes_live(make_gateway):
    backend = SlowBackend(delay=0.05)
    gateway = make_gateway(backend, options=GatewayOptions(parallelism=4, backoff_base=0.0))
    threads: dict[int, int] = {}

    def fn(n: int) -> str:
        threads[n] = threading.get_ident()
        return gateway.complete(req(f"p{n}"))

    results = gateway.fan_out(range(13), fn)
    assert results == [f"reply to p{n}" for n in range(13)]
    caller = threading.get_ident()
    assert threads[0] == caller  # the first item went live inline
    assert caller not in {threads[n] for n in range(1, 13)}
    assert 1 < backend.peak <= 4


def test_fan_out_parallelism_one_runs_inline(make_gateway):
    backend = SlowBackend(delay=0.0)
    gateway = make_gateway(backend, options=GatewayOptions(parallelism=1, backoff_base=0.0))
    gateway.fan_out(range(5), lambda n: gateway.complete(req(f"p{n}")))
    assert backend.threads == {threading.get_ident()}


def test_fan_out_inside_a_fan_out_item_pools(make_gateway):
    """A nested fan_out, on the calling thread or a pool worker, starts a pool of
    its own under the same launch rule, and live sends stay capped at `parallelism`."""
    backend = SlowBackend(delay=0.02)
    gateway = make_gateway(backend, options=GatewayOptions(parallelism=4, backoff_base=0.0))

    def outer(n: int):
        gateway.complete(req(f"outer {n}"))
        here = threading.get_ident()
        inner_threads = gateway.fan_out(
            range(4),
            lambda m: (gateway.complete(req(f"inner {n}.{m}")), threading.get_ident())[1],
        )
        return here, inner_threads

    results = gateway.fan_out(range(3), outer)
    assert results[0][0] == threading.get_ident()
    assert threading.get_ident() not in {here for here, _ in results[1:]}
    for here, inner_threads in results:
        assert inner_threads[0] == here  # the nested fan_out starts inline
        assert here not in inner_threads[1:]  # and pools the rest of its items
    assert 1 < backend.peak <= 4


def test_fan_out_raises_the_first_failure_in_input_order(make_gateway):
    backend = SlowBackend(delay=0.01)
    gateway = make_gateway(backend, options=GatewayOptions(parallelism=4, backoff_base=0.0))

    def fn(n: int) -> int:
        gateway.complete(req(f"p{n}"))
        if n in (3, 5):
            raise ValueError(f"item {n}")
        return n

    with pytest.raises(ValueError, match="item 3"):
        gateway.fan_out(range(8), fn)


def test_fan_out_drops_the_items_not_begun_after_a_failure(make_gateway):
    gateway = make_gateway(SlowBackend(delay=0.01),
                           options=GatewayOptions(parallelism=2, backoff_base=0.0))
    begun: list[int] = []

    def fn(n: int) -> int:
        begun.append(n)
        gateway.complete(req(f"p{n}"))
        if n == 1:
            raise ValueError("item 1")
        time.sleep(0.05 if n else 0.0)
        return n

    with pytest.raises(ValueError, match="item 1"):
        gateway.fan_out(range(20), fn)
    assert len(begun) < 10


class OrderBackend:
    """Sleeps `delay` per send and logs ("start" | "end", prompt) in order."""

    def __init__(self, delay: float):
        self.delay = delay
        self.log: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def send(self, model_id, prompt, temperature, max_tokens):
        with self._lock:
            self.log.append(("start", prompt))
        time.sleep(self.delay)
        with self._lock:
            self.log.append(("end", prompt))
        return f"reply to {prompt}"


def test_fan_out_starts_the_rest_at_the_first_reply_not_the_first_item(make_gateway):
    """The pool starts while item 0 is still between its live calls."""
    backend = OrderBackend(delay=0.1)
    gateway = make_gateway(backend, options=GatewayOptions(parallelism=4, backoff_base=0.0))

    def fn(n: int) -> list[str]:
        calls = ("a", "b", "c") if n == 0 else ("a",)
        return [gateway.complete(req(f"p{n}.{c}")) for c in calls]

    results = gateway.fan_out(range(4), fn)
    assert results[0] == ["reply to p0.a", "reply to p0.b", "reply to p0.c"]
    assert results[1:] == [[f"reply to p{n}.a"] for n in range(1, 4)]
    assert backend.log.index(("start", "p1.a")) < backend.log.index(("end", "p0.b"))


@pytest.mark.parametrize("failing", [(0, 1), (1, 2)], ids=["caller_item", "worker_item"])
def test_fan_out_raises_the_first_failure_after_every_started_item(make_gateway, failing):
    gateway = make_gateway(SlowBackend(delay=0.01))
    pauses = (0.10, 0.05, 0.0)  # the last item fails first, the first one last
    finished: list[int] = []

    def fn(n: int) -> int:
        gateway.complete(req(f"p{n}"))
        time.sleep(pauses[n])
        finished.append(n)
        if n in failing:
            raise ValueError(f"item {n}")
        return n

    with pytest.raises(ValueError, match=f"item {failing[0]}"):
        gateway.fan_out(range(3), fn)
    assert sorted(finished) == [0, 1, 2]


@pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
def test_fan_out_joins_every_thread_it_starts(make_gateway, fails):
    gateway = make_gateway(SlowBackend(delay=0.01))
    before = threading.active_count()
    during: list[int] = []

    def fn(n: int) -> None:
        gateway.complete(req(f"p{n}"))
        if n == 0:
            time.sleep(0.05)  # item 1's thread is up by now
            during.append(threading.active_count())
            if fails:
                raise ValueError("boom")

    if fails:
        with pytest.raises(ValueError, match="boom"):
            gateway.fan_out(range(2), fn)
    else:
        gateway.fan_out(range(2), fn)
    assert during[0] > before
    assert threading.active_count() == before


def test_fan_out_launches_on_a_reply_not_an_attempt(make_gateway):
    """A dead backend starts nothing: the first item spends its retry budget
    inline and its failure ends the call before the others begin."""
    backend = SlowBackend(delay=0.0, fail=True)
    gateway = make_gateway(backend)
    started: list[int] = []

    def fn(n: int) -> str:
        started.append(n)
        return gateway.complete(req(f"p{n}"))

    with pytest.raises(BackendUnavailableError):
        gateway.fan_out(range(2), fn)
    assert started == [0]
    assert len(backend.sends) == FAST_GATEWAY.retry_budget


# Thunks run concurrently the way evaluate runs its two branches:
# `gateway.fan_out(thunks, lambda thunk: thunk())`.


def live(gateway: Gateway, prompt: str, then=lambda: None):
    """A thunk: one live call, then `then()`."""

    def thunk():
        gateway.complete(req(prompt))
        return then()

    return thunk


def run_thunks(gateway: Gateway, *thunks):
    return gateway.fan_out(thunks, lambda thunk: thunk())


def test_concurrently_returns_results_in_argument_order(make_gateway):
    gateway = make_gateway(SlowBackend(delay=0.01))
    finished: list[int] = []

    def after(n: int, pause: float):
        def then():
            time.sleep(pause)
            finished.append(n)
            return n

        return then

    thunks = [live(gateway, f"p{n}", after(n, pause))
              for n, pause in enumerate((0.3, 0.15, 0.0))]
    assert run_thunks(gateway, *thunks) == [0, 1, 2]
    assert finished == [2, 1, 0]  # they ran together and ended in reverse


def test_concurrently_over_cached_thunks_starts_no_thread(make_gateway):
    backend = SlowBackend(delay=0.0)
    gateway = make_gateway(backend)
    for n in range(3):
        gateway.complete(req(f"p{n}"))
    threads: list[int] = []

    def thunk(n: int):
        def run():
            threads.append(threading.get_ident())
            return gateway.complete(req(f"p{n}"))

        return run

    assert run_thunks(gateway, *(thunk(n) for n in range(3))) == [
        f"reply to p{n}" for n in range(3)
    ]
    assert threads == [threading.get_ident()] * 3
    assert len(backend.sends) == 3  # only the cache fills


def test_fan_out_inside_a_concurrently_thunk_uses_a_pool(make_gateway):
    gateway = make_gateway(SlowBackend(delay=0.02),
                           options=GatewayOptions(parallelism=4, backoff_base=0.0))

    def sibling():
        here = threading.get_ident()
        threads = gateway.fan_out(
            range(4),
            lambda m: (gateway.complete(req(f"inner {m}")), threading.get_ident())[1],
        )
        return here, threads

    _, (here, threads) = run_thunks(gateway, live(gateway, "outer"), sibling)
    assert here != threading.get_ident()  # the sibling ran on a pool worker
    assert threads[0] == here
    assert here not in threads[1:]  # the rest of its items went to a pool


# ---------------------------------------------------------------------------
# extract_json
# ---------------------------------------------------------------------------


def test_fenced_json_extracted():
    raw = 'Thinking: blah blah\n```json\n[{"thinking": "t", "idea": "A", "keywords": ["k"]}]\n```'
    value = extract_json(raw, "idea_list")
    assert value[0].idea == "A"


def test_exact_json_identity_parse():
    payload = [{"thinking": "t", "idea": "A", "keywords": ["k"]}]
    assert [idea.to_dict() for idea in extract_json(json.dumps(payload), "idea_list")] == payload


def test_trailing_comma_repaired():
    raw = '[{"thinking": "t", "idea": "A", "keywords": ["k"],}]'
    assert extract_json(raw, "idea_list")[0].idea == "A"


MALFORMED_CORPUS = [
    # (raw reply, expected idea text or None when unrecoverable)
    ('```json\n[{"thinking":"t","idea":"A","keywords":["k"]}]\n```', "A"),
    ('```\n[{"thinking":"t","idea":"B","keywords":["k"]}]\n```', "B"),
    ('prose before [{"thinking":"t","idea":"C","keywords":["k"]}] prose after', "C"),
    ('[{"thinking":"t","idea":"D","keywords":["k"],}]', "D"),
    ('[{"thinking":"t","idea":"E","keywords":["k",]}]', "E"),
    ('Sure! Here you go:\n\n[{"thinking":"t","idea":"F","keywords":["k"]}]', "F"),
    ('{"notes": 1} then [{"thinking":"t","idea":"G","keywords":["k"]}]', "G"),
    ('[[]] [{"thinking":"t","idea":"H","keywords":["k"]}]', "H"),
    ('```json\n[{"thinking":"t","idea":"I","keywords":["k"],},]\n```', "I"),
    ('text with {braces} then [{"thinking":"t","idea":"J","keywords":["k"]}]', "J"),
    ('[{"thinking":"t","idea":"K","keywords":["k"]}] trailing garbage }}', "K"),
    ('```json[{"thinking":"t","idea":"L","keywords":["k"]}]```', "L"),
    ('  \n\t [{"thinking":"t","idea":"M","keywords":["k"]}]  \n', "M"),
    ('[{"thinking":"t","idea":"N","keywords":["k"]},{"thinking":"t","idea":"n2","keywords":["k"]}]', "N"),
    ("no json at all", None),
    ("[not json", None),
    ('{"wrong": "shape"}', None),
    ('[{"idea_text_only": "missing keys"}]', None),
    ('[{"thinking":"t","idea":"","keywords":["k"]}]', None),  # schema-invalid: empty idea
    ('[]', None),  # schema-invalid: minItems 1
]


@pytest.mark.parametrize("raw,expected", MALFORMED_CORPUS)
def test_repair_corpus(raw, expected):
    if expected is None:
        with pytest.raises(NoValidJsonError):
            extract_json(raw, "idea_list")
    else:
        assert extract_json(raw, "idea_list")[0].idea == expected


# Twice as deep as the default recursion limit, and shallow enough to stay quick:
# every "[" is a candidate.
NESTED = "Here: " + "[" * 2000


def test_deep_nesting_does_not_parse():
    with pytest.raises(NoValidJsonError, match="no parseable JSON value"):
        extract_json(NESTED, "idea_list")
    # A trailing comma ahead of the nesting fails the plain parse before it goes deep, and
    # the repair pass, which removes the comma, then nests too deep.
    with pytest.raises(NoValidJsonError):
        extract_json("Here: [[1,], " + "[" * 2000, "idea_list")


def test_deep_nesting_takes_the_fallback_after_the_reprompts(make_gateway):
    backend = RuleBackend(rules=[("", NESTED)])
    fallback = SearchPlanReply(())
    assert make_gateway(backend).ask("search_plan", {"idea_info": "x"}, fallback=fallback) is fallback
    assert len(backend.prompts) == REPROMPT_BUDGET + 1


def old_extract_json(raw: str, schema_name: str):
    """`extract_json` as it was before the bracketed candidates were decoded in
    windows: each candidate was a fresh copy of the rest of the reply."""

    def try_parse(fragment):
        try:
            return gateway_mod._DECODER.raw_decode(fragment.strip())[0]
        except RecursionError:
            return None
        except ValueError:
            repaired, commas = gateway_mod._TRAILING_COMMA_RE.subn(r"\1", fragment)
        try:
            return gateway_mod._DECODER.raw_decode(repaired.strip())[0] if commas else None
        except (ValueError, RecursionError):
            return None

    def candidates():
        for match in gateway_mod._FENCE_RE.finditer(raw):
            yield match.group(1)
        for pos, char in enumerate(raw):
            if char in "[{":
                yield raw[pos:]
        yield raw

    decode = gateway_mod.DECODERS[schema_name]
    seen_invalid = 0
    for fragment in candidates():
        value = try_parse(fragment)
        if value is None:
            continue
        try:
            return decode(value)
        except gateway_mod.DomainParseError:
            seen_invalid += 1
    if seen_invalid:
        raise NoValidJsonError(
            f"found {seen_invalid} JSON value(s) but none validate against {schema_name!r}"
        )
    raise NoValidJsonError("no parseable JSON value in reply")


def extraction(extract, raw, schema_name):
    try:
        return extract(raw, schema_name)
    except NoValidJsonError as exc:
        return str(exc)


IDEA = '{"thinking": "t", "idea": "x", "keywords": ["k"]}'
# Pieces of replies: JSON tokens, the idea_list and novelty_verdict shapes, fences,
# trailing commas, whitespace (JSON's and Unicode's), literals and prose.
REPLY_PIECES = st.sampled_from([
    "[", "]", "{", "}", ",", ", ", ",\n", ":", '"', '"a"', '"b\\"', '"\\u00e9"', '"\\ud83d\\ude00"',
    "1", "-2.5e3", "true", "null", "NaN", "-Infinity", " ", "\n", "\t", "\u00a0", "\x1c",
    "```", "```json\n", "prose ", "x", IDEA, IDEA[:-1] + ",}", "[" + IDEA + "]",
    "[" + IDEA + ",]", '{"verdict": "similar"}', '{"verdict": "maybe",}', '"verdict"',
])
# Whole JSON texts: nested values with long strings and every literal, so values
# and strings run past a window's end and literals are cut by it.
JSON_VALUES = st.recursive(
    st.one_of(st.sampled_from([None, True, False, float("nan"), float("-inf"), 0, -12.5e-7]),
              st.text(st.characters(max_codepoint=0x7ff), max_size=40)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
JSON_TEXTS = st.builds(
    lambda value, indent, comma: json.dumps(value, indent=indent)[:-1] + comma + json.dumps(value)[-1:],
    JSON_VALUES, st.sampled_from([None, 1]), st.sampled_from(["", ",", ", "]),
)
REPLIES = st.lists(st.one_of(REPLY_PIECES, JSON_TEXTS), max_size=12).map("".join)


@settings(max_examples=300)
@given(raw=REPLIES, schema_name=st.sampled_from(["idea_list", "novelty_verdict"]))
def test_extract_json_equals_the_copying_scan(raw, schema_name):
    assert extraction(extract_json, raw, schema_name) == extraction(
        old_extract_json, raw, schema_name)


@settings(max_examples=300)
@given(raw=REPLIES, window=st.integers(min_value=1, max_value=120),
       schema_name=st.sampled_from(["idea_list", "novelty_verdict"]))
def test_a_small_window_changes_no_extraction(raw, window, schema_name):
    """Windows far shorter than the values put every decode on the edge of its window."""
    with mock.patch.object(gateway_mod, "_WINDOW", window):
        got = extraction(extract_json, raw, schema_name)
    assert got == extraction(old_extract_json, raw, schema_name)


@settings(max_examples=500)
@given(raw=st.lists(st.sampled_from(["[", "{", "]", "}", ",", " ", "\n", "a", '"']),
                    max_size=40).map("".join))
def test_the_repair_of_a_remainder_is_the_repaired_reply_from_the_mapped_position(raw):
    """The repair of `raw[pos:]` is `raw`'s repair from `pos` less the commas removed before it."""
    regex = gateway_mod._TRAILING_COMMA_RE
    starts = [m.start() for m in regex.finditer(raw)]
    repaired = regex.sub(r"\1", raw)
    for pos, char in enumerate(raw):
        if char in "[{":
            before = sum(start < pos for start in starts)
            assert regex.subn(r"\1", raw[pos:]) == (repaired[pos - before:], len(starts) - before)


def test_a_long_reply_without_json_is_refused_in_linear_time():
    # 'Here: ' + '[a ' * 20_000 took 0.59 s when each candidate was a copy scanned
    # again by the repair; the bound leaves room for a busy 2-vCPU box.
    started = time.perf_counter()
    with pytest.raises(NoValidJsonError):
        extract_json("Here: " + "[a " * 20_000, "idea_list")
    with pytest.raises(NoValidJsonError):
        extract_json('{"a": [1,] ' * 5_000, "idea_list")  # a repair for each candidate
    assert time.perf_counter() - started < 0.5


def test_extract_never_returns_schema_invalid_value():
    # A schema-valid candidate later in the reply wins over an earlier invalid one.
    raw = '{"verdict": "maybe"} ... {"verdict": "similar"}'
    assert extract_json(raw, "novelty_verdict") == "similar"


def test_complete_json_reprompts_then_fails(make_gateway):
    backend = RuleBackend(rules=[("give me json", "not json at all")])
    gateway = make_gateway(backend)
    with pytest.raises(ExtractionFailedError):
        gateway.complete_json(req("give me json"), "idea_list")
    # initial prompt plus REPROMPT_BUDGET retries, each observed by the backend
    assert len(backend.prompts) == REPROMPT_BUDGET + 1
    assert "Retry 1" in backend.prompts[1]


def test_complete_json_recovers_on_reprompt(make_gateway):
    good = json.dumps([{"thinking": "t", "idea": "ok", "keywords": ["k"]}])
    backend = RuleBackend(rules=[("Retry 1", good), ("give me json", "garbage")])
    gateway = make_gateway(backend)
    value = gateway.complete_json(req("give me json"), "idea_list")
    assert value[0].idea == "ok"
    assert gateway.stats.snapshot() == {"requests": 2, "cache_hits": 0, "live_calls": 2}


# ---------------------------------------------------------------------------
# ask()
# ---------------------------------------------------------------------------

LIBRARY = PromptLibrary()
PAIR = {"proposal_a": "first proposal", "proposal_b": "second proposal"}


def edited_library(template_copy, name: str, **fields) -> PromptLibrary:
    """The template set in `template_copy`, with `fields` set on `name`'s manifest entry."""
    edit_manifest(template_copy, name, **fields)
    return PromptLibrary(template_dir=template_copy)


class ModelRecorder(RuleBackend):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.models: list[str] = []

    def send(self, model_id, prompt, temperature, max_tokens):
        self.models.append(model_id)
        return super().send(model_id, prompt, temperature, max_tokens)


def test_ask_names_the_model_of_the_template_manifest_entry(make_gateway, tmp_path,
                                                            template_copy):
    backend = ModelRecorder(rules=[("decide which one is better", '{"winner": "A"}')])
    make_gateway(backend).ask("pairwise_rank", PAIR)
    make_gateway(backend).ask("trend_report", {"popular_paper_list": "1. Title: t"})
    assert backend.models == ["claude-3.5-sonnet", "gpt-4o"]

    edited = edited_library(template_copy, "pairwise_rank", model="judge-v2")
    gateway = make_gateway(backend, cache_dir=tmp_path / "edited", library=edited)
    assert gateway.ask("pairwise_rank", PAIR) == "A"
    assert backend.models[-1] == "judge-v2"


def test_ask_sends_the_rendered_template_plus_suffix(make_gateway, tmp_path, template_copy):
    reply = 'Verdict: {"winner": "B"}'
    backend = RuleBackend(rules=[("decide which one is better", reply)])
    gateway = make_gateway(
        backend, library=edited_library(template_copy, "pairwise_rank", model="judge-model")
    )
    suffix = "\n\n(Refill attempt 1)"
    assert gateway.ask("pairwise_rank", PAIR, suffix) == "B"

    request = ChatRequest("judge-model", LIBRARY.render("pairwise_rank", PAIR) + suffix)
    assert backend.prompts == [request.prompt]
    # Pinned: caches written before `ask` existed keep replaying.
    assert request.cache_key == "abd95c9e2cda82b2c633a8ae528657717fd6eb1b885a8c29e1e32a17f1fc5fee"
    journal = tmp_path / "cache" / JOURNAL_FILE
    assert journal.read_bytes() == entry_line(request.cache_key, reply)
    assert gateway.ask("pairwise_rank", PAIR, suffix) == "B"
    assert gateway.stats.snapshot() == {"requests": 2, "cache_hits": 1, "live_calls": 1}


def test_ask_validates_against_the_manifest_schema(make_gateway, template_copy):
    user_library = edited_library(template_copy, "pairwise_rank", schema_name="novelty_verdict")

    backend = RuleBackend(rules=[("decide which one is better", '{"verdict": "similar"}')])
    gateway = make_gateway(backend, library=user_library)
    assert gateway.ask("pairwise_rank", PAIR) == "similar"
    with pytest.raises(ExtractionFailedError, match="pair_verdict"):
        make_gateway(backend).ask("pairwise_rank", PAIR)


@pytest.mark.parametrize(
    "template", [name for name in REGISTRY_NAMES if LIBRARY.get(name).schema_name is not None]
)
def test_a_content_failure_takes_the_fallback_in_ask(make_gateway, caplog, template):
    """Prose replies spend the re-prompt budget; `ask` then logs one warning naming the
    template and the request's cache key, and returns the fallback, or without one raises."""
    entry = LIBRARY.get(template)
    bindings = dict.fromkeys(entry.required_placeholders, "x")
    fallback = {"fallback of": template}
    backend = RuleBackend(rules=[("", "Prose, with no JSON in it.")])
    with caplog.at_level(logging.WARNING, logger="nova.gateway"):
        assert make_gateway(backend).ask(template, bindings, fallback=fallback) is fallback
    assert len(backend.prompts) == REPROMPT_BUDGET + 1
    key = ChatRequest(entry.model, LIBRARY.render(template, bindings)).cache_key
    assert [r.getMessage() for r in caplog.records if "fallback" in r.getMessage()] == [
        f"{template}: no schema-valid reply to request {key[:12]}, using fallback {fallback!r}"
    ]
    with pytest.raises(ExtractionFailedError, match=repr(entry.schema_name)):
        make_gateway(backend).ask(template, bindings)


def test_ask_without_a_schema_returns_the_reply_text(make_gateway):
    backend = RuleBackend(rules=[("", "Prose, {not JSON")])
    gateway = make_gateway(backend)
    bindings = {"popular_paper_list": "1. Title: t"}
    assert gateway.ask("trend_report", bindings) == "Prose, {not JSON"
    assert len(backend.prompts) == 1  # no re-prompt


# ---------------------------------------------------------------------------
# live backend classification
# ---------------------------------------------------------------------------


class _FakeResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body or {}
        self.text = text

    def json(self):
        return self._body


def test_http_backend_maps_status_codes(monkeypatch):
    monkeypatch.setenv("NOVA_LLM_API_KEY", "k")
    calls = []

    def post_429(url, **kwargs):
        calls.append(url)
        return _FakeResponse(429)

    backend = HttpChatBackend("https://example.test/v1", post=post_429)
    with pytest.raises(TransientBackendError):
        backend.send("m", "p", 0.0, 10)

    ok_body = {"choices": [{"message": {"content": "hi"}}]}
    backend = HttpChatBackend(
        "https://example.test/v1", post=lambda url, **k: _FakeResponse(200, ok_body)
    )
    assert backend.send("m", "p", 0.0, 10) == "hi"


class _HtmlResponse(_FakeResponse):
    def json(self):
        return json.loads(self.text)


@pytest.mark.parametrize(
    "response",
    [
        _HtmlResponse(200, text="<html>gateway timeout page</html>"),
        _FakeResponse(200, {"choices": [{"message": {"content": None}}]}),
        _FakeResponse(200, {"choices": [{"message": {"content": ["a", "list"]}}]}),
        _FakeResponse(200, {"choices": []}),
        _FakeResponse(200, {"choices": [{"message": {"content": "a\ud800"}}]}),
    ],
    ids=["html_body", "null_content", "list_content", "no_choices", "lone_surrogate_content"],
)
def test_http_backend_rejects_a_malformed_200(monkeypatch, make_gateway, tmp_path, response):
    monkeypatch.setenv("NOVA_LLM_API_KEY", "k")
    backend = HttpChatBackend("https://example.test/v1", post=lambda url, **k: response)
    with pytest.raises(GatewayError, match="malformed completion response") as info:
        backend.send("m", "p", 0.0, 10)
    assert type(info.value) is GatewayError  # not retried, not a content failure
    gateway = make_gateway(backend)
    with pytest.raises(GatewayError, match="malformed"):
        gateway.complete_json(req("p"), "pair_verdict")
    assert gateway.stats.snapshot()["live_calls"] == 1
    assert cache_files(tmp_path / "cache") == []  # nothing cached to fail again on resume


def test_http_backend_requires_api_key(monkeypatch):
    monkeypatch.delenv("NOVA_LLM_API_KEY", raising=False)
    backend = HttpChatBackend("https://example.test/v1", post=lambda url, **k: None)
    with pytest.raises(Exception, match="NOVA_LLM_API_KEY"):
        backend.send("m", "p", 0.0, 10)


class _RecordingPost:
    """A fake `requests.post` that records each request and answers with `outcome`."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.requests: list[tuple[str, dict]] = []

    def __call__(self, url, **kwargs):
        self.requests.append((url, kwargs))
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


# name -> (call with an injected post, URL, JSON body, key variable, timeout, 200 body)
HTTP_CLIENTS = {
    "chat": (
        lambda post: HttpChatBackend("https://chat.test/v1", post=post).send("m", "p", 0.5, 7),
        "https://chat.test/v1",
        {"model": "m", "messages": [{"role": "user", "content": "p"}],
         "temperature": 0.5, "max_tokens": 7},
        "NOVA_LLM_API_KEY",
        120.0,
        {"choices": [{"message": {"content": "hi"}}]},
    ),
    "embed": (
        lambda post: HttpEmbedder("https://embed.test", 2, post=post).embed(["a", "b"]),
        "https://embed.test",
        {"model": DEFAULT_EMBED_MODEL, "input": ["a", "b"]},
        "NOVA_EMBED_API_KEY",
        60.0,
        {"data": [{"embedding": [3.0, 4.0]}, {"embedding": [0.0, 2.0]}]},
    ),
    "search": (
        lambda post: HttpSearchClient(
            "https://search.test", HashEmbedder(dim=4), post=post
        ).search(SearchQuery(text="q", limit=3)),
        "https://search.test",
        {"query": "q", "limit": 3},
        "NOVA_SEARCH_API_KEY",
        60.0,
        {"results": [{"title": "t", "abstract": "a", "score": 0.5}]},
    ),
}

TRANSIENT = [OSError("connection reset"), 429, 500, 502, 503, 504]
PERMANENT = [400, 401, 403, 404, 501]


@pytest.mark.parametrize("outcome", [*TRANSIENT, *PERMANENT, 200],
                         ids=lambda o: "oserror" if isinstance(o, Exception) else str(o))
@pytest.mark.parametrize("client", HTTP_CLIENTS)
def test_http_clients_share_one_status_rule(monkeypatch, client, outcome):
    call, url, body, key_env, timeout, ok_body = HTTP_CLIENTS[client]
    monkeypatch.setenv(key_env, f"key-{client}")
    post = _RecordingPost(
        _FakeResponse(outcome, ok_body if outcome == 200 else None, text="refused")
        if isinstance(outcome, int) else outcome
    )
    if outcome in TRANSIENT:
        with pytest.raises(TransientBackendError):
            call(post)
    elif outcome in PERMANENT:
        with pytest.raises(GatewayError, match=f"HTTP {outcome}") as info:
            call(post)
        assert type(info.value) is GatewayError  # not retried, not a content failure
    else:
        assert call(post)
    assert post.requests == [(url, {
        "json": body,
        "headers": {"Authorization": f"Bearer key-{client}"},
        "timeout": timeout,
    })]


@pytest.mark.parametrize("client", ["embed", "search"])
def test_search_and_embed_send_without_a_key(monkeypatch, client):
    call, _, _, key_env, _, ok_body = HTTP_CLIENTS[client]
    monkeypatch.delenv(key_env, raising=False)
    post = _RecordingPost(_FakeResponse(200, ok_body))
    assert call(post)
    assert post.requests[0][1]["headers"] == {"Authorization": "Bearer "}
