"""Single choke point for chat-completion calls.

All prompt traffic flows through :class:`Gateway`: on-disk response caching,
bounded retries with jittered exponential backoff, a concurrency bound, and
structured-output extraction with bounded syntactic repair and at most
`REPROMPT_BUDGET` re-prompts. Backends are pluggable; the deterministic mock
lives in :mod:`nova.mockllm`.

A `Gateway` holds the run's prompt set, one :class:`nova.prompts.PromptLibrary`,
and every pipeline call goes through :meth:`Gateway.ask` by template name. It
renders the template, appends an optional suffix (a seeding refill note), sends
it to the model the template's manifest entry names, and decodes the reply
with the `nova.replies` decoder of the reply shape the entry names; no other
module holds the prompt set, builds a `ChatRequest`, names a model or names a
reply shape. Each failure kind has one handler. `ExtractionFailedError` is a
content failure: the model answered, but not in the required shape. `ask`
handles it, and only `ask`: the caller names its fallback value, and `ask`
logs the template and the request's cache key and returns that value in place
of the reply. Every other
`GatewayError` (a dead or refusing backend, a missing key, a malformed HTTP
reply) is an availability failure that no caller catches, so the stage fails
and `Runner.advance_to` aborts the run at its last checkpoint.

Concurrency has one setting, ``GatewayOptions.parallelism``, which caps live
sends run-wide, and one entry point, :meth:`Gateway.fan_out`, which every
LLM-bound stage maps its per-item work through (the evaluate stage maps its
two branches, the novelty count and the Swiss tournament, through one). It
follows one launch rule, held in `Gateway._launching`, the only code that
starts threads: items run on the calling thread, in order, until that thread
gets its first successful live reply; the items not yet begun then start on a
pool while the calling thread finishes the one it is in. So cached and
offline work never pays for threads, and a dead backend starts none. A
fan_out inside a fan_out item follows the same rule on its own pool.
Concurrent requests for one cache key make a single live call; the others
wait for it and count as cache hits, exactly as if they had been issued one
after another.

Artifacts, ``state.json``, the proposal Markdown, the report files and the
response cache's entries file are written by :func:`atomic_write`: a
temporary file private to the writing thread, renamed over the target with
`os.replace`, so readers and other processes see the old file or the new one,
never part of one. A live reply is cached by appending one line to the
cache's journal, which :meth:`Gateway.compact_cache` folds into the entries
file at each stage commit; :class:`ResponseCache` says what a cut-off line, a
compaction and a second process sharing the directory cost. A cached line
that cannot be read back is logged and treated as a miss, and the reply sent
in its place is appended.

The live HTTP clients (chat here; paper search and embeddings in
:mod:`nova.literature`) all send through :func:`post_json`, which holds the one
status rule: a transport error (`OSError`) or HTTP 429/500/502/503/504 raises
`TransientBackendError`; any other status but 200 a plain `GatewayError`.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import io
import json
import logging
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Protocol, TypeVar

from . import jsontext
from .domain import DomainParseError, lone_surrogate
from .prompts import PromptLibrary
from .replies import DECODERS

logger = logging.getLogger(__name__)

LLM_API_KEY_ENV = "NOVA_LLM_API_KEY"

T = TypeVar("T")
R = TypeVar("R")


class GatewayError(Exception):
    pass


class TransientBackendError(GatewayError):
    """Transport failure or HTTP 429/500/502/503/504 (see `post_json`); worth retrying."""


class BackendUnavailableError(GatewayError):
    """Backend still failing after the retry budget was spent."""


class NoValidJsonError(GatewayError):
    """No schema-valid JSON value could be recovered from a reply."""


class ExtractionFailedError(GatewayError):
    """Re-prompt budget spent without obtaining schema-valid JSON."""


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 4096

    @property
    def cache_key(self) -> str:
        """256-bit digest; a pure function of the request fields.

        The SHA-256 of the fields as one compact JSON object with sorted keys,
        as ``json.dumps(..., sort_keys=True, separators=(",", ":"),
        ensure_ascii=False)`` writes it in UTF-8 (`jsontext.dumps`).
        """
        fields = {  # in sorted key order
            "max_tokens": self.max_tokens,
            "model_id": self.model_id,
            "prompt": self.prompt,
            "temperature": self.temperature,
        }
        return hashlib.sha256(jsontext.dumps(fields)).hexdigest()


class ChatBackend(Protocol):
    def send(self, model_id: str, prompt: str, temperature: float, max_tokens: int) -> str: ...


@dataclass(frozen=True)
class GatewayOptions:
    retry_budget: int = 5
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    parallelism: int = 8


# Re-prompts `Gateway.complete_json` sends after a reply without schema-valid JSON.
REPROMPT_BUDGET = 2

# `Gateway.ask`'s default fallback: a content failure propagates.
_RAISE = object()


_OPEN_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_NOFOLLOW", 0)
_JOURNAL_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT | getattr(os, "O_NOFOLLOW", 0)


def _create(path: str | os.PathLike, flags: int) -> int:
    """`os.open(path, flags, 0o600)`, making the directory only when the open finds it missing."""
    try:
        return os.open(path, flags, 0o600)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return os.open(path, flags, 0o600)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def atomic_write(path: str | os.PathLike, data: bytes) -> None:
    """Replace the file at `path` with `data`; a reader sees the old or the new file.

    The bytes go to ``<path>.<pid>.<thread id>.tmp`` (mode 0o600 even if a
    crashed writer left it with another mode, truncated, a symlink not
    followed), which `os.replace` renames over `path`; the directory is made
    only when the open finds it missing. On failure the temporary file is
    removed and the previous file left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    fd = _create(tmp, _OPEN_FLAGS)
    try:
        try:
            os.fchmod(fd, 0o600)
            _write_all(fd, data)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def append_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Append `data` to `path` through one ``O_APPEND`` descriptor; a new file gets mode 0o600."""
    fd = _create(path, _JOURNAL_FLAGS)
    try:
        _write_all(fd, data)
    finally:
        os.close(fd)


ENTRIES_FILE = "entries.jsonl"
JOURNAL_FILE = "journal.jsonl"
_LINE_START = b'{"key": '


def _entry_line(key: str, text: str) -> bytes:
    """``json.dumps({"key": key, "text": text}, ensure_ascii=False)`` and a newline, as UTF-8."""
    return b'{"key": ' + jsontext.dumps(key) + b', "text": ' + jsontext.dumps(text) + b"}\n"


def _signature(file: Path | int) -> tuple | None:
    """(inode, size, mtime) of a path or an open descriptor; None if there is no file."""
    try:
        st = os.stat(file)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def _parse_entry(data: bytes) -> tuple[str, str] | None:
    try:
        entry = json.loads(data)
    except ValueError:
        return None
    if not isinstance(entry, dict):
        return None
    key, text = entry.get("key"), entry.get("text")
    return (key, text) if isinstance(key, str) and isinstance(text, str) else None


def _read_entries(path: Path, into: dict[str, str]) -> tuple | None:
    """Add the entries of a cache file to `into`, later lines winning.

    Returns the file's `_signature`, or None if there is no file. Each line is
    parsed from its last `_LINE_START`; bytes before it, and a line that does
    not parse, are skipped with a warning naming the file.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        signature = _signature(fh.fileno())
        for number, line in enumerate(fh, 1):
            start = line.rfind(_LINE_START)
            entry = _parse_entry(line[start:]) if start >= 0 else None
            if entry is not None:
                into[entry[0]] = entry[1]
            if start != 0 or entry is None:
                logger.warning("unreadable data in line %d of response cache %s skipped",
                               number, path)
    return signature


class ResponseCache:
    """Reply texts by request key, kept in two files of one directory; no eviction.

    ``journal.jsonl`` takes each `put` as one line ``{"key": ..., "text": ...}``:
    the UTF-8 of ``json.dumps(..., ensure_ascii=False)``, with its ``", "`` and
    ``": "`` separators, and a newline (`_entry_line`, whose two strings
    `jsontext.dumps` writes). The line is appended by one write through an
    ``O_APPEND`` descriptor that the put opens and closes, so a put creates no
    file once the journal exists and no descriptor outlives it. `compact` folds
    the journal into ``entries.jsonl``, one such line per entry sorted by key
    and written whole by `atomic_write`, and then deletes the journal: after a
    compaction the directory is a function of its set of entries. Building a
    cache touches no file. The first `get` or `put` reads both files into an
    index that holds every text; the first `put` makes the journal, and the
    directory if it is missing. A key that was put more than once keeps its
    last text.

    **Torn tail.** A line that is not an object with a string ``"key"`` and
    ``"text"`` (a write cut off by a crash, say) is skipped with a warning
    naming the file, so its key is a miss and the reply sent in its place is
    appended. A line appended after a cut-off one is still read: a line is
    parsed from its last ``{"key": ``, which an encoded text cannot contain.

    **Compaction cost.** `compact` rewrites the whole file, O(cache) per stage
    commit, and returns at once when nothing was put since the last one, so a
    replay writes nothing. That suits a per-run cache. A long-lived shared
    cache that grows large would want one sorted segment per commit instead,
    merged in the background: the log-structured design of Bitcask (Sheehy and
    Smith, 2010) and of the LSM-tree (O'Neil et al., 1996).

    **Concurrent processes.** Caches in several processes may share a
    directory with no lock between them: their puts append whole lines to the
    one journal, and `compact` merges what is on disk (the journal, and the
    entries file if another cache rewrote it since) into its own index before
    it writes. So compactions that do not overlap lose no entry. Two that
    overlap may: the later rename drops entries only the earlier one had read,
    and a line appended between one compaction's read of the journal and its
    delete is only in its writer's index until that writer compacts. A cache
    also misses entries put by others after it loaded. Each key names one
    request, so any such loss costs a re-sent request, never a wrong reply.
    """

    def __init__(self, cache_dir: str | Path):
        self._dir = Path(cache_dir)
        self._lock = threading.Lock()
        self._index: dict[str, str] | None = None
        self._seen: tuple | None = None  # the entries file the index last merged or wrote
        self._dirty = False  # the entries file may lack a line of the journal

    def _load(self) -> dict[str, str]:
        """The index, read from disk on first use; the caller holds the lock."""
        if self._index is None:
            index: dict[str, str] = {}
            self._seen = _read_entries(self._dir / ENTRIES_FILE, index)
            self._dirty = _read_entries(self._dir / JOURNAL_FILE, index) is not None
            self._index = index
        return self._index

    def get(self, key: str) -> str | None:
        with self._lock:
            return self._load().get(key)

    def put(self, key: str, text: str) -> None:
        line = _entry_line(key, text)
        with self._lock:
            index = self._load()
            append_bytes(self._dir / JOURNAL_FILE, line)
            index[key] = text
            self._dirty = True

    def compact(self) -> None:
        """Rewrite the entries file with every entry and delete the journal.

        Returns at once if nothing was put since the last compaction and no
        journal was there when the index loaded. If the write fails, the
        entries file and the journal are left as they were.
        """
        with self._lock:
            if not self._dirty:
                return
            entries, journal = self._dir / ENTRIES_FILE, self._dir / JOURNAL_FILE
            merged: dict[str, str] = {}
            if _signature(entries) != self._seen:
                _read_entries(entries, merged)
            _read_entries(journal, merged)
            merged.update(self._index)
            buf = io.BytesIO()
            for key in sorted(merged):
                buf.write(_entry_line(key, merged[key]))
            atomic_write(entries, buf.getvalue())
            self._seen = _signature(entries)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(journal)
            self._index, self._dirty = merged, False


class GatewayStats:
    """Thread-safe call ledger."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.cache_hits = 0
        self.live_calls = 0

    def _bump(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "live_calls": self.live_calls,
            }


class _ThreadState(threading.local):
    """Per-thread facts the launch rule decides on."""

    def __init__(self):
        # Launches of the `_launching` calls running on this thread, waiting
        # for its first successful live reply; `_send` fires them.
        self.launches: list[Callable[[], None]] = []


class Gateway:
    def __init__(
        self,
        backend: ChatBackend,
        cache_dir: str | Path,
        options: GatewayOptions = GatewayOptions(),
        sleep: Callable[[float], None] = time.sleep,
        library: PromptLibrary | None = None,
    ):
        self._backend = backend
        self._library = PromptLibrary() if library is None else library
        self._cache = ResponseCache(cache_dir)
        self._options = options
        self._sleep = sleep
        self._semaphore = threading.Semaphore(max(1, options.parallelism))
        self._jitter = random.Random(0)
        self._flights: dict[str, threading.Event] = {}
        self._flights_lock = threading.Lock()
        self._thread = _ThreadState()
        self.stats = GatewayStats()

    def compact_cache(self) -> None:
        """Fold the replies cached since the last call into the cache's entries file.

        Called at each stage commit; see `ResponseCache.compact`.
        """
        self._cache.compact()

    def fan_out(self, items: Iterable[T], fn: Callable[[T], R]) -> list[R]:
        """`[fn(item) for item in items]`, run concurrently once calls go live.

        The launch rule (`_launching`) starts the items not yet begun on a
        pool of at most `parallelism` threads; at `parallelism` 1 every item
        runs inline. Results are joined in input order, and an exception from
        `fn` propagates from the first failing item in that order, after the
        running items finish; items not yet begun are dropped. A fan_out
        inside an item gets a pool of its own by the same rule, and the
        semaphore still caps live sends at `parallelism`. `fn` should return
        only what the caller's join needs: results are held until every item
        is done.
        """
        thunks = [functools.partial(fn, item) for item in items]
        if self._options.parallelism <= 1:
            return [thunk() for thunk in thunks]
        return self._launching(thunks, self._options.parallelism)

    def _launching(self, thunks: list[Callable[[], R]], max_threads: int) -> list[R]:
        """Run `thunks` under the launch rule; results in order.

        Thunks run on the calling thread, in order, until that thread gets its
        first successful live reply (`_send` fires the launch, and the launch
        of every `_launching` call nested on that thread). The thunks not yet
        begun then go to a pool of at most `max_threads` threads, while the
        calling thread finishes the thunk it is in. The first failure in
        thunk order is raised once the running thunks have finished; pool
        thunks not yet begun are cancelled.
        """
        results: list[R] = []
        futures: list = []
        pool: ThreadPoolExecutor | None = None

        def launch() -> None:
            nonlocal pool
            rest = thunks[len(results) + 1 :]
            if rest:
                pool = ThreadPoolExecutor(max_workers=min(max_threads, len(rest)))
                futures.extend(pool.submit(thunk) for thunk in rest)

        launches = self._thread.launches
        launches.append(launch)
        try:
            for thunk in thunks:
                results.append(thunk())
                if pool is not None:
                    break
            return results + [future.result() for future in futures]
        finally:
            if launch in launches:
                launches.remove(launch)
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    def complete(self, request: ChatRequest) -> str:
        """Return the reply text for this request: cached, or sent with retries.

        `stats` counts the request, and whether it was a cache hit or how
        many live attempts it took.

        Single-flight per cache key: while one thread sends a request, others
        with the same key wait for it and then read its reply from the cache.
        If it failed, the next waiter sends the request itself.
        """
        self.stats._bump("requests")
        key = request.cache_key
        while True:
            with self._flights_lock:
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = threading.Event()
                    break
            flight.wait()
        try:
            cached = self._cache.get(key)
            if cached is not None:
                self.stats._bump("cache_hits")
                return cached
            return self._send(request, key)
        finally:
            with self._flights_lock:
                del self._flights[key]
            flight.set()

    def _send(self, request: ChatRequest, key: str) -> str:
        """Live call with retries; caches the reply, then fires this thread's launches."""
        last_error: Exception | None = None
        for attempt in range(1, self._options.retry_budget + 1):
            try:
                with self._semaphore:
                    self.stats._bump("live_calls")
                    text = self._backend.send(
                        request.model_id, request.prompt, request.temperature, request.max_tokens
                    )
                break
            except TransientBackendError as exc:
                last_error = exc
                if attempt == self._options.retry_budget:
                    continue  # no backoff after the last attempt
                delay = min(
                    self._options.backoff_cap,
                    self._options.backoff_base * (2 ** (attempt - 1)),
                )
                delay *= 0.5 + self._jitter.random()
                logger.warning(
                    "transient backend failure (attempt %d/%d), retrying in %.2fs: %s",
                    attempt,
                    self._options.retry_budget,
                    delay,
                    exc,
                )
                if delay > 0:
                    self._sleep(delay)
        else:
            raise BackendUnavailableError(
                f"backend failed after {self._options.retry_budget} attempts: {last_error}"
            )
        self._cache.put(key, text)
        launches = self._thread.launches
        while launches:
            launches.pop(0)()
        return text

    def ask(self, template: str, bindings: dict[str, str], suffix: str = "", *,
            fallback=_RAISE):
        """Send the rendered `template` plus `suffix`; return the decoded reply.

        The request names the model of the template's manifest entry. Without
        a reply shape in that entry the reply text is returned; with one, the
        decoded reply `complete_json` returns. When that raises
        `ExtractionFailedError`, `ask` logs the template, the request's cache
        key and `fallback`, and returns `fallback`; without one it re-raises.
        """
        entry = self._library.get(template)
        prompt = self._library.render(template, bindings) + suffix
        request = ChatRequest(model_id=entry.model, prompt=prompt)
        if entry.schema_name is None:
            return self.complete(request)
        try:
            return self.complete_json(request, entry.schema_name)
        except ExtractionFailedError:
            if fallback is _RAISE:
                raise
            logger.warning("%s: no schema-valid reply to request %s, using fallback %r",
                           template, request.cache_key[:12], fallback)
            return fallback

    def complete_json(self, request: ChatRequest, schema_name: str):
        """complete() plus extraction; re-prompts on invalid JSON up to budget.

        Returns the decoded reply of the first JSON value in a reply that the
        `schema_name` decoder accepts (see `extract_json`). Raises
        ExtractionFailedError once `REPROMPT_BUDGET` re-prompts are spent.
        """
        prompt = request.prompt
        for attempt in range(REPROMPT_BUDGET + 1):
            text = self.complete(replace(request, prompt=prompt))
            try:
                return extract_json(text, schema_name)
            except NoValidJsonError as exc:
                logger.warning(
                    "no valid %s JSON (attempt %d/%d): %s",
                    schema_name,
                    attempt + 1,
                    REPROMPT_BUDGET + 1,
                    exc,
                )
                prompt = (
                    request.prompt
                    + f"\n\n(Retry {attempt + 1}: your previous reply was not valid JSON "
                    f"for the required format. Reply with the JSON value only.)"
                )
        raise ExtractionFailedError(
            f"no schema-valid {schema_name!r} JSON after "
            f"{REPROMPT_BUDGET + 1} prompts"
        )


# ---------------------------------------------------------------------------
# Structured-output extraction
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)
_OPENER_RE = re.compile(r"[\[{]")
_TRAILING_COMMA_RE = re.compile(r",(\s*[\]}])")
_DECODER = json.JSONDecoder()

# Characters of a bracketed candidate decoded first (`_decode_from`).
_WINDOW = 4096
# How far past the offset a `JSONDecodeError` names the scanner may have read:
# ``-Infinity``, the longest literal it matches, is 9 characters, and a
# ``\uXXXX`` escape pair 12.
_LOOKAHEAD = 16


def _try_parse(fragment: str):
    """Parse the first JSON value in `fragment`, tolerating trailing prose;
    trailing commas are removed only if the fragment does not parse as it is.
    A fragment nested past the interpreter's recursion limit does not parse."""
    try:
        return _DECODER.raw_decode(fragment.strip())[0]
    except RecursionError:
        return None
    except ValueError:
        repaired, commas = _TRAILING_COMMA_RE.subn(r"\1", fragment)
    try:
        return _DECODER.raw_decode(repaired.strip())[0] if commas else None
    except (ValueError, RecursionError):
        return None


def _decode_from(text: str, pos: int):
    """`_DECODER.raw_decode(text[pos:])[0]` for a `[` or `{` at `pos`, mostly
    from a copy of the next `_WINDOW` characters only.

    Raises `ValueError` or `RecursionError` where that would. The scanner reads
    left to right, so a value that parses from the window is the value of the
    whole rest, and an error it meets well inside the window (`_LOOKAHEAD`) it
    meets there too. Only an unterminated string, whose error names the
    string's start, or an error near the window's end sends the decode to the
    whole rest. The rest is copied rather than decoded in place: a
    `JSONDecodeError` counts the lines of its text up to the error, so a
    failed decode in place costs O(`pos`), and a reply with many brackets
    would cost the square of its length.
    """
    window = text[pos : pos + _WINDOW]
    try:
        return _DECODER.raw_decode(window)[0]
    except json.JSONDecodeError as exc:
        if pos + _WINDOW >= len(text) or (
            exc.pos + _LOOKAHEAD < len(window) and not exc.msg.startswith("Unterminated string")
        ):
            raise
    return _DECODER.raw_decode(text[pos:])[0]


def _bracket_values(raw: str):
    """`_try_parse(raw[pos:])` for each `[` or `{` of `raw` in text order.

    Such a remainder starts with its bracket, and a value ends at a bracket,
    so the `strip` of `_try_parse` changes no outcome and is left out. The
    trailing-comma repair is made once, of the whole reply. A repair match
    is ``,`` then whitespace then ``]`` or ``}``, so none spans a `[`/`{`: the
    repair of ``raw[pos:]`` is the repaired reply from `pos` less the commas
    removed before it, and it removed a comma only if a match starts at or
    after `pos`.
    """
    commas: list[int] | None = None  # where each repair match of `raw` starts
    for match in _OPENER_RE.finditer(raw):
        pos = match.start()
        try:
            value = _decode_from(raw, pos)
        except RecursionError:
            value = None
        except ValueError:
            if commas is None:
                commas = [m.start() for m in _TRAILING_COMMA_RE.finditer(raw)]
                repaired = _TRAILING_COMMA_RE.sub(r"\1", raw)
            before = bisect.bisect_left(commas, pos)
            value = None
            if before < len(commas):
                with contextlib.suppress(ValueError, RecursionError):
                    value = _decode_from(repaired, pos - before)
        yield value


def _candidate_values(raw: str):
    """The parsed value of each candidate fragment in text order, None where it
    does not parse, across the three repair passes: fenced blocks first, then
    bracketed regions, then the raw reply."""
    for match in _FENCE_RE.finditer(raw):
        yield _try_parse(match.group(1))
    yield from _bracket_values(raw)
    yield _try_parse(raw)


def extract_json(raw: str, schema_name: str):
    """The decoded reply of the first JSON value in `raw` that `DECODERS[schema_name]` accepts."""
    decode = DECODERS[schema_name]
    seen_invalid = 0
    for value in _candidate_values(raw):
        if value is None:
            continue
        try:
            return decode(value)
        except DomainParseError:
            seen_invalid += 1
    if seen_invalid:
        raise NoValidJsonError(
            f"found {seen_invalid} JSON value(s) but none validate against {schema_name!r}"
        )
    raise NoValidJsonError("no parseable JSON value in reply")


# ---------------------------------------------------------------------------
# Live HTTP backends
# ---------------------------------------------------------------------------

_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


def post_json(endpoint: str, payload: dict, key_env: str, post=None, timeout: float = 60.0):
    """POST `payload` as JSON with ``Authorization: Bearer <$key_env>``; return the 200 reply.

    Failures follow the module's status rule. `post` defaults to `requests.post`.
    """
    if post is None:
        import requests

        post = requests.post
    try:
        resp = post(
            endpoint,
            json=payload,
            headers={"Authorization": f"Bearer {os.environ.get(key_env, '')}"},
            timeout=timeout,
        )
    except OSError as exc:
        raise TransientBackendError(f"{endpoint}: transport failure: {exc}") from exc
    status = resp.status_code
    if status in _RETRYABLE_STATUS:
        raise TransientBackendError(f"{endpoint}: HTTP {status}")
    if status != 200:
        raise GatewayError(f"{endpoint}: HTTP {status}: {getattr(resp, 'text', '')[:200]}")
    return resp


class HttpChatBackend:
    """OpenAI-style chat-completion client over `post_json`.

    Without NOVA_LLM_API_KEY `send` raises `GatewayError` and sends nothing; so
    does a reply without a string ``choices[0].message.content``, or whose
    content holds a lone surrogate, which is not valid Unicode.
    """

    def __init__(self, endpoint: str, post=None, timeout: float = 120.0):
        self._endpoint = endpoint
        self._post = post
        self._timeout = timeout

    def send(self, model_id: str, prompt: str, temperature: float, max_tokens: int) -> str:
        if not os.environ.get(LLM_API_KEY_ENV):
            raise GatewayError(f"{LLM_API_KEY_ENV} is not set")
        payload = {
            "model": model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        resp = post_json(self._endpoint, payload, LLM_API_KEY_ENV, self._post, self._timeout)
        try:
            content = resp.json()["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}")
            if (at := lone_surrogate(content)) is not None:
                raise ValueError(f"content holds a lone surrogate at offset {at}")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed completion response: {exc}") from exc
        return content
