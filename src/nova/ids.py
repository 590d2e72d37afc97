"""Sortable opaque identifiers for pipeline artifacts."""

from __future__ import annotations

import hashlib
import threading

# Crockford base32: ascending ASCII, so equal-length IDs sort numerically.
_ALPHABET = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"

ID_LENGTH = 26


def _encode(value: int, length: int) -> str:
    chars = []
    for _ in range(length):
        chars.append(_ALPHABET[value & 31])
        value >>= 5
    return "".join(reversed(chars))


class IdFactory:
    """Allocates 26-character IDs: a 10-char counter prefix plus an 80-bit tail.

    The counter prefix makes IDs from one factory sort in creation order. The
    tail is derived from (seed, counter), so a run that restores the counter
    after an interruption re-issues identical IDs.
    """

    def __init__(self, seed: int, counter: int = 0):
        if counter < 0:
            raise ValueError("counter must be nonnegative")
        self._seed = seed
        self._counter = counter
        self._lock = threading.Lock()

    @property
    def counter(self) -> int:
        return self._counter

    def new_id(self) -> str:
        with self._lock:
            n = self._counter
            self._counter += 1
        tail = hashlib.blake2b(f"{self._seed}:{n}".encode("utf-8"), digest_size=10).digest()
        return _encode(n, 10) + _encode(int.from_bytes(tail, "big"), 16)
