"""JSON text byte for byte as the stdlib writes it, written by orjson where that is exact.

`dumps` gives the UTF-8 bytes of ``json.dumps(value, ensure_ascii=False)``
with either ``indent=2`` or the compact separators ``(",", ":")``. orjson
writes the same text for every string (control characters and non-ASCII
text included), for the indent-2 layout (empty containers included), for
``true``, ``false`` and ``null``, for 64-bit ints and for floats that are 0 or
have 1e-4 <= |x| < 1e16. It writes other floats in another form (``1e-05`` as
``0.00001``, ``1e+16`` as ``1e16``, NaN as ``null``); it refuses ints past 64
bits, keys that are not strings and lone surrogates; and it writes types the
stdlib refuses (an `enum.Enum`, a dataclass). So orjson writes a value only if
`_orjson_exact` finds nothing but plain containers, strings, 64-bit ints,
floats in that range, bools and None in it; the stdlib writes every other
value, and every value orjson refuses, with the outcome the stdlib gives (a
lone surrogate still fails to encode, as a `UnicodeEncodeError`). These
facts were checked for orjson 3.8.3, code point by code point for strings;
``tests/test_jsontext.py`` pins them, so an orjson that writes otherwise fails
there.
"""

from __future__ import annotations

import json

import orjson

_INT_MIN, _INT_MAX = -(2**63), 2**64 - 1


def _orjson_exact(value) -> bool:
    """True if orjson writes `value`, a finite tree (orjson wrote it), as the stdlib does."""
    stack = [value]
    pop, push = stack.pop, stack.extend
    while stack:
        item = pop()
        kind = type(item)
        if kind is str or kind is bool or item is None:
            continue
        if kind is dict:
            push(item.values())
        elif kind is list or kind is tuple:
            push(item)
        elif kind is float:
            if not (1e-4 <= abs(item) < 1e16 or item == 0.0):  # False for NaN
                return False
        elif kind is not int or not _INT_MIN <= item <= _INT_MAX:
            return False
    return True


def dumps(value, *, indent: bool = False, newline: bool = False) -> bytes:
    """``json.dumps(value, ensure_ascii=False, ...)`` as UTF-8 bytes.

    With `indent` the text is laid out with ``indent=2``, else with the compact
    separators ``(",", ":")``; `newline` appends ``"\\n"``. Keys keep their
    order. What the stdlib raises for a value, this raises too.
    """
    option = (orjson.OPT_INDENT_2 if indent else 0) | (orjson.OPT_APPEND_NEWLINE if newline else 0)
    try:
        data = orjson.dumps(value, option=option)
    except TypeError:  # orjson refuses it; the stdlib decides
        pass
    else:
        if _orjson_exact(value):
            return data
    text = json.dumps(value, ensure_ascii=False, indent=2 if indent else None,
                      separators=None if indent else (",", ":"))
    return (text + "\n" if newline else text).encode("utf-8")
