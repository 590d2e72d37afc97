"""One path per job in `src/nova`, pinned by reading its syntax trees.

- A record's invariants are checked where it is decoded: `.validate(` is
  called only inside `Record.from_dict`.
- `Gateway.fan_out` is the one way to run work concurrently: threads are
  started (`ThreadPoolExecutor(`, `threading.Thread(`) only inside
  `Gateway._launching`, and no `concurrently` exists.
- orjson parses corpus docs and nothing else: `orjson` is imported once, by
  name, and `orjson.loads` is used only inside `OfflineCorpus.__init__`.
  `orjson.dumps` is never used, since it writes some floats otherwise than
  `json.dumps` (`1e-05` as `0.00001`), which would change artifact bytes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import nova
from nova.gateway import Gateway

SOURCES = sorted(Path(nova.__file__).parent.rglob("*.py"))


def _find(match) -> list[tuple[str, str, str]]:
    """(file, enclosing qualified name, label) of each node for which `match` gives a label."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, path: Path):
            self.path, self.scope = path, []

        def visit(self, node):
            label = match(node)
            if label is not None:
                found.append((self.path.name, ".".join(self.scope), label))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()
            else:
                self.generic_visit(node)

    for path in SOURCES:
        Visitor(path).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def _calls(attr_names: set[str]) -> list[tuple[str, str, str]]:
    """(file, enclosing qualified name, called name) of each call to one of `attr_names`."""

    def called(node):
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name if name in attr_names else None

    return _find(called)


def _orjson_use(node) -> str | None:
    """How `node` imports or reads orjson: the import written out, or the attribute read."""
    if isinstance(node, ast.Import):
        names = [a for a in node.names if a.name.split(".")[0] == "orjson"]
        return "; ".join(f"import {a.name}" + (f" as {a.asname}" if a.asname else "")
                         for a in names) or None
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "orjson":
        return f"from {node.module} import ..."
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "orjson":
        return node.attr
    return None


def test_validate_is_called_only_by_the_decode():
    calls = _calls({"validate"})
    assert calls == [("domain.py", "Record.from_dict", "validate")]


def test_threads_are_started_only_by_the_launch_rule():
    calls = _calls({"ThreadPoolExecutor", "Thread"})
    assert calls and all(
        (path, scope.split(".")[:2]) == ("gateway.py", ["Gateway", "_launching"])
        for path, scope, _ in calls
    ), calls


def test_no_second_concurrency_entry_point():
    assert not hasattr(Gateway, "concurrently")
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "name", None) or getattr(node, "attr", None)
            assert name != "concurrently", path.name


def test_orjson_parses_corpus_docs_only():
    assert sorted(set(_find(_orjson_use))) == [
        ("literature.py", "", "import orjson"),
        ("literature.py", "OfflineCorpus.__init__", "JSONDecodeError"),
        ("literature.py", "OfflineCorpus.__init__", "loads"),
    ]
