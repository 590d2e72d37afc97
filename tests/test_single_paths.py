"""One path per job in `src/nova`, pinned by reading its syntax trees.

- A record's invariants are checked where it is decoded: `.validate(` is
  called only inside `Record.from_dict`.
- `Gateway.fan_out` is the one way to run work concurrently: threads are
  started (`ThreadPoolExecutor(`, `threading.Thread(`) only inside
  `Gateway._launching`, and no `concurrently` exists.
- Each failure kind has one handler. A content failure
  (`ExtractionFailedError`) is caught only inside `Gateway.ask`, which returns
  the caller's fallback. The stage modules (`planner`, `seeding`, `proposals`,
  `tournament`) catch no `GatewayError`, `LiteratureError` or
  `ExtractionFailedError`, nor anything broader, so an availability failure
  aborts the stage.
- orjson parses corpus docs and nothing else: outside `jsontext.py` it is
  imported once, by name, and `orjson.loads` is used only inside
  `OfflineCorpus.__init__`.
- orjson writes JSON text only through the exact encoder `jsontext.dumps`:
  `orjson.dumps` is used nowhere else. orjson writes some values otherwise
  than `json.dumps` (`1e-05` as `0.00001`, NaN as `null`), which would change
  cache keys and artifact bytes; that function checks a value for them and
  leaves those to the stdlib.
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


def _caught(node) -> tuple[str, ...] | None:
    """The last name of each exception type an `except` clause catches; () for a bare one."""
    if not isinstance(node, ast.ExceptHandler):
        return None
    if node.type is None:
        return ()
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return tuple(ast.unparse(t).split(".")[-1] for t in types)


def test_a_content_failure_is_caught_only_in_ask():
    handlers = [(path, scope) for path, scope, caught in _find(_caught)
                if "ExtractionFailedError" in caught]
    assert handlers == [("gateway.py", "Gateway.ask")]


def test_the_stage_modules_catch_no_gateway_or_literature_error():
    stages = {"planner.py", "seeding.py", "proposals.py", "tournament.py"}
    banned = {"GatewayError", "LiteratureError", "ExtractionFailedError", "Exception",
              "BaseException"}
    found = [(path, scope, caught) for path, scope, caught in _find(_caught)
             if path in stages and (not caught or banned.intersection(caught))]
    assert found == []


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
    uses = sorted(set(_find(_orjson_use)))
    assert [use for use in uses if use[0] != "jsontext.py"] == [
        ("literature.py", "", "import orjson"),
        ("literature.py", "OfflineCorpus.__init__", "JSONDecodeError"),
        ("literature.py", "OfflineCorpus.__init__", "loads"),
    ]
    assert [use for use in uses if use[0] == "jsontext.py"] == [
        ("jsontext.py", "", "import orjson"),
        ("jsontext.py", "dumps", "OPT_APPEND_NEWLINE"),
        ("jsontext.py", "dumps", "OPT_INDENT_2"),
        ("jsontext.py", "dumps", "dumps"),
    ]
