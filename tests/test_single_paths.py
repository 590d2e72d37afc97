"""One path per job in `src/nova`, pinned by reading its syntax trees.

- A record's invariants are checked where it is decoded: `.validate(` is
  called only inside `Record.from_dict`.
- `Gateway.fan_out` is the one way to run work concurrently: threads are
  started (`ThreadPoolExecutor(`, `threading.Thread(`) only inside
  `Gateway._launching`, and no `concurrently` exists.
"""

from __future__ import annotations

import ast
from pathlib import Path

import nova
from nova.gateway import Gateway

SOURCES = sorted(Path(nova.__file__).parent.rglob("*.py"))


def _calls(attr_names: set[str]) -> list[tuple[str, str, str]]:
    """(file, enclosing qualified name, called name) of each call to one of `attr_names`."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, path: Path):
            self.path, self.scope = path, []

        def _enter(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

        def visit_Call(self, node: ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in attr_names:
                found.append((self.path.name, ".".join(self.scope), name))
            self.generic_visit(node)

    for path in SOURCES:
        Visitor(path).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


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
