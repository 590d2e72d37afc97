"""Versioned catalog of prompt templates and the discovery-theory catalog.

Templates ship as plain-text files plus a JSON manifest (name, placeholders,
expected output schema). Placeholder syntax is ``{name}`` with no nesting;
literal braces are escaped by doubling.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType

_PACKAGE = "nova.templates"

REGISTRY_NAMES = (
    "initial_seed",
    "trend_report",
    "trend_ideas",
    "theory_ideas",
    "expand_ideas",
    "initial_proposal",
    "method_decompose",
    "final_proposal",
    "search_plan",
    "pairwise_rank",
    "novelty_judge",
    "self_reflect_cut",
)

# Doubled braces, a placeholder, or a stray brace; tried in that order.
_TOKEN_RE = re.compile(r"\{\{|\}\}|\{([A-Za-z_][A-Za-z0-9_]*)\}|[{}]")


class PromptError(Exception):
    pass


class UnknownTemplateError(PromptError):
    pass


class MissingPlaceholderError(PromptError):
    def __init__(self, template: str, missing: list[str]):
        super().__init__(f"template {template!r} missing bindings for: {', '.join(missing)}")
        self.missing = missing


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str
    required_placeholders: frozenset[str]
    schema_name: str | None


@dataclass(frozen=True)
class DiscoveryTheory:
    index: int
    name: str
    theoretical_basis: str
    method: str


def _scan(body: str, template: str, value_of) -> str:
    """One regex pass: substitute placeholders, honor doubled braces.

    `value_of(name)` supplies each placeholder's text. Values are inserted
    verbatim and never re-scanned, so braces in values cannot collide with
    placeholders.
    """

    def token(m: re.Match) -> str:
        if m.group(1) is not None:
            return value_of(m.group(1))
        text = m.group(0)
        if len(text) == 2:
            return text[0]
        if text == "{":
            raise PromptError(f"template {template!r}: malformed placeholder at offset {m.start()}")
        raise PromptError(f"template {template!r}: unescaped '}}' at offset {m.start()}")

    return _TOKEN_RE.sub(token, body)


def placeholders_in(body: str, template: str = "<inline>") -> set[str]:
    """Placeholder names occurring in a template body."""
    names: set[str] = set()
    _scan(body, template, lambda name: names.add(name) or "")
    return names


class PromptLibrary:
    """Immutable after load; safe to share across tasks.

    Reads the shipped set, or with `template_dir` a whole set (manifest,
    template files, defaults and theory catalog) from that one directory.
    The shipped set does not change while a process runs, so it is read and
    checked once per process; every library without a `template_dir` shares
    that one parsed set. A `template_dir` library reads its directory anew.
    """

    # (templates, theories, defaults) of the shipped set, once it was read.
    _shipped: tuple | None = None

    def __init__(self, template_dir: str | Path | None = None):
        if template_dir is None and PromptLibrary._shipped is not None:
            self._templates, self._theories, self._defaults = PromptLibrary._shipped
            return
        self._dir = resources.files(_PACKAGE) if template_dir is None else Path(template_dir)
        loaded = (
            MappingProxyType(self._load_registry()),
            self._load_theories(),
            MappingProxyType(json.loads(self._read("default_bindings.json"))),
        )
        if template_dir is None:
            PromptLibrary._shipped = loaded
        self._templates, self._theories, self._defaults = loaded

    def _read(self, filename: str) -> str:
        return (self._dir / filename).read_text(encoding="utf-8")

    def _load_registry(self) -> dict[str, PromptTemplate]:
        manifest = json.loads(self._read("manifest.json"))
        templates: dict[str, PromptTemplate] = {}
        for entry in manifest["templates"]:
            name = entry["name"]
            body = self._read(entry["file"])
            declared = set(entry["placeholders"])
            found = placeholders_in(body, name)
            if found != declared:
                raise PromptError(
                    f"template {name!r}: manifest placeholders {sorted(declared)} "
                    f"do not match body placeholders {sorted(found)}"
                )
            templates[name] = PromptTemplate(
                name=name,
                body=body,
                required_placeholders=frozenset(declared),
                schema_name=entry["schema_name"],
            )
        if set(templates) != set(REGISTRY_NAMES):
            raise PromptError(
                f"manifest names {sorted(templates)} do not match the fixed registry"
            )
        return templates

    def _load_theories(self) -> tuple[DiscoveryTheory, ...]:
        data = json.loads(self._read("discovery_theories.json"))
        theories = tuple(
            DiscoveryTheory(
                index=t["index"],
                name=t["name"],
                theoretical_basis=t["theoretical_basis"],
                method=t["method"],
            )
            for t in data["theories"]
        )
        if [t.index for t in theories] != list(range(1, 11)):
            raise PromptError("discovery-theory catalog must hold entries 1..10 in order")
        return theories

    def names(self) -> tuple[str, ...]:
        return REGISTRY_NAMES

    def get(self, name: str) -> PromptTemplate:
        try:
            return self._templates[name]
        except KeyError:
            raise UnknownTemplateError(f"unknown template {name!r}") from None

    def render(self, name: str, bindings: dict[str, str]) -> str:
        """Substitute every placeholder; raises if any required binding is absent.

        Bindings the template does not name are ignored.
        """
        template = self.get(name)
        missing = sorted(template.required_placeholders - set(bindings))
        if missing:
            raise MissingPlaceholderError(name, missing)
        return _scan(template.body, name, lambda placeholder: str(bindings[placeholder]))

    def theories(self) -> list[DiscoveryTheory]:
        """The 10 catalog entries in index order."""
        return list(self._theories)

    def default_bindings(self) -> dict[str, str]:
        """Shipped defaults for format/example placeholders (user-overridable)."""
        return dict(self._defaults)

    def theory_catalog_text(self) -> str:
        """The full catalog rendered for embedding into prompts."""
        blocks = []
        for t in self._theories:
            blocks.append(
                f"{t.index}. {t.name}\n"
                f"Theoretical Basis: {t.theoretical_basis}\n"
                f"Method: {t.method}"
            )
        return "\n\n".join(blocks)
