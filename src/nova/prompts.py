"""The prompt set: the templates and the discovery-theory catalog.

The shipped set is package data: ``manifest.json``, one body per template at
``<name>.txt``, ``default_bindings.json`` and ``discovery_theories.json``. A
manifest entry is ``{"name", "schema_name", "model"}``: the shape a reply
must have (a key of `nova.replies.DECODERS`, or null for free text) and the
model the template's requests name. A template's placeholders are the ones
its body holds, ``{name}`` with no nesting; literal braces are escaped by
doubling. Each body is compiled once, at load, into its text between
placeholders (`_compile`, the one scanner of template text; a stray brace is
refused there), and `PromptLibrary.render` joins those texts with the
placeholders' values, which are inserted verbatim and never scanned.

Four placeholders are set constants, bound by `render` itself when the caller
does not bind them: the three texts of ``default_bindings.json`` and
``scientific_discovery_theory``, the rendered theory catalog. A template's
`required_placeholders` are its other placeholders.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .replies import DECODERS

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
    model: str
    # The body compiled by `_compile`: its text before the first placeholder, then
    # (placeholder, text up to the next one) pairs.
    head: str = field(repr=False, compare=False)
    slots: tuple[tuple[str, str], ...] = field(repr=False, compare=False)


@dataclass(frozen=True)
class DiscoveryTheory:
    index: int
    name: str
    theoretical_basis: str
    method: str


def _compile(body: str, template: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Split a body into its text before the first placeholder and a (name,
    text up to the next placeholder) pair per placeholder, doubled braces undone.

    A stray brace raises `PromptError` naming the template and its offset.
    """
    texts: list[str] = []
    names: list[str] = []
    text: list[str] = []
    pos = 0
    for m in _TOKEN_RE.finditer(body):
        text.append(body[pos : m.start()])
        pos = m.end()
        token = m.group(0)
        if m.group(1) is not None:
            texts.append("".join(text))
            names.append(m.group(1))
            text = []
        elif len(token) == 2:
            text.append(token[0])
        elif token == "{":
            raise PromptError(f"template {template!r}: malformed placeholder at offset {m.start()}")
        else:
            raise PromptError(f"template {template!r}: unescaped '}}' at offset {m.start()}")
    text.append(body[pos:])
    texts.append("".join(text))
    return texts[0], tuple(zip(names, texts[1:]))


def placeholders_in(body: str, template: str = "<inline>") -> set[str]:
    """Placeholder names occurring in a template body."""
    return {name for name, _ in _compile(body, template)[1]}


class PromptLibrary:
    """Immutable after load; safe to share across tasks.

    Reads the shipped set, or with `template_dir` a whole set (manifest,
    template files, defaults and theory catalog) from that one directory.
    The shipped set does not change while a process runs, so it is read,
    checked and its set constants computed once per process, and every
    library without a `template_dir` shares it.
    """

    # (templates, theories, set constants) of the shipped set, once it was read.
    _shipped: tuple | None = None

    def __init__(self, template_dir: str | Path | None = None):
        if template_dir is None and PromptLibrary._shipped is not None:
            self._templates, self._theories, self._constants = PromptLibrary._shipped
            return
        self._dir = resources.files(_PACKAGE) if template_dir is None else Path(template_dir)
        manifest = json.loads(self._read("manifest.json"))
        theories = self._load_theories()
        constants = json.loads(self._read("default_bindings.json"))
        constants["scientific_discovery_theory"] = "\n\n".join(
            f"{t.index}. {t.name}\nTheoretical Basis: {t.theoretical_basis}\nMethod: {t.method}"
            for t in theories
        )
        loaded = (
            MappingProxyType(self._load_registry(manifest["templates"], constants.keys())),
            theories,
            MappingProxyType(constants),
        )
        if template_dir is None:
            PromptLibrary._shipped = loaded
        self._templates, self._theories, self._constants = loaded

    def _read(self, filename: str) -> str:
        return (self._dir / filename).read_text(encoding="utf-8")

    def _load_registry(self, entries: list[dict], constants) -> dict[str, PromptTemplate]:
        names = [entry["name"] for entry in entries]
        if set(names) != set(REGISTRY_NAMES):
            raise PromptError(f"manifest names {sorted(names)} do not match the fixed registry")
        templates: dict[str, PromptTemplate] = {}
        for entry in entries:
            name, model = entry["name"], entry.get("model")
            if not isinstance(model, str) or not model:
                raise PromptError(f"template {name!r}: manifest entry has no model name")
            if "schema_name" not in entry:
                raise PromptError(f"template {name!r}: manifest entry has no schema_name")
            schema_name = entry["schema_name"]
            if schema_name not in (None, *DECODERS):
                raise PromptError(
                    f"template {name!r}: schema_name {schema_name!r} names no output schema"
                )
            try:
                body = self._read(f"{name}.txt")
            except FileNotFoundError:
                raise PromptError(f"template {name!r}: no body file {name}.txt") from None
            head, slots = _compile(body, name)
            templates[name] = PromptTemplate(
                name=name,
                body=body,
                required_placeholders=frozenset({p for p, _ in slots} - constants),
                schema_name=schema_name,
                model=model,
                head=head,
                slots=slots,
            )
        return templates

    def _load_theories(self) -> tuple[DiscoveryTheory, ...]:
        data = json.loads(self._read("discovery_theories.json"))
        theories = tuple(DiscoveryTheory(**t) for t in data["theories"])
        if [t.index for t in theories] != list(range(1, 11)):
            raise PromptError("discovery-theory catalog must hold entries 1..10 in order")
        return theories

    def get(self, name: str) -> PromptTemplate:
        try:
            return self._templates[name]
        except KeyError:
            raise UnknownTemplateError(f"unknown template {name!r}") from None

    def render(self, name: str, bindings: dict[str, str]) -> str:
        """Substitute every placeholder; raises if any required binding is absent.

        A placeholder takes the caller's binding if there is one, else its set
        constant. Bindings the template does not name are ignored.
        """
        template = self.get(name)
        missing = sorted(template.required_placeholders.difference(bindings))
        if missing:
            raise MissingPlaceholderError(name, missing)
        constants = self._constants
        out = [template.head]
        for p, text in template.slots:
            out.append(str(bindings[p] if p in bindings else constants[p]))
            out.append(text)
        return "".join(out)

    def theories(self) -> list[DiscoveryTheory]:
        """The 10 catalog entries in index order."""
        return list(self._theories)
