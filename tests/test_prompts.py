"""Prompt library: rendering, registry, theory catalog, golden stability."""

from __future__ import annotations

import ast
import json
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import nova
from nova.prompts import (
    REGISTRY_NAMES,
    MissingPlaceholderError,
    PromptError,
    PromptLibrary,
    UnknownTemplateError,
    _compile,
    placeholders_in,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

LIBRARY = PromptLibrary()

# The placeholders `render` binds itself: the three default texts and the catalog.
SET_CONSTANTS = {
    "qa_info_with_idea_json_format", "plan_json_format", "few_shot_example",
    "scientific_discovery_theory",
}

# Fixed bindings used for the golden-file renders; one entry per required
# placeholder that appears anywhere in the registry.
GOLDEN_BINDINGS = {
    "idea_count": "5",
    "expand_count": "10",
    "paper_title": "Golden Target Paper",
    "paper_abstract": "Golden target abstract.",
    "related_paper_titles": "1. Golden Ref One\n2. Golden Ref Two",
    "related_paper_abstracts": "1. Ref one abstract\n2. Ref two abstract",
    "target_paper_base_info": "Title: Golden Target Paper\nAbstract: Golden target abstract.",
    "research_trending_info": "Golden trend report.",
    "high_quality_paper_list": "1. Golden Hot Paper: hot abstract",
    "exist_idea": "- an existing golden idea",
    "old_idea": "Thinking: old\nIdea: old idea\nKeywords: old-kw",
    "new_knowledge": "Title: Known Doc\nAbstract: known abstract",
    "idea": "Thinking: golden\nIdea: golden idea\nKeywords: gk",
    "relevant_papers_block": "Here are some relevant papers on this idea just for your "
    "background knowledge:\nTitle: Context Doc\nAbstract: context abstract",
    "self_reflection_block": "",
    "initial_idea_json": '{"Problem": "golden problem"}',
    "idea_json": '{"Problem": "golden problem"}',
    "method_decomposition_block": "Method decomposition info:\ngolden modules",
    "new_knowledge_block": "",
    "idea_info": "Thinking: golden\nIdea: golden idea\nKeywords: gk",
    "popular_paper_list": "1. Title: Golden Hot Paper\n   Abstract: hot abstract",
    "proposal_a": "Title: A\nProblem Statement: pa",
    "proposal_b": "Title: B\nProblem Statement: pb",
    "idea_text": "golden idea",
    "candidate_list": "1. first idea\n2. second idea",
}


def bindings_for(name: str) -> dict[str, str]:
    template = LIBRARY.get(name)
    return {k: GOLDEN_BINDINGS[k] for k in template.required_placeholders}


def test_registry_is_exactly_the_fixed_set():
    assert len(REGISTRY_NAMES) == 12
    with pytest.raises(UnknownTemplateError):
        LIBRARY.get("not_a_template")


def test_every_body_placeholder_is_declared():
    for name in REGISTRY_NAMES:
        template = LIBRARY.get(name)
        found = placeholders_in(template.body, name)
        assert found - SET_CONSTANTS == template.required_placeholders


def test_render_substitutes_paper_title_verbatim(sample_paper):
    rendered = LIBRARY.render(
        "initial_seed",
        {**bindings_for("initial_seed"), "paper_title": sample_paper.title},
    )
    assert sample_paper.title in rendered
    assert "{paper_title}" not in rendered


def test_render_leaves_no_unresolved_placeholders():
    pattern = re.compile(r"(?<!\{)\{[A-Za-z_][A-Za-z0-9_]*\}(?!\})")
    for name in REGISTRY_NAMES:
        rendered = LIBRARY.render(name, bindings_for(name))
        leftovers = [
            m.group(0) for m in pattern.finditer(rendered)
            # binding values may legitimately contain brace examples (JSON formats)
            if m.group(0)[1:-1] not in ("thinking", "keywords", "directions")
        ]
        assert not leftovers, (name, leftovers)


def test_search_plan_render_contains_input_and_skill_line():
    rendered = LIBRARY.render(
        "search_plan", {**bindings_for("search_plan"), "idea_info": "X"}
    )
    assert "X" in rendered
    assert "develop a detailed paper search plan" in rendered


def test_theory_ideas_render_contains_all_ten_theory_names():
    rendered = LIBRARY.render("theory_ideas", bindings_for("theory_ideas"))
    for theory in LIBRARY.theories():
        assert theory.name in rendered
    assert "Kuhn's paradigm theory" in rendered


def test_missing_placeholder_names_the_gap():
    with pytest.raises(MissingPlaceholderError) as err:
        LIBRARY.render("search_plan", {})
    assert "idea_info" in str(err.value)


def test_doubled_braces_escape():
    rendered = LIBRARY.render("pairwise_rank", bindings_for("pairwise_rank"))
    assert '{"winner": "A"}' in rendered
    assert "{{" not in rendered


def test_theories_catalog():
    theories = LIBRARY.theories()
    assert len(theories) == 10
    assert theories[0].name == "Define New Scientific Problems"
    assert theories[9].name == "Scientific Paradigm Shift"
    assert [t.index for t in theories] == list(range(1, 11))


def test_user_template_dir_overlays(template_copy):
    (template_copy / "search_plan.txt").write_text(
        "custom plan for {idea_info} with {few_shot_example} as {plan_json_format}",
        encoding="utf-8",
    )
    library = PromptLibrary(template_dir=template_copy)
    rendered = library.render(
        "search_plan",
        {"idea_info": "Z", "few_shot_example": "E", "plan_json_format": "F"},
    )
    assert rendered.startswith("custom plan for Z")
    # untouched templates read as shipped
    assert library.get("initial_proposal").body == LIBRARY.get("initial_proposal").body


def test_the_shipped_set_is_read_once_per_process(monkeypatch, template_copy):
    """A second default library reads no file; a `template_dir` library reads its own."""
    reads: list[str] = []
    read = PromptLibrary._read
    monkeypatch.setattr(PromptLibrary, "_read",
                        lambda self, filename: reads.append(filename) or read(self, filename))
    library = PromptLibrary()
    assert reads == []
    assert library.render("search_plan", bindings_for("search_plan")) == LIBRARY.render(
        "search_plan", bindings_for("search_plan"))
    PromptLibrary(template_dir=template_copy)
    assert "manifest.json" in reads and "search_plan.txt" in reads


def test_user_template_dir_is_the_whole_set(tmp_path):
    """No file falls back to the shipped set: a directory missing one fails to load."""
    with pytest.raises(FileNotFoundError, match="manifest.json"):
        PromptLibrary(template_dir=tmp_path)


def edit_manifest(template_copy: Path, name: str, **fields) -> None:
    """Set `fields` on template `name`'s manifest entry; a None value removes the field."""
    path = template_copy / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for entry in manifest["templates"]:
        if entry["name"] == name:
            entry.update(fields)
            for key in [k for k, v in fields.items() if v is None]:
                del entry[key]
    path.write_text(json.dumps(manifest), encoding="utf-8")


def test_manifest_names_the_model_of_each_template():
    judge = {"pairwise_rank", "novelty_judge"}
    for name in REGISTRY_NAMES:
        assert LIBRARY.get(name).model == ("claude-3.5-sonnet" if name in judge else "gpt-4o")


@pytest.mark.parametrize("model", [None, "", 5])
def test_a_manifest_entry_without_a_model_is_refused(template_copy, model):
    edit_manifest(template_copy, "novelty_judge", model=model)
    with pytest.raises(PromptError, match="template 'novelty_judge': manifest entry has no model"):
        PromptLibrary(template_dir=template_copy)


@pytest.mark.parametrize("schema_name, problem", [
    (None, "manifest entry has no schema_name"),
    ("no_such_schema", "schema_name 'no_such_schema' names no output schema"),
    (5, "schema_name 5 names no output schema"),
], ids=["missing", "unknown", "not_a_string"])
def test_a_manifest_entry_without_a_known_schema_is_refused(template_copy, schema_name, problem):
    """A schema name is checked at load, not at the template's first request."""
    edit_manifest(template_copy, "initial_seed", schema_name=schema_name)
    with pytest.raises(PromptError, match=re.escape(f"template 'initial_seed': {problem}")):
        PromptLibrary(template_dir=template_copy)


def test_a_missing_body_file_is_refused(template_copy):
    (template_copy / "trend_ideas.txt").unlink()
    with pytest.raises(PromptError, match="template 'trend_ideas': no body file trend_ideas.txt"):
        PromptLibrary(template_dir=template_copy)


def test_package_bodies_and_manifest_entries_agree():
    """Every shipped `*.txt` is a manifest entry, and every entry has its `<name>.txt`."""
    shipped = resources.files("nova.templates")
    bodies = {p.name[:-4] for p in shipped.iterdir() if p.name.endswith(".txt")}
    manifest = json.loads((shipped / "manifest.json").read_text(encoding="utf-8"))
    assert bodies == {entry["name"] for entry in manifest["templates"]} == set(REGISTRY_NAMES)
    assert all(set(entry) == {"name", "schema_name", "model"} for entry in manifest["templates"])


def test_only_the_gateway_holds_the_prompt_set():
    """No module of the package but `gateway` and `prompts` imports `PromptLibrary`."""
    users = set()
    for path in Path(nova.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.alias) and node.name == "PromptLibrary") or (
                isinstance(node, ast.Attribute) and node.attr == "PromptLibrary"
            ):
                users.add(path.stem)
    assert users == {"gateway"}  # `prompts` defines it


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_golden_renders_byte_stable(name):
    rendered = LIBRARY.render(name, bindings_for(name))
    golden = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert rendered == golden, f"golden drift for template {name}"


@given(
    st.text(alphabet=st.characters(blacklist_characters="{}"), min_size=1, max_size=30),
    st.text(alphabet=st.characters(blacklist_characters="{}"), min_size=1, max_size=30),
)
def test_render_injective_in_single_binding(a, b):
    """Holding other bindings fixed, distinct values yield distinct renders."""
    base = bindings_for("novelty_judge")
    ra = LIBRARY.render("novelty_judge", {**base, "idea_text": a})
    rb = LIBRARY.render("novelty_judge", {**base, "idea_text": b})
    assert (ra == rb) == (a == b)


@pytest.mark.parametrize(
    "body, message",
    [
        ("a { b", "malformed placeholder at offset 2"),
        ("a } b", "unescaped '}' at offset 2"),
        ("x {1x} y", "malformed placeholder at offset 2"),
        ("{{a} and {b}", "unescaped '}' at offset 3"),
        ("tail {name", "malformed placeholder at offset 5"),
    ],
)
def test_stray_braces_rejected_with_offset(body, message):
    with pytest.raises(PromptError, match=re.escape(f"template 'inline': {message}")):
        placeholders_in(body, "inline")


def test_stray_brace_rejected_at_load(template_copy):
    (template_copy / "search_plan.txt").write_text(
        "{idea_info} {few_shot_example} {plan_json_format} }", encoding="utf-8"
    )
    with pytest.raises(PromptError, match=re.escape("unescaped '}' at offset 50")):
        PromptLibrary(template_dir=template_copy)


def test_tripled_braces_render_a_braced_value(template_copy):
    (template_copy / "search_plan.txt").write_text(
        "{{{idea_info}}} {few_shot_example}{plan_json_format}", encoding="utf-8"
    )
    library = PromptLibrary(template_dir=template_copy)
    assert placeholders_in(library.get("search_plan").body) == {
        "idea_info", "few_shot_example", "plan_json_format"
    }
    rendered = library.render(
        "search_plan", {"idea_info": "value", "few_shot_example": "{x}", "plan_json_format": "}"}
    )
    assert rendered == "{value} {x}}"


# ---------------------------------------------------------------------------
# The compiled render against the regex pass it replaced
# ---------------------------------------------------------------------------

_OLD_TOKEN_RE = re.compile(r"\{\{|\}\}|\{([A-Za-z_][A-Za-z0-9_]*)\}|[{}]")


def old_scan(body: str, template: str, value_of) -> str:
    """The one-regex-pass substitution `render` made before templates were compiled."""

    def token(m: re.Match) -> str:
        if m.group(1) is not None:
            return value_of(m.group(1))
        text = m.group(0)
        if len(text) == 2:
            return text[0]
        if text == "{":
            raise PromptError(f"template {template!r}: malformed placeholder at offset {m.start()}")
        raise PromptError(f"template {template!r}: unescaped '}}' at offset {m.start()}")

    return _OLD_TOKEN_RE.sub(token, body)


def old_render(library: PromptLibrary, name: str, bindings: dict) -> str:
    constants = library._constants
    return old_scan(library.get(name).body, name,
                    lambda p: str(bindings[p] if p in bindings else constants[p]))


BRACED_TEXT = st.text(st.sampled_from("{}ab \n\\{{}}$1"), max_size=12)


@given(st.data())
def test_render_equals_the_regex_pass_on_every_shipped_template(data):
    for name in REGISTRY_NAMES:
        template = LIBRARY.get(name)
        names = sorted(placeholders_in(template.body, name))
        # Every required placeholder, some set constants overridden, and a stray binding.
        bindings = {p: data.draw(BRACED_TEXT) for p in names
                    if p in template.required_placeholders or data.draw(st.booleans())}
        bindings["not_a_placeholder"] = "{ignored}"
        assert LIBRARY.render(name, bindings) == old_render(LIBRARY, name, bindings)


CUSTOM_BODIES = st.lists(
    st.sampled_from(["{idea_info}", "{few_shot_example}", "{plan_json_format}", "{{", "}}",
                     "{{{idea_info}}}", "{", "}", "{1x}", "{a-b}", "{ idea_info}", "text", "\n",
                     "{idea_info", "idea_info}", "{}", "{{}}"]),
    max_size=10,
).map("".join)


def _outcome(fn):
    try:
        return fn()
    except PromptError as exc:
        return ("PromptError", str(exc))


@given(body=CUSTOM_BODIES, value=BRACED_TEXT)
def test_compile_equals_the_regex_pass_on_custom_bodies(body, value):
    """Same text, same placeholders, and the same `PromptError` message for a stray brace."""
    bindings = {"idea_info": value, "few_shot_example": "{x}", "plan_json_format": "}"}

    def value_of(p: str) -> str:
        return bindings.get(p, "")

    def compiled() -> str:
        head, slots = _compile(body, "inline")
        return head + "".join(value_of(p) + text for p, text in slots)

    def old_names() -> set[str]:
        names: set[str] = set()
        old_scan(body, "inline", lambda p: names.add(p) or "")
        return names

    assert _outcome(compiled) == _outcome(lambda: old_scan(body, "inline", value_of))
    assert _outcome(lambda: placeholders_in(body, "inline")) == _outcome(old_names)
