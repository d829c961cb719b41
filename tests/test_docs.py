"""Doc drift: every back-ticked dotted ``repro.…`` path in the prose
docs resolves by import + ``getattr``, and so does every back-ticked
``.member`` in a section headed by a dotted class path.  Schema tags
(``repro.x/vN``) and file paths (``src/repro/…``) are not dotted paths
and are skipped."""

import ast
import importlib
import inspect
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DOCS = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
DOCS += sorted((ROOT / "docs").glob("*.md"))

_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+(?![\w/])")
_HEADING = re.compile(r"^#+ .*$", re.M)
_CLASS_HEADING = re.compile(r"^#+ `(repro(?:\.\w+)+)`$")
_MEMBER = re.compile(r"^\.([A-Za-z_]\w*)")


def _resolve(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_dotted_repro_paths_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    dotted = {path for span in _SPAN.findall(text)
              for path in _DOTTED.findall(span)}
    broken = []
    for path in sorted(dotted):
        try:
            _resolve(path)
        except (ImportError, AttributeError):
            broken.append(path)
    assert not broken, f"{doc.name} names what does not exist: {broken}"


def _class_sections(text):
    """``(dotted class path, section text)`` for each heading that is a
    back-ticked dotted path, the section running to the next heading."""
    headings = list(_HEADING.finditer(text))
    for here, after in zip(headings, headings[1:] + [None]):
        owner = _CLASS_HEADING.match(here.group())
        if owner:
            end = after.start() if after else len(text)
            yield owner.group(1), text[here.end():end]


def _instance_attributes(cls):
    """The names *cls*'s methods assign on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_members_under_a_class_heading_resolve(doc):
    broken = []
    for owner, section in _class_sections(doc.read_text(encoding="utf-8")):
        cls = _resolve(owner)
        for span in _SPAN.findall(section):
            member = _MEMBER.match(span)
            if member and not (hasattr(cls, member.group(1))
                               or member.group(1) in _instance_attributes(cls)):
                broken.append(f"{owner}.{member.group(1)}")
    assert not broken, f"{doc.name} names members that do not exist: {broken}"


def test_the_member_scan_reads_class_sections_only():
    text = ("## `repro.vnbone.VnDeployment`\n| `.deploy(asn)` | x |\n"
            "## Other\n`.nothing`\n")
    sections = list(_class_sections(text))
    assert [owner for owner, _ in sections] == ["repro.vnbone.VnDeployment"]
    spans = [_MEMBER.match(span) for span in _SPAN.findall(sections[0][1])]
    assert [m.group(1) for m in spans if m] == ["deploy"]
    assert "tunnels" in _instance_attributes(_resolve(sections[0][0]))


def test_the_scan_sees_paths_and_skips_schema_tags():
    found = _DOTTED.findall("repro.perf.PathCache repro.trace/v3 "
                            "src/repro/schema.py repro.obs")
    assert found == ["repro.perf.PathCache", "repro.obs"]


def test_cli_listings_name_the_parsers_subcommands():
    """The hand-written listings cannot drift from the parser."""
    import argparse

    from repro import cli

    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    registered = set(subparsers.choices)
    api = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    cli_block = api.split("## CLI\n", 1)[1].split("```")[1]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listings = {
        "cli.py docstring": re.findall(r"^\* ``(\w+)`` —", cli.__doc__, re.M),
        "docs/api.md CLI block": re.findall(r"^python -m repro (\w+)",
                                            cli_block, re.M),
        "README.md": re.search(r"`python -m repro ((?:\w+\|)+\w+)`",
                               readme).group(1).split("|"),
    }
    for where, names in listings.items():
        assert set(names) == registered, where
        assert len(names) == len(registered), f"{where} repeats a name"
