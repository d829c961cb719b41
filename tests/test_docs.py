"""Doc drift: every back-ticked dotted ``repro.…`` path in the prose
docs resolves by import + ``getattr``.  Schema tags (``repro.x/vN``)
and file paths (``src/repro/…``) are not dotted paths and are skipped."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DOCS = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
DOCS += sorted((ROOT / "docs").glob("*.md"))

_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+(?![\w/])")


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
