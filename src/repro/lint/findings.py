"""The finding type plus suppression-comment parsing.

A :class:`Finding` is one rule violation at one source location.  The
suppression syntax is a trailing comment::

    picker = random.Random(...)  # repro: allow[D1]

An ``allow`` comment suppresses the named rules on its own line and on
the line immediately after it (so a comment can sit above a long
statement).  Placed on a ``def`` or ``class`` line, it suppresses the
named rules for the whole scope — the idiom for helpers whose callers
hold the invariant (e.g. a metric-flush method only invoked under an
``obs.enabled`` guard).  ``allow[*]`` suppresses every rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, Set, Tuple

from repro.net.errors import ReproError


class LintError(ReproError):
    """The lint engine was misconfigured (unknown rule, bad path...)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    suppressed: bool = False

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule_id, "message": self.message,
                "suppressed": self.suppressed}

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")


#: Pragma shapes: ``allow[D1]``, ``allow[D1, D3]``, ``allow[*]``, each
#: in a trailing comment after the ``repro:`` marker.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")

#: Matches every rule id in an ``allow[*]`` comment.
ALLOW_ALL = "*"


def parse_allow_comments(text: str) -> Dict[int, Set[str]]:
    """Line number (1-based) -> rule ids allowed on that line.

    Only genuine ``#`` comments count: a pragma *mentioned* in a
    docstring or string literal neither suppresses anything nor trips
    the unused-suppression warning.
    """
    allowed: Dict[int, Set[str]] = {}
    for lineno, comment in _comment_lines(text):
        match = _ALLOW_RE.search(comment)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",")
                 if part.strip()}
        if rules:
            allowed[lineno] = rules
    return allowed


def _comment_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(lineno, comment text) for every real comment token in *text*.

    Falls back to a whole-line regex scan if tokenization fails — on
    files that do not parse, over-matching beats losing suppressions.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        for lineno, line in enumerate(text.splitlines(), start=1):
            yield lineno, line
        return
    for token in tokens:
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


@dataclass
class SourceFile:
    """One parsed module handed to every rule: path, text, tree, allows."""

    path: str
    text: str
    tree: ast.Module
    #: Per-line suppressions, scope suppressions already expanded.
    allow: Dict[int, Set[str]] = field(default_factory=dict)
    #: Raw pragma comments as written: line -> tokens (rule ids or ``*``).
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    #: Effective line -> token -> pragma lines the token expanded from.
    allow_origins: Dict[int, Dict[str, Set[int]]] = field(default_factory=dict)
    #: ``(pragma_line, token)`` pairs that suppressed at least one finding.
    used_allows: Set[Tuple[int, str]] = field(default_factory=set)

    @classmethod
    def parse(cls, path: str, text: str) -> "SourceFile":
        tree = ast.parse(text, filename=path)
        pragmas = parse_allow_comments(text)
        allow = {line: set(tokens) for line, tokens in pragmas.items()}
        origins = {line: {token: {line} for token in tokens}
                   for line, tokens in pragmas.items()}
        _expand_scope_allows(tree, allow, origins)
        return cls(path=path, text=text, tree=tree, allow=allow,
                   pragmas=pragmas, allow_origins=origins)

    def is_allowed(self, rule_id: str, line: int) -> bool:
        """Is *rule_id* suppressed at *line* (same line or the one above)?

        A hit also records which pragma satisfied it, so the engine's
        W1 pass can flag the ones that suppressed nothing.
        """
        hit = False
        for candidate in (line, line - 1):
            rules = self.allow.get(candidate)
            if not rules:
                continue
            origins = self.allow_origins.get(candidate, {})
            for token in (rule_id, ALLOW_ALL):
                if token in rules:
                    hit = True
                    for pragma_line in origins.get(token, ()):
                        self.used_allows.add((pragma_line, token))
        return hit


def _expand_scope_allows(tree: ast.Module, allow: Dict[int, Set[str]],
                         origins: Dict[int, Dict[str, Set[int]]]) -> None:
    """An allow on a ``def``/``class`` line covers the whole scope."""
    scope_nodes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.walk(tree):
        if not isinstance(node, scope_nodes):
            continue
        rules = allow.get(node.lineno)
        if not rules:
            continue
        tokens = set(rules)
        # Tokens already expanded onto this line (e.g. from an enclosing
        # class pragma) keep their original pragma line as origin.
        source_origins = dict(origins.get(node.lineno, {}))
        end = node.end_lineno if node.end_lineno is not None else node.lineno
        for line in range(node.lineno, end + 1):
            allow.setdefault(line, set()).update(tokens)
            per_line = origins.setdefault(line, {})
            for token in tokens:
                per_line.setdefault(token, set()).update(
                    source_origins.get(token, {node.lineno}))
