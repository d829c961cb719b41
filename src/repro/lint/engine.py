"""The lint engine: file collection, rule dispatch, aggregation.

Two entry points, one pass:

* :func:`lint_paths` — files and directories on disk (what the CLI and
  the CI gate consume);
* :func:`lint_sources` — an in-memory ``{path: text}`` mapping (what
  the unit tests feed).

Every run parses each file once, builds the
:class:`~repro.lint.project.ProjectIndex` over all of them, runs the
per-file rules (D1–D5) and the whole-program rules (P1–P3), and then
reports as **W1** every ``# repro: allow[...]`` pragma that suppressed
nothing.  Files are visited in sorted order and findings are sorted by
(path, line, col, rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

from repro.lint.findings import Finding, LintError, SourceFile
from repro.lint.project import ProjectIndex
from repro.lint.prules import P_RULES
from repro.lint.rules import D_RULES, ProjectRule, Rule

#: Every rule, in id order.
RULES: Tuple[Union[Rule, ProjectRule], ...] = D_RULES + P_RULES

#: id -> rule instance, for ``--rule`` filtering.
RULES_BY_ID: Dict[str, Union[Rule, ProjectRule]] = {
    rule.rule_id: rule for rule in RULES}

#: The unused-suppression finding's id (an engine pass over what the
#: rules used, not a rule: it cannot be selected or suppressed).
UNUSED_SUPPRESSION_ID = "W1"
UNUSED_SUPPRESSION_TITLE = "every allow[...] pragma suppresses something"


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Files that failed to parse: (path, error message).
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        """Clean run: no unsuppressed finding and every file parsed."""
        return not self.unsuppressed and not self.parse_errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.unsuppressed:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the ``--json`` reporter, ``repro.lint/v1``)."""
        return {
            "schema": "repro.lint/v1",
            "ok": self.ok,
            "files_checked": self.files_checked,
            "counts": {
                "total": len(self.findings),
                "unsuppressed": len(self.unsuppressed),
                "suppressed": len(self.suppressed),
                "by_rule": self.counts_by_rule(),
            },
            "findings": [f.to_dict() for f in self.findings],
            "parse_errors": [{"path": path, "error": error}
                             for path, error in self.parse_errors],
        }


def _select_rules(rule_ids: Optional[Sequence[str]]
                  ) -> Tuple[Union[Rule, ProjectRule], ...]:
    if rule_ids is None:
        return RULES
    unknown = [rule_id for rule_id in rule_ids if rule_id not in RULES_BY_ID]
    if unknown:
        raise LintError(f"unknown rule {unknown[0]!r}; known rules: "
                        f"{', '.join(sorted(RULES_BY_ID))}")
    return tuple(RULES_BY_ID[rule_id] for rule_id in rule_ids)


def lint_sources(texts: Mapping[str, str],
                 rule_ids: Optional[Sequence[str]] = None) -> LintReport:
    """Lint in-memory modules (path -> source text) as one program.

    *rule_ids* restricts the run to the named rules; a file that does
    not parse is recorded in ``parse_errors``, not raised.
    """
    rules = _select_rules(rule_ids)
    report = LintReport(files_checked=len(texts))
    sources: Dict[str, SourceFile] = {}
    for path in sorted(texts):
        try:
            sources[path] = SourceFile.parse(path, texts[path])
        except SyntaxError as exc:
            report.parse_errors.append(
                (path, f"syntax error: {exc.msg} (line {exc.lineno})"))
    index = ProjectIndex.build(sources)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            report.findings.extend(rule.check(index))
            continue
        for path in sorted(sources):
            if rule.applies_to(path):
                report.findings.extend(rule.check(sources[path]))
    report.findings.extend(_unused_suppressions(
        sources, None if rule_ids is None else set(rule_ids)))
    report.findings.sort(key=Finding.sort_key)
    return report


def lint_paths(paths: Iterable[str],
               rule_ids: Optional[Sequence[str]] = None) -> LintReport:
    """Lint every ``.py`` file under *paths* (files or directories)."""
    texts: Dict[str, str] = {}
    unreadable: List[Tuple[str, str]] = []
    for file_path in collect_files(paths):
        try:
            texts[file_path.as_posix()] = file_path.read_text(
                encoding="utf-8")
        except OSError as exc:
            unreadable.append((file_path.as_posix(), f"unreadable: {exc}"))
    report = lint_sources(texts, rule_ids)
    report.files_checked += len(unreadable)
    report.parse_errors = sorted(report.parse_errors + unreadable)
    return report


def _unused_suppressions(sources: Mapping[str, SourceFile],
                         selected: Optional[Set[str]]) -> List[Finding]:
    """W1: pragma tokens no finding used.

    Under a ``--rule`` selection only tokens naming a selected rule are
    judged (the others' findings were never computed), and ``allow[*]``
    not at all.
    """
    findings: List[Finding] = []
    for path in sorted(sources):
        source = sources[path]
        for line in sorted(source.pragmas):
            for token in sorted(source.pragmas[line]):
                if selected is not None and token not in selected:
                    continue
                if (line, token) in source.used_allows:
                    continue
                findings.append(Finding(
                    path=path, line=line, col=0,
                    rule_id=UNUSED_SUPPRESSION_ID,
                    message=f"unused suppression '# repro: allow[{token}]': "
                            "no finding of that rule here; drop the pragma"))
    return findings


def collect_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen = set()
    collected: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintError(f"no such file or directory: {raw!r}")
        candidates = ([path] if path.is_file()
                      else sorted(path.rglob("*.py")))
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            key = candidate.resolve().as_posix()
            if key in seen:
                continue
            seen.add(key)
            collected.append(candidate)
    collected.sort(key=lambda p: p.as_posix())
    return collected
