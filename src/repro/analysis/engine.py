"""The lint engine: file collection, rule dispatch, aggregation.

Public entry points:

* :func:`lint_paths` — per-file rules over files/directories, returning
  a :class:`LintReport` (what the CLI and CI gate consume);
* :func:`lint_project` — the two-pass whole-program analysis: per-file
  rules plus the C/P project rules over a shared
  :class:`~repro.analysis.project.ProjectIndex`;
* :func:`lint_source` / :func:`lint_project_sources` — in-memory
  variants for unit tests;
* :class:`Linter` — the configurable core, for callers that want rule
  subsets, severity overrides, or parallel parsing (``jobs``).

Each source file is parsed exactly once; the resulting
:class:`~repro.analysis.findings.SourceFile` (tree + suppression map)
is shared by every per-file rule and by the project index.  With
``jobs > 1`` parsing fans out over a process pool; everything after the
parse is deterministic single-process work, so findings are identical
at any job count.  Files are visited in sorted order and findings are
sorted by (path, line, col, rule).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

from repro.analysis.baseline import Baseline
from repro.analysis.crules import C_RULES
from repro.analysis.findings import (ALLOW_ALL, AnalysisError, Finding,
                                     Severity, SourceFile)
from repro.analysis.project import ProjectIndex
from repro.analysis.prules import P_RULES
from repro.analysis.rules import (DEFAULT_RULES, RULES_BY_ID, ProjectRule,
                                  Rule)

#: Every whole-program rule, in family order — pass 2's default set.
PROJECT_RULES: Tuple[ProjectRule, ...] = C_RULES + P_RULES

#: id -> project rule instance.
PROJECT_RULES_BY_ID: Dict[str, ProjectRule] = {
    rule.rule_id: rule for rule in PROJECT_RULES}

#: The stale-suppression warning's id (engine-level pass, not a Rule).
UNUSED_SUPPRESSION_ID = "W1"


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Files that failed to parse: (path, error message).
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Baseline entries no current finding matched (stale budget).
    stale_baseline: List[str] = field(default_factory=list)

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def baselined(self) -> List[Finding]:
        return [f for f in self.findings if f.baselined]

    @property
    def actionable(self) -> List[Finding]:
        """Findings that demand action: neither suppressed nor baselined."""
        return [f for f in self.findings
                if not f.suppressed and not f.baselined]

    @property
    def ok(self) -> bool:
        """Clean run: no actionable errors and every file parsed.

        Warnings (demoted rules, stale-suppression notices) inform but
        do not gate.
        """
        errors = [f for f in self.actionable
                  if f.severity is Severity.ERROR]
        return not errors and not self.parse_errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.actionable:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the ``--json`` reporter schema, v2)."""
        return {
            "schema": "repro.analysis/v2",
            "ok": self.ok,
            "files_checked": self.files_checked,
            "counts": {
                "total": len(self.findings),
                "actionable": len(self.actionable),
                "unsuppressed": len(self.unsuppressed),
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
                "by_rule": self.counts_by_rule(),
            },
            "findings": [f.to_dict() for f in self.findings],
            "parse_errors": [{"path": path, "error": error}
                             for path, error in self.parse_errors],
            "stale_baseline": list(self.stale_baseline),
        }


RuleSelection = Tuple[Tuple[Rule, ...], Tuple[ProjectRule, ...]]


def _resolve_rules(rule_ids: Optional[Sequence[str]],
                   project: bool = False) -> RuleSelection:
    """Split requested ids into (per-file rules, project rules).

    With no ids: all defaults (project rules only when *project*).
    """
    if rule_ids is None:
        return DEFAULT_RULES, (PROJECT_RULES if project else ())
    file_rules: List[Rule] = []
    project_rules: List[ProjectRule] = []
    for rule_id in rule_ids:
        if rule_id in RULES_BY_ID:
            file_rules.append(RULES_BY_ID[rule_id])
        elif rule_id in PROJECT_RULES_BY_ID:
            project_rules.append(PROJECT_RULES_BY_ID[rule_id])
        else:
            known = ", ".join(sorted(RULES_BY_ID)
                              + sorted(PROJECT_RULES_BY_ID))
            raise AnalysisError(
                f"unknown rule {rule_id!r}; known rules: {known}") from None
    if project_rules and not project:
        names = ", ".join(r.rule_id for r in project_rules)
        raise AnalysisError(
            f"rule(s) {names} need the project index; run with --project")
    return tuple(file_rules), tuple(project_rules)


def _parse_one(item: Tuple[str, str]
               ) -> Tuple[str, Union[SourceFile, Tuple[str, str]]]:
    """Pool worker: parse one (path, text) into a SourceFile."""
    path, text = item
    try:
        return "ok", SourceFile.parse(path, text)
    except SyntaxError as exc:
        return "error", (path, f"syntax error: {exc.msg} "
                         f"(line {exc.lineno})")


class Linter:
    """Runs a rule set over source files.

    Parameters
    ----------
    rules:
        Per-file rule instances to run (default: ``DEFAULT_RULES``).
    project_rules:
        Whole-program rules for :meth:`lint_project` (default: the
        C/P families in ``PROJECT_RULES``).
    severity_overrides:
        Optional ``rule_id -> Severity`` remapping, e.g. demoting a
        rule to :attr:`Severity.WARNING` during a migration.
    jobs:
        Process count for the parse stage (1 = in-process).
    warn_unused_suppressions:
        Emit ``W1`` warnings for ``# repro: allow[...]`` pragmas that
        suppressed nothing.
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 project_rules: Optional[Sequence[ProjectRule]] = None,
                 severity_overrides: Optional[Dict[str, Severity]] = None,
                 jobs: int = 1,
                 warn_unused_suppressions: bool = False) -> None:
        self.rules: Tuple[Rule, ...] = (
            tuple(rules) if rules is not None else DEFAULT_RULES)
        self.project_rules: Tuple[ProjectRule, ...] = (
            tuple(project_rules) if project_rules is not None
            else PROJECT_RULES)
        self.severity_overrides: Dict[str, Severity] = dict(
            severity_overrides or {})
        if jobs < 1:
            raise AnalysisError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.warn_unused_suppressions = warn_unused_suppressions

    # -- single-file lint ---------------------------------------------------
    def lint_parsed(self, source: SourceFile) -> List[Finding]:
        """Run the per-file rules over one already-parsed module."""
        findings: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(source.path):
                continue
            for finding in rule.check(source):
                findings.append(self._override(finding))
        findings.sort(key=Finding.sort_key)
        return findings

    def lint_text(self, text: str, path: str = "<string>") -> List[Finding]:
        """Lint one in-memory module; raises SyntaxError on bad input."""
        return self.lint_parsed(SourceFile.parse(path, text))

    def _override(self, finding: Finding) -> Finding:
        override = self.severity_overrides.get(finding.rule_id)
        if override is not None and override != finding.severity:
            finding = replace(finding, severity=override)
        return finding

    # -- parsing ------------------------------------------------------------
    def _parse_all(self, texts: Dict[str, str],
                   report: LintReport) -> Dict[str, SourceFile]:
        """Parse every file once (fanned out when ``jobs > 1``)."""
        items = sorted(texts.items())
        if self.jobs > 1 and len(items) > 1:
            with multiprocessing.Pool(processes=self.jobs) as pool:
                results = pool.map(_parse_one, items,
                                   chunksize=max(1, len(items) // (
                                       self.jobs * 4)))
        else:
            results = [_parse_one(item) for item in items]
        sources: Dict[str, SourceFile] = {}
        for status, payload in results:
            if status == "ok":
                assert isinstance(payload, SourceFile)
                sources[payload.path] = payload
            else:
                assert isinstance(payload, tuple)
                report.parse_errors.append(payload)
        return sources

    def _read_files(self, paths: Iterable[str],
                    report: LintReport) -> Dict[str, str]:
        texts: Dict[str, str] = {}
        for file_path in collect_files(paths):
            report.files_checked += 1
            try:
                texts[file_path.as_posix()] = file_path.read_text(
                    encoding="utf-8")
            except OSError as exc:
                report.parse_errors.append(
                    (file_path.as_posix(), f"unreadable: {exc}"))
        return texts

    # -- multi-file lint ----------------------------------------------------
    def lint_paths(self, paths: Iterable[str]) -> LintReport:
        """Lint every ``.py`` file under *paths* (files or directories)."""
        report = LintReport()
        texts = self._read_files(paths, report)
        sources = self._parse_all(texts, report)
        for path in sorted(sources):
            report.findings.extend(self.lint_parsed(sources[path]))
        self._finish(report, sources, project=False)
        return report

    def lint_project(self, paths: Iterable[str],
                     baseline: Optional[Baseline] = None) -> LintReport:
        """Two-pass whole-program lint: per-file rules + C/P families."""
        report = LintReport()
        texts = self._read_files(paths, report)
        sources = self._parse_all(texts, report)
        report.findings.extend(self._run_all(sources))
        self._finish(report, sources, project=True, baseline=baseline)
        return report

    def lint_project_sources(self, texts: Mapping[str, str],
                             baseline: Optional[Baseline] = None
                             ) -> LintReport:
        """Whole-program lint over in-memory sources (test entry point).

        Raises :class:`SyntaxError` pass-through as parse errors, same
        as the file-based variant.
        """
        report = LintReport()
        report.files_checked = len(texts)
        sources = self._parse_all(dict(texts), report)
        report.findings.extend(self._run_all(sources))
        self._finish(report, sources, project=True, baseline=baseline)
        return report

    def _run_all(self, sources: Dict[str, SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        for path in sorted(sources):
            findings.extend(self.lint_parsed(sources[path]))
        index = ProjectIndex.build(sources)
        for rule in self.project_rules:
            for finding in rule.check(index):
                findings.append(self._override(finding))
        return findings

    def _finish(self, report: LintReport, sources: Dict[str, SourceFile],
                project: bool, baseline: Optional[Baseline] = None) -> None:
        if self.warn_unused_suppressions:
            report.findings.extend(
                self._unused_suppressions(sources, project))
        if baseline is not None:
            report.findings, report.stale_baseline = baseline.apply(
                report.findings)
        report.findings.sort(key=Finding.sort_key)

    # -- stale suppressions -------------------------------------------------
    def _unused_suppressions(self, sources: Dict[str, SourceFile],
                             project: bool) -> List[Finding]:
        """W1: pragmas whose rule fired nowhere in their scope.

        Only pragmas naming rules that actually ran on that file are
        judged (a ``D3`` allow in a file D3 does not apply to is not
        *stale*, it is out of scope for this run); ``allow[*]`` is
        judged against any rule having used it.
        """
        findings: List[Finding] = []
        project_ids = ({rule.rule_id for rule in self.project_rules}
                       if project else set())
        for path in sorted(sources):
            source = sources[path]
            active = {rule.rule_id for rule in self.rules
                      if rule.applies_to(path)} | project_ids
            for line in sorted(source.pragmas):
                for token in sorted(source.pragmas[line]):
                    if token != ALLOW_ALL and token not in active:
                        continue
                    if (line, token) in source.used_allows:
                        continue
                    label = ("allow[*]" if token == ALLOW_ALL
                             else f"allow[{token}]")
                    findings.append(Finding(
                        path=path, line=line, col=0,
                        rule_id=UNUSED_SUPPRESSION_ID,
                        severity=Severity.WARNING,
                        message=f"unused suppression '# repro: {label}': "
                                "no finding of that rule here anymore; "
                                "drop the stale pragma"))
        return findings


def collect_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen = set()
    collected: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise AnalysisError(f"no such file or directory: {raw!r}")
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


def lint_paths(paths: Iterable[str],
               rule_ids: Optional[Sequence[str]] = None,
               jobs: int = 1,
               warn_unused_suppressions: bool = False) -> LintReport:
    """Lint files/directories with the named per-file rules."""
    file_rules, _ = _resolve_rules(rule_ids, project=False)
    return Linter(rules=file_rules, jobs=jobs,
                  warn_unused_suppressions=warn_unused_suppressions
                  ).lint_paths(paths)


def lint_project(paths: Iterable[str],
                 rule_ids: Optional[Sequence[str]] = None,
                 jobs: int = 1,
                 baseline: Optional[Baseline] = None,
                 warn_unused_suppressions: bool = False) -> LintReport:
    """Whole-program lint: per-file rules plus the C/P families."""
    file_rules, project_rules = _resolve_rules(rule_ids, project=True)
    return Linter(rules=file_rules, project_rules=project_rules, jobs=jobs,
                  warn_unused_suppressions=warn_unused_suppressions
                  ).lint_project(paths, baseline=baseline)


def lint_project_sources(texts: Mapping[str, str],
                         rule_ids: Optional[Sequence[str]] = None,
                         baseline: Optional[Baseline] = None,
                         warn_unused_suppressions: bool = False
                         ) -> LintReport:
    """Whole-program lint over in-memory sources (unit-test entry)."""
    file_rules, project_rules = _resolve_rules(rule_ids, project=True)
    return Linter(rules=file_rules, project_rules=project_rules,
                  warn_unused_suppressions=warn_unused_suppressions
                  ).lint_project_sources(texts, baseline=baseline)


def lint_source(text: str, path: str = "src/repro/_inline.py",
                rule_ids: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one source string — the unit-test entry point.

    The default *path* places the module inside the library tree so
    path-scoped rules (D1/D2/D4/D5) apply; pass an explicit path such
    as ``"src/repro/routing/_inline.py"`` to exercise D3.
    """
    file_rules, _ = _resolve_rules(rule_ids, project=False)
    return Linter(rules=file_rules).lint_text(text, path)
