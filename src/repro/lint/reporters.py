"""Human and JSON reporters for :class:`~repro.lint.LintReport`."""

from __future__ import annotations

import json
from typing import List

from repro.lint.engine import (RULES, UNUSED_SUPPRESSION_ID,
                               UNUSED_SUPPRESSION_TITLE, LintReport)


def render_human(report: LintReport) -> str:
    """One finding per line, then a summary line — grep-friendly."""
    lines: List[str] = []
    for path, error in report.parse_errors:
        lines.append(f"{path}:1:0: PARSE {error}")
    lines.extend(finding.format() for finding in report.unsuppressed)
    counts = report.counts_by_rule()
    by_rule = ", ".join(f"{rule}={counts[rule]}" for rule in sorted(counts))
    extra = (f" ({len(report.suppressed)} suppressed)"
             if report.suppressed else "")
    if report.ok:
        lines.append(f"checked {report.files_checked} files: clean{extra}")
    else:
        lines.append(f"checked {report.files_checked} files: "
                     f"{len(report.unsuppressed)} finding(s)"
                     + (f" [{by_rule}]" if by_rule else "") + extra)
    return "\n".join(lines)


def render_json(report: LintReport, indent: int = 2) -> str:
    """The stable ``repro.lint/v1`` JSON document (sorted keys)."""
    return json.dumps(report.to_dict(), indent=indent, sort_keys=True)


def render_rule_list() -> str:
    """``--list-rules`` output: id and one-line title."""
    lines = [f"{rule.rule_id:>4}  {rule.title}" for rule in RULES]
    lines.append(f"{UNUSED_SUPPRESSION_ID:>4}  {UNUSED_SUPPRESSION_TITLE}")
    return "\n".join(lines)
