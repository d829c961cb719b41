"""repro.lint: the determinism & invariant linter.

A stdlib-``ast`` static-analysis engine with project-specific rules
machine-checking the conventions the reproduction's results rest on.
Every run is one whole-program pass: each file is parsed once, a
:class:`~repro.lint.project.ProjectIndex` is built over all of them,
and every rule runs.

Per-file rules:

* **D1** seeded randomness only — no module-global ``random.*``;
* **D2** wall-clock reads flow only into ``wall_``-prefixed names;
* **D3** deterministic iteration order in routing-critical packages;
* **D4** metric/trace updates guarded by ``obs.enabled``;
* **D5** typed exceptions and immutable defaults in the public API.

Whole-program rules:

* **P1/P2/P3** fleet safety — registered workload runners touch no
  module-level mutable state, capture no live resources in closures,
  and leak no wall-clock values into unmarked artifact keys.

And **W1**: a ``# repro: allow[...]`` pragma that suppressed nothing.

Typical use::

    from repro.lint import lint_paths

    report = lint_paths(["src"])
    assert report.ok, [f.format() for f in report.unsuppressed]

or from the shell (the CI correctness gate)::

    python -m repro lint src --json

Findings are suppressed with ``# repro: allow[D1]`` trailing comments
(scope-wide when placed on a ``def``/``class`` line); see
``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.lint.engine import (RULES, RULES_BY_ID, UNUSED_SUPPRESSION_ID,
                               LintReport, collect_files, lint_paths,
                               lint_sources)
from repro.lint.findings import (ALLOW_ALL, Finding, LintError, SourceFile,
                                 parse_allow_comments)
from repro.lint.project import ProjectIndex, module_name_for_path
from repro.lint.prules import (P_RULES, ClosureCaptureRule, ModuleStateRule,
                               WallClockArtifactRule)
from repro.lint.reporters import render_human, render_json, render_rule_list
from repro.lint.rules import (D_RULES, HotPathGuardRule, OrderedIterationRule,
                              ProjectRule, PublicApiRule, Rule,
                              SeededRandomRule, WallClockRule)

__all__ = ["ALLOW_ALL", "ClosureCaptureRule", "D_RULES", "Finding",
           "HotPathGuardRule", "LintError", "LintReport", "ModuleStateRule",
           "OrderedIterationRule", "P_RULES", "ProjectIndex", "ProjectRule",
           "PublicApiRule", "RULES", "RULES_BY_ID", "Rule",
           "SeededRandomRule", "SourceFile", "UNUSED_SUPPRESSION_ID",
           "WallClockArtifactRule", "WallClockRule", "collect_files",
           "lint_paths", "lint_sources", "module_name_for_path",
           "parse_allow_comments", "render_human", "render_json",
           "render_rule_list"]
