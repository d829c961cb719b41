"""repro.analysis: the determinism & invariant linter.

A stdlib-``ast`` static-analysis engine with project-specific rules
machine-checking the conventions the reproduction's results rest on.

Per-file rules (pass over one module at a time):

* **D1** seeded randomness only — no module-global ``random.*``;
* **D2** wall-clock reads flow only into ``wall_``-prefixed names;
* **D3** deterministic iteration order in routing-critical packages;
* **D4** metric/trace updates guarded by ``obs.enabled``;
* **D5** typed exceptions and immutable defaults in the public API.

Whole-program rules (``--project``: pass 1 builds a
:class:`~repro.analysis.project.ProjectIndex`, pass 2 checks it):

* **C1/C2** cache coherence — topology/FIB mutations must sit on a
  call path through a ``topology_version`` bump or fast-path
  invalidation;
* **P1/P2/P3** fleet safety — registered workload runners touch no
  module-level mutable state, capture no live resources in closures,
  and leak no wall-clock values into unmarked artifact keys.

Typical use::

    from repro.analysis import lint_project

    report = lint_project(["src"])
    assert report.ok, [f.format() for f in report.actionable]

or from the shell (the CI correctness gates)::

    python -m repro lint src/ --json
    python -m repro lint --project src/ --baseline .lint-baseline.json

Findings are suppressed with ``# repro: allow[D1]`` trailing comments
(scope-wide when placed on a ``def``/``class`` line), absorbed by a
committed baseline (``--baseline``), and audited for staleness with
``--warn-unused-suppressions``; see ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.analysis.baseline import BASELINE_SCHEMA, Baseline, finding_key
from repro.analysis.crules import C_RULES, FibCoherenceRule, \
    TopologyMutationRule
from repro.analysis.engine import (PROJECT_RULES, PROJECT_RULES_BY_ID,
                                   UNUSED_SUPPRESSION_ID, Linter, LintReport,
                                   collect_files, lint_paths, lint_project,
                                   lint_project_sources, lint_source)
from repro.analysis.findings import (ALLOW_ALL, AnalysisError, Finding,
                                     Severity, SourceFile,
                                     parse_allow_comments)
from repro.analysis.project import ProjectIndex, module_name_for_path
from repro.analysis.prules import (P_RULES, ClosureCaptureRule,
                                   ModuleStateRule, WallClockArtifactRule)
from repro.analysis.reporters import (render_human, render_json,
                                      render_rule_list, render_sarif)
from repro.analysis.rules import (DEFAULT_RULES, RULES_BY_ID,
                                  HotPathGuardRule, OrderedIterationRule,
                                  ProjectRule, PublicApiRule, Rule,
                                  SeededRandomRule, WallClockRule)

__all__ = ["ALLOW_ALL", "AnalysisError", "BASELINE_SCHEMA", "Baseline",
           "C_RULES", "ClosureCaptureRule", "DEFAULT_RULES",
           "FibCoherenceRule", "Finding", "HotPathGuardRule", "Linter",
           "LintReport", "ModuleStateRule", "OrderedIterationRule",
           "PROJECT_RULES", "PROJECT_RULES_BY_ID", "P_RULES", "ProjectIndex",
           "ProjectRule", "PublicApiRule", "RULES_BY_ID", "Rule",
           "SeededRandomRule", "Severity", "SourceFile",
           "TopologyMutationRule", "UNUSED_SUPPRESSION_ID",
           "WallClockArtifactRule", "WallClockRule", "collect_files",
           "finding_key", "lint_paths", "lint_project",
           "lint_project_sources", "lint_source", "module_name_for_path",
           "parse_allow_comments", "render_human", "render_json",
           "render_rule_list", "render_sarif"]
