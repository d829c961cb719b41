"""Suppression scoping across the C/P families, plus W1 staleness."""

import textwrap

from repro.analysis import (UNUSED_SUPPRESSION_ID, Baseline, Severity,
                            lint_paths, lint_project_sources)


def project(files, rules=None, **kw):
    texts = {path: textwrap.dedent(text) for path, text in files.items()}
    return lint_project_sources(texts, rule_ids=rules, **kw)


class TestProjectRuleSuppression:
    def test_line_level_allow_c1(self):
        report = project({"src/repro/net/core.py": """
            class Network:
                def __init__(self):
                    self.links = {}

                def drop_link(self, key):
                    del self.links[key]  # repro: allow[C1]
        """}, rules=["C1"])
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule_id == "C1"

    def test_def_line_allow_covers_whole_runner(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            _CACHE = {}

            @register("demo")
            def runner(seed, params):  # repro: allow[P1]
                _CACHE[seed] = params
                _CACHE["last"] = seed
                return {"result": 1}
        """}, rules=["P1"])
        assert report.ok
        assert len(report.suppressed) == 2
        assert all(f.rule_id == "P1" for f in report.suppressed)

    def test_allow_is_rule_specific_across_families(self):
        report = project({"src/repro/experiments/demo.py": """
            import time
            from repro.experiments.base import register

            _CACHE = {}

            @register("demo")
            def runner(seed, params):  # repro: allow[P1]
                _CACHE[seed] = params
                return {"elapsed": time.time()}
        """}, rules=["P1", "P3"])
        assert not report.ok
        assert [f.rule_id for f in report.actionable] == ["P3"]
        assert [f.rule_id for f in report.suppressed] == ["P1"]

    def test_def_line_allow_c2(self):
        report = project({"src/repro/net/core.py": """
            def reroute(fib, old, new):  # repro: allow[C2]
                fib.withdraw(old)
                fib.install(new)
        """}, rules=["C2"])
        assert report.ok
        assert len(report.suppressed) == 2

    def test_suppressed_never_enters_baseline(self):
        files = {"src/repro/net/core.py": """
            class Network:
                def __init__(self):
                    self.links = {}

                def drop_link(self, key):
                    del self.links[key]  # repro: allow[C1]
        """}
        report = project(files, rules=["C1"])
        assert Baseline.from_findings(report.findings).entries == {}

    def test_baseline_and_suppression_do_not_overlap(self):
        files = {"src/repro/net/core.py": """
            class Network:
                def __init__(self):
                    self.links = {}

                def drop_link(self, key):
                    del self.links[key]  # repro: allow[C1]

                def drop_other(self, key):
                    del self.links[key]
        """}
        first = project(files, rules=["C1"])
        baseline = Baseline.from_findings(first.findings)
        report = project(files, rules=["C1"], baseline=baseline)
        assert report.ok
        assert len(report.suppressed) == 1
        assert len(report.baselined) == 1
        assert not report.suppressed[0].baselined


class TestUnusedSuppressionWarnings:
    def test_stale_pragma_warned(self):
        report = project({"src/repro/net/core.py": """
            def helper(x):
                return x + 1  # repro: allow[C1]
        """}, warn_unused_suppressions=True)
        warnings = [f for f in report.findings
                    if f.rule_id == UNUSED_SUPPRESSION_ID]
        assert len(warnings) == 1
        assert "C1" in warnings[0].message
        assert warnings[0].severity is Severity.WARNING
        assert report.ok  # warnings inform, they do not gate

    def test_used_pragma_not_warned(self):
        report = project({"src/repro/net/core.py": """
            class Network:
                def __init__(self):
                    self.links = {}

                def drop_link(self, key):
                    del self.links[key]  # repro: allow[C1]
        """}, warn_unused_suppressions=True)
        assert not any(f.rule_id == UNUSED_SUPPRESSION_ID
                       for f in report.findings)

    def test_scope_pragma_used_deep_in_function_not_warned(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            _CACHE = {}

            @register("demo")
            def runner(seed, params):  # repro: allow[P1]
                if params:
                    _CACHE[seed] = params
                return {"result": 1}
        """}, warn_unused_suppressions=True)
        assert not any(f.rule_id == UNUSED_SUPPRESSION_ID
                       for f in report.findings)

    def test_unused_star_pragma_warned(self):
        report = project({"src/repro/net/core.py": """
            def helper(x):
                return x + 1  # repro: allow[*]
        """}, warn_unused_suppressions=True)
        warnings = [f for f in report.findings
                    if f.rule_id == UNUSED_SUPPRESSION_ID]
        assert len(warnings) == 1

    def test_project_only_pragma_not_judged_in_per_file_run(self, tmp_path):
        target = tmp_path / "src" / "repro" / "net"
        target.mkdir(parents=True)
        (target / "mod.py").write_text(
            "def helper(x):\n    return x + 1  # repro: allow[C1]\n")
        report = lint_paths([str(tmp_path)], warn_unused_suppressions=True)
        assert not any(f.rule_id == UNUSED_SUPPRESSION_ID
                       for f in report.findings)

    def test_off_by_default(self):
        report = project({"src/repro/net/core.py": """
            def helper(x):
                return x + 1  # repro: allow[C1]
        """})
        assert not any(f.rule_id == UNUSED_SUPPRESSION_ID
                       for f in report.findings)
