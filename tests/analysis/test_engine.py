"""Engine, suppression, and reporter tests for repro.analysis."""

import json
import textwrap

import pytest

from repro.analysis import (AnalysisError, Finding, Linter, Severity,
                            collect_files, lint_paths, lint_source,
                            parse_allow_comments, render_human, render_json,
                            render_sarif)


def lint(code, path="src/repro/_inline.py", rules=None):
    return lint_source(textwrap.dedent(code), path=path, rule_ids=rules)


D1_VIOLATION = """
import random

def pick(items):
    return random.choice(items)
"""


class TestSuppressions:
    def test_same_line_allow(self):
        findings = lint("""
            import random

            def pick(items):
                return random.choice(items)  # repro: allow[D1]
        """)
        assert all(f.suppressed for f in findings if f.rule_id == "D1")

    def test_line_above_allow(self):
        findings = lint("""
            import random

            def pick(items):
                # repro: allow[D1]
                return random.choice(items)
        """)
        assert all(f.suppressed for f in findings if f.rule_id == "D1")

    def test_def_line_allow_covers_whole_scope(self):
        findings = lint("""
            import random

            def pick(items):  # repro: allow[D1]
                a = random.choice(items)
                b = random.random()
                return a, b
        """)
        d1 = [f for f in findings if f.rule_id == "D1"]
        assert len(d1) == 2
        assert all(f.suppressed for f in d1)

    def test_allow_star_suppresses_every_rule(self):
        findings = lint("""
            import time

            def f(items=[]):  # repro: allow[*]
                start = time.time()
                return items, start
        """)
        assert findings
        assert all(f.suppressed for f in findings)

    def test_allow_list_is_rule_specific(self):
        findings = lint("""
            import random

            def pick(items=[]):  # repro: allow[D1]
                return random.choice(items)
        """)
        by_rule = {f.rule_id: f.suppressed for f in findings}
        assert by_rule["D1"] is True
        assert by_rule["D5"] is False

    def test_multi_rule_allow(self):
        allows = parse_allow_comments("x = 1  # repro: allow[D1, D3]\n")
        assert allows == {1: {"D1", "D3"}}

    def test_unrelated_comment_not_an_allow(self):
        assert parse_allow_comments("x = 1  # allow[D1] but not ours\n") == {}


class TestLinterConfig:
    def test_rule_filter_restricts_findings(self):
        findings = lint("""
            import random

            def pick(items=[]):
                return random.choice(items)
        """, rules=["D5"])
        assert {f.rule_id for f in findings} == {"D5"}

    def test_unknown_rule_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            lint_source("x = 1\n", rule_ids=["D9"])

    def test_severity_override(self):
        linter = Linter(severity_overrides={"D1": Severity.WARNING})
        findings = linter.lint_text(D1_VIOLATION, "src/repro/_inline.py")
        assert findings
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_findings_sorted(self):
        findings = lint("""
            import random

            def g(items=[]):
                return random.random()
        """)
        assert findings == sorted(findings, key=Finding.sort_key)


class TestLintPaths:
    def test_report_over_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "routing"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def f():\n    for x in {1, 2}:\n        print(x)\n")
        (pkg / "good.py").write_text("x = 1\n")
        report = lint_paths([str(tmp_path)])
        assert report.files_checked == 2
        assert not report.ok
        assert report.counts_by_rule() == {"D3": 1}

    def test_parse_error_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = lint_paths([str(tmp_path)])
        assert not report.ok
        assert len(report.parse_errors) == 1
        assert "syntax error" in report.parse_errors[0][1]

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError, match="no such file"):
            lint_paths(["/nonexistent/elsewhere"])

    def test_collect_files_sorted_and_deduped(self, tmp_path):
        (tmp_path / "b.py").write_text("")
        (tmp_path / "a.py").write_text("")
        (tmp_path / "c.txt").write_text("")
        files = collect_files([str(tmp_path), str(tmp_path / "a.py")])
        assert [p.name for p in files] == ["a.py", "b.py"]


class TestReporters:
    def _report(self, tmp_path):
        target = tmp_path / "src" / "repro"
        target.mkdir(parents=True)
        (target / "mod.py").write_text(
            "import random\nx = random.random()\n"
            "y = random.random()  # repro: allow[D1]\n")
        return lint_paths([str(tmp_path)])

    def test_json_schema(self, tmp_path):
        payload = json.loads(render_json(self._report(tmp_path)))
        assert payload["schema"] == "repro.analysis/v2"
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["counts"]["total"] == 2
        assert payload["counts"]["actionable"] == 1
        assert payload["counts"]["unsuppressed"] == 1
        assert payload["counts"]["suppressed"] == 1
        assert payload["counts"]["baselined"] == 0
        assert payload["counts"]["by_rule"] == {"D1": 1}
        assert payload["parse_errors"] == []
        assert payload["stale_baseline"] == []
        finding = payload["findings"][0]
        assert set(finding) == {"path", "line", "col", "rule", "severity",
                                "message", "suppressed", "baselined"}
        assert finding["rule"] == "D1"
        assert finding["severity"] == "error"

    def test_human_reporter_lists_findings_and_summary(self, tmp_path):
        text = render_human(self._report(tmp_path))
        assert "D1" in text
        assert "1 finding" in text
        assert "suppressed" in text

    def test_human_reporter_clean_run(self):
        report = lint_paths(["src/repro/analysis"])
        text = render_human(report)
        assert "clean" in text

    def test_sarif_shape_and_suppressions(self, tmp_path):
        doc = json.loads(render_sarif(self._report(tmp_path)))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"D1", "C1", "P1"} <= rule_ids
        results = run["results"]
        assert len(results) == 2
        plain = [r for r in results if "suppressions" not in r]
        suppressed = [r for r in results if "suppressions" in r]
        assert len(plain) == 1 and len(suppressed) == 1
        assert suppressed[0]["suppressions"] == [{"kind": "inSource"}]
        location = plain[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("mod.py")
        assert location["region"]["startLine"] >= 1


class TestParallelParsing:
    def _tree(self, tmp_path):
        target = tmp_path / "src" / "repro" / "routing"
        target.mkdir(parents=True)
        for index in range(8):
            body = "import random\nx = random.random()\n" if index % 2 \
                else "x = 1\n"
            (target / f"mod{index}.py").write_text(body)
        (target / "broken.py").write_text("def f(:\n")
        return str(tmp_path)

    def test_jobs_identical_to_serial(self, tmp_path):
        root = self._tree(tmp_path)
        serial = lint_paths([root])
        parallel = lint_paths([root], jobs=4)
        assert [f.to_dict() for f in parallel.findings] == \
            [f.to_dict() for f in serial.findings]
        assert parallel.parse_errors == serial.parse_errors
        assert parallel.files_checked == serial.files_checked
