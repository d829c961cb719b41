"""Engine, suppression, and reporter tests for repro.lint."""

import json
import textwrap

import pytest

from repro.lint import (Finding, LintError, collect_files, lint_paths,
                        lint_sources, parse_allow_comments, render_human,
                        render_json)


def lint(code, path="src/repro/_inline.py", rules=None):
    return lint_sources({path: textwrap.dedent(code)},
                        rule_ids=rules).findings


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
        with pytest.raises(LintError, match="unknown rule"):
            lint("x = 1\n", rules=["D9"])

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
        with pytest.raises(LintError, match="no such file"):
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
        # The shape itself is held by tests/test_schema.py against
        # repro.schema.SCHEMAS; this pins the values of one small run.
        payload = json.loads(render_json(self._report(tmp_path)))
        assert payload["schema"] == "repro.lint/v1"
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"total": 2, "unsuppressed": 1,
                                     "suppressed": 1, "by_rule": {"D1": 1}}
        assert payload["parse_errors"] == []
        assert [f["suppressed"] for f in payload["findings"]] == [False, True]

    def test_human_reporter_lists_findings_and_summary(self, tmp_path):
        text = render_human(self._report(tmp_path))
        assert "D1" in text
        assert "1 finding" in text
        assert "suppressed" in text

    def test_human_reporter_clean_run(self):
        report = lint_paths(["src/repro/lint"])
        text = render_human(report)
        assert "clean" in text
