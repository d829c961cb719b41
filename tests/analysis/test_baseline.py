"""Baseline tests: absorb known findings, surface new and stale ones."""

import json
import textwrap

import pytest

from repro.analysis import (AnalysisError, Baseline, finding_key,
                            lint_project_sources)

NETWORK = "src/repro/net/core.py"


def network_source(*methods):
    return "class Network:\n" + "".join(
        textwrap.indent(textwrap.dedent(method), "    ")
        for method in methods)


DROP_LINK = """
    def drop_link(self, key):
        del self.links[key]
"""

#: One C1 finding: a link-table write no caller chain bumps.
UNBUMPED = {NETWORK: network_source(DROP_LINK)}


def lint(files, baseline=None):
    return lint_project_sources(files, rule_ids=["C1", "C2"],
                                baseline=baseline)


class TestBaselineRoundTrip:
    def test_known_findings_absorbed(self):
        first = lint(UNBUMPED)
        assert not first.ok
        baseline = Baseline.from_findings(first.findings)
        second = lint(UNBUMPED, baseline=baseline)
        assert second.ok
        assert len(second.baselined) == 1
        assert second.actionable == []
        assert second.stale_baseline == []

    def test_new_finding_stays_actionable(self):
        baseline = Baseline.from_findings(lint(UNBUMPED).findings)
        files = {NETWORK: network_source(DROP_LINK, """
            def reroute(self, fib, prefix):
                fib.withdraw(prefix)
        """)}
        report = lint(files, baseline=baseline)
        assert not report.ok
        assert [f.rule_id for f in report.actionable] == ["C2"]

    def test_fixed_finding_reported_stale(self):
        baseline = Baseline.from_findings(lint(UNBUMPED).findings)
        files = {NETWORK: network_source("""
            def drop_link(self, key):
                del self.links[key]
                self._bump_topology_version()
        """)}
        report = lint(files, baseline=baseline)
        assert report.ok
        assert len(report.stale_baseline) == 1
        assert "C1" in report.stale_baseline[0]

    def test_key_is_line_drift_proof(self):
        baseline = Baseline.from_findings(lint(UNBUMPED).findings)
        files = {NETWORK: "# a new leading comment\n# another\n"
                 + UNBUMPED[NETWORK]}
        report = lint(files, baseline=baseline)
        assert report.ok
        assert len(report.baselined) == 1

    def test_count_budget_marks_only_that_many(self):
        files = {NETWORK: network_source("""
            def drop_link(self, key, twin):
                del self.links[key]
                del self.links[twin]
        """)}
        two = lint(files)
        assert len(two.findings) == 2
        key = finding_key(two.findings[0])
        assert finding_key(two.findings[1]) == key
        report = lint(files, baseline=Baseline(entries={key: 1}))
        assert len(report.baselined) == 1
        assert len(report.actionable) == 1

    def test_suppressed_findings_not_written(self):
        files = {NETWORK: network_source("""
            def drop_link(self, key):  # repro: allow[C1]
                del self.links[key]
        """)}
        report = lint(files)
        assert report.ok
        baseline = Baseline.from_findings(report.findings)
        assert baseline.entries == {}


class TestBaselineFile:
    def test_save_and_load(self, tmp_path):
        baseline = Baseline.from_findings(lint(UNBUMPED).findings)
        path = tmp_path / "baseline.json"
        baseline.save(str(path))
        loaded = Baseline.from_file(str(path))
        assert loaded.entries == baseline.entries
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.analysis-baseline/v1"

    def test_missing_file_raises(self):
        with pytest.raises(AnalysisError, match="baseline file"):
            Baseline.from_file("/nonexistent/baseline.json")

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"schema": "bogus/v9", "entries": {}}')
        with pytest.raises(AnalysisError, match="schema"):
            Baseline.from_file(str(path))

    def test_malformed_entries_raise(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"schema": "repro.analysis-baseline/v1",
             "entries": {"a::b::c": "not-a-count"}}))
        with pytest.raises(AnalysisError, match="bad entry"):
            Baseline.from_file(str(path))
