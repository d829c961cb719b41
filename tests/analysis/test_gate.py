"""The meta-test: the repository's own source tree must lint clean.

This is the same gate CI runs (``python -m repro lint src --json`` and
``python -m repro lint --project src --baseline .lint-baseline.json``);
keeping it in the tier-1 suite means a determinism-convention or
whole-program-invariant regression fails the ordinary test run, not
just the lint jobs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import (Baseline, lint_paths, lint_project,
                            render_rule_list)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / ".lint-baseline.json"


class TestSourceTreeIsClean:
    def test_lint_src_programmatic(self):
        report = lint_paths([str(SRC)])
        assert report.parse_errors == []
        assert report.ok, "\n".join(f.format() for f in report.unsuppressed)

    def test_lint_src_cli_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC), "--json"],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["schema"] == "repro.analysis/v2"
        assert payload["ok"] is True
        assert payload["counts"]["unsuppressed"] == 0

    def test_cli_reports_findings_with_exit_one(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "net" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f():\n    for x in {1, 2}:\n        print(x)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(tmp_path), "--json"],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["counts"]["by_rule"] == {"D3": 1}

    def test_cli_bad_rule_exits_two(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC),
             "--rule", "D9"],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr


class TestProjectGate:
    """The whole-program (C/P) analysis over src must also be clean."""

    def test_lint_project_programmatic(self):
        baseline = Baseline.from_file(str(BASELINE))
        report = lint_project([str(SRC)], baseline=baseline)
        assert report.parse_errors == []
        assert report.ok, "\n".join(f.format() for f in report.actionable)

    def test_baseline_has_no_stale_entries(self):
        baseline = Baseline.from_file(str(BASELINE))
        report = lint_project([str(SRC)], baseline=baseline)
        assert report.stale_baseline == []

    def test_lint_project_cli_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--project", str(SRC),
             "--baseline", str(BASELINE), "--json"],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True

    def test_project_rule_without_project_flag_exits_two(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC),
             "--rule", "C1"],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
        assert proc.returncode == 2
        assert "--project" in proc.stderr

    def test_list_rules_names_the_d_c_and_p_families_only(self):
        families = {line.split()[0][0]
                    for line in render_rule_list().splitlines()}
        assert families == {"D", "C", "P"}
