"""The meta-test: the repository's own source tree must lint clean.

This is the same gate CI runs (``python -m repro lint src --json``);
keeping it in the tier-1 suite means a determinism-convention or
fleet-safety regression fails the ordinary test run, not just the lint
job.  The tree is linted once in-process and once through the CLI in a
subprocess; the exit codes are read off ``repro.cli.main`` on small
trees.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import lint_paths, render_rule_list

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def report():
    return lint_paths([str(SRC)])


class TestSourceTreeIsClean:
    def test_lint_src_programmatic(self, report):
        assert report.parse_errors == []
        assert report.ok, "\n".join(f.format() for f in report.unsuppressed)

    def test_lint_src_cli_exits_zero(self, report):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC), "--json"],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout) == report.to_dict()

    def test_cli_reports_findings_with_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "net" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f():\n    for x in {1, 2}:\n        print(x)\n")
        assert main(["lint", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["by_rule"] == {"D3": 1}

    def test_cli_bad_rule_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--rule", "D9"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules_names_the_d_p_and_w_families_only(self):
        families = {line.split()[0][0]
                    for line in render_rule_list().splitlines()}
        assert families == {"D", "P", "W"}
