"""Suppression scoping for the whole-program rules, plus W1 (a pragma
that suppressed nothing is itself a gating finding)."""

import textwrap

from repro.lint import UNUSED_SUPPRESSION_ID, lint_sources


def project(files, rules=None):
    texts = {path: textwrap.dedent(text) for path, text in files.items()}
    return lint_sources(texts, rule_ids=rules)


def unused(report):
    return [f for f in report.findings if f.rule_id == UNUSED_SUPPRESSION_ID]


class TestProjectRuleSuppression:
    def test_line_level_allow_p1(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            _CACHE = {}

            @register("demo")
            def runner(seed, params):
                _CACHE[seed] = params  # repro: allow[P1]
                return {"result": 1}
        """})
        assert report.ok
        assert [f.rule_id for f in report.suppressed] == ["P1"]

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
        """}, rules=["P1", "P3", "D2"])
        assert not report.ok
        assert sorted(f.rule_id for f in report.unsuppressed) == ["D2", "P3"]
        assert [f.rule_id for f in report.suppressed] == ["P1"]


class TestUnusedSuppressionWarnings:
    def test_unused_pragma_gates(self):
        report = project({"src/repro/net/core.py": """
            def helper(x):
                return x + 1  # repro: allow[P1]
        """})
        assert [f.line for f in unused(report)] == [3]
        assert "allow[P1]" in unused(report)[0].message
        assert not report.ok
        assert report.counts_by_rule() == {UNUSED_SUPPRESSION_ID: 1}
        # ... and so is one naming a rule that no longer exists.
        report = project({"src/repro/net/core.py": """
            def drop_link(self, key):
                del self.links[key]  # repro: allow[C1]
        """})
        assert len(unused(report)) == 1

    def test_used_pragma_not_warned(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            _CACHE = {}

            @register("demo")
            def runner(seed, params):
                _CACHE[seed] = params  # repro: allow[P1]
                return {"result": 1}
        """})
        assert not unused(report)

    def test_scope_pragma_used_deep_in_function_not_warned(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            _CACHE = {}

            @register("demo")
            def runner(seed, params):  # repro: allow[P1]
                if params:
                    _CACHE[seed] = params
                return {"result": 1}
        """})
        assert not unused(report)

    def test_unused_star_pragma_warned(self):
        report = project({"src/repro/net/core.py": """
            def helper(x):
                return x + 1  # repro: allow[*]
        """})
        assert len(unused(report)) == 1

    def test_rule_filter_narrows_w1(self):
        files = {"src/repro/net/core.py": """
            import random

            def helper(x=[]):  # repro: allow[D5]
                return x + 1  # repro: allow[D1, *]
        """}
        # D5's pragma is used, D1's is not; D1 was not run, so only a
        # full run can call its pragma (or the star) unused.
        assert not unused(project(files, rules=["D5"]))
        assert len(unused(project(files, rules=["D1"]))) == 1
        assert len(unused(project(files))) == 2
