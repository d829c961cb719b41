"""P-rule tests: fleet safety on registered workload-runner paths."""

import textwrap

from repro.lint import lint_sources

REGISTER = "from repro.experiments.base import register\n"


def project(files, rules=("P1", "P2", "P3")):
    texts = {path: textwrap.dedent(text) for path, text in files.items()}
    return lint_sources(texts, rule_ids=list(rules))


def rule_ids(report):
    return [f.rule_id for f in report.unsuppressed]


class TestModuleStateRule:
    def test_runner_writing_module_mutable_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            _CACHE = {}

            @register("demo")
            def runner(seed, params):
                _CACHE[seed] = params
                return {"result": 1}
        """})
        assert rule_ids(report) == ["P1"]
        assert "_CACHE" in report.unsuppressed[0].message

    def test_global_rebind_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            _LAST = None

            @register("demo")
            def runner(seed, params):
                global _LAST
                _LAST = seed
                return {"result": 1}
        """})
        assert rule_ids(report) == ["P1"]

    def test_read_of_elsewhere_mutated_global_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            _CACHE = {}

            def remember(seed):
                _CACHE[seed] = True

            @register("demo")
            def runner(seed, params):
                return {"seen": seed in _CACHE}
        """})
        assert "P1" in rule_ids(report)
        reads = [f for f in report.unsuppressed if "reads" in f.message]
        assert reads, [f.message for f in report.unsuppressed]

    def test_mutation_off_runner_path_not_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            _CACHE = {}

            def offline_tool(seed):
                _CACHE[seed] = True
        """})
        assert report.ok

    def test_mutation_in_helper_reached_from_runner_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            _CACHE = {}

            def remember(seed):
                _CACHE[seed] = True

            @register("demo")
            def runner(seed, params):
                remember(seed)
                return {"result": 1}
        """})
        assert rule_ids(report) == ["P1"]
        assert "remember" in report.unsuppressed[0].message
        # audit mutant: a list appended in experiments.common
        # .converged_internet, two calls and one module below the runner
        report = project({
            "src/repro/experiments/common.py": """
                _BUILT = []

                def converged_internet(spec):
                    _BUILT.append(spec.seed)
                    return spec
            """,
            "src/repro/experiments/demo.py": """
                from repro.experiments.base import register
                from repro.experiments.common import converged_internet

                def _build(seed):
                    return converged_internet(seed)

                @register("demo")
                def runner(seed, params):
                    return {"result": _build(seed)}
            """})
        assert rule_ids(report) == ["P1"]
        assert "converged_internet" in report.unsuppressed[0].message

    def test_pure_runner_clean(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            @register("demo")
            def runner(seed, params):
                local = {}
                local[seed] = params
                return {"result": len(local)}
        """})
        assert report.ok


class TestClosureCaptureRule:
    def test_closure_over_open_file_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            @register("demo")
            def runner(seed, params):
                handle = open("log.txt")

                def reader():
                    return handle.read()

                return {"data": reader()}
        """})
        assert rule_ids(report) == ["P2"]
        assert "handle" in report.unsuppressed[0].message

    def test_lambda_over_with_bound_resource_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            @register("demo")
            def runner(seed, params):
                with open("log.txt") as handle:
                    probe = lambda: handle.read()
                    return {"data": probe()}
        """})
        assert rule_ids(report) == ["P2"]

    def test_closure_over_plain_data_clean(self):
        report = project({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            @register("demo")
            def runner(seed, params):
                factor = params["factor"]

                def scale(x):
                    return x * factor

                return {"result": scale(seed)}
        """})
        assert report.ok


class TestWallClockArtifactRule:
    def test_unmarked_wall_value_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            import time
            from repro.experiments.base import register

            @register("demo")
            def runner(seed, params):
                return {"elapsed": time.time()}
        """})
        assert rule_ids(report) == ["P3"]
        assert "elapsed" in report.unsuppressed[0].message

    def test_wall_marked_key_clean(self):
        report = project({"src/repro/experiments/demo.py": """
            import time
            from repro.experiments.base import register

            @register("demo")
            def runner(seed, params):
                return {"wall_elapsed": time.time()}
        """})
        assert report.ok

    def test_subscript_store_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            import time
            from repro.experiments.base import register

            @register("demo")
            def runner(seed, params):
                artifact = {}
                artifact["finished"] = time.time()
                return artifact
        """})
        assert rule_ids(report) == ["P3"]

    def test_wall_named_variable_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            import time
            from repro.experiments.base import register

            @register("demo")
            def runner(seed, params):
                wall_start = time.time()
                return {"started": wall_start}
        """})
        assert rule_ids(report) == ["P3"]

    def test_wall_value_off_runner_path_not_flagged(self):
        report = project({"src/repro/experiments/demo.py": """
            import time

            def offline_probe():
                return {"elapsed": time.time()}
        """})
        assert report.ok
