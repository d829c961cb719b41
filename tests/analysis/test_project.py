"""The ProjectIndex: imports, call graph, workload roots."""

import textwrap

from repro.lint import ProjectIndex, SourceFile, module_name_for_path


def index_of(files):
    sources = {path: SourceFile.parse(path, textwrap.dedent(text))
               for path, text in files.items()}
    return ProjectIndex.build(sources)


class TestModuleNames:
    def test_plain_module(self):
        assert module_name_for_path("src/repro/net/core.py") == \
            "repro.net.core"

    def test_package_init(self):
        assert module_name_for_path("src/repro/net/__init__.py") == \
            "repro.net"

    def test_path_without_src_prefix(self):
        assert module_name_for_path("repro/obs/tracer.py") == \
            "repro.obs.tracer"


class TestCallGraph:
    def test_same_module_bare_call(self):
        index = index_of({"src/repro/net/a.py": """
            def helper():
                return 1

            def caller():
                return helper()
        """})
        assert "repro.net.a:helper" in \
            index.calls_out["repro.net.a:caller"]

    def test_self_method_call(self):
        index = index_of({"src/repro/net/a.py": """
            class Box:
                def inner(self):
                    return 1

                def outer(self):
                    return self.inner()
        """})
        assert "repro.net.a:Box.inner" in \
            index.calls_out["repro.net.a:Box.outer"]

    def test_imported_function_call(self):
        index = index_of({
            "src/repro/net/a.py": """
                def shared():
                    return 1
            """,
            "src/repro/net/b.py": """
                from repro.net.a import shared

                def caller():
                    return shared()
            """,
        })
        assert "repro.net.a:shared" in \
            index.calls_out["repro.net.b:caller"]

    def test_callee_closure_is_transitive(self):
        index = index_of({"src/repro/net/a.py": """
            def leaf():
                return 1

            def mid():
                return leaf()

            def top():
                return mid()
        """})
        assert index.callee_closure({"repro.net.a:top"}) == {
            "repro.net.a:leaf", "repro.net.a:mid", "repro.net.a:top"}

    def test_attr_call_does_not_link_module_level_functions(self):
        """``obj.run()`` must not alias every plain function named run.

        Module-level functions are only reachable through imports, which
        resolve exactly; the name fallback covers methods and nested
        functions only.
        """
        index = index_of({
            "src/repro/experiments/base.py": """
                def run(spec):
                    return spec
            """,
            "src/repro/fleet/scheduler.py": """
                def kick(scheduler):
                    return scheduler.run()
            """,
        })
        assert "repro.experiments.base:run" not in \
            index.calls_out["repro.fleet.scheduler:kick"]

    def test_attr_call_still_links_methods(self):
        index = index_of({
            "src/repro/net/a.py": """
                class Worker:
                    def run(self):
                        return 1
            """,
            "src/repro/net/b.py": """
                def kick(worker):
                    return worker.run()
            """,
        })
        assert "repro.net.a:Worker.run" in \
            index.calls_out["repro.net.b:kick"]


class TestWorkloadRoots:
    def test_decorator_registration(self):
        index = index_of({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            @register("demo")
            def runner(seed, params):
                return {}
        """})
        assert index.workload_roots == {"repro.experiments.demo:runner"}

    def test_call_form_registration(self):
        index = index_of({"src/repro/experiments/demo.py": """
            from repro.experiments import base

            def runner(seed, params):
                return {}

            base.register("demo")(runner)
        """})
        assert index.workload_roots == {"repro.experiments.demo:runner"}

    def test_factory_registration_marks_returned_nested(self):
        index = index_of({"src/repro/experiments/demo.py": """
            from repro.experiments.base import register

            def make(n):
                def runner(seed, params):
                    return {"n": n}
                return runner

            register("demo")(make(3))
        """})
        assert index.workload_roots == \
            {"repro.experiments.demo:make.<locals>.runner"}

    def test_register_from_other_module_ignored(self):
        index = index_of({"src/repro/experiments/demo.py": """
            from repro.plugins import register

            @register("demo")
            def runner(seed, params):
                return {}
        """})
        assert index.workload_roots == set()
