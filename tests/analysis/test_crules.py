"""C-rule tests: topology/FIB mutations must reach a version bump."""

import ast
import textwrap
from pathlib import Path

from repro.analysis import lint_project_sources
from repro.analysis.crules import BUMP_NAMES, WALK_STATE_MUTATORS


def project(files, rules=("C1", "C2")):
    texts = {path: textwrap.dedent(text) for path, text in files.items()}
    return lint_project_sources(texts, rule_ids=list(rules))


def rule_ids(report):
    return [f.rule_id for f in report.actionable]


class TestTopologyMutationRule:
    def test_unbumped_links_delete_flagged(self):
        report = project({"src/repro/net/core.py": """
            class Network:
                def __init__(self):
                    self.links = {}

                def drop_link(self, key):
                    del self.links[key]
        """})
        assert rule_ids(report) == ["C1"]
        assert "drop_link" in report.actionable[0].message

    def test_direct_bump_in_same_function_is_covered(self):
        report = project({"src/repro/net/core.py": """
            class Network:
                def __init__(self):
                    self.links = {}
                    self.topology_version = 0

                def _bump_topology_version(self):
                    self.topology_version += 1

                def add_link(self, key, link):
                    self.links[key] = link
                    self._bump_topology_version()
        """})
        assert report.ok

    def test_bump_in_caller_covers_helper(self):
        report = project({"src/repro/net/core.py": """
            class Network:
                def __init__(self):
                    self.links = {}
                    self.topology_version = 0

                def _bump_topology_version(self):
                    self.topology_version += 1

                def _wire(self, key, link):
                    self.links[key] = link

                def add_link(self, key, link):
                    self._wire(key, link)
                    self._bump_topology_version()
        """})
        assert report.ok

    def test_liveness_write_without_bump_flagged(self):
        report = project({"src/repro/faults/inject.py": """
            def fail_link(link):
                link.up = False
        """})
        assert rule_ids(report) == ["C1"]
        assert ".up" in report.actionable[0].message

    def test_fastpath_bump_in_caller_covers_liveness_write(self):
        report = project({"src/repro/faults/inject.py": """
            def fail_link(link):
                link.up = False

            def inject(net, link, fastpath):
                fail_link(link)
                fastpath.bump()
        """})
        assert report.ok

    def test_constructors_exempt(self):
        report = project({"src/repro/net/core.py": """
            class Link:
                def __init__(self, cost):
                    self.up = True
                    self.cost = cost
        """})
        assert report.ok

    def test_non_topology_package_exempt(self):
        report = project({"src/repro/obs/shadow.py": """
            def fail_link(link):
                link.up = False
        """})
        assert report.ok


class TestFibCoherenceRule:
    def test_unbumped_install_flagged(self):
        report = project({"src/repro/routing/apply.py": """
            def apply_route(fib, prefix, route):
                fib.install(prefix, route)
        """})
        assert rule_ids(report) == ["C2"]
        assert "install" in report.actionable[0].message

    def test_unbumped_withdraw_flagged(self):
        report = project({"src/repro/routing/apply.py": """
            def retract(fib, prefix):
                fib.withdraw(prefix)
        """})
        assert rule_ids(report) == ["C2"]

    def test_bump_in_caller_covers_fib_update(self):
        report = project({"src/repro/routing/apply.py": """
            def apply_route(fib, prefix, route):
                fib.install(prefix, route)

            def converge(net, fib, prefix, route):
                apply_route(fib, prefix, route)
                net._bump_topology_version()
        """})
        assert report.ok

    def test_non_fib_receiver_ignored(self):
        report = project({"src/repro/routing/apply.py": """
            def setup(plugin):
                plugin.install("hooks")
        """})
        assert report.ok

    def test_unbumped_walk_state_mutator_flagged(self):
        report = project({"src/repro/anycast/join.py": """
            def join(node, address, engine, handler):
                node.add_local_ipv4(address)
                engine.register_vn_handler(8, handler)
        """})
        assert rule_ids(report) == ["C2", "C2"]
        assert "add_local_ipv4" in report.actionable[0].message
        assert "register_vn_handler" in report.actionable[1].message

    def test_fastpath_bump_covers_walk_state_mutators(self):
        report = project({"src/repro/vnbone/adopt.py": """
            def _make_member(node, state, host, address):
                node.set_vn_state(8, state)
                host.assign_vn_address(address)

            def deploy(engine, node, state, host, address):
                _make_member(node, state, host, address)
                engine.fastpath.bump()

            def undeploy(engine, node, address):
                node.clear_vn_state(8)
                node.remove_local_ipv4(address)
                engine.fastpath.bump()
        """})
        assert report.ok


def test_every_allow_listed_name_is_defined_in_src():
    """A name in ``BUMP_NAMES`` or ``WALK_STATE_MUTATORS`` that resolves
    to nothing silently widens what C1/C2 accept (or flags nothing): each
    must be a ``def`` or a class-level field somewhere under ``src/repro``."""
    defined = set()
    for path in (Path(__file__).parents[2] / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.ClassDef):
                defined.update(stmt.target.id for stmt in node.body
                               if isinstance(stmt, ast.AnnAssign)
                               and isinstance(stmt.target, ast.Name))
    assert BUMP_NAMES | WALK_STATE_MUTATORS <= defined, \
        sorted((BUMP_NAMES | WALK_STATE_MUTATORS) - defined)
