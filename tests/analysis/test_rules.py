"""Per-rule positive and negative fixtures for the D1–D5 linter rules.

Every test lints a small in-memory module through
:func:`repro.lint.lint_sources`, pinning each rule's detection and
its non-detection (code following the convention must stay clean).
The default path places the module inside the library tree so the
path-scoped rules apply; D3 needs a routing-critical package.  Cases
marked *audit mutant* are the shapes of the single-site mutants of
``docs/static-analysis.md``: lint flags each, no tier-1 test does.
"""

import textwrap

from repro.lint import lint_sources


def lint(code, path="src/repro/_inline.py", rules=None):
    return lint_sources({path: textwrap.dedent(code)},
                        rule_ids=rules).findings


def unsuppressed(code, path="src/repro/_inline.py", rules=None):
    return [f for f in lint(code, path=path, rules=rules) if not f.suppressed]


class TestD1SeededRandom:
    def test_global_rng_call_flagged(self):
        findings = unsuppressed("""
            import random

            def pick(items):
                return random.choice(items)
        """, rules=["D1"])
        assert len(findings) == 1
        assert findings[0].rule_id == "D1"
        assert "module-global RNG" in findings[0].message

    def test_unseeded_random_flagged(self):
        findings = unsuppressed("""
            import random

            rng = random.Random()
        """, rules=["D1"])
        assert len(findings) == 1
        assert "unseeded" in findings[0].message
        # audit mutant: experiments.igp_claims builds its domain unseeded
        findings = unsuppressed("""
            import random

            def _build_domain(seed):
                net = Network()
                random_domain(net, 1, 12, extra_edges=8, rng=random.Random())
                return net
        """, rules=["D1"])
        assert len(findings) == 1

    def test_seeded_random_clean(self):
        assert not unsuppressed("""
            import random

            def make_rng(seed):
                rng = random.Random(seed)
                return rng.randint(0, 10)
        """, rules=["D1"])

    def test_from_import_of_global_fn_flagged(self):
        findings = unsuppressed("from random import shuffle\n", rules=["D1"])
        assert len(findings) == 1
        assert "from random import shuffle" in findings[0].message

    def test_system_random_flagged(self):
        findings = unsuppressed("""
            import random

            rng = random.SystemRandom()
        """, rules=["D1"])
        assert len(findings) == 1
        assert "SystemRandom" in findings[0].message

    def test_import_alias_tracked(self):
        findings = unsuppressed("""
            import random as rnd

            x = rnd.randint(0, 5)
        """, rules=["D1"])
        assert len(findings) == 1

    def test_tests_and_tools_exempt(self):
        code = "import random\nx = random.random()\n"
        assert not lint(code, path="tests/test_x.py", rules=["D1"])
        assert not lint(code, path="tools/gen.py", rules=["D1"])

    def test_unrelated_attribute_clean(self):
        # A .choice attribute on a non-random object is not the module RNG.
        assert not unsuppressed("""
            def pick(rng, items):
                return rng.choice(items)
        """, rules=["D1"])


class TestD2WallClock:
    def test_plain_name_assignment_flagged(self):
        findings = unsuppressed("""
            import time

            def f():
                start = time.perf_counter()
                return start
        """, rules=["D2"])
        assert len(findings) == 1
        assert "'start'" in findings[0].message
        # audit mutant: a second read beside Orchestrator.converge's
        # guarded one, into a name the wall stripper does not know
        findings = unsuppressed("""
            import time

            def converge(self):
                observed = self.obs.enabled
                if observed:
                    wall_t0 = time.perf_counter()
                started = time.perf_counter()
                return started
        """, rules=["D2"])
        assert len(findings) == 1
        assert "'started'" in findings[0].message

    def test_wall_prefixed_assignment_clean(self):
        assert not unsuppressed("""
            import time

            def f(self):
                wall_t0 = time.perf_counter()
                self._wall_started = time.time()
                return wall_t0
        """, rules=["D2"])

    def test_bare_call_in_expression_flagged(self):
        findings = unsuppressed("""
            import time

            def f():
                return {"t": time.time()}
        """, rules=["D2"])
        assert len(findings) == 1
        assert "outside an assignment" in findings[0].message

    def test_datetime_now_flagged(self):
        findings = unsuppressed("""
            from datetime import datetime

            def f():
                stamp = datetime.now()
                return stamp
        """, rules=["D2"])
        assert len(findings) == 1

    def test_tuple_target_must_be_all_wall(self):
        findings = unsuppressed("""
            import time

            def f():
                wall_a, b = time.time(), 1
                return wall_a, b
        """, rules=["D2"])
        assert len(findings) == 1

    def test_augassign_to_wall_name_clean(self):
        assert not unsuppressed("""
            import time

            def f(self):
                self.wall_total += time.perf_counter()
        """, rules=["D2"])


class TestD3OrderedIteration:
    PATH = "src/repro/routing/_inline.py"

    def test_for_over_set_literal_flagged(self):
        findings = unsuppressed("""
            def f():
                for x in {1, 2, 3}:
                    print(x)
        """, path=self.PATH, rules=["D3"])
        assert len(findings) == 1
        assert "set" in findings[0].message

    def test_for_over_inferred_set_name_flagged(self):
        findings = unsuppressed("""
            def f(items):
                nodes = set(items)
                for n in nodes:
                    print(n)
        """, path=self.PATH, rules=["D3"])
        assert len(findings) == 1
        assert "'nodes'" in findings[0].message

    def test_sorted_iteration_clean(self):
        assert not unsuppressed("""
            def f(items):
                nodes = set(items)
                for n in sorted(nodes):
                    print(n)
        """, path=self.PATH, rules=["D3"])

    def test_set_annotated_parameter_flagged(self):
        findings = unsuppressed("""
            from typing import Set

            def f(nodes: Set[str]):
                return [n for n in nodes]
        """, path=self.PATH, rules=["D3"])
        assert len(findings) == 1
        # audit mutant: LayeredVnRouting._intra_spf loses its sorted()
        findings = unsuppressed("""
            from typing import Dict, Set

            class LayeredVnRouting:
                def _intra_spf(self, members: Set[str], adjacency):
                    dists: Dict[str, float] = {}
                    for source in members:
                        dists[source] = 0.0
                    return dists
        """, path="src/repro/vnbone/_inline.py", rules=["D3"])
        assert len(findings) == 1
        assert "'members'" in findings[0].message

    def test_chained_assignment_inferred(self):
        findings = unsuppressed("""
            def f(items):
                b = set(items)
                a = b
                for x in a:
                    print(x)
        """, path=self.PATH, rules=["D3"])
        assert len(findings) == 1

    def test_set_operator_result_flagged(self):
        findings = unsuppressed("""
            def f(a, b):
                both = set(a) | set(b)
                for x in both:
                    print(x)
        """, path=self.PATH, rules=["D3"])
        assert len(findings) == 1

    def test_keys_iteration_flagged(self):
        findings = unsuppressed("""
            def f(table):
                return [k for k in table.keys()]
        """, path=self.PATH, rules=["D3"])
        assert len(findings) == 1
        assert ".keys()" in findings[0].message

    def test_dictcomp_over_set_flagged(self):
        # The real hazard this rule caught twice: dict insertion order
        # leaks the set's iteration order.
        findings = unsuppressed("""
            def f(dist, settled):
                settled = set(settled)
                return {n: dist[n] for n in settled}
        """, path=self.PATH, rules=["D3"])
        assert len(findings) == 1

    def test_setcomp_over_set_exempt(self):
        # A set comprehension's output has no order to corrupt.
        assert not unsuppressed("""
            def f(items):
                nodes = set(items)
                return {n + 1 for n in nodes}
        """, path=self.PATH, rules=["D3"])

    def test_rule_scoped_to_order_sensitive_packages(self):
        code = """
            def f():
                for x in {1, 2}:
                    print(x)
        """
        assert not lint(code, path="src/repro/experiments/_inline.py",
                        rules=["D3"])
        for part in ("routing", "net", "vnbone", "bgp"):
            assert lint(code, path=f"src/repro/{part}/_inline.py",
                        rules=["D3"])


class TestD4HotPathGuards:
    def test_unguarded_metric_update_flagged(self):
        findings = unsuppressed("""
            def forward(self, packet):
                self._c_forwarded.inc()
        """, rules=["D4"])
        assert len(findings) == 1
        assert ".inc(" in findings[0].message
        # audit mutant: BgpProtocol._export's cached counter alias loses
        # its guard; the plain-int stat beside it is not a metric
        findings = unsuppressed("""
            def _export(self, speaker, prefix, route):
                peers = self._session_peers(speaker.domain)
                self.export_policy_checks += len(peers)
                self._c_policy_checks.inc(len(peers))
        """, path="src/repro/bgp/_inline.py", rules=["D4"])
        assert len(findings) == 1

    def test_guarded_update_clean(self):
        assert not unsuppressed("""
            def forward(self, packet):
                if self.obs.enabled:
                    self._c_forwarded.inc()
        """, rules=["D4"])

    def test_alias_guard_recognized(self):
        assert not unsuppressed("""
            def forward(self, obs, packet):
                observed = obs.enabled
                if observed:
                    self._c_forwarded.inc()
        """, rules=["D4"])

    def test_early_bailout_guard_recognized(self):
        assert not unsuppressed("""
            def _observe(self, trace):
                if not self.obs.enabled:
                    return
                self._c_delivered.inc()
                self.obs.event("delivered", trace=trace)
        """, rules=["D4"])

    def test_guard_does_not_leak_into_new_function(self):
        findings = unsuppressed("""
            def outer(self):
                if self.obs.enabled:
                    def inner():
                        self._c_x.inc()
                    return inner
        """, rules=["D4"])
        assert len(findings) == 1

    def test_obs_event_flagged(self):
        findings = unsuppressed("""
            def f(self, obs):
                obs.event("hop", router="r1")
        """, rules=["D4"])
        assert len(findings) == 1

    def test_obs_package_exempt(self):
        assert not lint("""
            def f(self):
                self._c_x.inc()
        """, path="src/repro/obs/_inline.py", rules=["D4"])


class TestD5PublicApi:
    def test_mutable_default_flagged(self):
        findings = unsuppressed("""
            def f(items=[]):
                return items
        """, rules=["D5"])
        assert len(findings) == 1
        assert "mutable default" in findings[0].message

    def test_dict_call_default_flagged(self):
        findings = unsuppressed("""
            def f(options=dict()):
                return options
        """, rules=["D5"])
        assert len(findings) == 1

    def test_none_default_clean(self):
        assert not unsuppressed("""
            def f(items=None, extras=(), names=frozenset()):
                return items, extras, names
        """, rules=["D5"])

    def test_assert_in_public_function_flagged(self):
        findings = unsuppressed("""
            def deploy(fraction):
                assert 0 < fraction <= 1
                return fraction
        """, rules=["D5"])
        assert len(findings) == 1
        assert "python -O" in findings[0].message

    def test_assert_in_private_function_clean(self):
        assert not unsuppressed("""
            def _internal(x):
                assert x is not None
                return x
        """, rules=["D5"])

    def test_assert_in_public_method_of_public_class_flagged(self):
        findings = unsuppressed("""
            class Deployment:
                def deploy(self, fraction):
                    assert fraction > 0
        """, rules=["D5"])
        assert len(findings) == 1

    def test_assert_in_private_method_clean(self):
        assert not unsuppressed("""
            class Deployment:
                def _check(self, fraction):
                    assert fraction > 0
        """, rules=["D5"])

    def test_builtin_raise_flagged(self):
        # audit mutant: BgpProtocol.add_speaker's default-routed refusal
        # raising ValueError
        for name in ("ValueError", "TypeError", "KeyError", "RuntimeError",
                     "Exception"):
            findings = unsuppressed(f"""
                def add_speaker(self, domain):
                    if domain.default_routed:
                        raise {name}(f"AS{{domain.asn}} is default-routed")
            """, path="src/repro/bgp/_inline.py", rules=["D5"])
            assert len(findings) == 1
            assert f"raise {name}" in findings[0].message

    def test_builtin_raise_exempt_in_leaf_modules_and_tests(self):
        code = """
            def lookup(self, key):
                raise KeyError(key)
        """
        for path in ("src/repro/obs/tracer.py", "src/repro/schema.py",
                     "src/repro/net/lpm.py", "tests/net/test_lpm.py"):
            assert not lint(code, path=path, rules=["D5"])
        assert lint(code, path="src/repro/net/node.py", rules=["D5"])

    def test_self_check_and_exit_raises_clean(self):
        assert not unsuppressed("""
            def run(rows):
                if not rows:
                    raise AssertionError("runner produced no rows")
                raise SystemExit(0)
        """, rules=["D5"])

    def test_typed_exception_clean(self):
        assert not unsuppressed("""
            from repro.net.errors import DeploymentError

            def deploy(fraction):
                if not 0 < fraction <= 1:
                    raise DeploymentError("bad fraction")
                return fraction
        """, rules=["D5"])
