"""The project-specific determinism and invariant rules (D1–D5).

Each rule is an :mod:`ast` pass over one parsed module.  The rules
encode the conventions PR 1 and PR 2 established informally:

* **D1** — all randomness flows from an explicitly seeded
  ``random.Random``; the module-level global RNG is banned.
* **D2** — wall-clock reads may only land in ``wall_``-prefixed names,
  so the determinism regression can strip them mechanically.
* **D3** — ordering-sensitive packages never iterate bare sets or
  ``dict.keys()`` views without ``sorted(...)``.
* **D4** — metric/trace updates in hot paths sit behind an
  ``obs.enabled`` guard (or a local alias of it).
* **D5** — the library raises typed ``repro.net.errors`` exceptions,
  not ``assert`` or a bare builtin, and never takes mutable default
  arguments.

Rules yield findings with suppression already resolved (via
:meth:`Rule.finding`); the engine filters and aggregates them.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, SourceFile
from repro.lint.project import (_FUNCTION_NODES, ProjectIndex,
                                _terminal_name, module_name_for_path)


def _posix_parts(path: str) -> Set[str]:
    return set(PurePosixPath(path.replace("\\", "/")).parts)


def _in_test_or_tool_tree(path: str) -> bool:
    parts = _posix_parts(path)
    return "tests" in parts or "tools" in parts


def _iter_scope(scope_node: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope: every node under *scope_node* except the bodies
    of nested function definitions (each is its own scope)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNCTION_NODES):
            continue  # nested scope: walked by its own pass
        stack.extend(ast.iter_child_nodes(node))


def _all_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module plus every function definition anywhere in it."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTION_NODES):
            yield node


class Rule:
    """One named check over a parsed module."""

    rule_id: str = ""
    title: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on *path* at all (path-based scoping)."""
        return True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(path=source.path, line=line, col=col,
                       rule_id=self.rule_id, message=message,
                       suppressed=source.is_allowed(self.rule_id, line))


# ---------------------------------------------------------------------------
# D1: seeded randomness only
# ---------------------------------------------------------------------------

#: ``random.<fn>`` calls that use the hidden module-global RNG.
_GLOBAL_RNG_FUNCS = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
})


class SeededRandomRule(Rule):
    """D1: no global-RNG calls; every ``random.Random`` gets a seed."""

    rule_id = "D1"
    title = "seeded randomness only"

    def applies_to(self, path: str) -> bool:
        return not _in_test_or_tool_tree(path)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases: Set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name == "random":
                        aliases.add(name.asname or "random")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    for name in node.names:
                        if name.name in _GLOBAL_RNG_FUNCS:
                            yield self.finding(
                                source, node,
                                f"'from random import {name.name}' binds the "
                                "module-global RNG; construct a seeded "
                                "random.Random(seed) instead")
                        elif name.name == "SystemRandom":
                            yield self.finding(
                                source, node,
                                "random.SystemRandom draws system entropy and "
                                "can never be seeded; use random.Random(seed)")
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases):
                continue
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        source, node,
                        "unseeded random.Random() seeds from the OS; pass an "
                        "explicit seed derived from the run's seed")
            elif func.attr == "SystemRandom":
                yield self.finding(
                    source, node,
                    "random.SystemRandom draws system entropy and can never "
                    "be seeded; use random.Random(seed)")
            elif func.attr in _GLOBAL_RNG_FUNCS:
                yield self.finding(
                    source, node,
                    f"random.{func.attr}() uses the hidden module-global RNG; "
                    "thread a seeded random.Random through instead")


# ---------------------------------------------------------------------------
# D2: wall-clock reads flow only into wall_-prefixed names
# ---------------------------------------------------------------------------

#: ``(receiver, attribute)`` pairs that read the wall clock.
_WALL_CALLS: Set[Tuple[str, str]] = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "process_time"), ("time", "process_time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}


def _is_wall_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    receiver = _terminal_name(func.value)
    return bool(receiver) and (receiver, func.attr) in _WALL_CALLS


def _is_wall_name(name: str) -> bool:
    return name.lstrip("_").startswith("wall_")


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    else:
        yield ""  # subscripts etc. — cannot carry the wall_ marker


class WallClockRule(Rule):
    """D2: wall-clock results land only in ``wall_``-prefixed names."""

    rule_id = "D2"
    title = "wall-clock values stay in wall_ names"

    def applies_to(self, path: str) -> bool:
        return not _in_test_or_tool_tree(path)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assignment_types = (ast.Assign, ast.AnnAssign, ast.AugAssign)
        consumed: Set[int] = set()
        for stmt in ast.walk(source.tree):
            if not isinstance(stmt, assignment_types) or stmt.value is None:
                continue
            wall_calls = [n for n in ast.walk(stmt.value) if _is_wall_call(n)]
            if not wall_calls:
                continue
            consumed.update(id(call) for call in wall_calls)
            if isinstance(stmt, ast.Assign):
                targets: List[ast.expr] = list(stmt.targets)
            else:
                targets = [stmt.target]
            names = [name for target in targets
                     for name in _target_names(target)]
            if not names or not all(_is_wall_name(name) for name in names):
                shown = ", ".join(repr(n) for n in names if n) or "the target"
                yield self.finding(
                    source, stmt,
                    f"wall-clock read assigned to {shown}; only 'wall_'-"
                    "prefixed names may hold nondeterministic time (the "
                    "trace stripper keys on that prefix)")
        for node in ast.walk(source.tree):
            if _is_wall_call(node) and id(node) not in consumed:
                yield self.finding(
                    source, node,
                    "wall-clock read used outside an assignment to a "
                    "'wall_'-prefixed name; bind it first")


# ---------------------------------------------------------------------------
# D3: no unordered iteration in ordering-sensitive packages
# ---------------------------------------------------------------------------

#: Packages whose iteration order feeds routing/forwarding decisions.
_ORDER_SENSITIVE_PARTS = frozenset({"routing", "net", "vnbone", "bgp"})

#: Set-producing method names propagated during local inference.
_SET_METHODS = frozenset({"union", "intersection", "difference",
                          "symmetric_difference", "copy"})

_SET_ANNOTATIONS = frozenset({"Set", "FrozenSet", "set", "frozenset",
                              "MutableSet", "AbstractSet"})

#: Iteration wrappers that impose (or preserve) a defined order.
_ORDER_SAFE_WRAPPERS = frozenset({"sorted", "enumerate", "range", "reversed",
                                  "zip", "min", "max"})


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    node: ast.expr = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


class _SetScope:
    """Names bound to set-typed values inside one scope."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (isinstance(func, ast.Attribute)
                    and func.attr in _SET_METHODS
                    and self.is_set_expr(func.value)):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self.is_set_expr(node.left)
                    or self.is_set_expr(node.right))
        return False


class OrderedIterationRule(Rule):
    """D3: iterate node/route sets via ``sorted(...)`` in core packages.

    Set iteration order varies with hash seeding and insertion history;
    a ``for`` loop (or list/generator/dict comprehension) over a bare
    set inside the routing-critical packages silently breaks same-seed
    reproducibility.  Set comprehensions over sets are exempt — their
    output has no order to corrupt.
    """

    rule_id = "D3"
    title = "deterministic iteration order"

    def applies_to(self, path: str) -> bool:
        if _in_test_or_tool_tree(path):
            return False
        return bool(_ORDER_SENSITIVE_PARTS & _posix_parts(path))

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for scope_node in _all_scopes(source.tree):
            yield from self._check_scope(source, scope_node)

    def _check_scope(self, source: SourceFile,
                     scope_node: ast.AST) -> Iterator[Finding]:
        scope = _SetScope()
        if isinstance(scope_node, _FUNCTION_NODES):
            arguments = scope_node.args
            for arg in (list(arguments.posonlyargs) + list(arguments.args)
                        + list(arguments.kwonlyargs)):
                if _annotation_is_set(arg.annotation):
                    scope.names.add(arg.arg)
        nodes = list(_iter_scope(scope_node))
        # Two inference passes so chained assignments (a = set(); b = a)
        # resolve regardless of walk order.
        for _ in range(2):
            for node in nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (isinstance(target, ast.Name)
                            and scope.is_set_expr(node.value)):
                        scope.names.add(target.id)
                elif isinstance(node, ast.AnnAssign):
                    if (isinstance(node.target, ast.Name)
                            and _annotation_is_set(node.annotation)):
                        scope.names.add(node.target.id)
        for node in nodes:
            if isinstance(node, ast.For):
                yield from self._check_iterable(source, scope, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for comp in node.generators:
                    yield from self._check_iterable(source, scope, comp.iter)

    def _check_iterable(self, source: SourceFile, scope: _SetScope,
                        iterable: ast.expr) -> Iterator[Finding]:
        if isinstance(iterable, ast.Call):
            func = iterable.func
            if (isinstance(func, ast.Name)
                    and func.id in _ORDER_SAFE_WRAPPERS):
                return
            if isinstance(func, ast.Attribute) and func.attr == "keys":
                yield self.finding(
                    source, iterable,
                    "iterating .keys(); iterate sorted(<dict>) so the order "
                    "cannot depend on insertion history")
                return
        if scope.is_set_expr(iterable):
            label = (f"set {iterable.id!r}" if isinstance(iterable, ast.Name)
                     else "a set expression")
            yield self.finding(
                source, iterable,
                f"iterating {label} without sorted(); set order is "
                "nondeterministic across runs and interpreters")


# ---------------------------------------------------------------------------
# D4: hot-path metric/trace updates behind an enabled-check
# ---------------------------------------------------------------------------

#: Method names that mutate a metric.
_METRIC_UPDATE_ATTRS = frozenset({"inc", "observe", "set_max"})

#: Metric-handle lookups whose result a ``.set(...)`` may target.
_METRIC_LOOKUP_ATTRS = frozenset({"counter", "gauge", "histogram"})


def _mentions_obs(node: ast.expr) -> bool:
    name = _terminal_name(node)
    return "obs" in name


def _is_metric_update(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _METRIC_UPDATE_ATTRS:
        return True
    if func.attr == "event" and _mentions_obs(func.value):
        return True
    if func.attr == "set":
        receiver = func.value
        if (isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Attribute)
                and receiver.func.attr in _METRIC_LOOKUP_ATTRS):
            return True
        return _terminal_name(receiver).lstrip("_").startswith("g_")
    return False


class HotPathGuardRule(Rule):
    """D4: metric updates and trace emissions sit behind ``.enabled``.

    The observability contract (PR 2) is that a disabled handle costs
    one attribute check per instrumented operation.  An unguarded
    ``.inc()`` / ``.observe()`` / ``obs.event(...)`` pays dictionary
    lookups and allocation on every packet/message even when nobody is
    watching.  Guards are recognized structurally: any enclosing
    ``if <...>.enabled:`` (also via a local alias such as
    ``observed = obs.enabled``) or an early ``if not <guard>: return``.
    """

    rule_id = "D4"
    title = "metric updates behind enabled-guards"

    def applies_to(self, path: str) -> bool:
        if _in_test_or_tool_tree(path):
            return False
        # repro/obs implements the guard machinery itself.
        return "obs" not in _posix_parts(path)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = self._guard_aliases(source.tree)
        findings: List[Finding] = []
        self._visit_block(source, source.tree.body, False, aliases, findings)
        yield from findings

    def _guard_aliases(self, tree: ast.Module) -> Set[str]:
        """Names assigned from ``<something>.enabled`` anywhere in the file."""
        aliases: Set[str] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "enabled"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        return aliases

    def _test_is_guard(self, test: ast.expr, aliases: Set[str]) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) and node.attr == "enabled":
                return True
            if isinstance(node, ast.Name) and node.id in aliases:
                return True
        return False

    def _is_guard_bailout(self, stmt: ast.stmt, aliases: Set[str]) -> bool:
        """``if not <guard>: return/continue/raise`` upgrades the rest
        of the block to guarded."""
        if not isinstance(stmt, ast.If) or stmt.orelse:
            return False
        test = stmt.test
        if not (isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not)
                and self._test_is_guard(test.operand, aliases)):
            return False
        return bool(stmt.body) and isinstance(
            stmt.body[-1], (ast.Return, ast.Continue, ast.Raise))

    def _visit_block(self, source: SourceFile, body: Sequence[ast.stmt],
                     guarded: bool, aliases: Set[str],
                     findings: List[Finding]) -> None:
        block_guarded = guarded
        for stmt in body:
            if self._is_guard_bailout(stmt, aliases):
                block_guarded = True
                continue
            self._visit_stmt(source, stmt, block_guarded, aliases, findings)

    def _visit_stmt(self, source: SourceFile, stmt: ast.stmt, guarded: bool,
                    aliases: Set[str], findings: List[Finding]) -> None:
        if isinstance(stmt, ast.If):
            if self._test_is_guard(stmt.test, aliases):
                self._visit_block(source, stmt.body, True, aliases, findings)
                self._visit_block(source, stmt.orelse, guarded, aliases,
                                  findings)
            else:
                self._scan_expr(source, stmt.test, guarded, findings)
                self._visit_block(source, stmt.body, guarded, aliases,
                                  findings)
                self._visit_block(source, stmt.orelse, guarded, aliases,
                                  findings)
            return
        if isinstance(stmt, _FUNCTION_NODES):
            # A new scope: caller-side guards do not carry in.
            self._visit_block(source, stmt.body, False, aliases, findings)
            return
        if isinstance(stmt, ast.ClassDef):
            self._visit_block(source, stmt.body, guarded, aliases, findings)
            return
        blocks = [getattr(stmt, name, []) for name in
                  ("body", "orelse", "finalbody")]
        handlers = getattr(stmt, "handlers", [])
        if any(blocks) or handlers:
            for field_name, value in ast.iter_fields(stmt):
                if field_name in ("body", "orelse", "finalbody", "handlers"):
                    continue
                self._scan_field(source, value, guarded, findings)
            for block in blocks:
                self._visit_block(source, block, guarded, aliases, findings)
            for handler in handlers:
                self._visit_block(source, handler.body, guarded, aliases,
                                  findings)
            return
        self._scan_field(source, stmt, guarded, findings)

    def _scan_field(self, source: SourceFile, value: object, guarded: bool,
                    findings: List[Finding]) -> None:
        if isinstance(value, ast.AST):
            self._scan_expr(source, value, guarded, findings)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    self._scan_expr(source, item, guarded, findings)

    def _scan_expr(self, source: SourceFile, node: ast.AST, guarded: bool,
                   findings: List[Finding]) -> None:
        if guarded:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Call) and _is_metric_update(child):
                attr = child.func.attr  # type: ignore[attr-defined]
                findings.append(self.finding(
                    source, child,
                    f"metric/trace update '.{attr}(...)' outside an "
                    "obs.enabled guard; wrap it in 'if obs.enabled:' (or "
                    "a cached alias) so disabled runs pay one attribute "
                    "check"))


# ---------------------------------------------------------------------------
# D5: typed exceptions and immutable defaults in the public API
# ---------------------------------------------------------------------------


#: Builtin exceptions a caller cannot tell from a programming error.
_UNTYPED_ERRORS = frozenset({"ValueError", "TypeError", "KeyError",
                             "RuntimeError", "Exception"})

#: Leaf modules that cannot import :mod:`repro.net.errors` without a
#: cycle through ``repro.net.__init__`` (``obs``, ``schema``), or whose
#: ``KeyError`` is the mapping protocol (``lpm``).
_UNTYPED_RAISE_EXEMPT = ("repro.obs", "repro.schema", "repro.net.lpm")


class PublicApiRule(Rule):
    """D5: no mutable defaults; no bare ``assert`` in public functions;
    no ``raise <builtin exception>(...)``.

    ``assert`` vanishes under ``python -O``, so input validation in a
    public entry point must raise a typed exception from
    :mod:`repro.net.errors` — which is also what lets a caller catch
    library failures without masking programming errors.  Genuine
    internal invariants (unreachable states the type system cannot
    express) stay as asserts behind a ``# repro: allow[D5]``
    suppression.
    """

    rule_id = "D5"
    title = "typed errors and immutable defaults in public API"

    def applies_to(self, path: str) -> bool:
        return not _in_test_or_tool_tree(path)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        yield from self._check_defaults(source)
        yield from self._check_asserts(source)
        yield from self._check_raises(source)

    def _check_raises(self, source: SourceFile) -> Iterator[Finding]:
        module = module_name_for_path(source.path)
        if any(module == leaf or module.startswith(leaf + ".")
               for leaf in _UNTYPED_RAISE_EXEMPT):
            return
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)
                    and node.exc.func.id in _UNTYPED_ERRORS):
                continue
            yield self.finding(
                source, node,
                f"raise {node.exc.func.id}(...) is indistinguishable from "
                "a programming error; raise a typed exception from "
                "repro.net.errors (derive ValueError too where callers "
                "catch it, as AddressError does)")

    def _check_defaults(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, _FUNCTION_NODES + (ast.Lambda,)):
                arguments = node.args
                defaults = list(arguments.defaults) + [
                    d for d in arguments.kw_defaults if d is not None]
                for default in defaults:
                    if self._is_mutable_default(default):
                        yield self.finding(
                            source, default,
                            "mutable default argument is shared across "
                            "calls; default to None (or a tuple/frozenset) "
                            "and construct inside the function")

    @staticmethod
    def _is_mutable_default(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "dict", "set", "bytearray")
        return False

    def _check_asserts(self, source: SourceFile) -> Iterator[Finding]:
        for scope_node, is_public in self._public_scopes(source.tree):
            if not is_public:
                continue
            for node in _iter_scope(scope_node):
                if isinstance(node, ast.Assert):
                    yield self.finding(
                        source, node,
                        "bare assert in a public function disappears under "
                        "python -O; raise a typed exception from "
                        "repro.net.errors for input validation (allowlist "
                        "true invariants with '# repro: allow[D5]')")

    def _public_scopes(
            self, tree: ast.Module
    ) -> Iterator[Tuple[ast.AST, bool]]:
        """Every function scope, flagged public/private.

        Public means: a module-level function, or a method of a
        module-level public class, whose own name has no underscore
        prefix.  Anything nested inside another function is internal.
        """
        for stmt in tree.body:
            if isinstance(stmt, _FUNCTION_NODES):
                yield stmt, not stmt.name.startswith("_")
            elif isinstance(stmt, ast.ClassDef):
                class_public = not stmt.name.startswith("_")
                for member in stmt.body:
                    if isinstance(member, _FUNCTION_NODES):
                        yield member, (class_public
                                       and not member.name.startswith("_"))


# ---------------------------------------------------------------------------
# whole-program rules (checked against the project index)
# ---------------------------------------------------------------------------


class ProjectRule:
    """One named check over the whole-program :class:`ProjectIndex`.

    Unlike :class:`Rule`, a project rule sees every module at once —
    call graphs and registration sites.  The P family lives in
    :mod:`repro.lint.prules`.
    """

    rule_id: str = ""
    title: str = ""

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, index: ProjectIndex, path: str, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        source = index.by_path[path].source
        return Finding(path=path, line=line, col=col,
                       rule_id=self.rule_id, message=message,
                       suppressed=source.is_allowed(self.rule_id, line))


#: The per-file rules, in id order.
D_RULES: Tuple[Rule, ...] = (
    SeededRandomRule(), WallClockRule(), OrderedIterationRule(),
    HotPathGuardRule(), PublicApiRule(),
)
