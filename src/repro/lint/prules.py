"""P-rules: fleet safety on registered workload-runner call paths.

The PR-8 fleet contract is that a merged ``repro.fleet/v1`` report is
byte-identical at any ``--workers`` count.  That holds only if every
registered ``runner(seed=, params=)`` is *process-pure*: no shared
module state, no captured live resources, no wall-clock values leaking
into artifacts.  These rules walk the project call graph from every
registration site and flag the three hazard classes on any reachable
function:

* **P1** — module-level mutable state written (``global`` rebinding,
  in-place container mutation) or read when some code in the project
  mutates that container in place.  Worker processes each see their own
  copy; cross-cell state makes merges worker-count-dependent.
* **P2** — a nested function or lambda capturing a live resource
  (open file handle, tracer, process pool) from its enclosing scope.
  Such closures get pickled to workers or outlive the cell teardown.
* **P3** — a wall-clock value stored under an artifact key without
  ``wall_`` in it, so :func:`repro.fleet.engine._strip_wall_metrics`
  (which keys on that substring) cannot strip it before merging.

The reachability set deliberately over-approximates (see
:mod:`repro.lint.project`): an edge that cannot happen costs a
reviewed suppression, an edge we miss costs a flaky fleet merge.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project import (_FUNCTION_NODES, MUTATING_METHODS,
                                RESOURCE_FACTORIES, FunctionInfo, ModuleInfo,
                                ProjectIndex, _terminal_name,
                                global_mutable_target)
from repro.lint.rules import ProjectRule, _is_wall_call

#: Substring marker the fleet's wall-metric stripper keys on.
WALL_MARKER = "wall_"


def _own_scope(node: ast.AST) -> Iterator[ast.AST]:
    """One function's own nodes; nested def/lambda bodies excluded."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _FUNCTION_NODES + (ast.Lambda,)):
            yield child  # the nested callable itself, not its body
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _reachable_functions(index: ProjectIndex) -> List[FunctionInfo]:
    keys = sorted(index.runner_reachable())
    return [index.functions[key] for key in keys]


class ModuleStateRule(ProjectRule):
    """P1: no shared module-level mutable state on runner paths."""

    rule_id = "P1"
    title = "runners touch no module-level mutable state"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in _reachable_functions(index):
            mod = index.modules[info.module]
            yield from self._check_global_writes(index, info)
            written: Set[str] = set()
            for name, finding in self._check_inplace(index, info, mod):
                written.add(name)
                yield finding
            # A write site is also a Load of the container name; don't
            # report the same hazard twice.
            yield from self._check_reads(index, info, mod, skip=written)

    def _check_global_writes(self, index: ProjectIndex,
                             info: FunctionInfo) -> Iterator[Finding]:
        if not info.global_decls:
            return
        for node in _own_scope(info.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id in info.global_decls):
                    yield self.finding(
                        index, info.path, node,
                        f"'{info.qual}' rebinds module global "
                        f"'{target.id}' and is reachable from a registered "
                        "workload runner; per-worker module state breaks "
                        "worker-count-identical fleet merges")

    def _check_inplace(self, index: ProjectIndex, info: FunctionInfo,
                       mod: ModuleInfo) -> Iterator[Tuple[str, Finding]]:
        for node in _own_scope(info.node):
            name: Optional[str] = None
            what = ""
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)):
                        name = target.value.id
                        what = "subscript-assigns into"
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in MUTATING_METHODS
                        and isinstance(func.value, ast.Name)):
                    name = func.value.id
                    what = f"calls '.{func.attr}(...)' on"
            if name is None:
                continue
            target_global = global_mutable_target(info, mod, name)
            if target_global is None:
                continue
            target_mod = index.modules.get(target_global[0])
            if (target_mod is None
                    or target_global[1] not in target_mod.mutable_globals):
                continue
            yield name, self.finding(
                index, info.path, node,
                f"'{info.qual}' {what} module-level mutable "
                f"'{target_global[0]}.{target_global[1]}' on a workload-"
                "runner call path; workers each mutate their own copy, so "
                "fleet results depend on cell-to-worker placement")

    def _check_reads(self, index: ProjectIndex, info: FunctionInfo,
                     mod: ModuleInfo,
                     skip: Optional[Set[str]] = None) -> Iterator[Finding]:
        reported: Set[str] = set(skip or ())
        for node in _own_scope(info.node):
            if not (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)):
                continue
            target_global = global_mutable_target(info, mod, node.id)
            if target_global is None or target_global not in \
                    index.mutated_globals:
                continue
            if node.id in reported:
                continue
            reported.add(node.id)
            yield self.finding(
                index, info.path, node,
                f"'{info.qual}' reads module-level mutable "
                f"'{target_global[0]}.{target_global[1]}', which is mutated "
                "in place elsewhere in the project, on a workload-runner "
                "call path; the value seen depends on what already ran in "
                "this worker process")


class ClosureCaptureRule(ProjectRule):
    """P2: closures on runner paths capture no live resources."""

    rule_id = "P2"
    title = "no tracer/pool/file-handle closure captures"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in _reachable_functions(index):
            bindings = self._resource_bindings(info)
            if not bindings:
                continue
            for node in _own_scope(info.node):
                if isinstance(node, _FUNCTION_NODES + (ast.Lambda,)):
                    yield from self._check_closure(index, info, bindings,
                                                   node)

    def _resource_bindings(self, info: FunctionInfo) -> Dict[str, str]:
        """Local name -> resource factory it was bound from."""
        bindings: Dict[str, str] = {}
        for node in _own_scope(info.node):
            if isinstance(node, ast.Assign) and isinstance(node.value,
                                                           ast.Call):
                factory = _terminal_name(node.value.func)
                if factory in RESOURCE_FACTORIES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bindings[target.id] = factory
            elif isinstance(node, ast.withitem):
                if (isinstance(node.context_expr, ast.Call)
                        and node.optional_vars is not None
                        and isinstance(node.optional_vars, ast.Name)):
                    factory = _terminal_name(node.context_expr.func)
                    if factory in RESOURCE_FACTORIES:
                        bindings[node.optional_vars.id] = factory
        return bindings

    def _check_closure(self, index: ProjectIndex, info: FunctionInfo,
                       bindings: Dict[str, str],
                       node: ast.AST) -> Iterator[Finding]:
        free = _free_names(node)
        for name in sorted(free):
            factory = bindings.get(name)
            if factory is None:
                continue
            kind = ("closure" if isinstance(node, _FUNCTION_NODES)
                    else "lambda")
            yield self.finding(
                index, info.path, node,
                f"{kind} in '{info.qual}' captures '{name}' bound from "
                f"'{factory}(...)'; closures on workload-runner paths must "
                "not capture live handles (tracers, pools, open files) — "
                "pass plain data and reopen inside the worker")


def _free_names(node: ast.AST) -> Set[str]:
    """Names loaded in a nested callable but bound outside it."""
    bound: Set[str] = set()
    args = getattr(node, "args", None)
    if args is not None:
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            bound.add(arg.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    loaded: Set[str] = set()
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        for child in ast.walk(stmt):
            if isinstance(child, ast.Name):
                if isinstance(child.ctx, ast.Load):
                    loaded.add(child.id)
                else:
                    bound.add(child.id)
            elif isinstance(child, _FUNCTION_NODES):
                bound.add(child.name)
    return loaded - bound


class WallClockArtifactRule(ProjectRule):
    """P3: wall-clock values land only under ``wall_``-marked keys."""

    rule_id = "P3"
    title = "wall-clock artifact entries carry the wall_ marker"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in _reachable_functions(index):
            for node in _own_scope(info.node):
                if isinstance(node, ast.Dict):
                    yield from self._check_dict(index, info, node)
                elif isinstance(node, ast.Assign):
                    yield from self._check_subscript(index, info, node)

    def _check_dict(self, index: ProjectIndex, info: FunctionInfo,
                    node: ast.Dict) -> Iterator[Finding]:
        for key_node, value in zip(node.keys, node.values):
            if not (isinstance(key_node, ast.Constant)
                    and isinstance(key_node.value, str)):
                continue
            yield from self._check_entry(index, info, key_node.value,
                                         value, key_node)

    def _check_subscript(self, index: ProjectIndex, info: FunctionInfo,
                         node: ast.Assign) -> Iterator[Finding]:
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)):
                yield from self._check_entry(index, info, target.slice.value,
                                             node.value, node)

    def _check_entry(self, index: ProjectIndex, info: FunctionInfo, key: str,
                     value: ast.expr, at: ast.AST) -> Iterator[Finding]:
        if WALL_MARKER in key:
            return
        culprit = _wall_source(value)
        if culprit is None:
            return
        yield self.finding(
            index, info.path, at,
            f"artifact entry '{key}' holds a wall-clock value ({culprit}) "
            f"but its key lacks the '{WALL_MARKER}' marker, so the fleet's "
            "wall-metric stripper cannot remove it; merged reports would "
            "differ run to run")


def _wall_source(value: ast.expr) -> Optional[str]:
    for child in ast.walk(value):
        if _is_wall_call(child):
            func = child.func  # type: ignore[attr-defined]
            return f"'{_terminal_name(func.value)}.{func.attr}()'"
        if (isinstance(child, (ast.Name, ast.Attribute))
                and WALL_MARKER in _terminal_name(child)):
            return f"'{_terminal_name(child)}'"
    return None


P_RULES: Tuple[ProjectRule, ...] = (ModuleStateRule(), ClosureCaptureRule(),
                                    WallClockArtifactRule())
