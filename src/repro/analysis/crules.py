"""C-rules: cache coherence across the topology/caching contract.

The PR-4 path/SPF caches and the PR-6 forwarding fast path are both
keyed on ``Network._topology_version``: any mutation of topology state
(link tables, node liveness, FIB contents, vN-Bone overlay structure)
that does not sit on a call path through a version bump or a fast-path
invalidation leaves a stale cache serving wrong answers — the class of
bug that otherwise only the re-derive-every-hit equivalence tests
would catch, at test time.

* **C1** — a statement mutating link/liveness topology state (``.links``
  table writes, ``.up``/``.cost`` attribute writes) in a function from
  which no caller chain can reach a version bump.
* **C2** — a FIB ``install``/``withdraw``, or a call to one of the
  acceptance-set and handler-state mutators
  (:data:`WALK_STATE_MUTATORS` — the rest of what a stored flow-level
  walk read), in a function from which no caller chain can reach a
  version bump.

"Reaches a bump" is computed on the pass-1 call graph: let ``B`` be the
set of functions whose transitive callees include a direct call to one
of :data:`BUMP_NAMES`.  ``B`` is closed under callers, so a mutator
``f`` is covered iff its caller closure (which includes ``f`` itself)
intersects ``B`` — this accepts the common shape where the bump lives
in a *sibling* callee of ``f``'s caller.  Constructors are exempt
(objects under construction are not yet visible to any cache), as is
the audited mutator set in :data:`AUDITED_MUTATORS`.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import (MUTATING_METHODS, FunctionInfo,
                                    ProjectIndex)
from repro.analysis.rules import ProjectRule, _terminal_name

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Terminal callee names that bump a topology version or invalidate a
#: topology-keyed cache.
BUMP_NAMES: FrozenSet[str] = frozenset({
    "_bump_topology_version", "_on_state_change", "bump", "pause",
    "_invalidate",
})

#: Packages (second path component under ``repro``) whose state feeds
#: the topology-version contract.
TOPOLOGY_PACKAGES: FrozenSet[str] = frozenset({
    "net", "routing", "vnbone", "bgp", "anycast", "topogen", "faults",
})

#: Function keys reviewed by hand and accepted as coherent even though
#: the call graph cannot prove a bump (e.g. builders whose result is
#: only published after a bump).  Keep this list short and commented.
AUDITED_MUTATORS: FrozenSet[str] = frozenset()

#: Methods that change what a forwarding walk reads besides FIBs and
#: liveness: a node's local-acceptance set, its per-version IPvN state,
#: a host's IPvN address, the engine's vN handler.
WALK_STATE_MUTATORS: FrozenSet[str] = frozenset({
    "add_local_ipv4", "remove_local_ipv4", "set_vn_state", "clear_vn_state",
    "assign_vn_address", "register_vn_handler",
})

#: Attribute names whose assignment changes topology reachability.
_TOPOLOGY_ATTRS: FrozenSet[str] = frozenset({"up", "cost"})

#: Methods not exempted even in ``__init__`` (none today).
_CONSTRUCTOR_NAMES: FrozenSet[str] = frozenset({"__init__", "__post_init__"})


def _in_topology_package(module: str) -> bool:
    parts = module.split(".")
    return (len(parts) >= 2 and parts[0] == "repro"
            and parts[1] in TOPOLOGY_PACKAGES)


def _own_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Every node in one function's own scope, nested defs excluded."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _FUNCTION_NODES):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def bump_covered(index: ProjectIndex) -> Set[str]:
    """Function keys on some call path through a topology bump."""
    direct = index.functions_calling(BUMP_NAMES)
    return index.caller_closure(direct)


def _is_covered(index: ProjectIndex, covered: Set[str],
                info: FunctionInfo) -> bool:
    if info.key in AUDITED_MUTATORS:
        return True
    if info.name in _CONSTRUCTOR_NAMES:
        return True
    return bool(index.caller_closure({info.key}) & covered)


class _TopologyCoherenceRule(ProjectRule):
    """Shared machinery: find mutations, then check bump coverage."""

    def mutations(self, info: FunctionInfo) -> Iterator[Tuple[ast.AST, str]]:
        raise NotImplementedError

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        covered = bump_covered(index)
        for info in index.functions.values():
            if not _in_topology_package(info.module):
                continue
            sites = list(self.mutations(info))
            if not sites:
                continue
            if _is_covered(index, covered, info):
                continue
            for node, what in sites:
                yield self.finding(
                    index, info.path, node,
                    f"{what} in '{info.qual}', but no call path from here "
                    "reaches a topology_version bump or fast-path "
                    "invalidation; version-keyed caches (path cache, flow "
                    "fast path) would serve stale state")


class TopologyMutationRule(_TopologyCoherenceRule):
    """C1: link-table/liveness mutations must sit under a version bump."""

    rule_id = "C1"
    title = "topology mutations reach a version bump"

    def mutations(self, info: FunctionInfo) -> Iterator[Tuple[ast.AST, str]]:
        for node in _own_scope(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    yield from self._check_target(node, target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if self._is_links_subscript(target):
                        yield node, "deletion from a '.links' table"
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in MUTATING_METHODS
                        and isinstance(func.value, ast.Attribute)
                        and func.value.attr == "links"):
                    yield node, (f"'.links.{func.attr}(...)' "
                                 "link-list mutation")

    def _check_target(self, stmt: ast.AST,
                      target: ast.expr) -> Iterator[Tuple[ast.AST, str]]:
        if self._is_links_subscript(target):
            yield stmt, "assignment into a '.links' table"
        elif (isinstance(target, ast.Attribute)
                and target.attr in _TOPOLOGY_ATTRS):
            yield stmt, f"'.{target.attr}' liveness/cost write"

    @staticmethod
    def _is_links_subscript(target: ast.expr) -> bool:
        return (isinstance(target, ast.Subscript)
                and _terminal_name(target.value) == "links")


class FibCoherenceRule(_TopologyCoherenceRule):
    """C2: FIB installs/withdraws and acceptance-set/handler-state
    mutator calls must sit under a version bump."""

    rule_id = "C2"
    title = "FIB and walk-state updates reach a version bump"

    def mutations(self, info: FunctionInfo) -> Iterator[Tuple[ast.AST, str]]:
        for node in _own_scope(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in WALK_STATE_MUTATORS:
                yield node, f"walk-state mutator '.{func.attr}(...)'"
            elif func.attr in ("install", "withdraw"):
                receiver = _terminal_name(func.value)
                if receiver.startswith("fib"):
                    yield node, f"FIB '.{func.attr}(...)' on '{receiver}'"


C_RULES: Tuple[ProjectRule, ...] = (TopologyMutationRule(),
                                    FibCoherenceRule())
