"""The project index the whole-program rules read.

:class:`ProjectIndex` is built once per lint run from the same parsed
:class:`~repro.lint.findings.SourceFile` objects the per-file rules
consume (one parse per file, shared everywhere).  It holds everything
the P rule family needs:

* the **module table** — imports, module-level mutable containers,
  classes, and every function (nested ones included) with its raw call
  sites;
* the **call graph** — name-based and deliberately over-approximate:
  a ``self.x()`` call resolves through the class's base chain, a bare
  name through module scope and imports, and an ``obj.x()`` call to
  *every* project function named ``x`` (we would rather follow an edge
  that cannot happen than miss one that can);
* **workload roots** — runners registered through
  :func:`repro.experiments.base.register`, in both the decorator form
  and the ``register(...)(factory(...))`` form (factory-returned nested
  runners are resolved to the nested function).

The index is pure data plus closure helpers; rules stay small.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.lint.findings import SourceFile

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Modules whose ``register`` symbol marks a workload root.
_REGISTER_MODULES = frozenset({"repro.experiments", "repro.experiments.base"})

#: Call names that construct leak-prone resources (closure-capture rule).
RESOURCE_FACTORIES = frozenset({
    "open", "Tracer", "for_cell", "Pool", "ThreadPool",
    "ProcessPoolExecutor", "ThreadPoolExecutor", "TemporaryFile",
    "NamedTemporaryFile",
})

#: Method names that mutate a container in place.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "pop", "popitem",
    "remove", "discard", "clear", "extend", "insert",
})

#: Constructor calls whose result is a mutable container.
_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter",
})


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path (``src/`` prefixes stripped).

    ``src/repro/net/network.py`` -> ``repro.net.network``;
    ``src/repro/obs/__init__.py`` -> ``repro.obs``.
    """
    parts = list(PurePosixPath(path.replace("\\", "/")).parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or "<module>"


def _terminal_name(node: ast.expr) -> str:
    """The rightmost identifier of a Name/Attribute chain ('' otherwise)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


@dataclass
class CallSite:
    """One call expression inside a function, pre-resolution."""

    node: ast.Call
    #: Terminal callee name (``f`` for ``f()``, ``m`` for ``a.b.m()``).
    name: str
    #: ``True`` when the callee is a bare ``Name`` (not an attribute).
    is_bare: bool
    #: Receiver's terminal name for attribute calls (``''`` otherwise).
    receiver: str
    #: ``True`` when the receiver chain starts at ``self``/``cls``.
    via_self: bool


@dataclass
class FunctionInfo:
    """One function (or method, or nested function) in the project."""

    key: str
    module: str
    path: str
    name: str
    qual: str
    node: ast.AST
    class_name: Optional[str] = None
    parent: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    #: Names bound locally (params, assignments, loop/with targets).
    local_names: Set[str] = field(default_factory=set)
    #: Names declared ``global`` in this function.
    global_decls: Set[str] = field(default_factory=set)
    #: Keys of nested functions defined directly inside this one.
    nested: List[str] = field(default_factory=list)
    #: Function names returned by ``return <name>`` statements.
    returned_names: Set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """One class: its methods and base-name chain."""

    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything indexed about one source module."""

    name: str
    path: str
    source: SourceFile
    #: Local alias -> (module, symbol-or-None).  ``import a.b as c``
    #: maps ``c -> ("a.b", None)``; ``from m import f as g`` maps
    #: ``g -> ("m", "f")``.
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    #: Module-level names bound to mutable containers -> lineno.
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level function names referenced as values (first-class).
    escaped: Set[str] = field(default_factory=set)
    #: Raw call nodes at module level (registration scans need them).
    module_calls: List[ast.Call] = field(default_factory=list)


class ProjectIndex:
    """The whole-program index."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: function name -> keys of every project function with it.
        self.functions_by_name: Dict[str, List[str]] = {}
        #: Resolved call graph: caller key -> callee keys.
        self.calls_out: Dict[str, Set[str]] = {}
        #: Registered workload-runner function keys.
        self.workload_roots: Set[str] = set()
        #: (module, name) of module mutables mutated in place anywhere.
        self.mutated_globals: Set[Tuple[str, str]] = set()

    # -- construction -------------------------------------------------------
    @classmethod
    def build(cls, sources: Mapping[str, SourceFile]) -> "ProjectIndex":
        """Index *sources* (path -> parsed file, shared with the rules)."""
        index = cls()
        for path in sorted(sources):
            index._index_module(path, sources[path])
        index._link()
        return index

    def _index_module(self, path: str, source: SourceFile) -> None:
        name = module_name_for_path(path)
        info = ModuleInfo(name=name, path=path, source=source)
        self.modules[name] = info
        self.by_path[path] = info
        _ModuleIndexer(self, info).run()

    def _link(self) -> None:
        """Resolve calls and workload roots (needs every module indexed
        first)."""
        for info in self.functions.values():
            self.functions_by_name.setdefault(info.name, []).append(info.key)
        for keys in self.functions_by_name.values():
            keys.sort()
        self._resolve_calls()
        self._find_workload_roots()
        self._find_mutated_globals()

    # -- call graph ---------------------------------------------------------
    def _resolve_calls(self) -> None:
        for info in self.functions.values():
            out = self.calls_out[info.key] = set(info.nested)
            for call in info.calls:
                out.update(self._resolve_call(info, call))
            out.discard(info.key)

    def _resolve_call(self, caller: FunctionInfo,
                      call: CallSite) -> Iterable[str]:
        mod = self.modules[caller.module]
        if call.is_bare:
            return self._resolve_bare_call(caller, mod, call)
        if call.via_self and caller.class_name is not None:
            found = self._resolve_self_call(mod, caller.class_name, call.name)
            if found is not None:
                return [found]
        receiver_target = mod.imports.get(call.receiver)
        if receiver_target is not None and receiver_target[1] is None:
            other = self.modules.get(receiver_target[0])
            if other is not None:
                target_key = f"{other.name}:{call.name}"
                if target_key in self.functions:
                    return [target_key]
                if call.name in other.classes:
                    init = other.classes[call.name].methods.get("__init__")
                    return [init] if init else []
        # Over-approximate: any project *method or nested function* with
        # this name.  Module-level functions are excluded on purpose —
        # they are only ever reached through imports, which the exact
        # branches above resolve; linking `obj.run()` to every plain
        # function named ``run`` would wire unrelated subsystems
        # together and drown the P-rules in phantom paths.
        return [key for key in self.functions_by_name.get(call.name, [])
                if self.functions[key].class_name is not None
                or self.functions[key].parent is not None]

    def _resolve_bare_call(self, caller: FunctionInfo, mod: ModuleInfo,
                           call: CallSite) -> Iterable[str]:
        name = call.name
        # A sibling nested function or the enclosing scope's nested defs.
        scope: Optional[FunctionInfo] = caller
        while scope is not None:
            for nested_key in scope.nested:
                if self.functions[nested_key].name == name:
                    return [nested_key]
            scope = (self.functions.get(scope.parent)
                     if scope.parent else None)
        module_key = f"{mod.name}:{name}"
        if module_key in self.functions:
            return [module_key]
        if name in mod.classes:
            init = mod.classes[name].methods.get("__init__")
            return [init] if init else []
        target = mod.imports.get(name)
        if target is not None and target[1] is not None:
            other = self.modules.get(target[0])
            if other is not None:
                imported_key = f"{other.name}:{target[1]}"
                if imported_key in self.functions:
                    return [imported_key]
                if target[1] in other.classes:
                    init = other.classes[target[1]].methods.get("__init__")
                    return [init] if init else []
            return []
        if name in caller.local_names:
            # First-class callable: fall back to functions that escape
            # as values in this module (factories, workload tables).
            return self._escaped_keys(mod)
        return []

    def _escaped_keys(self, mod: ModuleInfo) -> List[str]:
        keys: List[str] = []
        for info in mod.functions.values():
            if info.name in mod.escaped:
                keys.append(info.key)
        return sorted(keys)

    def _resolve_self_call(self, mod: ModuleInfo, class_name: str,
                           method: str, depth: int = 0) -> Optional[str]:
        if depth > 8:
            return None
        cls = mod.classes.get(class_name)
        if cls is None:
            target = mod.imports.get(class_name)
            if target is not None and target[1] is not None:
                other = self.modules.get(target[0])
                if other is not None:
                    return self._resolve_self_call(other, target[1], method,
                                                   depth + 1)
            return None
        if method in cls.methods:
            return cls.methods[method]
        for base in cls.bases:
            found = self._resolve_self_call(mod, base, method, depth + 1)
            if found is not None:
                return found
        return None

    # -- closures -----------------------------------------------------------
    def callee_closure(self, roots: Iterable[str]) -> Set[str]:
        """*roots* plus everything transitively called from them."""
        seen: Set[str] = set()
        stack = list(roots)
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(self.calls_out.get(key, ()))
        return seen

    # -- workload roots -----------------------------------------------------
    def _find_workload_roots(self) -> None:
        for mod in self.modules.values():
            for info in list(mod.functions.values()):
                decorators = getattr(info.node, "decorator_list", [])
                for decorator in decorators:
                    if (isinstance(decorator, ast.Call)
                            and self._is_register_ref(mod, decorator.func)):
                        self.workload_roots.add(info.key)
            calls: List[ast.Call] = list(mod.module_calls)
            for info in mod.functions.values():
                calls.extend(call.node for call in info.calls)
            for call in calls:
                self._scan_register_call(mod, call)

    def _is_register_ref(self, mod: ModuleInfo, func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            target = mod.imports.get(func.id)
            return (target is not None and target[1] == "register"
                    and target[0] in _REGISTER_MODULES)
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            target = mod.imports.get(func.value.id)
            if func.attr != "register" or target is None:
                return False
            # ``import repro.experiments.base as base`` or
            # ``from repro.experiments import base``.
            referenced = (target[0] if target[1] is None
                          else f"{target[0]}.{target[1]}")
            return referenced in _REGISTER_MODULES
        return False

    def _scan_register_call(self, mod: ModuleInfo, call: ast.Call) -> None:
        """Handle ``register(...)(runner_or_factory_call)``."""
        if not (isinstance(call.func, ast.Call)
                and self._is_register_ref(mod, call.func.func)):
            return
        if not call.args:
            return
        argument = call.args[0]
        if isinstance(argument, ast.Name):
            key = f"{mod.name}:{argument.id}"
            if key in self.functions:
                self.workload_roots.add(key)
        elif isinstance(argument, ast.Call) and isinstance(argument.func,
                                                           ast.Name):
            factory_key = f"{mod.name}:{argument.func.id}"
            factory = self.functions.get(factory_key)
            if factory is None:
                return
            for nested_key in factory.nested:
                nested = self.functions[nested_key]
                if nested.name in factory.returned_names:
                    self.workload_roots.add(nested_key)

    def runner_reachable(self) -> Set[str]:
        """Function keys reachable from any registered workload runner."""
        return self.callee_closure(self.workload_roots)

    # -- mutated module globals --------------------------------------------
    def _find_mutated_globals(self) -> None:
        """Record module-level mutables mutated *in place* anywhere.

        Reassignment through ``global`` is excluded on purpose: context
        managers that swap a module default in/out are deterministic
        under the fleet contract, while in-place container mutation
        from a worker is not.
        """
        for mod in self.modules.values():
            for info in mod.functions.values():
                for name in _inplace_mutations(info, mod):
                    self.mutated_globals.add((mod.name, name))


def global_mutable_target(info: FunctionInfo, mod: ModuleInfo,
                          name: str) -> Optional[Tuple[str, str]]:
    """Resolve *name* to a module-level mutable ``(module, name)``.

    Checks the function's own module first, then ``from m import name``
    targets; returns ``None`` for locals and non-mutables.
    """
    if name in info.local_names:
        return None
    if name in mod.mutable_globals:
        return (mod.name, name)
    target = mod.imports.get(name)
    if target is not None and target[1] is not None:
        return (target[0], target[1])
    return None


def _inplace_mutations(info: FunctionInfo, mod: ModuleInfo) -> Set[str]:
    """Names of module-level mutables this function mutates in place."""
    mutated: Set[str] = set()
    for node in ast.walk(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)):
                    name = target.value.id
                    if (name not in info.local_names
                            and (name in mod.mutable_globals
                                 or name in info.global_decls)):
                        mutated.add(name)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and isinstance(func.value, ast.Name)):
                name = func.value.id
                if (name not in info.local_names
                        and (name in mod.mutable_globals
                             or name in info.global_decls)):
                    mutated.add(name)
    return mutated


# ---------------------------------------------------------------------------
# module indexing walk
# ---------------------------------------------------------------------------


class _ModuleIndexer:
    """One recursive walk building a :class:`ModuleInfo`."""

    def __init__(self, index: ProjectIndex, mod: ModuleInfo) -> None:
        self.index = index
        self.mod = mod

    def run(self) -> None:
        tree = self.mod.source.tree
        self._index_imports(tree)
        self._index_module_level(tree)
        for stmt in tree.body:
            self._walk_stmt(stmt, class_name=None, qual_prefix="",
                            parent=None)
        self._index_escapes(tree)

    # -- imports and module level ------------------------------------------
    def _index_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.mod.imports[bound] = (target, None)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    prefix_parts = self.mod.name.split(".")
                    # level 1 = current package; strip one extra part
                    # when this module is not itself a package __init__.
                    if not self.mod.path.endswith("__init__.py"):
                        prefix_parts = prefix_parts[:-1]
                    for _ in range(node.level - 1):
                        prefix_parts = prefix_parts[:-1]
                    base = ".".join(prefix_parts + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.mod.imports[bound] = (base, alias.name)

    def _index_module_level(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            value: Optional[ast.expr] = None
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                           ast.Call):
                self.mod.module_calls.append(stmt.value)
                for call in ast.walk(stmt.value):
                    if isinstance(call, ast.Call) and call is not stmt.value:
                        self.mod.module_calls.append(call)
                continue
            else:
                continue
            if _is_mutable_value(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.mod.mutable_globals[target.id] = stmt.lineno
            for call in ast.walk(value):
                if isinstance(call, ast.Call):
                    self.mod.module_calls.append(call)

    # -- scope walk ---------------------------------------------------------
    def _walk_stmt(self, stmt: ast.stmt, class_name: Optional[str],
                   qual_prefix: str, parent: Optional[str]) -> None:
        if isinstance(stmt, _FUNCTION_NODES):
            self._index_function(stmt, class_name, qual_prefix, parent)
        elif isinstance(stmt, ast.ClassDef):
            self._index_class(stmt, qual_prefix)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._walk_stmt(child, class_name, qual_prefix, parent)

    def _index_class(self, node: ast.ClassDef, qual_prefix: str) -> None:
        qual = f"{qual_prefix}{node.name}"
        cls = ClassInfo(bases=[_terminal_name(base) for base in node.bases
                               if _terminal_name(base)])
        self.mod.classes[node.name] = cls
        for stmt in node.body:
            if isinstance(stmt, _FUNCTION_NODES):
                info = self._index_function(stmt, node.name, f"{qual}.",
                                            parent=None)
                cls.methods[stmt.name] = info.key

    def _index_function(self, node: ast.AST, class_name: Optional[str],
                        qual_prefix: str,
                        parent: Optional[str]) -> FunctionInfo:
        name = getattr(node, "name", "<lambda>")
        qual = f"{qual_prefix}{name}"
        key = f"{self.mod.name}:{qual}"
        info = FunctionInfo(key=key, module=self.mod.name, path=self.mod.path,
                            name=name, qual=qual, node=node,
                            class_name=class_name, parent=parent)
        self.mod.functions[key] = info
        self.index.functions[key] = info
        args = getattr(node, "args", None)
        if args is not None:
            for arg in (list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)):
                info.local_names.add(arg.arg)
            if args.vararg:
                info.local_names.add(args.vararg.arg)
            if args.kwarg:
                info.local_names.add(args.kwarg.arg)
        self._scan_scope(info, node, class_name, qual)
        return info

    def _scan_scope(self, info: FunctionInfo, node: ast.AST,
                    class_name: Optional[str], qual: str) -> None:
        body: Sequence[ast.stmt] = getattr(node, "body", [])
        stack: List[ast.AST] = list(body)
        while stack:
            child = stack.pop()
            if isinstance(child, _FUNCTION_NODES):
                nested = self._index_function(
                    child, class_name, f"{qual}.<locals>.", parent=info.key)
                info.nested.append(nested.key)
                info.local_names.add(nested.name)
                continue
            if isinstance(child, ast.ClassDef):
                info.local_names.add(child.name)
                continue  # local classes: rare, skipped
            if isinstance(child, ast.Lambda):
                # Lambdas stay part of the enclosing function's scope;
                # their calls count as the enclosing function's calls.
                stack.append(child.body)
                continue
            if isinstance(child, ast.Global):
                info.global_decls.update(child.names)
            elif isinstance(child, ast.Call):
                info.calls.append(_call_site(child))
            elif isinstance(child, ast.Return) and isinstance(child.value,
                                                              ast.Name):
                info.returned_names.add(child.value.id)
            for target_holder in _binding_targets(child):
                info.local_names.update(_flat_names(target_holder))
            stack.extend(ast.iter_child_nodes(child))

    def _index_escapes(self, tree: ast.Module) -> None:
        call_funcs = {id(node.func) for node in ast.walk(tree)
                      if isinstance(node, ast.Call)}
        function_names = {info.name for info in self.mod.functions.values()}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in function_names
                    and id(node) not in call_funcs):
                self.mod.escaped.add(node.id)


def _call_site(node: ast.Call) -> CallSite:
    func = node.func
    if isinstance(func, ast.Name):
        return CallSite(node=node, name=func.id, is_bare=True, receiver="",
                        via_self=False)
    if isinstance(func, ast.Attribute):
        receiver = func.value
        root = receiver
        while isinstance(root, ast.Attribute):
            root = root.value
        via_self = isinstance(root, ast.Name) and root.id in ("self", "cls")
        return CallSite(node=node, name=func.attr, is_bare=False,
                        receiver=_terminal_name(receiver), via_self=via_self)
    return CallSite(node=node, name="", is_bare=False, receiver="",
                    via_self=False)


def _binding_targets(node: ast.AST) -> List[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    if isinstance(node, ast.For):
        return [node.target]
    if isinstance(node, ast.withitem) and node.optional_vars is not None:
        return [node.optional_vars]
    if isinstance(node, ast.comprehension):
        return [node.target]
    if isinstance(node, ast.ExceptHandler) and node.name:
        return []  # handler names: strings, handled below
    return []


def _flat_names(target: ast.expr) -> Set[str]:
    """Names a binding target actually binds.

    ``x[k] = v`` and ``x.a = v`` mutate an existing object rather than
    binding ``x``, so subscript/attribute targets contribute nothing.
    """
    names: Set[str] = set()
    stack: List[ast.expr] = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
    return names


def _is_mutable_value(value: Optional[ast.expr]) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        return _terminal_name(value.func) in _MUTABLE_FACTORIES
    return False
