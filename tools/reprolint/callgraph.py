"""Module-level call graph over a set of Python sources (stdlib ``ast``).

The per-file rules (RL001-RL007) see one module at a time; the contract
pass (RL100-RL103, ``tools/reprolint/contracts.py``) needs to know that
an unordered-iteration helper three calls deep feeds a function marked
``@ordered_output``. This module builds the graph those checks walk:

* every function and method in the analyzed files becomes a node, named
  ``module:qualpath`` (``repro.mining.fpgrowth:_MFIStore.is_subsumed``);
* call sites are resolved to nodes where that can be done *soundly
  without type inference*: bare names (same-module functions, imported
  functions, re-exports through ``__init__`` chains), ``self.m()`` /
  ``cls.m()`` through the method-resolution order of statically known
  bases, locals assigned from known constructors, inline
  ``ClassName(...).m()``, ``functools.partial(f, ...)``, and relative
  imports resolved against the importing module;
* attribute calls on parameters and unknown objects are deliberately
  *not* resolved. This is a feature, not a limitation: ``self.tracer``
  is an injected dependency whose default is a shared no-op, and
  resolving duck-typed attribute calls would taint every traced
  function with the tracer's clock. Injected-instance calls are the
  seam where the contract system trusts the type system instead.

Unresolved calls are simply absent from the edge list — the taint
propagation under-approximates reachability, which is the conservative
direction for a linter that must not cry wolf.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "build_call_graph",
    "module_name_for_path",
    "dotted_name",
]

#: Path prefixes stripped before deriving a dotted module name, so that
#: ``src/repro/core/pipeline.py`` becomes ``repro.core.pipeline``.
_SOURCE_ROOTS: Tuple[str, ...] = ("src/",)


def module_name_for_path(path: str) -> Tuple[str, bool]:
    """Dotted module name and is-package flag for a repo-relative path."""
    norm = path.replace("\\", "/").lstrip("./")
    for root in _SOURCE_ROOTS:
        if norm.startswith(root):
            norm = norm[len(root):]
            break
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    parts = [part for part in norm.split("/") if part]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join(parts), is_package


def dotted_name(aliases: Dict[str, str], node: ast.AST) -> Optional[str]:
    """Canonical dotted path for a Name/Attribute chain via ``aliases``.

    Mirrors ``ImportTracker.resolve`` but works on an explicit alias map
    (which, unlike the tracker's, has relative imports resolved).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = aliases.get(current.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method node in the graph."""

    qualname: str  # "repro.mining.fpgrowth:_MFIStore.is_subsumed"
    module: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None  # set for methods

    @property
    def name(self) -> str:
        return self.qualname.rpartition(":")[2]

    @property
    def line(self) -> int:
        return int(getattr(self.node, "lineno", 1))


@dataclass
class ClassInfo:
    """A class definition: its methods and statically known bases."""

    qualname: str  # "repro.mining.fpgrowth:_MFIStore"
    module: str
    node: ast.ClassDef
    bases: List[ast.expr] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func qualname


@dataclass
class ModuleInfo:
    """One analyzed module: parse tree plus name-resolution tables."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)  # top-level name -> qualname
    classes: Dict[str, str] = field(default_factory=dict)  # top-level name -> class qualname


class CallGraph:
    """Functions, classes, modules, and resolved caller -> callee edges."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        # caller qualname -> [(callee qualname, call site node)]
        self.edges: Dict[str, List[Tuple[str, ast.AST]]] = {}

    def callees(self, qualname: str) -> List[Tuple[str, ast.AST]]:
        return self.edges.get(qualname, [])

    def add_edge(self, caller: str, callee: str, site: ast.AST) -> None:
        self.edges.setdefault(caller, []).append((callee, site))

    # -- entity resolution --------------------------------------------------

    def resolve_dotted(
        self, dotted: str, _seen: Optional[Set[str]] = None
    ) -> Optional[Tuple[str, str]]:
        """Resolve an absolute dotted path to ("function"|"class", qualname).

        Splits the dotted path at the longest known module prefix, then
        follows re-export aliases (``from .fpgrowth import Itemset`` inside
        a package ``__init__``) recursively with a cycle guard.
        """
        seen = _seen if _seen is not None else set()
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is None:
                continue
            return self._resolve_in_module(module, parts[cut:], seen)
        return None

    def _resolve_in_module(
        self, module: ModuleInfo, remainder: List[str], seen: Set[str]
    ) -> Optional[Tuple[str, str]]:
        if not remainder:
            return None
        head = remainder[0]
        if head in module.functions and len(remainder) == 1:
            return ("function", module.functions[head])
        if head in module.classes:
            class_qual = module.classes[head]
            if len(remainder) == 1:
                return ("class", class_qual)
            if len(remainder) == 2:
                method = self.lookup_method(class_qual, remainder[1])
                if method is not None:
                    return ("function", method)
            return None
        if head in module.aliases:
            key = f"{module.name}:{head}"
            if key in seen:
                return None
            seen.add(key)
            target = ".".join([module.aliases[head], *remainder[1:]])
            return self.resolve_dotted(target, seen)
        return None

    def lookup_method(
        self, class_qual: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Find ``method`` on the class or its statically known bases."""
        seen = _seen if _seen is not None else {class_qual}
        info = self.classes.get(class_qual)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        module = self.modules.get(info.module)
        for base in info.bases:
            base_qual = self._resolve_class_expr(module, base)
            if base_qual is None or base_qual in seen:
                continue
            seen.add(base_qual)
            found = self.lookup_method(base_qual, method, seen)
            if found is not None:
                return found
        return None

    def constructor_of(self, class_qual: str) -> Optional[str]:
        """The ``__init__`` reached by instantiating the class, if any."""
        return self.lookup_method(class_qual, "__init__")

    def _resolve_class_expr(
        self, module: Optional[ModuleInfo], expr: ast.expr
    ) -> Optional[str]:
        if module is None:
            return None
        if isinstance(expr, ast.Name) and expr.id in module.classes:
            return module.classes[expr.id]
        if isinstance(expr, ast.Subscript):  # Generic[T], Protocol[...] bases
            return self._resolve_class_expr(module, expr.value)
        dotted = dotted_name(module.aliases, expr)
        if dotted is None:
            return None
        resolved = self.resolve_dotted(dotted)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None


def build_call_graph(sources: Sequence[Tuple[str, str]]) -> CallGraph:
    """Build the graph from ``(repo-relative path, source text)`` pairs.

    Files that do not parse are skipped — the per-file lint already
    reports them as RL000.
    """
    graph = CallGraph()
    for path, text in sources:
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError:
            continue
        name, is_package = module_name_for_path(path)
        module = ModuleInfo(name=name, path=path, tree=tree, is_package=is_package)
        graph.modules[name] = module
    for module in graph.modules.values():
        _collect_aliases(module)
        _register_definitions(graph, module)
    for module in graph.modules.values():
        _resolve_module_edges(graph, module)
    return graph


# -- pass 1: aliases and definitions -----------------------------------------


def _collect_aliases(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else local
                module.aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(module, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.aliases[local] = f"{base}.{alias.name}" if base else alias.name


def _import_base(module: ModuleInfo, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted base of a ``from X import ...``, resolving dots."""
    if not node.level:
        return node.module
    anchor = module.name.split(".") if module.name else []
    if not module.is_package:
        anchor = anchor[:-1]
    extra_levels = node.level - 1
    if extra_levels > len(anchor):
        return None
    if extra_levels:
        anchor = anchor[:-extra_levels]
    if node.module:
        anchor = anchor + node.module.split(".")
    return ".".join(anchor)


def _register_definitions(graph: CallGraph, module: ModuleInfo) -> None:
    def visit(
        statements: Iterable[ast.stmt],
        scope: Tuple[str, ...],
        class_info: Optional[ClassInfo],
        enclosing_function: Optional[str],
    ) -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}:{'.'.join((*scope, stmt.name))}"
                info = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    path=module.path,
                    node=stmt,
                    class_name=class_info.qualname if class_info else None,
                )
                graph.functions[qualname] = info
                if not scope:
                    module.functions[stmt.name] = qualname
                if class_info is not None:
                    class_info.methods.setdefault(stmt.name, qualname)
                if enclosing_function is not None:
                    # Defining a nested helper almost always means calling
                    # it; the conservative edge keeps taint flowing.
                    graph.add_edge(enclosing_function, qualname, stmt)
                visit(stmt.body, (*scope, stmt.name), None, qualname)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{module.name}:{'.'.join((*scope, stmt.name))}"
                info = ClassInfo(
                    qualname=qualname,
                    module=module.name,
                    node=stmt,
                    bases=list(stmt.bases),
                )
                graph.classes[qualname] = info
                if not scope:
                    module.classes[stmt.name] = qualname
                visit(stmt.body, (*scope, stmt.name), info, enclosing_function)
            else:
                # Descend into if/try/with/for blocks (e.g. defs guarded
                # by TYPE_CHECKING or version checks) without entering
                # expressions.
                nested: List[ast.stmt] = []
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.stmt):
                        nested.append(child)
                    elif isinstance(child, ast.excepthandler):
                        nested.extend(child.body)
                if nested:
                    visit(nested, scope, class_info, enclosing_function)

    visit(module.tree.body, (), None, None)


# -- pass 2: call-site resolution --------------------------------------------


def _resolve_module_edges(graph: CallGraph, module: ModuleInfo) -> None:
    for info in sorted(
        (f for f in graph.functions.values() if f.module == module.name),
        key=lambda f: f.qualname,
    ):
        local_types = _local_instance_types(graph, module, info)
        for call in _own_calls(info.node):
            _resolve_call(graph, module, info, call, local_types)


def _own_calls(func_node: ast.AST) -> List[ast.Call]:
    """Call sites in a function body, excluding nested def/class bodies.

    Lambda bodies are *included*: lambdas are not graph nodes, so their
    calls belong to the enclosing function.
    """
    calls: List[ast.Call] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return calls


def _local_instance_types(
    graph: CallGraph, module: ModuleInfo, info: FunctionInfo
) -> Dict[str, str]:
    """Local names assigned from known constructors -> class qualname."""
    types: Dict[str, str] = {}
    for call_stmt in ast.walk(info.node):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(call_stmt, ast.Assign):
            targets, value = call_stmt.targets, call_stmt.value
        elif isinstance(call_stmt, ast.AnnAssign) and call_stmt.value is not None:
            targets, value = [call_stmt.target], call_stmt.value
        if not isinstance(value, ast.Call):
            continue
        class_qual = _class_of_call(graph, module, value)
        if class_qual is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                types[target.id] = class_qual
    return types


def _class_of_call(
    graph: CallGraph, module: ModuleInfo, call: ast.Call
) -> Optional[str]:
    """The class qualname if ``call`` instantiates a known class."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in module.classes:
        return module.classes[func.id]
    dotted = dotted_name(module.aliases, func)
    if dotted is None:
        return None
    resolved = graph.resolve_dotted(dotted)
    if resolved is not None and resolved[0] == "class":
        return resolved[1]
    return None


def _resolve_call(
    graph: CallGraph,
    module: ModuleInfo,
    caller: FunctionInfo,
    call: ast.Call,
    local_types: Dict[str, str],
) -> None:
    func = call.func

    # functools.partial(f, ...): the interesting callee is f.
    partial_target = _partial_target(module, call)
    if partial_target is not None:
        target = _resolve_callable_expr(
            graph, module, caller, partial_target, local_types
        )
        if target is not None:
            graph.add_edge(caller.qualname, target, call)
        return

    target = _resolve_callable_expr(graph, module, caller, func, local_types)
    if target is not None:
        graph.add_edge(caller.qualname, target, call)


def _partial_target(module: ModuleInfo, call: ast.Call) -> Optional[ast.expr]:
    dotted = dotted_name(module.aliases, call.func)
    if dotted == "functools.partial" and call.args:
        return call.args[0]
    return None


def _resolve_callable_expr(
    graph: CallGraph,
    module: ModuleInfo,
    caller: FunctionInfo,
    func: ast.expr,
    local_types: Dict[str, str],
) -> Optional[str]:
    if isinstance(func, ast.Name):
        return _resolve_bare_name(graph, module, func.id)

    if isinstance(func, ast.Attribute):
        value = func.value
        # self.m() / cls.m(): method lookup through the enclosing class.
        if (
            isinstance(value, ast.Name)
            and value.id in ("self", "cls")
            and caller.class_name is not None
        ):
            return graph.lookup_method(caller.class_name, func.attr)
        # obj.m() where obj was assigned from a known constructor.
        if isinstance(value, ast.Name) and value.id in local_types:
            return graph.lookup_method(local_types[value.id], func.attr)
        # ClassName(...).m() inline.
        if isinstance(value, ast.Call):
            class_qual = _class_of_call(graph, module, value)
            if class_qual is not None:
                return graph.lookup_method(class_qual, func.attr)
            return None
        # Dotted module path: pkg.mod.f() or alias.f().
        dotted = dotted_name(module.aliases, func)
        if dotted is not None:
            return _as_callable(graph, graph.resolve_dotted(dotted))
        return None

    return None


def _resolve_bare_name(
    graph: CallGraph, module: ModuleInfo, name: str
) -> Optional[str]:
    if name in module.functions:
        return module.functions[name]
    if name in module.classes:
        return graph.constructor_of(module.classes[name])
    if name in module.aliases:
        return _as_callable(graph, graph.resolve_dotted(module.aliases[name]))
    return None


def _as_callable(
    graph: CallGraph, resolved: Optional[Tuple[str, str]]
) -> Optional[str]:
    if resolved is None:
        return None
    kind, qualname = resolved
    if kind == "function":
        return qualname
    return graph.constructor_of(qualname)
