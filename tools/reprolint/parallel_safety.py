"""Inter-procedural parallel-safety checking: rules RL200-RL205.

The parallel layer (``src/repro/parallel``, ``docs/PARALLELISM.md``)
keeps ``--workers N`` byte-identical to ``--workers 1`` through four
conventions: module-level picklable work functions, shared-nothing
workers, order-independent merges, and schedule identity kept out of
fingerprints. This pass turns those conventions into checked rules,
walking the same call graph as the RL100-RL103 contract pass:

| Code  | Name                        | Fires when |
|-------|-----------------------------|------------|
| RL200 | work-captures-state         | a function submitted to an executor is a lambda, nested function, or bound method, or directly reads a mutable / non-picklable module global |
| RL201 | worker-global-mutation      | code reachable from a work function mutates module-global (or closure-captured) state — the write is lost across the process boundary, or races in-process |
| RL202 | merge-not-order-independent | ``map_chunks`` chunk results are consumed without flowing through an ``@commutative_merge`` function (or an order-insensitive builtin) |
| RL203 | fork-unsafe-resource        | a fork-unsafe module global (open handle, live RNG, tracer/sink, connection, lock) is reachable from a work function |
| RL204 | shared-memory-ownership     | a ``multiprocessing.shared_memory.SharedMemory`` buffer is created without paired ``close()``/``unlink()`` in its owning scope |
| RL205 | schedule-in-fingerprint     | worker count or executor identity flows into ``PipelineConfig``, a ``*Config.to_echo`` echo, or a ``*fingerprint*`` call — output would differ across worker counts and resume would break |

*Work roots* are found two ways: call sites whose attribute name is
``map_chunks`` or ``submit`` (the first positional argument is the work
expression, resolved through bare names, aliases, re-exports, and
``functools.partial``), and any function carrying ``@picklable_work``.
``@fork_safe`` adds an RL203 root; ``@shared_readonly`` adds an RL201
root while exempting the function's *reads* of mutable globals from
RL200 (the declaration says the state is reviewed as effectively
immutable — writes anywhere in worker-reachable code still fire).

Like the contract pass, traversal is compositional: it stops at callees
that carry any contract (each is verified as its own root, or trusted
as declared), and unresolved calls contribute nothing — the deliberate
under-approximation documented in :mod:`tools.reprolint.callgraph`.
Two more documented under-approximations: RL202 skips ``return
executor.map_chunks(...)`` (the caller owns the merge), and RL204 skips
buffers that are directly returned (ownership transfers out).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.reprolint.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    _local_instance_types,
    _own_calls,
    _partial_target,
    _resolve_callable_expr,
    dotted_name,
)
from tools.reprolint.contracts import PERF_KINDS, _finding, contracts_for
from tools.reprolint.findings import Finding
from tools.reprolint.rules.base import attach_parents

__all__ = ["PARALLEL_RULES", "check_parallel_safety"]

#: Rule catalogue entries for the parallel-safety pass (code -> name).
PARALLEL_RULES: Dict[str, str] = {
    "RL200": "work-captures-state",
    "RL201": "worker-global-mutation",
    "RL202": "merge-not-order-independent",
    "RL203": "fork-unsafe-resource",
    "RL204": "shared-memory-ownership",
    "RL205": "schedule-in-fingerprint",
}

#: Executor dispatch methods whose first positional argument is a work
#: function shipped to (potential) worker processes.
_SUBMIT_METHODS = frozenset({"map_chunks", "submit"})

#: Module-level constructors whose result is mutable shared state.
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "collections.defaultdict", "collections.deque",
        "collections.Counter", "collections.OrderedDict",
    }
)

#: Module-level constructors whose result cannot cross a pickle
#: boundary (locks and friends also deadlock under fork).
_NONPICKLABLE_CONSTRUCTORS = frozenset(
    {
        "threading.Lock", "threading.RLock", "threading.Condition",
        "threading.Event", "threading.Semaphore",
        "threading.BoundedSemaphore", "_thread.allocate_lock",
    }
)

#: Module-level constructors whose result is a fork-unsafe resource:
#: file handles (duplicated offsets), live RNGs (identical child
#: streams), sockets/connections (shared descriptors).
_RESOURCE_CONSTRUCTORS = frozenset(
    {
        "open", "io.open", "gzip.open", "bz2.open", "lzma.open",
        "sqlite3.connect", "socket.socket", "socket.create_connection",
        "tempfile.TemporaryFile", "tempfile.NamedTemporaryFile",
        "random.Random", "random.SystemRandom",
        "numpy.random.default_rng",
    }
)

#: Repo-specific resource classes by (final) name: a tracer or sink
#: held at module level would be inherited by every forked worker.
_RESOURCE_CLASS_NAMES = frozenset({"Tracer", "JsonlSink"})

#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "sort",
        "reverse", "appendleft", "write",
    }
)

#: Builtins whose result does not depend on input ordering (safe
#: consumers of chunk-result lists).
_ORDER_INSENSITIVE_BUILTINS = frozenset(
    {"sorted", "set", "frozenset", "len", "min", "max", "any", "all"}
)

#: Keyword names that smuggle schedule identity into a config/sink.
_SCHEDULE_KEYWORDS = frozenset(
    {"workers", "n_workers", "num_workers", "chunk_size", "executor"}
)

#: Attribute reads that denote schedule identity inside a sink.
_SCHEDULE_ATTRS = frozenset({"workers", "chunk_size", "executor"})

#: Call names (bare or attribute) that produce schedule identity.
_SCHEDULE_CALLS = frozenset({"make_executor", "cpu_count"})

_SHARED_MEMORY_DOTTED = "multiprocessing.shared_memory.SharedMemory"


def check_parallel_safety(graph: CallGraph) -> List[Finding]:
    """Run RL200-RL205 over the graph; sorted, de-duplicated findings."""
    return _ParallelChecker(graph).run()


# -- AST helpers ---------------------------------------------------------------


def _own_nodes(func_node: ast.AST) -> Iterator[ast.AST]:
    """Every node in a function body, excluding nested def/class bodies.

    Nested definitions are their own graph nodes (reached through the
    conservative parent edge), so their bodies are analyzed separately.
    Lambda bodies stay included, mirroring ``_own_calls``.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _bound_names(func_node: ast.AST) -> Set[str]:
    """Names bound locally in the function's own body (args included).

    Names declared ``global`` are *removed*: a store through a
    ``global`` declaration binds at module scope, not locally.
    """
    args = func_node.args  # type: ignore[attr-defined]
    bound: Set[str] = {
        a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
    }
    for vararg in (args.vararg, args.kwarg):
        if vararg is not None:
            bound.add(vararg.arg)
    global_decls: Set[str] = set()
    for node in _own_nodes(func_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Global):
            global_decls.update(node.names)
    # Nested defs/lambdas bind their name in this scope.
    for child in ast.walk(func_node):  # type: ignore[arg-type]
        if child is func_node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(child.name)
    return bound - global_decls


def _chain_root(node: ast.AST) -> Optional[ast.Name]:
    """The root ``Name`` of an attribute/subscript chain, if any."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    """The final name of a call target (``f`` or ``obj.f``)."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _local_binding(func_node: ast.AST, name: str) -> Optional[ast.expr]:
    """The value last assigned to local ``name`` via a plain assignment."""
    value: Optional[ast.expr] = None
    for node in _own_nodes(func_node):
        if not isinstance(node, ast.Assign):
            continue
        if any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            value = node.value
    return value


# -- the checker ---------------------------------------------------------------


class _ParallelChecker:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: function qualname -> set of contract kinds declared on it
        self.contracts: Dict[str, Set[str]] = {}
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            module = graph.modules[info.module]
            declared = contracts_for(module, info.node)
            if declared:
                self.contracts[qualname] = {c.kind for c in declared}
        #: module name -> global name -> ("mutable"|"nonpicklable"|"resource")
        self._globals: Dict[str, Dict[str, str]] = {}
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, int, int, str, str]] = set()

    def run(self) -> List[Finding]:
        work_roots = self._discover_work_roots()
        for qualname, kinds in sorted(self.contracts.items()):
            if "picklable_work" in kinds:
                work_roots.add(qualname)
        mutation_roots = set(work_roots)
        resource_roots = set(work_roots)
        for qualname, kinds in sorted(self.contracts.items()):
            if "shared_readonly" in kinds:
                mutation_roots.add(qualname)
            if "fork_safe" in kinds:
                resource_roots.add(qualname)

        for qualname in sorted(work_roots):
            self._check_capture(self.graph.functions[qualname])
        for qualname in sorted(mutation_roots | resource_roots):
            self._check_worker_reachable(
                self.graph.functions[qualname],
                check_mutations=qualname in mutation_roots,
                check_resources=qualname in resource_roots,
            )

        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            module = self.graph.modules[info.module]
            self._check_merges(info, module)
            self._check_shared_memory(info, module)
            self._check_schedule_sinks(info, module)
        return sorted(self.findings)

    def _emit(
        self, info: FunctionInfo, node: ast.AST, rule: str, message: str
    ) -> None:
        finding = _finding(info, node, rule, message)
        key = (finding.path, finding.line, finding.col, rule, message)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(finding)

    # -- work-root discovery --------------------------------------------------

    def _discover_work_roots(self) -> Set[str]:
        """Executor submission sites: RL200 on unshippable work
        expressions, otherwise the resolved function becomes a root."""
        roots: Set[str] = set()
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            module = self.graph.modules[info.module]
            local_types = _local_instance_types(self.graph, module, info)
            for call in _own_calls(info.node):
                if not (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in _SUBMIT_METHODS
                ):
                    continue
                if not call.args:
                    continue
                resolved = self._resolve_work_expr(
                    info, module, local_types, call.args[0]
                )
                if resolved is None:
                    continue
                roots.update(resolved)
        return roots

    def _resolve_work_expr(
        self,
        info: FunctionInfo,
        module: ModuleInfo,
        local_types: Dict[str, str],
        expr: ast.expr,
        _chased: Optional[Set[str]] = None,
    ) -> Optional[Set[str]]:
        if isinstance(expr, ast.Lambda):
            self._emit(
                info,
                expr,
                "RL200",
                "lambda submitted as executor work; lambdas are not "
                "picklable — define a module-level @picklable_work "
                "function instead",
            )
            return None
        if isinstance(expr, ast.Call):
            # functools.partial(f, ...): pickles iff f does.
            target = _partial_target(module, expr)
            if target is not None:
                return self._resolve_work_expr(
                    info, module, local_types, target, _chased
                )
            return None  # factory call: unresolvable, contributes nothing
        if isinstance(expr, ast.Name):
            nested = f"{info.qualname}.{expr.id}"
            if nested in self.graph.functions:
                self._emit(
                    info,
                    expr,
                    "RL200",
                    f"nested function `{expr.id}` submitted as executor "
                    "work is not picklable; hoist it to module level "
                    "(@picklable_work)",
                )
                return None
        qualname = _resolve_callable_expr(
            self.graph, module, info, expr, local_types
        )
        if qualname is None:
            if isinstance(expr, ast.Name):
                # Chase one level of local aliasing: `bound =
                # functools.partial(work, cfg)` then `submit(bound, ...)`.
                chased = _chased if _chased is not None else set()
                if expr.id not in chased:
                    chased.add(expr.id)
                    value = _local_binding(info.node, expr.id)
                    if value is not None:
                        return self._resolve_work_expr(
                            info, module, local_types, value, chased
                        )
            return None
        target_info = self.graph.functions.get(qualname)
        if target_info is None:
            return None
        if target_info.class_name is not None:
            self._emit(
                info,
                expr,
                "RL200",
                f"method `{target_info.name}` submitted as executor work "
                "captures its instance; work functions must be "
                "module-level (@picklable_work)",
            )
            return None
        if "." in target_info.name:
            self._emit(
                info,
                expr,
                "RL200",
                f"nested function `{target_info.name}` submitted as "
                "executor work is not picklable; hoist it to module "
                "level (@picklable_work)",
            )
            return None
        return {qualname}

    # -- module-global classification ----------------------------------------

    def _module_globals(self, module: ModuleInfo) -> Dict[str, str]:
        cached = self._globals.get(module.name)
        if cached is not None:
            return cached
        table: Dict[str, str] = {}
        for stmt in module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            kind = self._classify_global_value(module, value)
            if kind is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    table[target.id] = kind
        self._globals[module.name] = table
        return table

    def _classify_global_value(
        self, module: ModuleInfo, value: ast.expr
    ) -> Optional[str]:
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return "mutable"
        if isinstance(value, (ast.Lambda, ast.GeneratorExp)):
            return "nonpicklable"
        if isinstance(value, ast.Call):
            dotted = dotted_name(module.aliases, value.func)
            if dotted is None and isinstance(value.func, ast.Name):
                dotted = value.func.id  # builtins: open, list, dict, ...
            if dotted is None:
                return None
            if dotted in _MUTABLE_CONSTRUCTORS:
                return "mutable"
            if dotted in _NONPICKLABLE_CONSTRUCTORS:
                return "nonpicklable"
            if dotted in _RESOURCE_CONSTRUCTORS:
                return "resource"
            if dotted.rpartition(".")[2] in _RESOURCE_CLASS_NAMES:
                return "resource"
        return None

    def _lookup_global(
        self, module: ModuleInfo, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[Tuple[str, str]]:
        """``(kind, owner-module)`` for a (possibly imported) global."""
        seen = _seen if _seen is not None else set()
        key = f"{module.name}:{name}"
        if key in seen:
            return None
        seen.add(key)
        kind = self._module_globals(module).get(name)
        if kind is not None:
            return (kind, module.name)
        dotted = module.aliases.get(name)
        if dotted is None:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            owner = self.graph.modules.get(".".join(parts[:cut]))
            if owner is None:
                continue
            remainder = parts[cut:]
            if len(remainder) == 1:
                return self._lookup_global(owner, remainder[0], seen)
            return None
        return None

    # -- RL200: capture at the pickle boundary --------------------------------

    def _check_capture(self, info: FunctionInfo) -> None:
        module = self.graph.modules[info.module]
        kinds = self.contracts.get(info.qualname, set())
        exempt_mutable = "shared_readonly" in kinds
        bound = _bound_names(info.node)
        reported: Set[str] = set()
        for node in _own_nodes(info.node):
            if not (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            ):
                continue
            if node.id in bound or node.id in reported:
                continue
            entry = self._lookup_global(module, node.id)
            if entry is None:
                continue
            kind, owner = entry
            if kind == "mutable" and not exempt_mutable:
                reported.add(node.id)
                self._emit(
                    info,
                    node,
                    "RL200",
                    f"work function `{info.name}` reads mutable module "
                    f"global `{node.id}` (defined in {owner}); workers "
                    "see a divergent copy — pass it through the payload, "
                    "or declare the function @shared_readonly after "
                    "review",
                )
            elif kind == "nonpicklable":
                reported.add(node.id)
                self._emit(
                    info,
                    node,
                    "RL200",
                    f"work function `{info.name}` captures non-picklable "
                    f"module global `{node.id}` (defined in {owner}); it "
                    "cannot cross the process boundary",
                )

    # -- RL201 / RL203: worker-reachable hazards ------------------------------

    def _check_worker_reachable(
        self,
        root: FunctionInfo,
        check_mutations: bool,
        check_resources: bool,
    ) -> None:
        self._scan_function(root, root, check_mutations, check_resources)
        visited: Set[str] = {root.qualname}
        queue: List[str] = [root.qualname]
        while queue:
            current = queue.pop(0)
            for callee, _site in self.graph.callees(current):
                if callee in visited:
                    continue
                visited.add(callee)
                if self.contracts.get(callee, set()) - set(PERF_KINDS):
                    # A contract boundary: verified as its own root (or
                    # trusted as declared). Compositional, like RL100.
                    # Perf markers (@hot_path/@batch_kernel) are cost
                    # annotations, not safety claims — they never stop
                    # the traversal.
                    continue
                callee_info = self.graph.functions.get(callee)
                if callee_info is None:
                    continue
                self._scan_function(
                    root, callee_info, check_mutations, check_resources
                )
                queue.append(callee)

    def _scan_function(
        self,
        root: FunctionInfo,
        info: FunctionInfo,
        check_mutations: bool,
        check_resources: bool,
    ) -> None:
        module = self.graph.modules[info.module]
        transitive = info.qualname != root.qualname
        if check_mutations:
            for node, name, verb in self._mutation_sites(info, module):
                if transitive:
                    message = (
                        f"`{root.name}` transitively reaches "
                        f"`{info.qualname}` ({info.path}:"
                        f"{getattr(node, 'lineno', '?')}), which {verb} "
                        f"`{name}` — the write is lost across the "
                        "process boundary (or races in-process)"
                    )
                    site: ast.AST = root.node
                    owner = root
                else:
                    message = (
                        f"`{info.name}` {verb} `{name}` in worker-"
                        "reachable code; the write is lost across the "
                        "process boundary (or races in-process) — "
                        "return results through the chunk payload "
                        "instead"
                    )
                    site = node
                    owner = info
                self._emit(owner, site, "RL201", message)
        if check_resources:
            for node, name, owner_module in self._resource_reads(info, module):
                if transitive:
                    message = (
                        f"`{root.name}` transitively reaches "
                        f"`{info.qualname}` ({info.path}:"
                        f"{getattr(node, 'lineno', '?')}), which uses "
                        f"fork-unsafe module global `{name}` "
                        f"(defined in {owner_module})"
                    )
                    site = root.node
                    owner = root
                else:
                    message = (
                        f"`{info.name}` uses fork-unsafe module global "
                        f"`{name}` (defined in {owner_module}) in "
                        "worker-reachable code; open handles, live RNGs, "
                        "tracers, and connections must not be inherited "
                        "by workers — construct them per-chunk or pass "
                        "state through the payload"
                    )
                    site = node
                    owner = info
                self._emit(owner, site, "RL203", message)

    def _mutation_sites(
        self, info: FunctionInfo, module: ModuleInfo
    ) -> List[Tuple[ast.AST, str, str]]:
        node = info.node
        bound = _bound_names(node)
        global_decls: Set[str] = set()
        nonlocal_decls: Set[str] = set()
        for child in _own_nodes(node):
            if isinstance(child, ast.Global):
                global_decls.update(child.names)
            elif isinstance(child, ast.Nonlocal):
                nonlocal_decls.update(child.names)
        out: List[Tuple[ast.AST, str, str]] = []
        for child in _own_nodes(node):
            targets: List[ast.expr] = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                targets = [child.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in global_decls:
                        out.append(
                            (child, target.id, "rebinds module-global")
                        )
                    elif target.id in nonlocal_decls:
                        out.append(
                            (child, target.id, "rebinds closure-captured")
                        )
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    root_name = _chain_root(target)
                    if (
                        root_name is not None
                        and root_name.id not in bound
                        and self._lookup_global(module, root_name.id)
                        is not None
                    ):
                        out.append(
                            (child, root_name.id, "writes into module-global")
                        )
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _MUTATOR_METHODS
            ):
                root_name = _chain_root(child.func.value)
                if (
                    root_name is not None
                    and root_name.id not in bound
                    and self._lookup_global(module, root_name.id) is not None
                ):
                    out.append(
                        (
                            child,
                            root_name.id,
                            f"calls mutating `.{child.func.attr}()` on "
                            "module-global",
                        )
                    )
        out.sort(key=lambda site: getattr(site[0], "lineno", 0))
        return out

    def _resource_reads(
        self, info: FunctionInfo, module: ModuleInfo
    ) -> List[Tuple[ast.AST, str, str]]:
        bound = _bound_names(info.node)
        reported: Set[str] = set()
        out: List[Tuple[ast.AST, str, str]] = []
        for node in _own_nodes(info.node):
            if not (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            ):
                continue
            if node.id in bound or node.id in reported:
                continue
            entry = self._lookup_global(module, node.id)
            if entry is None or entry[0] != "resource":
                continue
            reported.add(node.id)
            out.append((node, node.id, entry[1]))
        out.sort(key=lambda site: getattr(site[0], "lineno", 0))
        return out

    # -- RL202: merge discipline ----------------------------------------------

    def _check_merges(self, info: FunctionInfo, module: ModuleInfo) -> None:
        sites = [
            call
            for call in _own_calls(info.node)
            if isinstance(call.func, ast.Attribute)
            and call.func.attr == "map_chunks"
        ]
        if not sites:
            return
        local_types = _local_instance_types(self.graph, module, info)
        parents = attach_parents(module.tree)
        for call in sites:
            parent = parents.get(call)
            if isinstance(parent, ast.Expr):
                continue  # results discarded: nothing order-dependent
            if isinstance(parent, ast.Return):
                continue  # documented: the caller owns the merge
            if isinstance(parent, ast.Call):
                if self._is_sanctioned_call(info, module, local_types, parent):
                    continue
                self._emit_merge_finding(info, call, "inline consumption")
                continue
            if (
                isinstance(parent, ast.Assign)
                and len(parent.targets) == 1
                and isinstance(parent.targets[0], ast.Name)
            ):
                name = parent.targets[0].id
                if self._has_sanctioned_consumer(
                    info, module, local_types, name
                ):
                    continue
                self._emit_merge_finding(info, call, f"`{name}`")
                continue
            self._emit_merge_finding(info, call, "the result")

    def _emit_merge_finding(
        self, info: FunctionInfo, call: ast.Call, what: str
    ) -> None:
        self._emit(
            info,
            call,
            "RL202",
            f"chunk results ({what}) from `map_chunks` in `{info.name}` "
            "are not reduced through an @commutative_merge function; the "
            "chunk plan varies with worker count, so an order-dependent "
            "reduction breaks cross-worker-count byte identity",
        )

    def _is_sanctioned_call(
        self,
        info: FunctionInfo,
        module: ModuleInfo,
        local_types: Dict[str, str],
        call: ast.Call,
    ) -> bool:
        name = _call_name(call)
        if (
            isinstance(call.func, ast.Name)
            and name in _ORDER_INSENSITIVE_BUILTINS
        ):
            return True
        qualname = _resolve_callable_expr(
            self.graph, module, info, call.func, local_types
        )
        if qualname is None:
            return False
        return "commutative_merge" in self.contracts.get(qualname, set())

    def _has_sanctioned_consumer(
        self,
        info: FunctionInfo,
        module: ModuleInfo,
        local_types: Dict[str, str],
        name: str,
    ) -> bool:
        def mentions(expr: ast.AST) -> bool:
            return any(
                isinstance(sub, ast.Name) and sub.id == name
                for sub in ast.walk(expr)
            )

        for node in _own_nodes(info.node):
            if isinstance(node, ast.Call):
                values = [*node.args, *[k.value for k in node.keywords]]
                if any(mentions(value) for value in values):
                    if self._is_sanctioned_call(
                        info, module, local_types, node
                    ):
                        return True
            elif isinstance(node, ast.For):
                if not (
                    isinstance(node.iter, ast.Name) and node.iter.id == name
                ):
                    continue
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call) and self._is_sanctioned_call(
                        info, module, local_types, sub
                    ):
                        return True
        return False

    # -- RL204: shared-memory ownership ---------------------------------------

    def _check_shared_memory(
        self, info: FunctionInfo, module: ModuleInfo
    ) -> None:
        creations = [
            call
            for call in _own_calls(info.node)
            if dotted_name(module.aliases, call.func) == _SHARED_MEMORY_DOTTED
        ]
        if not creations:
            return
        parents = attach_parents(module.tree)
        for call in creations:
            parent = parents.get(call)
            if isinstance(parent, ast.Return):
                continue  # ownership transfers to the caller
            if (
                isinstance(parent, ast.Assign)
                and len(parent.targets) == 1
                and isinstance(parent.targets[0], ast.Name)
            ):
                name = parent.targets[0].id
                missing = self._missing_teardown(info.node, name)
                if missing:
                    self._emit(
                        info,
                        call,
                        "RL204",
                        f"shared_memory buffer `{name}` created in "
                        f"`{info.name}` without paired teardown; missing "
                        f"{' and '.join(missing)} — an unreleased "
                        "segment leaks past process exit",
                    )
                continue
            if (
                isinstance(parent, ast.Assign)
                and len(parent.targets) == 1
                and isinstance(parent.targets[0], ast.Attribute)
                and isinstance(parent.targets[0].value, ast.Name)
                and parent.targets[0].value.id == "self"
                and info.class_name is not None
            ):
                attr = parent.targets[0].attr
                class_info = self.graph.classes.get(info.class_name)
                scope: ast.AST = (
                    class_info.node if class_info is not None else info.node
                )
                missing = self._missing_teardown(
                    scope, attr, through_self=True
                )
                if missing:
                    self._emit(
                        info,
                        call,
                        "RL204",
                        f"shared_memory buffer `self.{attr}` created in "
                        f"`{info.name}` without paired teardown anywhere "
                        f"in the class; missing {' and '.join(missing)}",
                    )
                continue
            self._emit(
                info,
                call,
                "RL204",
                f"shared_memory buffer created in `{info.name}` without "
                "being bound to a name; close()/unlink() ownership "
                "cannot be established",
            )

    @staticmethod
    def _missing_teardown(
        scope: ast.AST, name: str, through_self: bool = False
    ) -> List[str]:
        found: Set[str] = set()
        for node in ast.walk(scope):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("close", "unlink")
            ):
                continue
            base = node.func.value
            if through_self:
                matches = (
                    isinstance(base, ast.Attribute)
                    and base.attr == name
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                )
            else:
                matches = isinstance(base, ast.Name) and base.id == name
            if matches:
                found.add(node.func.attr)
        return [f"`.{method}()`" for method in ("close", "unlink") if method not in found]

    # -- RL205: schedule identity in fingerprints ------------------------------

    def _check_schedule_sinks(
        self, info: FunctionInfo, module: ModuleInfo
    ) -> None:
        for call in _own_calls(info.node):
            name = _call_name(call)
            if name is None:
                continue
            is_sink = name == "PipelineConfig" or "fingerprint" in name
            if not is_sink:
                continue
            sink_label = f"`{name}(...)`"
            for keyword in call.keywords:
                if keyword.arg in _SCHEDULE_KEYWORDS:
                    self._emit(
                        info,
                        keyword.value,
                        "RL205",
                        f"schedule identity (keyword `{keyword.arg}`) "
                        f"flows into {sink_label} in `{info.name}`; "
                        "worker count and executor identity must stay "
                        "out of configs, echoes, and fingerprints so "
                        "output and resume are worker-count-invariant",
                    )
            for value in [*call.args, *[k.value for k in call.keywords]]:
                self._scan_schedule_sources(info, value, sink_label)
        if (
            info.name.rpartition(".")[2] == "to_echo"
            and info.class_name is not None
            and info.class_name.rpartition(":")[2]
            .rpartition(".")[2]
            .endswith("Config")
        ):
            for stmt in info.node.body:  # type: ignore[attr-defined]
                self._scan_schedule_sources(
                    info, stmt, f"`{info.name}` (config echo)"
                )

    def _scan_schedule_sources(
        self, info: FunctionInfo, scope: ast.AST, sink_label: str
    ) -> None:
        for node in ast.walk(scope):
            source: Optional[str] = None
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _SCHEDULE_ATTRS
            ):
                source = f"`.{node.attr}`"
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in _SCHEDULE_CALLS:
                    source = f"`{name}()`"
            if source is None:
                continue
            self._emit(
                info,
                node,
                "RL205",
                f"schedule identity ({source}) flows into {sink_label} "
                f"in `{info.name}`; worker count and executor identity "
                "must stay out of configs, echoes, and fingerprints so "
                "output and resume are worker-count-invariant",
            )
