"""Cross-module call graph over a :class:`~repro.analysis.symbols.ProjectIndex`.

The graph is deliberately *best-effort static*: an edge exists when the
callee can be resolved syntactically — a local function name, an
imported name (following ``from x import y`` chains through package
``__init__`` re-exports), a ``module.attr`` chain on an imported
module, or a ``self.method`` call resolved through the enclosing
class's project-known MRO.  Calls through dynamic dispatch the AST
cannot see (callbacks stored in data structures, ``getattr``) simply
produce no edge; the downstream passes (taint, race detection) are
therefore under-approximate — they miss rather than invent.  That is
the right trade for a CI gate: every finding is real.

Two graph extras the passes rely on:

- **closure containment** — a ``def`` nested inside a function is
  treated as called by its enclosing function (it is reachable the
  moment the enclosing function runs, whether invoked directly or
  escaping as a callback);
- **callable references** — a bare function *name* passed as a call
  argument or assigned (``Process(target=_slave_main)``,
  ``pool.map(run_point, …)``) adds an edge from the referencing
  function, since the reference exists precisely to be called.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.symbols import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class CallSite:
    """One resolved call: caller -> callee at a source location."""

    caller: str  # global function name
    callee: str  # global function name
    node: ast.AST


@dataclass
class CallGraph:
    """Adjacency over global function names, plus per-edge call sites."""

    index: ProjectIndex
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    sites: List[CallSite] = field(default_factory=list)
    #: functions whose *name* escapes as a value (callback references).
    escaping: Set[str] = field(default_factory=set)

    def add_edge(self, caller: str, callee: str, node: ast.AST) -> None:
        self.edges.setdefault(caller, set()).add(callee)
        self.sites.append(CallSite(caller=caller, callee=callee, node=node))

    def callees(self, name: str) -> Set[str]:
        return self.edges.get(name, set())

    def reachable(self, entries: Iterable[str]) -> Set[str]:
        """Every function reachable from ``entries`` (entries included)."""
        seen: Set[str] = set()
        stack = [
            entry for entry in entries if entry in self.index.functions
        ]
        seen.update(stack)
        while stack:
            current = stack.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen


class _FunctionScanner(ast.NodeVisitor):
    """Collect call edges out of one function body."""

    def __init__(
        self,
        graph: CallGraph,
        module: ModuleInfo,
        info: FunctionInfo,
    ) -> None:
        self.graph = graph
        self.module = module
        self.info = info
        self.index = graph.index

    # -- resolution -----------------------------------------------------------

    def _resolve_callee(self, func: ast.AST) -> Optional[str]:
        name = dotted(func)
        if name is None:
            return None
        head = name.split(".")[0]
        if head == "self" and self.info.class_name is not None:
            attr = name.split(".", 1)[1] if "." in name else None
            if attr is None or "." in attr:
                return None
            methods = self.index.mro_methods(
                self.module, self.info.class_name
            )
            target = methods.get(attr)
            return target.name if target is not None else None
        resolved = self.index.resolve(self.module, name)
        if resolved is None:
            return None
        target = self.index.function_for(resolved)
        return target.name if target is not None else None

    def _note_reference(self, node: ast.AST) -> None:
        """A function name used as a value: edge + escaping mark."""
        name = dotted(node)
        if name is None:
            return
        resolved = self.index.resolve(self.module, name)
        if resolved is None:
            return
        target = self.index.function_for(resolved)
        if target is not None:
            self.graph.add_edge(self.info.name, target.name, node)
            self.graph.escaping.add(target.name)

    # -- visitors -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        callee = self._resolve_callee(node.func)
        if callee is not None:
            self.graph.add_edge(self.info.name, callee, node)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                self._note_reference(arg)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, (ast.Name, ast.Attribute)):
            self._note_reference(node.value)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested(node)

    def _nested(self, node) -> None:
        # Closure containment: the nested def runs in (or escapes from)
        # the enclosing function's dynamic extent.
        nested_name = f"{self.info.name}.<locals>.{node.name}"
        nested = FunctionInfo(
            name=nested_name,
            module=self.module.name,
            qualname=f"{self.info.qualname}.<locals>.{node.name}",
            node=node,
            class_name=None,
            params=[arg.arg for arg in node.args.args],
        )
        self.index.functions.setdefault(nested_name, nested)
        self.graph.add_edge(self.info.name, nested_name, node)
        scanner = _FunctionScanner(self.graph, self.module, nested)
        for stmt in node.body:
            scanner.visit(stmt)


def build_callgraph(index: ProjectIndex) -> CallGraph:
    """Resolve every syntactically visible call in the project."""
    graph = CallGraph(index=index)
    for module in list(index.modules.values()):
        for info in list(module.functions.values()):
            scanner = _FunctionScanner(graph, module, info)
            for stmt in info.node.body:
                scanner.visit(stmt)
    return graph


def default_worker_entries(index: ProjectIndex) -> List[str]:
    """The slave/worker entry points of the shipped repro package.

    These are the functions that run inside forked slave or pool-worker
    processes (or inside the master for the serial backend), i.e. the
    roots the race detector's "reachable by parallel code" query starts
    from.  The slave session's methods are listed because the pipe loop
    reaches them through an instance the call graph cannot follow.
    Fixture corpora pass their own entry list instead.
    """
    candidates = (
        "repro.parallel.master._process_slave_main",
        "repro.parallel.master._SlaveSession.__init__",
        "repro.parallel.master._SlaveSession.step",
        "repro.parallel.master.build_slave_experiment",
        "repro.parallel.pool._pool_worker_main",
        "repro.sweep.runner.run_point",
    )
    return [name for name in candidates if name in index.functions]
