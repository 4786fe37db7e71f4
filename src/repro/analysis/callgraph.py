"""Module-level call graph and cross-function alias propagation.

The rule modules started intraprocedural: RPA005 audited a worker entry
point plus the functions it calls *directly* (one hop), and RPA002's
alias taint stopped at the binding function's boundary.  Both limits are
load-bearing bugs waiting to happen — a builtin ``raise`` two calls deep
inside a worker still crosses the process boundary untyped, and a helper
that *returns* ``plan.payload_arrays()`` launders the alias past the one
one-hop scan.  This module gives every rule the same two interprocedural
facts about one parsed module:

* **Reachability** — :meth:`ModuleCallGraph.reachable` closes the local
  call relation transitively, so "the worker envelope" means every
  function a process entry point can reach *within the module*, however
  deep.  Calls that resolve outside the module (imports, dynamic
  receivers) are out of scope by design: the linter analyzes one file at
  a time, and the callee's home module audits the callee.

* **Alias summaries** — :meth:`ModuleCallGraph.tainting_functions`
  computes, to a fixpoint, the set of local functions whose *return
  value* aliases storage the caller must treat as protected (seeded by a
  rule-supplied predicate over return expressions).  A call to any of
  them taints the name it is bound to, exactly like a direct
  ``payload_arrays()`` read — the "one hop" limitation falls out.

Resolution is deliberately name-based and conservative in the direction
each client needs: ``self.m(...)`` resolves within the enclosing class
(plus same-module bases), ``Klass.m(...)``/``Klass(...).m`` through the
class table, bare ``f(...)`` through module-level functions, and a
method call on an *unresolvable* receiver falls back to every same-named
method in the module (an over-approximation — for reachability-style
checks, missing an edge is the dangerous failure mode).
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable

__all__ = ["ModuleCallGraph"]


def _qualify(cls: str | None, name: str) -> str:
    return f"{cls}.{name}" if cls else name


class ModuleCallGraph:
    """Functions, methods, and the resolvable call edges of one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.tree = tree
        #: Qualified name (``Class.method`` / ``function``) -> def node.
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        #: Class name -> its def node (module-level and nested classes).
        self.classes: dict[str, ast.ClassDef] = {}
        #: Method name -> every ``Class.method`` qualname carrying it.
        self._methods_named: dict[str, list[str]] = {}
        #: Class name -> base-class names that are module-local classes.
        self._local_bases: dict[str, list[str]] = {}
        self._index(tree, cls=None)
        self._edges: dict[str, frozenset[str]] = {}
        self._taint_cache: dict[int, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _index(self, node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self.classes[child.name] = child
                self._local_bases[child.name] = [
                    base.id
                    for base in child.bases
                    if isinstance(base, ast.Name)
                ]
                self._index(child, cls=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = _qualify(cls, child.name)
                # First definition wins on (rare) duplicate names.
                self.functions.setdefault(qual, child)
                if cls is not None:
                    self._methods_named.setdefault(child.name, []).append(qual)
                # Nested defs are indexed under their own name so calls to
                # them resolve, but they do not shadow the enclosing scope.
                self._index(child, cls=cls)
            else:
                self._index(child, cls=cls)

    def class_of(self, qual: str) -> str | None:
        cls, sep, _ = qual.rpartition(".")
        return cls if sep else None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _class_method(self, cls: str, name: str) -> str | None:
        """``name`` resolved through ``cls`` and its module-local bases."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            qual = _qualify(current, name)
            if qual in self.functions:
                return qual
            stack.extend(self._local_bases.get(current, ()))
        return None

    def resolve_call(self, call: ast.Call, caller: str) -> tuple[str, ...]:
        """Local qualnames a call site may dispatch to (possibly several).

        A method call on an opaque receiver over-approximates to every
        same-named method in the module; calls that can only target
        imported or dynamic code resolve to nothing.
        """
        func = call.func
        caller_cls = self.class_of(caller)
        if isinstance(func, ast.Name):
            if func.id in self.functions:
                return (func.id,)
            if func.id in self.classes:  # instantiation -> __init__
                hit = self._class_method(func.id, "__init__")
                return (hit,) if hit else ()
            return ()
        if isinstance(func, ast.Attribute):
            name = func.attr
            recv = func.value
            if isinstance(recv, ast.Name):
                if recv.id == "self" and caller_cls is not None:
                    hit = self._class_method(caller_cls, name)
                    if hit is not None:
                        return (hit,)
                    # An undefiled self-call (mixin hook): fall through to
                    # the by-name over-approximation below.
                elif recv.id in self.classes:
                    hit = self._class_method(recv.id, name)
                    return (hit,) if hit else ()
                elif recv.id == "cls" and caller_cls is not None:
                    hit = self._class_method(caller_cls, name)
                    if hit is not None:
                        return (hit,)
            # Opaque receiver: every module method with this name might be
            # the target.  Over-approximate (reachability prefers extra
            # edges over missed ones); module-level functions are NOT
            # candidates here — ``obj.f()`` never calls a bare ``f``.
            return tuple(self._methods_named.get(name, ()))
        return ()

    def callees(self, qual: str) -> frozenset[str]:
        """Resolved local callees of ``qual`` (cached)."""
        cached = self._edges.get(qual)
        if cached is not None:
            return cached
        fn = self.functions.get(qual)
        out: set[str] = set()
        if fn is not None:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    out.update(self.resolve_call(node, qual))
                elif isinstance(node, ast.Name) and node.id in self.functions:
                    # A bare function reference (callback handed around
                    # locally) keeps its target in the envelope.
                    out.add(node.id)
        edges = frozenset(out)
        self._edges[qual] = edges
        return edges

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Transitive closure of :meth:`callees` over local functions."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack.extend(self.callees(qual))
        return seen

    # ------------------------------------------------------------------
    # Return-alias taint fixpoint
    # ------------------------------------------------------------------
    def tainting_functions(
        self,
        returns_alias: Callable[[ast.AST, frozenset[str]], bool],
    ) -> frozenset[str]:
        """Local functions whose return value aliases protected storage.

        ``returns_alias(fn_node, tainting_call_names)`` is the rule's
        verdict on one function given the *call names* (final attribute /
        bare name) currently known to taint; the set grows monotonically
        until stable, so a helper returning another helper's result is
        caught at any depth.  Results are memoized per predicate.
        """
        key = id(returns_alias)
        cached = self._taint_cache.get(key)
        if cached is not None:
            return cached
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            names = frozenset(q.rpartition(".")[2] for q in tainted)
            for qual, fn in self.functions.items():
                if qual in tainted:
                    continue
                if returns_alias(fn, names):
                    tainted.add(qual)
                    changed = True
        result = frozenset(tainted)
        self._taint_cache[key] = result
        return result
