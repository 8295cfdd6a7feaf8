"""REP004 — lock discipline: guarded state is guarded everywhere.

The telemetry ``TraceCollector`` is the canonical instance: its ring, cursor
and span count change together under ``self._lock``, and a snapshot is only
consistent because *every* access to that state takes the same lock.  The
race class this rule targets is the subtle one-step regression:
a new method reads or mutates an attribute that the rest of the class only
ever touches inside ``with self._lock:`` — correct today because today's
callers are single-threaded, silently racy the day they are not.

Per class, the rule computes the set of attributes *mutated* under a lock
block (assigned, aug-assigned, subscript-assigned, or used as the receiver of
a method call — ``self.stats.merge(...)`` counts), then flags every lock-free
access to one of those attributes from a *different* method.  ``__init__`` and
friends are exempt: construction happens before the object is shared.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from ..walker import ModuleContext, Rule, register_rule

#: Methods that run before the instance can be shared across threads.
CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__", "__del__"})


def _lock_attr_name(item: ast.withitem) -> str:
    """Lock attribute name when the with-item is ``self.<something lock>``."""
    expr = item.context_expr
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and "lock" in expr.attr.lower()
    ):
        return expr.attr
    return ""


def _self_attr(node: ast.AST) -> str:
    """``self.X`` -> ``"X"`` (else empty)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


class _MethodScan(ast.NodeVisitor):
    """Classify every ``self.X`` access in one method by lock context."""

    def __init__(self) -> None:
        self.lock_depth = 0
        self.lock_names: Set[str] = set()
        #: attr -> mutated under lock?
        self.guarded_mutations: Set[str] = set()
        #: (attr, node) accesses outside any lock block
        self.free_accesses: List[Tuple[str, ast.AST]] = []

    def visit_With(self, node: ast.With) -> None:
        locked = [name for name in (_lock_attr_name(item) for item in node.items) if name]
        self.lock_names.update(locked)
        if locked:
            self.lock_depth += 1
        self.generic_visit(node)
        if locked:
            self.lock_depth -= 1

    visit_AsyncWith = visit_With

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # a nested class is its own locking domain
        return

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr and "lock" not in attr.lower():
            if self.lock_depth > 0:
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    self.guarded_mutations.add(attr)
            else:
                self.free_accesses.append((attr, node))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # self.X.method(...) mutates X for our purposes (merge/append/pop/...)
        if self.lock_depth > 0 and isinstance(node.func, ast.Attribute):
            attr = _self_attr(node.func.value)
            if attr and "lock" not in attr.lower():
                self.guarded_mutations.add(attr)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # self.X[k] = v / del self.X[k] mutates X
        if self.lock_depth > 0 and isinstance(node.ctx, (ast.Store, ast.Del)):
            attr = _self_attr(node.value)
            if attr and "lock" not in attr.lower():
                self.guarded_mutations.add(attr)
        self.generic_visit(node)


@register_rule
class LockDisciplineRule(Rule):
    """An attribute mutated under ``with self._lock:`` in one method and read
    lock-free in another is a data race with a long fuse: the torn read only
    happens under real worker concurrency, typically as a slightly-wrong
    merged statistic rather than a crash.  If one access point needs the
    lock, every access point does.

    Example::

        def record(self):
            with self._lock:
                self._counts[key] += 1
        def snapshot(self):
            return dict(self._counts)      # lock-free read of guarded state

    Fix::

        def snapshot(self):
            with self._lock:               # same guard on every touch
                return dict(self._counts)
    """

    rule_id = "REP004"
    name = "lock-discipline"
    severity = "error"
    description = (
        "attribute mutated under `with self._lock:` in one method but "
        "accessed lock-free in another (stats-merge race class)"
    )

    def visit_ClassDef(self, node: ast.ClassDef, ctx: ModuleContext) -> None:
        methods = [
            statement
            for statement in node.body
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scans: Dict[str, _MethodScan] = {}
        for method in methods:
            scan = _MethodScan()
            for statement in method.body:
                scan.visit(statement)
            scans[method.name] = scan

        guarded_by: Dict[str, str] = {}  # attr -> first method guarding it
        for method in methods:
            for attr in scans[method.name].guarded_mutations:
                guarded_by.setdefault(attr, method.name)
        if not guarded_by:
            return

        for method in methods:
            if method.name in CONSTRUCTION_METHODS:
                continue
            for attr, access in scans[method.name].free_accesses:
                owner = guarded_by.get(attr)
                if owner is None or owner == method.name:
                    continue
                ctx.report(
                    self,
                    access,
                    f"{node.name}.{method.name} touches self.{attr} without the "
                    f"lock that guards its mutation in {node.name}.{owner}",
                    hint="take the same lock (or document why the access is "
                    "safe with # repro: allow[lock-discipline])",
                )


__all__ = ["LockDisciplineRule"]
