"""REP009 — lock ordering: the cross-module lock graph must be acyclic.

The concurrency surface is the set of locks one thread can take in turn:
today the telemetry collector's and metric classes' locks
(``repro.telemetry``).  Each class is individually lock-correct (REP004
enforces that), but deadlock is a *global* property: thread 1 holds lock A
and wants B while thread 2 holds B and wants A — each side locally
blameless.
This rule builds the whole-program lock-acquisition graph — an edge A→B
wherever code acquires B while holding A, either by nesting
``with`` blocks or by calling (transitively, through the resolved call
graph) a function that takes B — and flags every edge participating in a
cycle, plus re-acquisition of a non-reentrant ``Lock`` the thread already
holds (self-deadlock).

Lock identity is name-based and class-scoped (``repro.telemetry.spans.
TraceCollector._lock``): two instances of one class share an id, which
is the standard lock-ordering abstraction — if instance A can call into
instance B of the same class under its own lock, the order violation is
real on some interleaving.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..findings import Finding
from ..program.graph import ProgramGraph
from ..program.registry import ProgramRule, register_program_rule


def _strongly_connected(adjacency: Dict[str, set]) -> List[set]:
    """Tarjan's SCC (iterative — the lock graph is tiny but rules never
    assume that)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    sccs: List[set] = []
    counter = [0]

    def visit(root: str) -> None:
        work = [(root, iter(sorted(adjacency.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, edges = work[-1]
            advanced = False
            for target in edges:
                if target not in index:
                    index[target] = low[target] = counter[0]
                    counter[0] += 1
                    stack.append(target)
                    on_stack[target] = True
                    work.append((target, iter(sorted(adjacency.get(target, ())))))
                    advanced = True
                    break
                if on_stack.get(target):
                    low[node] = min(low[node], index[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.add(member)
                    if member == node:
                        break
                sccs.append(component)

    for node in adjacency:
        if node not in index:
            visit(node)
    return sccs


@register_program_rule
class LockOrderingRule(ProgramRule):
    """Deadlock is a whole-program property: every class can be locally
    lock-correct while the *order* two threads take two locks in differs,
    and the campaign hangs only under real concurrency.  The rule builds
    the cross-module lock-acquisition graph (acquired-while-holding edges,
    direct nesting and transitively through resolved calls) and reports
    cycles and non-reentrant re-acquisition.

    Example::

        class Coordinator:
            def merge(self):
                with self._lock:          # holds Coordinator._lock ...
                    self._sup.replan()    # ... which acquires Supervisor._lock

        class Supervisor:
            def harvest(self):
                with self._lock:          # holds Supervisor._lock ...
                    self._coord.absorb()  # ... which acquires Coordinator._lock

    Fix::

        Pick one acquisition order and restructure the second path to
        release its lock first (copy the data out, then call), or merge the
        two lock domains.  A cycle that cannot fire — e.g. the instances
        provably never point at each other — is documented in place with
        `# repro: allow[lock-ordering] <why the interleaving is impossible>`.
    """

    rule_id = "REP009"
    name = "lock-ordering"
    severity = "error"
    description = (
        "cross-module lock-acquisition cycle or non-reentrant re-acquisition "
        "(static deadlock detector over the whole-program lock graph)"
    )

    def check(self, program: ProgramGraph) -> List[Finding]:
        transitive = program.transitive_locks()
        #: (A, B) -> evidence rows (path, lineno, description)
        edges: Dict[Tuple[str, str], List[Tuple[str, int, str]]] = {}
        self_edges: List[Tuple[str, str, int, str]] = []

        for facts, fn in program.functions():
            where = f"{facts.module}.{fn.qualname}"
            for acquire in fn.lock_acquires:
                inner = program.lock_id(facts, fn, acquire.lock)
                if inner is None:
                    continue
                for held_expr in acquire.held:
                    outer = program.lock_id(facts, fn, held_expr)
                    if outer is None:
                        continue
                    if outer == inner:
                        self_edges.append(
                            (
                                outer,
                                facts.path,
                                acquire.lineno,
                                f"{where} re-enters {acquire.lock} it already holds",
                            )
                        )
                        continue
                    edges.setdefault((outer, inner), []).append(
                        (
                            facts.path,
                            acquire.lineno,
                            f"{where} acquires {inner} while holding {outer}",
                        )
                    )
            for call in fn.calls:
                if not call.held_locks:
                    continue
                ref = program.resolve_call(facts, fn, call.callee)
                if ref is None or ref.kind != "function":
                    continue
                callee_locks = transitive.get((ref.module, ref.qualname), frozenset())
                if not callee_locks:
                    continue
                for held_expr in call.held_locks:
                    outer = program.lock_id(facts, fn, held_expr)
                    if outer is None:
                        continue
                    for inner in sorted(callee_locks):
                        if outer == inner:
                            self_edges.append(
                                (
                                    outer,
                                    facts.path,
                                    call.lineno,
                                    f"{where} holds {held_expr} and calls "
                                    f"{call.callee}(), which re-acquires it",
                                )
                            )
                            continue
                        edges.setdefault((outer, inner), []).append(
                            (
                                facts.path,
                                call.lineno,
                                f"{where} calls {call.callee}() (acquires {inner}) "
                                f"while holding {outer}",
                            )
                        )

        findings: List[Finding] = []

        # self-deadlock: re-acquiring a lock the thread holds, unless RLock
        seen_self = set()
        for lock, path, lineno, description in self_edges:
            if program.lock_kind(lock) == "RLock":
                continue
            key = (lock, path, lineno)
            if key in seen_self:
                continue
            seen_self.add(key)
            findings.append(
                self.finding(
                    path,
                    lineno,
                    f"non-reentrant lock {lock} re-acquired while held: "
                    f"{description} — this thread deadlocks itself",
                    hint="make the inner path lock-free (caller already holds "
                    "it), use an RLock deliberately, or justify with "
                    "# repro: allow[lock-ordering]",
                )
            )

        # ordering cycles: every edge inside a non-trivial SCC is reported
        adjacency: Dict[str, set] = {}
        for (outer, inner) in edges:
            adjacency.setdefault(outer, set()).add(inner)
            adjacency.setdefault(inner, set())
        for component in _strongly_connected(adjacency):
            if len(component) < 2:
                continue
            cycle = " -> ".join(sorted(component)) + " -> ..."
            for (outer, inner), evidence in sorted(edges.items()):
                if outer not in component or inner not in component:
                    continue
                path, lineno, description = evidence[0]
                findings.append(
                    self.finding(
                        path,
                        lineno,
                        f"lock-order cycle [{cycle}]: {description}; another "
                        "path acquires these locks in the opposite order",
                        hint="pick one global acquisition order (or drop the "
                        "lock before the call); justify an impossible "
                        "interleaving with # repro: allow[lock-ordering]",
                    )
                )
        return findings


__all__ = ["LockOrderingRule"]
