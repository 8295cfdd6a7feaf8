"""REP006 — timeout discipline: no unbounded waits on worker processes.

A process-pool worker that hangs mid-task never resolves its future, so a
bare ``future.result()`` on it waits forever — it works in every test where
nothing hangs, which is exactly why only a static rule catches it.  The
one process pool in the tree is the lint parse pool
(:mod:`repro.analysis.program.build`), which bounds every wait with
``POOL_TIMEOUT_S``; this rule keeps it, and any pool added later, that way.

Three shapes are flagged:

* ``<anything>.result()`` with neither a positional timeout nor a
  ``timeout=`` keyword — an unbounded wait on a future;
* ``<queue-ish>.get(...)`` without a timeout — an unbounded blocking read
  (receivers with a ``queue``/``mailbox`` token; plain ``dict.get`` never
  matches);
* ``<pool-ish>.submit(...)`` — raw dispatch onto an executor whose future
  then needs its own deadline.  Bound every wait on it and justify the site
  with ``# repro: allow[timeout-discipline]``.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from ..walker import ModuleContext, Rule, register_rule

#: Receiver-name tokens marking a blocking-queue read.
QUEUE_TOKENS = ("queue", "mailbox")

#: Receiver-name tokens marking an executor dispatch.
POOL_TOKENS = ("pool", "executor")


def _receiver_tokens(node: ast.AST) -> List[str]:
    """Lower-cased name components of a call receiver.

    Unlike :func:`.common.dotted_name` this tolerates subscripts, so
    ``pools[worker].submit`` still yields ``["pools"]`` — an executor
    hiding in a container is the same raw dispatch.
    """
    parts: List[str] = []
    cursor = node
    while True:
        if isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr.lower())
            cursor = cursor.value
        elif isinstance(cursor, ast.Subscript):
            cursor = cursor.value
        elif isinstance(cursor, ast.Name):
            parts.append(cursor.id.lower())
            return parts
        else:
            return parts


def _has_timeout(node: ast.Call) -> bool:
    return any(keyword.arg == "timeout" for keyword in node.keywords)


def _matches(tokens: List[str], markers: tuple) -> bool:
    return any(marker in token for token in tokens for marker in markers)


@register_rule
class TimeoutDisciplineRule(Rule):
    """A bare ``future.result()`` or ``queue.get()`` waits forever on a
    worker that hung mid-task, turning one stuck process into a hung run;
    raw executor dispatch hands out futures that need the same bound.
    Every wait on another process must be bounded.

    Example::

        payload = result_queue.get()        # hangs forever on a hung worker

    Fix::

        payload = result_queue.get(timeout=POOL_TIMEOUT_S)   # bounded wait
    """

    rule_id = "REP006"
    name = "timeout-discipline"
    severity = "error"
    description = (
        "unbounded cross-process wait (bare future.result()/queue.get()) or "
        "raw executor dispatch"
    )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "result":
            if node.args or _has_timeout(node):
                return
            ctx.report(
                self,
                node,
                "bare .result() waits forever if the worker died or hung",
                hint="pass a timeout; justify a genuinely bounded wait with "
                "# repro: allow[timeout-discipline]",
            )
            return
        tokens = _receiver_tokens(func.value)
        if func.attr == "get" and _matches(tokens, QUEUE_TOKENS):
            # Queue.get(block, timeout): two positionals also bound the wait
            if len(node.args) >= 2 or _has_timeout(node):
                return
            ctx.report(
                self,
                node,
                "blocking queue read without a timeout never notices a dead "
                "producer",
                hint="pass timeout= (or get_nowait() in a poll loop); justify "
                "with # repro: allow[timeout-discipline]",
            )
            return
        if func.attr == "submit" and _matches(tokens, POOL_TOKENS):
            ctx.report(
                self,
                node,
                "raw executor submit: the returned future needs its own "
                "deadline to survive a hung worker",
                hint="bound every wait on the future (result(timeout=...), "
                "as_completed(..., timeout=...)) and justify the site with "
                "# repro: allow[timeout-discipline]",
            )


__all__ = ["TimeoutDisciplineRule"]
