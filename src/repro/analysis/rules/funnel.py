"""REP001 — all model traffic flows through the execution-policy funnel.

The architecture note in ROADMAP.md makes one promise every scaling feature
relies on: model queries go through ``ExecutionPolicy.build_engine()`` into
the query engine, so they are batched, cached, non-finite-checked and counted
in ``QueryStats``.  A bare ``model.predict(...)`` somewhere deep in a
subsystem silently bypasses all four — it still *works*, which is exactly why
only a static rule catches it before the call site gets hot.

Two patterns are flagged outside the engine/runtime/nn layers:

* **query traffic** — ``predict`` / ``predict_proba`` / ``loss_input_gradient``
  / ``forward`` called on a receiver that is not engine-named (``engine``,
  ``query_engine``, ...).  Route it through ``policy.build_engine()``
  instead, or pragma-justify genuinely whitebox access.
* **training traffic** — a model-named value handed to a ``.fit(...)`` call.
  Training mutates weights outside the funnel (an engine's cache was filled
  from the old weights), so every training site must be explicit and
  justified.
"""

from __future__ import annotations

import ast

from ..walker import ModuleContext, Rule, register_rule
from .common import dotted_name

#: Methods that constitute model query traffic.
QUERY_METHODS = ("predict", "predict_proba", "loss_input_gradient", "forward")

#: Layers allowed to touch models directly: the engines themselves, the
#: runtime that builds them, and the NumPy substrate the models are made of.
ALLOWED_PATH_PARTS = ("repro/engine/", "repro/runtime/", "repro/nn/")
ALLOWED_PATH_SUFFIXES = ("repro/types.py",)

#: Receiver names (terminal or any dotted component) that mark funnel traffic.
ENGINE_TOKEN = "engine"

#: First-argument names that mark a ``.fit`` call as model training.
MODELISH_NAMES = ("model", "network", "classifier")


@register_rule
class EngineFunnelRule(Rule):
    """Every model query outside the funnel is unbatched, uncached, unchecked
    and invisible to ``QueryStats`` — the four properties every scaling
    feature (and the paper's query-budget accounting) relies on.  The call
    still returns the right answer, which is exactly why only a static rule
    catches it before the call site gets hot.

    Example::

        probs = self.model.predict_proba(batch)   # bypasses the funnel

    Fix::

        engine = policy.build_engine(self.model)  # batched/cached/counted
        probs = engine.predict_proba(batch)
        # genuinely whitebox access (gradient attacks, trainers) says why:
        grad = model.loss_input_gradient(x, y)  # repro: allow[engine-funnel] whitebox by design
    """

    rule_id = "REP001"
    name = "engine-funnel"
    severity = "error"
    description = (
        "direct model query/training traffic outside the "
        "ExecutionPolicy.build_engine() funnel"
    )

    def applies_to(self, path: str) -> bool:
        if any(part in path for part in ALLOWED_PATH_PARTS):
            return False
        return not path.endswith(ALLOWED_PATH_SUFFIXES)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in QUERY_METHODS:
            receiver = dotted_name(func.value)
            if receiver is None or receiver == "self":
                return
            if any(ENGINE_TOKEN in part for part in receiver.split(".")):
                return
            ctx.report(
                self,
                node,
                f"direct model query {receiver}.{func.attr}(...) bypasses the "
                "engine funnel (unbatched, uncached, invisible to QueryStats)",
                hint="route through ExecutionPolicy.build_engine(), "
                "or justify whitebox access with # repro: allow[engine-funnel]",
            )
            return
        if func.attr == "fit" and node.args:
            first = dotted_name(node.args[0])
            if first is None:
                return
            if first.split(".")[-1] in MODELISH_NAMES:
                ctx.report(
                    self,
                    node,
                    f"model-valued argument {first!r} trained via "
                    f"{func.attr}(...) outside the engine funnel",
                    hint="training is whitebox by definition — mark the site "
                    "with # repro: allow[engine-funnel] and say why",
                )


__all__ = ["EngineFunnelRule"]
