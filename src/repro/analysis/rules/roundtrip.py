"""REP005 — ``to_dict``/``from_dict`` pairs must agree on their key set.

Campaign durability rests on exact serialization round-trips:
``ExecutionPolicy``, ``QueryStats``, ``ReliabilityEstimate`` and
``CampaignSpec`` are all rebuilt from stored JSON when a run is resumed or
re-launched.  The failure mode is silent drift — a field added to the class
but not to ``to_dict`` vanishes on every save, and nothing crashes until a
resumed campaign quietly diverges.

For every class that defines both halves the rule statically derives

* the **produced** key set from ``to_dict`` (literal dict keys,
  ``dataclasses.asdict`` → the declared dataclass fields, or one level of
  ``return self.other_method()`` indirection), and
* the **consumed** key set from ``from_dict`` (explicit ``data["k"]`` /
  ``.get("k")`` keys, plus the declared fields whenever the method validates
  against ``cls.__dataclass_fields__`` or constructs via ``cls(**...)``),

and reports any asymmetric difference.  When either side is too dynamic to
pin down, the pair is skipped rather than guessed at.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from ..walker import ModuleContext, Rule, register_rule
from .common import callee_basename, class_field_names, dotted_name, string_constant

#: Method names accepted as the serializing half.
TO_DICT_NAMES = ("to_dict", "as_dict")


def _produced_keys(
    fn: ast.FunctionDef,
    methods: Dict[str, ast.FunctionDef],
    fields: Set[str],
    depth: int = 0,
) -> Optional[Set[str]]:
    """Key set ``fn`` returns, or ``None`` when not statically derivable."""
    if depth > 2:
        return None
    produced: Set[str] = set()
    saw_return = False
    for node in ast.walk(fn):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        saw_return = True
        value = node.value
        if isinstance(value, ast.Dict):
            for key in value.keys:
                literal = string_constant(key) if key is not None else None
                if literal is None:
                    return None  # computed or **-splatted key
                produced.add(literal)
            continue
        if isinstance(value, ast.Call):
            target = dotted_name(value.func)
            if target in ("dataclasses.asdict", "asdict"):
                produced.update(fields)
                continue
            if target is not None and target.startswith("self."):
                inner = methods.get(target.split(".", 1)[1])
                if inner is not None:
                    nested = _produced_keys(inner, methods, fields, depth + 1)
                    if nested is None:
                        return None
                    produced.update(nested)
                    continue
        return None  # some other expression — too dynamic to compare
    return produced if saw_return and produced else None


def _consumed_keys(fn: ast.FunctionDef, fields: Set[str]) -> Optional[Set[str]]:
    """Key set ``fn`` consumes, or ``None`` when not statically derivable."""
    explicit: Set[str] = set()
    dynamic = False
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr == "__dataclass_fields__":
            dynamic = True
        elif isinstance(node, ast.Call):
            if any(keyword.arg is None for keyword in node.keywords):
                dynamic = True  # cls(**data)-style construction
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "pop")
                and node.args
            ):
                literal = string_constant(node.args[0])
                if literal is not None:
                    explicit.add(literal)
        elif isinstance(node, ast.Subscript):
            literal = string_constant(node.slice)
            if literal is not None:
                explicit.add(literal)
    if dynamic:
        return set(fields) | explicit
    return explicit or None


@register_rule
class DictRoundTripRule(Rule):
    """``to_dict``/``from_dict`` pairs are the serialization boundary for
    checkpoints, run-registry records and telemetry artifacts; when their key sets
    drift apart a field is silently dropped on write or rejected on read —
    usually discovered days later when an old artifact no longer loads.

    Example::

        def to_dict(self):
            return {"seed": self.seed, "budget": self.budget}
        @classmethod
        def from_dict(cls, d):
            return cls(seed=d["seed"])     # "budget" silently dropped

    Fix::

        Keep both halves (and the dataclass fields) in lock step — every key
        produced by to_dict is consumed by from_dict and vice versa.
    """

    rule_id = "REP005"
    name = "dict-round-trip"
    severity = "error"
    description = (
        "to_dict/from_dict key sets drifted apart — serialization would "
        "silently drop or reject fields"
    )

    def visit_ClassDef(self, node: ast.ClassDef, ctx: ModuleContext) -> None:
        methods = {
            statement.name: statement
            for statement in node.body
            if isinstance(statement, ast.FunctionDef)
        }
        if "from_dict" not in methods:
            return
        serializer = next(
            (methods[name] for name in TO_DICT_NAMES if name in methods), None
        )
        if serializer is None:
            return
        fields = set(class_field_names(node))
        produced = _produced_keys(serializer, methods, fields)
        consumed = _consumed_keys(methods["from_dict"], fields)
        if produced is None or consumed is None:
            return
        missing = sorted(consumed - produced)
        extra = sorted(produced - consumed)
        if not missing and not extra:
            return
        details = []
        if missing:
            details.append(f"never produced by {serializer.name}: {missing}")
        if extra:
            details.append(f"not consumed by from_dict: {extra}")
        ctx.report(
            self,
            serializer,
            f"{node.name}.{serializer.name}/from_dict key sets drift — "
            + "; ".join(details),
            hint="keep both halves (and the dataclass fields) in lock step",
        )


__all__ = ["DictRoundTripRule"]
