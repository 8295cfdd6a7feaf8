"""REP011 — iteration-order nondeterminism: sets must not order results.

Python sets iterate in hash order, and hash order is a function of
``PYTHONHASHSEED`` and insertion history — two runs of the same campaign can
walk the same set differently.  That is harmless while the consumer is
order-insensitive (``sum``, ``sorted``, membership), and catastrophically
quiet while it is not: merged stats accumulate floats in a different
order, serialized artifacts list keys in a different order, a campaign
walking its seeds from a set queries them in a different order.  Every one
of those breaks the bit-identity contract without failing a single
assertion.

The facts layer records each place an iterable's order can leak — ``for``
loops, order-preserving comprehensions, ``list()``/``tuple()``/
``enumerate()`` materializations — *except* those feeding an
order-insensitive reducer (``sorted``/``sum``/``any``/``all``/``min``/
``max``/``len``/``set``/``frozenset``), which the extractor marks safe.
This rule classifies each remaining site's iterable as set-valued or not,
using whole-program knowledge where the per-file view is blind: locals built
as sets, parameters annotated ``Set[...]``, module-level set constants
resolved through imports, ``self`` attributes assigned sets anywhere in the
class, and calls resolved (cross-module, through the call graph) into
functions that transitively return sets.
"""

from __future__ import annotations

from typing import List

from ..findings import Finding
from ..program.facts import FunctionFacts, ModuleFacts
from ..program.graph import ProgramGraph
from ..program.registry import ProgramRule, register_program_rule

#: Parameter annotations that type a parameter as a set.
_SET_ANNOTATIONS = ("set", "frozenset")


def _annotation_is_set(annotation: str) -> bool:
    text = annotation.strip().lower()
    if text.startswith("typing."):
        text = text[len("typing."):]
    if text in _SET_ANNOTATIONS:
        return True
    return text.startswith(("set[", "frozenset[", "abstractset[", "mutableset["))


@register_program_rule
class IterationOrderRule(ProgramRule):
    """Set iteration order is an accident of ``PYTHONHASHSEED`` and insertion
    history, so any set whose iteration order reaches program output — merged
    statistics, serialized artifacts, query order — silently breaks the
    bit-identical-rerun contract.  The rule classifies every order-leaking
    iteration site (``for``, order-preserving comprehensions, ``list()``/
    ``tuple()``/``enumerate()``) whose iterable is set-valued, resolving
    names, annotations, attributes and call returns across modules; sites
    feeding order-insensitive reducers (``sorted``, ``sum``, ``any``, ...)
    are exempt by construction.

    Example::

        def merge(self):
            for run_id in self.pending:        # self.pending = set(...)
                self._absorb(run_id)           # float adds: order-dependent

    Fix::

        for run_id in sorted(self.pending):    # fix the order explicitly
            self._absorb(run_id)
        # or prove the consumer commutes and say so:
        # repro: allow[iteration-order] pure membership test, order-free
    """

    rule_id = "REP011"
    name = "iteration-order"
    severity = "error"
    description = (
        "unordered set/dict iteration feeding merged stats, serialized "
        "artifacts or query order (hash-order nondeterminism)"
    )

    def check(self, program: ProgramGraph) -> List[Finding]:
        findings: List[Finding] = []
        returns_set = program.returns_set()
        for facts, fn in program.functions():
            for site in fn.iterations:
                why = self._set_valued_reason(program, facts, fn, site, returns_set)
                if why is None:
                    continue
                shape = (
                    f"{site.context} over {why}"
                    if site.context in ("for", "comprehension")
                    else f"{site.context.split(':', 1)[1]}() materializes {why}"
                )
                findings.append(
                    self.finding(
                        facts.path,
                        site.lineno,
                        f"{shape}: set iteration order is hash-seed dependent, "
                        "so whatever this produces differs between runs",
                        hint="iterate sorted(...) (or prove the consumer is "
                        "order-insensitive and justify with "
                        "# repro: allow[iteration-order])",
                    )
                )
        return findings

    # ------------------------------------------------------------------ #
    def _set_valued_reason(
        self,
        program: ProgramGraph,
        facts: ModuleFacts,
        fn: FunctionFacts,
        site,
        returns_set,
    ):
        """Why the site's iterable is a set, as display text — or ``None``."""
        if site.kind == "inline":
            return "an inline set expression"
        if site.kind == "name":
            name = site.value
            if name in fn.set_locals:
                return f"set-valued local {name!r}"
            annotation = fn.param_annotations.get(name)
            if name in fn.params and annotation and _annotation_is_set(annotation):
                return f"parameter {name!r} (annotated {annotation})"
            ref = program.resolve(facts.module, name)
            if ref is not None and ref.kind == "value":
                target = program.modules.get(ref.module)
                if target is not None and ref.qualname in target.module_sets:
                    return f"module-level set constant {ref.module}.{ref.qualname}"
            if name in fn.local_calls:
                ref = program.resolve_call(facts, fn, fn.local_calls[name])
                if ref is not None and (ref.module, ref.qualname) in returns_set:
                    return (
                        f"{name!r} (set returned by {fn.local_calls[name]}())"
                    )
            return None
        if site.kind == "self_attr":
            cls_name = program.enclosing_class(fn)
            if cls_name is None:
                return None
            cls = program.class_of(facts.module, cls_name)
            if cls is not None and site.value in cls.set_attrs:
                return f"set-valued attribute self.{site.value}"
            return None
        if site.kind == "call":
            ref = program.resolve_call(facts, fn, site.value)
            if ref is not None and (ref.module, ref.qualname) in returns_set:
                return f"the set returned by {site.value}()"
            # set.union(...) & friends on a known-set receiver
            receiver, _, method = site.value.rpartition(".")
            if method in ("union", "intersection", "difference",
                          "symmetric_difference", "copy") and receiver:
                fake = type(site)(
                    kind="self_attr" if receiver.startswith("self.") else "name",
                    value=receiver.split(".", 1)[1]
                    if receiver.startswith("self.")
                    else receiver,
                    lineno=site.lineno,
                    context=site.context,
                )
                inner = self._set_valued_reason(program, facts, fn, fake, returns_set)
                if inner is not None:
                    return f"{site.value}() on {inner}"
        return None


__all__ = ["IterationOrderRule"]
