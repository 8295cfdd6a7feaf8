"""REP010 — interprocedural funnel escape: models can't hide behind helpers.

REP001 is per-file and name-based: it flags ``model.predict(...)`` but must
skip engine-named receivers (that is the sanctioned funnel surface) and
dynamic receivers (``f().predict``) it cannot classify.  Those two blind
spots are exactly how a raw model dodges the funnel once helpers are
involved: pass ``self.model`` into a parameter *named* ``engine``, or return
the model from a getter and query its return value.  Both look locally
clean in every file involved.

This rule closes the gap with whole-program taint tracking: model-typed
values (terminal names ``model``/``network``/``classifier``, locals assigned
from them, and — via a call-graph fixpoint — return values of functions that
transitively return one) are followed through assignments, returns and call
arguments across modules.  Flagged outside the engine/runtime/nn layers:

* a tainted value passed into an **engine-named parameter** of a resolved
  callee that queries that parameter directly (reported at the call site —
  the file where the model escapes);
* a query method called on the **return value of a model-returning
  function** (``get_model().predict`` or ``m = get_model(); m.predict``),
  the dynamic-receiver shape REP001 must skip;
* an **engine-named local** bound to a tainted value and then queried — the
  rename-it-engine dodge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..findings import Finding
from ..program.facts import ENGINE_TOKEN, MODELISH_NAMES
from ..program.graph import ProgramGraph, SymbolRef
from ..program.registry import ProgramRule, register_program_rule
from .funnel import ALLOWED_PATH_PARTS, ALLOWED_PATH_SUFFIXES


def _allowed_path(path: str) -> bool:
    if any(part in path for part in ALLOWED_PATH_PARTS):
        return True
    return path.endswith(ALLOWED_PATH_SUFFIXES)


def _engine_named(name: str) -> bool:
    return any(ENGINE_TOKEN in part.lower() for part in name.split("."))


@register_program_rule
class FunnelEscapeRule(ProgramRule):
    """The funnel contract (all model traffic through
    ``ExecutionPolicy.build_engine()``) is cross-module by nature: the model
    object is *created* in one package and *queried* in another, and a
    helper boundary between the two hides the escape from any per-file
    check.  The rule taint-tracks model-typed values through assignments,
    returns and resolved call arguments, and flags queries on them in the
    shapes REP001 must skip.

    Example::

        def run_batch(engine, x):       # parameter *named* engine ...
            return engine.predict(x)    # ... REP001 trusts the name

        run_batch(self.model, x)        # ... but a raw model flows in

    Fix::

        engine = policy.build_engine(model)   # build the real engine once
        run_batch(engine, x)                  # helpers receive engines only
        # genuinely whitebox paths (trainers, gradient attacks) say why:
        # repro: allow[funnel-escape] <justification>
    """

    rule_id = "REP010"
    name = "funnel-escape"
    severity = "error"
    description = (
        "model-typed value smuggled through helpers/returns/engine-named "
        "parameters into direct query calls (interprocedural REP001)"
    )

    def check(self, program: ProgramGraph) -> List[Finding]:
        findings: List[Finding] = []
        returns_model = program.returns_model()

        #: (module, qualname) -> engine-named params queried directly
        queried_params: Dict[Tuple[str, str], Dict[str, str]] = {}
        for facts, fn in program.functions():
            hits: Dict[str, str] = {}
            for sink in fn.query_sinks:
                if sink.receiver is None:
                    continue
                root = sink.receiver.split(".")[0]
                if root in fn.params and _engine_named(root):
                    hits.setdefault(root, sink.method)
            if hits:
                queried_params[(facts.module, fn.qualname)] = hits

        for facts, fn in program.functions():
            if _allowed_path(facts.path):
                continue
            self._check_call_sites(
                program, facts, fn, returns_model, queried_params, findings
            )
            self._check_sinks(program, facts, fn, returns_model, findings)
        return findings

    # ------------------------------------------------------------------ #
    def _tainted_desc(
        self,
        program: ProgramGraph,
        facts,
        fn,
        classified: Optional[Tuple[str, str]],
        returns_model,
    ) -> Optional[str]:
        """Human description of why an argument value is model-typed."""
        if classified is None:
            return None
        kind, value = classified
        if kind == "name":
            if value.split(".")[-1] in MODELISH_NAMES:
                return f"{value!r}"
            if value in fn.tainted_locals:
                return f"{value!r} (assigned from a model)"
            root = value.split(".")[0]
            if root in fn.local_calls:
                ref = program.resolve_call(facts, fn, fn.local_calls[root])
                if ref is not None and (ref.module, ref.qualname) in returns_model:
                    return f"{value!r} (returned by {fn.local_calls[root]}())"
            return None
        if kind == "call":
            ref = program.resolve_call(facts, fn, value)
            if ref is not None and (ref.module, ref.qualname) in returns_model:
                return f"the return value of {value}()"
        return None

    def _check_call_sites(
        self, program, facts, fn, returns_model, queried_params, findings
    ) -> None:
        for call in fn.calls:
            ref = program.resolve_call(facts, fn, call.callee)
            if ref is None or ref.kind != "function":
                continue
            hits = queried_params.get((ref.module, ref.qualname))
            if not hits:
                continue
            target = program.function(ref.module, ref.qualname)
            if target is None or _allowed_path(program.modules[ref.module].path):
                continue
            offset = 0
            if target.params and target.params[0] in ("self", "cls"):
                offset = 1
            for position, classified in enumerate(call.args):
                desc = self._tainted_desc(
                    program, facts, fn, classified, returns_model
                )
                if desc is None:
                    continue
                index = position + offset
                if index >= len(target.params):
                    continue
                param = target.params[index]
                if param in hits:
                    self._report_escape(
                        facts, call, ref, param, hits[param], desc, findings
                    )
            for keyword, classified in call.kwargs.items():
                desc = self._tainted_desc(
                    program, facts, fn, classified, returns_model
                )
                if desc is not None and keyword in hits:
                    self._report_escape(
                        facts, call, ref, keyword, hits[keyword], desc, findings
                    )

    def _report_escape(
        self, facts, call, ref: SymbolRef, param, method, desc, findings
    ) -> None:
        findings.append(
            self.finding(
                facts.path,
                call.lineno,
                f"raw model {desc} passed into engine-named parameter "
                f"{param!r} of {ref.module}.{ref.qualname}, which calls "
                f".{method}() on it directly — an interprocedural funnel "
                "escape invisible to the per-file check",
                hint="pass policy.build_engine(model) (a real engine) into "
                "the helper, or justify whitebox access with "
                "# repro: allow[funnel-escape]",
            )
        )

    def _check_sinks(self, program, facts, fn, returns_model, findings) -> None:
        for sink in fn.query_sinks:
            if sink.receiver_call is not None:
                ref = program.resolve_call(facts, fn, sink.receiver_call)
                if ref is not None and (ref.module, ref.qualname) in returns_model:
                    findings.append(
                        self.finding(
                            facts.path,
                            sink.lineno,
                            f".{sink.method}() called on the return value of "
                            f"{sink.receiver_call}(), which returns a raw "
                            "model — unbatched, uncached, invisible to "
                            "QueryStats",
                            hint="route through ExecutionPolicy.build_engine(), "
                            "or justify with # repro: allow[funnel-escape]",
                        )
                    )
                continue
            if sink.receiver is None or not _engine_named(sink.receiver):
                continue  # non-engine receivers are REP001's per-file job
            root = sink.receiver.split(".")[0]
            reason = None
            if sink.receiver in fn.tainted_locals or root in fn.tainted_locals:
                reason = "assigned from a raw model"
            elif root in fn.local_calls:
                ref = program.resolve_call(facts, fn, fn.local_calls[root])
                if ref is not None and (ref.module, ref.qualname) in returns_model:
                    reason = f"the return value of {fn.local_calls[root]}()"
            if reason is not None:
                findings.append(
                    self.finding(
                        facts.path,
                        sink.lineno,
                        f"engine-named variable {sink.receiver!r} is {reason}; "
                        f".{sink.method}() on it is a direct model query "
                        "wearing the funnel's name",
                        hint="build a real engine via policy.build_engine(), "
                        "or justify with # repro: allow[funnel-escape]",
                    )
                )


__all__ = ["FunnelEscapeRule"]
