"""Cross-module symbol table, call graph and whole-program fixpoints.

:class:`ProgramGraph` is built from per-module :class:`~.facts.ModuleFacts`
and answers the questions the whole-program rules ask:

* **symbol resolution** — what does the name ``X`` mean inside module ``M``?
  Follows import aliases and re-export chains (``from .graph import build``
  in a package ``__init__`` resolves through to the defining module);
  wildcard imports are *rejected* — a ``from x import *`` makes every
  unresolved name in the importer ambiguous, and the resolver refuses to
  guess (:meth:`ProgramGraph.resolve` returns ``None`` and records why).
* **call resolution** — which function does a call site reach?  Handles
  module-level functions, imported symbols, ``self.method()``, ``cls.method``,
  methods on typed instance attributes (``self.bayes.posterior_lower_bounds()``
  via the ``self.bayes = BayesianCellModel(...)`` constructor assignment),
  constructor calls (``ClassName(...)`` → ``ClassName.__init__``) and local
  callback aliases (``cb = self._emit; cb(...)``).
* **fixpoints** — which functions (transitively) return model-typed values
  and which return sets.  Both are small worklist iterations over the
  compact fact records.

Everything here is stdlib-only and name-based — the resolver trusts what the
code says, and when the code is too dynamic it says "unresolved" rather than
guessing, which keeps the downstream rules' false-positive rate honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .facts import MODELISH_NAMES, ClassFacts, FunctionFacts, ModuleFacts

#: Resolution cut-off for re-export chains (defensive; cycles are detected).
_MAX_CHAIN = 32


@dataclass(frozen=True)
class SymbolRef:
    """A resolved symbol: where it is defined and what it is."""

    module: str  # defining module
    qualname: str  # name inside the module ("" for the module itself)
    kind: str  # "function" | "class" | "module" | "value"


class ProgramGraph:
    """The whole program as one queryable object."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {}
        for facts in modules:
            self.modules[facts.module] = facts
        self._resolve_cache: Dict[Tuple[str, str], Optional[SymbolRef]] = {}
        #: modules whose wildcard imports poison unresolved-name lookups
        self.wildcard_importers: Set[str] = {
            facts.module
            for facts in self.modules.values()
            if any(imp.wildcard for imp in facts.imports)
        }
        self._returns_model: Optional[FrozenSet[Tuple[str, str]]] = None
        self._returns_set: Optional[FrozenSet[Tuple[str, str]]] = None

    # ------------------------------------------------------------------ #
    # module / function iteration helpers
    # ------------------------------------------------------------------ #
    def functions(self) -> Iterable[Tuple[ModuleFacts, FunctionFacts]]:
        for facts in self.modules.values():
            for fn in facts.functions.values():
                yield facts, fn

    def function(self, module: str, qualname: str) -> Optional[FunctionFacts]:
        facts = self.modules.get(module)
        return facts.functions.get(qualname) if facts else None

    def class_of(self, module: str, qualname: str) -> Optional[ClassFacts]:
        facts = self.modules.get(module)
        return facts.classes.get(qualname) if facts else None

    def enclosing_class(self, fn: FunctionFacts) -> Optional[str]:
        """Class qualname of a method ("Class.method" -> "Class")."""
        if "." not in fn.qualname:
            return None
        return fn.qualname.rsplit(".", 1)[0]

    # ------------------------------------------------------------------ #
    # symbol resolution
    # ------------------------------------------------------------------ #
    def resolve(self, module: str, name: str) -> Optional[SymbolRef]:
        """Resolve ``name`` as seen from ``module`` (imports followed).

        Returns ``None`` for external names, dynamic bindings, and for any
        unresolved name inside a module that uses ``from x import *`` — the
        wildcard makes the namespace ambiguous, so resolution is rejected
        wholesale rather than guessed at.
        """
        key = (module, name)
        if key not in self._resolve_cache:
            self._resolve_cache[key] = self._resolve(module, name, 0, set())
        return self._resolve_cache[key]

    def _resolve(
        self, module: str, name: str, depth: int, seen: Set[Tuple[str, str]]
    ) -> Optional[SymbolRef]:
        if depth > _MAX_CHAIN or (module, name) in seen:
            return None
        seen.add((module, name))
        facts = self.modules.get(module)
        if facts is None:
            return None
        head, _, rest = name.partition(".")
        local = self._local_symbol(facts, head)
        if local is not None:
            return self._descend(local, rest, depth, seen)
        for imp in facts.imports:
            if imp.wildcard or imp.alias != head:
                continue
            if imp.symbol is None:
                # `import pkg.mod` / `import pkg.mod as alias`
                target = SymbolRef(module=imp.module, qualname="", kind="module")
                return self._descend(target, rest, depth, seen)
            # `from pkg import symbol` — symbol may itself be a submodule
            if imp.symbol and f"{imp.module}.{imp.symbol}" in self.modules:
                target = SymbolRef(
                    module=f"{imp.module}.{imp.symbol}", qualname="", kind="module"
                )
                return self._descend(target, rest, depth, seen)
            inner = self._resolve(imp.module, imp.symbol, depth + 1, seen)
            if inner is None:
                return None
            return self._descend(inner, rest, depth, seen)
        if module in self.wildcard_importers:
            # could come from the wildcard — refuse to resolve
            return None
        return None

    def _local_symbol(self, facts: ModuleFacts, name: str) -> Optional[SymbolRef]:
        if name in facts.functions:
            return SymbolRef(module=facts.module, qualname=name, kind="function")
        if name in facts.classes:
            return SymbolRef(module=facts.module, qualname=name, kind="class")
        if name in facts.module_sets:
            return SymbolRef(module=facts.module, qualname=name, kind="value")
        return None

    def _descend(
        self, ref: SymbolRef, rest: str, depth: int, seen: Set[Tuple[str, str]]
    ) -> Optional[SymbolRef]:
        if not rest:
            return ref
        if ref.kind == "module":
            return self._resolve(ref.module, rest, depth + 1, seen)
        if ref.kind == "class":
            # ClassName.method (one level)
            facts = self.modules.get(ref.module)
            if facts is None or "." in rest:
                return None
            qualname = f"{ref.qualname}.{rest}"
            if qualname in facts.functions:
                return SymbolRef(module=ref.module, qualname=qualname, kind="function")
        return None

    # ------------------------------------------------------------------ #
    # call resolution
    # ------------------------------------------------------------------ #
    def resolve_call(
        self, facts: ModuleFacts, fn: FunctionFacts, callee: str
    ) -> Optional[SymbolRef]:
        """Resolve one call expression inside ``fn`` to its target function."""
        ref = self._resolve_call_ref(facts, fn, callee, 0)
        if ref is None:
            return None
        if ref.kind == "class":
            init = f"{ref.qualname}.__init__"
            target = self.modules.get(ref.module)
            if target is not None and init in target.functions:
                return SymbolRef(module=ref.module, qualname=init, kind="function")
            return ref
        return ref if ref.kind == "function" else None

    def _resolve_call_ref(
        self, facts: ModuleFacts, fn: FunctionFacts, callee: str, depth: int
    ) -> Optional[SymbolRef]:
        if depth > _MAX_CHAIN:
            return None
        head, _, rest = callee.partition(".")
        if head in ("self", "cls"):
            cls_name = self.enclosing_class(fn)
            if cls_name is None or not rest:
                return None
            attr, _, tail = rest.partition(".")
            method_ref = self._method_on(facts.module, cls_name, attr)
            if method_ref is not None and not tail:
                return method_ref
            # self.<attr>.<method>(): follow the constructor-typed attribute
            cls = self.class_of(facts.module, cls_name)
            if cls is not None and attr in cls.attr_types and tail and "." not in tail:
                ctor = self.resolve_call(facts, fn, cls.attr_types[attr])
                owner = self._class_of_ctor(ctor)
                if owner is not None:
                    return self._method_on(owner.module, owner.qualname, tail)
            return None
        if head in fn.local_refs and depth == 0:
            return self._resolve_call_ref(
                facts, fn, fn.local_refs[head] + (("." + rest) if rest else ""), depth + 1
            )
        if rest and "." not in rest and head in fn.local_calls:
            # constructor-typed local: `coord = Coordinator(); coord.merge()`
            ctor = self._resolve_call_ref(facts, fn, fn.local_calls[head], depth + 1)
            owner = self._class_of_ctor(ctor)
            if owner is not None:
                return self._method_on(owner.module, owner.qualname, rest)
        return self.resolve(facts.module, callee)

    def _class_of_ctor(self, ref: Optional[SymbolRef]) -> Optional[SymbolRef]:
        if ref is None:
            return None
        if ref.kind == "class":
            return ref
        if ref.kind == "function" and ref.qualname.endswith(".__init__"):
            return SymbolRef(
                module=ref.module,
                qualname=ref.qualname.rsplit(".", 1)[0],
                kind="class",
            )
        return None

    def _method_on(self, module: str, cls_name: str, method: str) -> Optional[SymbolRef]:
        """Resolve ``method`` on class ``cls_name``, walking base classes."""
        seen: Set[Tuple[str, str]] = set()
        stack: List[Tuple[str, str]] = [(module, cls_name)]
        while stack:
            mod, name = stack.pop()
            if (mod, name) in seen:
                continue
            seen.add((mod, name))
            facts = self.modules.get(mod)
            if facts is None:
                continue
            qualname = f"{name}.{method}"
            if qualname in facts.functions:
                return SymbolRef(module=mod, qualname=qualname, kind="function")
            cls = facts.classes.get(name)
            if cls is None:
                continue
            for base in cls.bases:
                base_ref = self.resolve(mod, base)
                if base_ref is not None and base_ref.kind == "class":
                    stack.append((base_ref.module, base_ref.qualname))
        return None

    # ------------------------------------------------------------------ #
    # fixpoints
    # ------------------------------------------------------------------ #
    def _fixpoint_returns(self, predicate) -> FrozenSet[Tuple[str, str]]:
        """Functions whose return satisfies ``predicate`` directly or via a
        returned call to another satisfying function."""
        marked: Set[Tuple[str, str]] = set()
        for facts, fn in self.functions():
            if predicate(facts, fn):
                marked.add((facts.module, fn.qualname))
        changed = True
        while changed:
            changed = False
            for facts, fn in self.functions():
                key = (facts.module, fn.qualname)
                if key in marked:
                    continue
                for kind, value in fn.returns:
                    if kind != "call":
                        continue
                    ref = self.resolve_call(facts, fn, value)
                    if ref is not None and (ref.module, ref.qualname) in marked:
                        marked.add(key)
                        changed = True
                        break
        return frozenset(marked)

    def returns_model(self) -> FrozenSet[Tuple[str, str]]:
        """Functions that (transitively) return a model-typed value."""
        if self._returns_model is None:

            def direct(facts: ModuleFacts, fn: FunctionFacts) -> bool:
                for kind, value in fn.returns:
                    if kind == "name":
                        leaf = value.split(".")[-1]
                        if leaf in MODELISH_NAMES or value in fn.tainted_locals:
                            return True
                return False

            self._returns_model = self._fixpoint_returns(direct)
        return self._returns_model

    def returns_set(self) -> FrozenSet[Tuple[str, str]]:
        """Functions that (transitively) return a set-valued expression."""
        if self._returns_set is None:

            def direct(facts: ModuleFacts, fn: FunctionFacts) -> bool:
                annotation = fn.return_annotation.strip().lower()
                if annotation.startswith("typing."):
                    annotation = annotation[len("typing."):]
                if annotation in ("set", "frozenset") or annotation.startswith(
                    ("set[", "frozenset[")
                ):
                    return True
                for kind, value in fn.returns:
                    if kind == "set":
                        return True
                    if kind == "name" and value in fn.set_locals:
                        return True
                return False

            self._returns_set = self._fixpoint_returns(direct)
        return self._returns_set


def build_graph(modules: Iterable[ModuleFacts]) -> ProgramGraph:
    """Construct a :class:`ProgramGraph` from per-module facts."""
    return ProgramGraph(modules)


__all__ = ["ProgramGraph", "SymbolRef", "build_graph"]
