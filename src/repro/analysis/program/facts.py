"""Per-module fact extraction — the per-file half of whole-program analysis.

A :class:`ModuleFacts` record is everything the program-level rules need to
know about one file, extracted in a single structured walk over the same AST
the per-file rules dispatch on (one parse per file, ever).  Whole-program
resolution (symbol table, call graph, taint) is then computed from the
facts of every module, in :mod:`.graph`.

The extractor is deliberately name-based and syntactic, like the rest of the
linter: it records what the code *says* (dotted receiver chains, set-valued
expressions) and leaves resolution to :mod:`.graph`, which is where
cross-module knowledge lives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Terminal name components that mark a value as model-typed for taint
#: purposes.  Kept here (not in ``rules.funnel``) so both the per-file REP001
#: rule and the interprocedural REP010 rule import one canonical list without
#: creating an import cycle through the rules package.
MODELISH_NAMES = ("model", "network", "classifier")

#: Methods that constitute model query traffic (shared with REP001).
QUERY_METHODS = ("predict", "predict_proba", "loss_input_gradient", "forward")

#: Receiver-name token that marks funnel traffic for REP001/REP010.
ENGINE_TOKEN = "engine"

#: Callables whose consumption of an iterable is order-insensitive — feeding
#: a set into these cannot leak iteration order into results.
ORDER_SAFE_CALLEES = frozenset(
    {"sorted", "sum", "any", "all", "min", "max", "len", "set", "frozenset"}
)

#: Callables that materialize an iterable *in iteration order* — a set-valued
#: argument here is exactly as order-leaky as a ``for`` loop over it.
ORDER_LEAKY_CALLEES = frozenset({"list", "tuple", "enumerate"})

#: Set-returning methods: a call of one of these on a set-valued receiver is
#: itself set-valued.
SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


def dotted(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute chain (``self.a.b``), else ``None``."""
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ImportFact:
    """One name bound by an import statement."""

    alias: str  # name bound in the importing module ("" for wildcard)
    module: str  # absolute dotted module the binding comes from
    symbol: Optional[str]  # symbol inside module (None for `import module`)
    lineno: int
    wildcard: bool = False


@dataclass
class CallFact:
    """One call site, with enough shape to resolve and taint-propagate."""

    callee: str  # dotted callee as written ("helper", "self.run", "mod.f")
    lineno: int
    #: positional args: ("name", dotted) / ("call", callee) / None per slot
    args: List[Optional[Tuple[str, str]]] = field(default_factory=list)
    #: keyword args with the same classification
    kwargs: Dict[str, Optional[Tuple[str, str]]] = field(default_factory=dict)


@dataclass
class QuerySink:
    """A query-method call (``.predict`` & friends) and its receiver shape."""

    method: str
    lineno: int
    receiver: Optional[str] = None  # dotted receiver, when static
    receiver_call: Optional[str] = None  # callee when receiver is `f(...).predict`


@dataclass
class IterSite:
    """One place an iterable's order leaks into program state."""

    kind: str  # "inline" | "name" | "self_attr" | "call"
    value: str  # "" for inline, name / attr / dotted callee otherwise
    lineno: int
    context: str  # "for" | "comprehension" | "call:<name>"


@dataclass
class FunctionFacts:
    """Facts about one function or method (module-level qualname)."""

    qualname: str  # "func" or "Class.method" (nested defs dotted through)
    lineno: int
    end_lineno: int
    params: List[str] = field(default_factory=list)
    #: unparsed annotation text per annotated param
    param_annotations: Dict[str, str] = field(default_factory=dict)
    return_annotation: str = ""
    calls: List[CallFact] = field(default_factory=list)
    #: return value classifications: ("name", dotted)/("call", callee)/("set","")
    returns: List[Tuple[str, str]] = field(default_factory=list)
    tainted_locals: List[str] = field(default_factory=list)
    #: local name -> dotted callee of the call it was assigned from
    local_calls: Dict[str, str] = field(default_factory=dict)
    #: local name -> dotted name it aliases (callback refs: `cb = self._emit`)
    local_refs: Dict[str, str] = field(default_factory=dict)
    query_sinks: List[QuerySink] = field(default_factory=list)
    set_locals: List[str] = field(default_factory=list)
    iterations: List[IterSite] = field(default_factory=list)


@dataclass
class ClassFacts:
    """Facts about one class definition."""

    qualname: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: self.X = ClassName(...) -> X: dotted constructor name
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: self.X assigned a set-valued expression somewhere in the class
    set_attrs: List[str] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the program rules need to know about one module."""

    path: str
    module: str  # absolute dotted module name ("repro.engine.batching")
    imports: List[ImportFact] = field(default_factory=list)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    #: module-level names bound to set-valued constants
    module_sets: List[str] = field(default_factory=list)


class _Extractor(ast.NodeVisitor):
    """One structured walk collecting every fact the program rules need."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        self._class_stack: List[ClassFacts] = []
        self._fn_stack: List[FunctionFacts] = []
        #: comprehension/generator nodes whose order cannot leak (they feed an
        #: order-insensitive reducer) or that are already sorted-wrapped
        self._order_safe: set = set()

    # ------------------------------------------------------------------ #
    # scope bookkeeping
    # ------------------------------------------------------------------ #
    def _qualprefix(self) -> str:
        parts = [cls.qualname for cls in self._class_stack[-1:]]
        parts += [fn.qualname for fn in self._fn_stack[-1:]]
        return parts[-1] if parts else ""

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prefix = self._qualprefix()
        qualname = f"{prefix}.{node.name}" if prefix else node.name
        cls = ClassFacts(
            qualname=qualname,
            lineno=node.lineno,
            bases=[name for name in (dotted(base) for base in node.bases) if name],
        )
        self.facts.classes[qualname] = cls
        self._class_stack.append(cls)
        old_fns, self._fn_stack = self._fn_stack, []
        self.generic_visit(node)
        self._fn_stack = old_fns
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        prefix = self._qualprefix()
        qualname = f"{prefix}.{node.name}" if prefix else node.name
        params = [arg.arg for arg in node.args.posonlyargs + node.args.args]
        fn = FunctionFacts(
            qualname=qualname,
            lineno=node.lineno,
            end_lineno=int(getattr(node, "end_lineno", node.lineno) or node.lineno),
            params=params,
        )
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            if arg.annotation is not None:
                fn.param_annotations[arg.arg] = ast.unparse(arg.annotation)
        if node.returns is not None:
            fn.return_annotation = ast.unparse(node.returns)
        self.facts.functions[qualname] = fn
        if self._class_stack:
            self._class_stack[-1].methods.append(node.name)
        self._fn_stack.append(fn)
        for statement in node.body:
            self.visit(statement)
        self._fn_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # ------------------------------------------------------------------ #
    # imports
    # ------------------------------------------------------------------ #
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.facts.imports.append(
                ImportFact(
                    alias=alias.asname or alias.name.split(".")[0],
                    module=alias.name,
                    symbol=None,
                    lineno=node.lineno,
                )
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_relative(node.module or "", node.level)
        for alias in node.names:
            if alias.name == "*":
                self.facts.imports.append(
                    ImportFact(
                        alias="", module=base, symbol=None,
                        lineno=node.lineno, wildcard=True,
                    )
                )
                continue
            self.facts.imports.append(
                ImportFact(
                    alias=alias.asname or alias.name,
                    module=base,
                    symbol=alias.name,
                    lineno=node.lineno,
                )
            )

    def _resolve_relative(self, module: str, level: int) -> str:
        if level == 0:
            return module
        parts = self.facts.module.split(".")
        # level 1 = current package: a plain module drops its own name first,
        # but an __init__ IS its package and keeps it
        if not str(self.facts.path).endswith("__init__.py"):
            parts = parts[:-1]
        base = parts[: len(parts) - (level - 1)]
        if module:
            base.append(module)
        return ".".join(base)

    # ------------------------------------------------------------------ #
    # assignments: taint, set-typing, attr types
    # ------------------------------------------------------------------ #
    def _classify_value(self, value: ast.AST) -> Optional[Tuple[str, str]]:
        if isinstance(value, ast.Call):
            callee = dotted(value.func)
            return ("call", callee) if callee else None
        name = dotted(value)
        return ("name", name) if name else None

    def _is_set_valued(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            leaf = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if leaf in ("set", "frozenset"):
                return True
            if leaf in SET_METHODS and isinstance(func, ast.Attribute):
                return self._is_set_valued_name(func.value) or self._is_set_valued(
                    func.value
                )
            return False
        if isinstance(value, ast.BinOp) and isinstance(
            value.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_valued(value.left) or self._is_set_valued(value.right)
        return self._is_set_valued_name(value)

    def _is_set_valued_name(self, value: ast.AST) -> bool:
        name = dotted(value)
        if name is None:
            return False
        if self._fn_stack and name in self._fn_stack[-1].set_locals:
            return True
        if name.startswith("self.") and self._class_stack:
            return name.split(".", 1)[1] in self._class_stack[-1].set_attrs
        return name in self.facts.module_sets

    def _record_assignment(self, target: ast.AST, value: ast.AST) -> None:
        name = dotted(target)
        if name is None or value is None:
            return
        set_valued = self._is_set_valued(value)
        classified = self._classify_value(value)
        if name.startswith("self.") and name.count(".") == 1 and self._class_stack:
            attr = name.split(".", 1)[1]
            cls = self._class_stack[-1]
            if set_valued:
                if attr not in cls.set_attrs:
                    cls.set_attrs.append(attr)
            elif isinstance(value, ast.Call):
                callee = dotted(value.func)
                if callee:
                    cls.attr_types.setdefault(attr, callee)
            return
        if "." in name:
            return
        if not self._fn_stack:
            if set_valued and name not in self.facts.module_sets:
                self.facts.module_sets.append(name)
            return
        fn = self._fn_stack[-1]
        if set_valued:
            if name not in fn.set_locals:
                fn.set_locals.append(name)
        if classified is None:
            return
        kind, value_name = classified
        if kind == "name":
            if value_name.split(".")[-1] in MODELISH_NAMES:
                if name not in fn.tainted_locals:
                    fn.tainted_locals.append(name)
            else:
                fn.local_refs[name] = value_name
        elif kind == "call":
            fn.local_calls[name] = value_name

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assignment(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assignment(node.target, node.value)
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # calls: call graph, query sinks, order-safety contexts
    # ------------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        leaf = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if leaf in ORDER_SAFE_CALLEES:
            # comprehensions feeding an order-insensitive reducer are safe,
            # and everything under sorted() is safe by definition
            for arg in node.args:
                if leaf == "sorted" or isinstance(
                    arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                ):
                    self._order_safe.add(id(arg))
                if leaf == "sorted":
                    for sub in ast.walk(arg):
                        self._order_safe.add(id(sub))
        elif leaf in ORDER_LEAKY_CALLEES and node.args:
            self._record_iteration(node.args[0], node.lineno, f"call:{leaf}")

        if self._fn_stack:
            fn = self._fn_stack[-1]
            callee = dotted(func)
            if callee is not None:
                fn.calls.append(
                    CallFact(
                        callee=callee,
                        lineno=node.lineno,
                        args=[self._classify_value(arg) for arg in node.args],
                        kwargs={
                            kw.arg: self._classify_value(kw.value)
                            for kw in node.keywords
                            if kw.arg is not None
                        },
                    )
                )
            if isinstance(func, ast.Attribute) and func.attr in QUERY_METHODS:
                receiver = dotted(func.value)
                receiver_call = None
                if receiver is None and isinstance(func.value, ast.Call):
                    receiver_call = dotted(func.value.func)
                fn.query_sinks.append(
                    QuerySink(
                        method=func.attr,
                        lineno=node.lineno,
                        receiver=receiver,
                        receiver_call=receiver_call,
                    )
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # iteration-order sites
    # ------------------------------------------------------------------ #
    def _record_iteration(self, iterable: ast.AST, lineno: int, context: str) -> None:
        if not self._fn_stack or id(iterable) in self._order_safe:
            return
        fn = self._fn_stack[-1]
        if isinstance(iterable, (ast.Set, ast.SetComp)) or (
            isinstance(iterable, (ast.Call, ast.BinOp)) and self._is_set_valued(iterable)
        ):
            fn.iterations.append(
                IterSite(kind="inline", value="", lineno=lineno, context=context)
            )
            return
        name = dotted(iterable)
        if name is None:
            if isinstance(iterable, ast.Call):
                callee = dotted(iterable.func)
                if callee:
                    fn.iterations.append(
                        IterSite(
                            kind="call", value=callee, lineno=lineno, context=context
                        )
                    )
            return
        if name.startswith("self.") and name.count(".") == 1:
            fn.iterations.append(
                IterSite(
                    kind="self_attr",
                    value=name.split(".", 1)[1],
                    lineno=lineno,
                    context=context,
                )
            )
        elif "." not in name:
            fn.iterations.append(
                IterSite(kind="name", value=name, lineno=lineno, context=context)
            )

    def visit_For(self, node: ast.For) -> None:
        self._record_iteration(node.iter, node.lineno, "for")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        if id(node) not in self._order_safe:
            for generator in node.generators:
                self._record_iteration(generator.iter, node.lineno, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # building a set *from* an iterable discards order by construction
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # returns
    # ------------------------------------------------------------------ #
    def visit_Return(self, node: ast.Return) -> None:
        if self._fn_stack and node.value is not None:
            fn = self._fn_stack[-1]
            if self._is_set_valued(node.value):
                fn.returns.append(("set", ""))
            else:
                classified = self._classify_value(node.value)
                if classified is not None:
                    fn.returns.append(classified)
                else:
                    fn.returns.append(("other", ""))
        self.generic_visit(node)


def module_name_for(path) -> str:
    """Dotted module name of ``path``, derived from ``__init__.py`` packages.

    Walking up from the file, every parent directory containing an
    ``__init__.py`` contributes a package segment — which resolves both the
    real ``src/repro`` layout and throwaway fixture packages in tests without
    any configuration.
    """
    from pathlib import Path

    source = Path(path)
    parts = [source.stem] if source.stem != "__init__" else []
    cursor = source.parent
    while (cursor / "__init__.py").exists():
        parts.append(cursor.name)
        parent = cursor.parent
        if parent == cursor:
            break
        cursor = parent
    return ".".join(reversed(parts)) if parts else source.stem


def extract_facts(tree: ast.Module, path: str, module: Optional[str] = None) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from one already-parsed module."""
    facts = ModuleFacts(
        path=str(path),
        module=module if module is not None else module_name_for(path),
    )
    _Extractor(facts).visit(tree)
    return facts


__all__ = [
    "ENGINE_TOKEN",
    "MODELISH_NAMES",
    "ORDER_LEAKY_CALLEES",
    "ORDER_SAFE_CALLEES",
    "QUERY_METHODS",
    "CallFact",
    "ClassFacts",
    "FunctionFacts",
    "ImportFact",
    "IterSite",
    "ModuleFacts",
    "QuerySink",
    "dotted",
    "extract_facts",
    "module_name_for",
]
