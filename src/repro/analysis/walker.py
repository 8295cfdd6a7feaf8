"""Rule protocol, registry and the single-pass AST walker.

The analyzer parses every file exactly once and walks the tree exactly once,
dispatching each node to every registered rule that declares a matching
``visit_<NodeType>`` method — adding a rule never adds a parse or a traversal.
Rules receive a :class:`ModuleContext` and report through it, so the framework
owns finding bookkeeping, pragma suppression and ordering.

The framework is deliberately self-contained (stdlib only): the lint CI job
must stay fast and must never be broken by the scientific stack.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

from ..exceptions import ConfigurationError
from .findings import Finding

#: Pseudo-rule used for files the analyzer cannot parse.
PARSE_RULE_ID = "REP000"
PARSE_RULE_NAME = "parse-error"


class Rule:
    """Base class of every lint rule.

    Subclasses set the class attributes below and implement one or more
    ``visit_<NodeType>(self, node, ctx)`` methods (``visit_Call``,
    ``visit_ClassDef``, ...).  Rules must be stateless across modules — any
    per-module bookkeeping belongs in local variables of the visit method
    (both class-scoped rules here work on the ``ClassDef`` subtree they are
    handed, which makes them naturally self-contained).
    """

    rule_id: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether the rule runs on ``path`` at all (default: everywhere)."""
        return True


@dataclass
class ModuleContext:
    """Per-module state handed to every rule callback."""

    path: str
    findings: List[Finding] = field(default_factory=list)

    def report(
        self, rule: Rule, node: ast.AST, message: str, hint: str = ""
    ) -> None:
        """Record one violation of ``rule`` at ``node``."""
        self.findings.append(
            Finding(
                rule=rule.rule_id,
                name=rule.name,
                severity=rule.severity,
                path=self.path,
                line=int(getattr(node, "lineno", 1)),
                col=int(getattr(node, "col_offset", 0)),
                message=message,
                hint=hint,
            )
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry (id-unique)."""
    if not cls.rule_id or not cls.name:
        raise ConfigurationError(f"{cls.__name__} must define rule_id and name")
    existing = _REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"duplicate rule id {cls.rule_id}: {existing.__name__} vs {cls.__name__}"
        )
    _REGISTRY[cls.rule_id] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """Registered rule classes keyed by id (the shipped rules auto-register)."""
    _load_builtin_rules()
    return dict(_REGISTRY)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [cls() for _, cls in sorted(registered_rules().items())]


def _load_builtin_rules() -> None:
    # importing the package registers every built-in rule exactly once
    from . import rules as _rules  # noqa: F401


# --------------------------------------------------------------------------- #
# the walker
# --------------------------------------------------------------------------- #
def parse_source(source: str, path: str):
    """Parse one module: ``(tree, None)`` or ``(None, parse Finding)``.

    This is the *single* parse of a file — the per-file rule dispatch, the
    program-graph fact extraction and the pragma span expansion all reuse
    the tree it returns.
    """
    posix = str(Path(path).as_posix())
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Finding(
            rule=PARSE_RULE_ID,
            name=PARSE_RULE_NAME,
            severity="error",
            path=posix,
            line=int(exc.lineno or 1),
            col=int(exc.offset or 0),
            message=f"file does not parse: {exc.msg}",
            hint="the analyzer (and python) must be able to parse every module",
        )


def run_file_rules(
    tree: ast.Module, path: str, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """One walk of an already-parsed module; returns *unfiltered* findings."""
    active = list(rules) if rules is not None else default_rules()
    ctx = ModuleContext(path=str(Path(path).as_posix()))

    # one dispatch table per run: rule -> {node type name -> bound method}
    dispatch = []
    for rule in active:
        if not rule.applies_to(ctx.path):
            continue
        methods = {
            attr[len("visit_"):]: getattr(rule, attr)
            for attr in dir(type(rule))
            if attr.startswith("visit_")
        }
        if methods:
            dispatch.append((rule, methods))

    for node in ast.walk(tree):
        node_type = type(node).__name__
        for _rule, methods in dispatch:
            visitor = methods.get(node_type)
            if visitor is not None:
                visitor(node, ctx)
    return ctx.findings


def analyze_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    program_rules: Optional[Sequence] = None,
) -> List[Finding]:
    """Analyze one module's source text; returns pragma-filtered findings.

    This is :func:`analyze_paths`' pipeline over a one-module program, so
    the whole-program rules run too and cross-function properties inside
    one file (a model passed into an engine-named helper, a set iterated
    two functions away) are visible even without a multi-file tree.
    """
    from .program.build import analyze_sources

    return analyze_sources(
        {Path(path).as_posix(): source}, rules=rules, program_rules=program_rules
    ).findings


@dataclass
class LintResult:
    """Outcome of analyzing a set of paths."""

    findings: List[Finding]
    files_scanned: int
    suppressed: int

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through directly)."""
    seen = set()
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise ConfigurationError(f"no such path: {root}")
        candidates = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            if any(part.startswith(".") or part == "__pycache__" for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def analyze_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    program_rules: Optional[Sequence] = None,
) -> LintResult:
    """Analyze every Python file under ``paths`` as one program.

    Each file is parsed exactly once; the per-file rules and the
    whole-program rules both run over that single shared parse.
    """
    from .program.build import analyze_sources

    sources = {
        source.as_posix(): source.read_text(encoding="utf-8")
        for source in iter_python_files(paths)
    }
    return analyze_sources(sources, rules=rules, program_rules=program_rules)


__all__ = [
    "PARSE_RULE_ID",
    "PARSE_RULE_NAME",
    "Rule",
    "ModuleContext",
    "register_rule",
    "registered_rules",
    "default_rules",
    "analyze_source",
    "analyze_paths",
    "iter_python_files",
    "parse_source",
    "run_file_rules",
    "LintResult",
]
