"""Program-rule protocol and registry — the whole-program sibling of
:class:`repro.analysis.walker.Rule`.

A per-file rule sees one module's AST; a :class:`ProgramRule` sees the whole
:class:`~.graph.ProgramGraph` at once and emits findings anywhere in the
tree.  Program rules run *after* every module's facts are available: they
are pure functions of the graph, cheap next to parsing, and global by
nature — a model that escapes the funnel through a helper in another
module has no single owning file.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ...exceptions import ConfigurationError
from ..findings import Finding
from .graph import ProgramGraph


class ProgramRule:
    """Base class of every whole-program rule.

    Subclasses set the same metadata attributes as per-file rules and
    implement :meth:`check`, returning findings anchored wherever in the tree
    the evidence lives.  Pragma suppression is applied by the framework using
    each file's pragma map, so rules just report.
    """

    rule_id: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, program: ProgramGraph) -> List[Finding]:
        raise NotImplementedError

    # shared helper: report construction mirroring ModuleContext.report
    def finding(
        self, path: str, lineno: int, message: str, hint: str = ""
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            name=self.name,
            severity=self.severity,
            path=path,
            line=int(lineno),
            col=0,
            message=message,
            hint=hint,
        )


_PROGRAM_REGISTRY: Dict[str, Type[ProgramRule]] = {}


def register_program_rule(cls: Type[ProgramRule]) -> Type[ProgramRule]:
    """Class decorator adding a program rule to the registry (id-unique)."""
    if not cls.rule_id or not cls.name:
        raise ConfigurationError(f"{cls.__name__} must define rule_id and name")
    existing = _PROGRAM_REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"duplicate program rule id {cls.rule_id}: "
            f"{existing.__name__} vs {cls.__name__}"
        )
    _PROGRAM_REGISTRY[cls.rule_id] = cls
    return cls


def registered_program_rules() -> Dict[str, Type[ProgramRule]]:
    """Registered program-rule classes keyed by id."""
    _load_builtin_rules()
    return dict(_PROGRAM_REGISTRY)


def default_program_rules() -> List[ProgramRule]:
    """Fresh instances of every registered program rule, in id order."""
    return [cls() for _, cls in sorted(registered_program_rules().items())]


def _load_builtin_rules() -> None:
    # importing the rules package registers every built-in rule exactly once
    from .. import rules as _rules  # noqa: F401


__all__ = [
    "ProgramRule",
    "default_program_rules",
    "register_program_rule",
    "registered_program_rules",
]
