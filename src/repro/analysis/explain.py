"""``python -m repro lint --explain REP00X`` — rule rationale on demand.

Every rule class carries its own documentation: the class docstring states
*why* the contract exists, an ``Example::`` block shows a violation, and a
``Fix::`` block shows the sanctioned alternative.  This module parses those
sections out of the docstring (single source of truth — the explanation can
never drift from the code that enforces it) and formats them for the
terminal.
"""

from __future__ import annotations

import inspect
import textwrap
from typing import Dict, List, Optional

from ..exceptions import ConfigurationError

#: Docstring section markers, in the order they must appear.
_SECTION_MARKERS = ("Example::", "Fix::")


def rule_doc_sections(cls: type) -> Dict[str, str]:
    """Split a rule class docstring into rationale / example / fix.

    The rationale is everything before ``Example::``; the example and fix are
    the (dedented) literal blocks following their markers.  Missing markers
    simply yield empty sections, so partially-documented rules still explain
    what they can.
    """
    doc = inspect.cleandoc(cls.__doc__ or "")
    sections = {"rationale": doc, "example": "", "fix": ""}
    head, _, tail = doc.partition("Example::")
    if tail:
        sections["rationale"] = head.rstrip()
        example, _, fix = tail.partition("Fix::")
        sections["example"] = textwrap.dedent(example).strip("\n")
        sections["fix"] = textwrap.dedent(fix).strip("\n")
    else:
        head, _, fix = doc.partition("Fix::")
        if fix:
            sections["rationale"] = head.rstrip()
            sections["fix"] = textwrap.dedent(fix).strip("\n")
    return sections


def _all_rules() -> List[object]:
    from .program.registry import default_program_rules
    from .walker import default_rules

    return list(default_rules()) + list(default_program_rules())


def find_rule(query: str) -> object:
    """Rule instance matching an id (``REP010``) or slug (``funnel-escape``)."""
    wanted = query.strip().lower()
    rules = _all_rules()
    for rule in rules:
        if rule.rule_id.lower() == wanted or rule.name.lower() == wanted:
            return rule
    known = ", ".join(f"{rule.rule_id}[{rule.name}]" for rule in rules)
    raise ConfigurationError(f"unknown rule {query!r}; known rules: {known}")


def _indent(block: str) -> str:
    return textwrap.indent(block, "    ")


def explain_rule(query: str) -> str:
    """Terminal-formatted explanation of one rule."""
    rule = find_rule(query)
    sections = rule_doc_sections(type(rule))
    lines: List[str] = [
        f"{rule.rule_id} [{rule.name}] ({rule.severity})",
        f"  {rule.description}",
        "",
    ]
    if sections["rationale"]:
        lines.append(sections["rationale"])
        lines.append("")
    if sections["example"]:
        lines += ["Example:", _indent(sections["example"]), ""]
    if sections["fix"]:
        lines += ["Fix:", _indent(sections["fix"]), ""]
    lines.append(
        f"Suppress one justified site with: # repro: allow[{rule.name}] <why>"
    )
    return "\n".join(lines)


__all__ = ["explain_rule", "find_rule", "rule_doc_sections"]
