"""Build the whole program once and run every rule over it.

This is the analysis pipeline behind ``python -m repro lint``:

1. parse each file once, dispatch the per-file rules over the tree, extract
   its :class:`~.facts.ModuleFacts` and expand its pragma map;
2. assemble the :class:`~.graph.ProgramGraph` from all facts and run the
   registered whole-program rules (REP010/REP011) over it;
3. pragma-filter every finding with its file's pragma map and merge them
   into one :class:`~..walker.LintResult`.

A single module is the same pipeline over a one-module program.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..findings import Finding, sort_findings
from ..pragmas import collect_pragmas, expand_decorated_pragmas, is_suppressed
from ..walker import LintResult, Rule, default_rules, parse_source, run_file_rules
from .facts import ModuleFacts, extract_facts
from .graph import build_graph
from .registry import ProgramRule, default_program_rules


def analyze_sources(
    sources: Mapping[str, str],
    rules: Optional[Sequence[Rule]] = None,
    program_rules: Optional[Sequence[ProgramRule]] = None,
) -> LintResult:
    """Analyze ``{posix path: source}`` as one program."""
    active_rules = list(rules) if rules is not None else default_rules()
    active_program_rules = (
        list(program_rules) if program_rules is not None else default_program_rules()
    )
    findings: List[Finding] = []
    pragmas: Dict[str, Dict[int, Set[str]]] = {}
    modules: List[ModuleFacts] = []
    for path, source in sources.items():
        tree, parse_failure = parse_source(source, path)
        if tree is None:
            findings.append(parse_failure)
            continue
        pragmas[path] = expand_decorated_pragmas(tree, collect_pragmas(source))
        findings.extend(run_file_rules(tree, path, active_rules))
        modules.append(extract_facts(tree, path))

    graph = build_graph(modules)
    for rule in active_program_rules:
        findings.extend(rule.check(graph))

    kept = [
        finding
        for finding in findings
        if not is_suppressed(
            pragmas.get(finding.path, {}), finding.line, finding.rule, finding.name
        )
    ]
    return LintResult(
        findings=sort_findings(kept),
        files_scanned=len(sources),
        suppressed=len(findings) - len(kept),
    )


__all__ = ["analyze_sources"]
