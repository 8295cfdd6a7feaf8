"""``repro.analysis`` — AST-based static enforcement of the repo's invariants.

The reproduction's correctness story rests on contracts that are otherwise
enforced only at runtime or by convention: all model traffic flows through the
``ExecutionPolicy.build_engine()`` funnel, every stochastic component takes a
seeded ``Generator``, durations come from monotonic clocks, and
``to_dict``/``from_dict`` pairs round-trip exactly.  This package turns those
tribal rules into a static guardrail:

* a :class:`~repro.analysis.walker.Rule` protocol + registry with a
  single-parse, single-walk dispatcher (:func:`analyze_paths`);
* a whole-program layer (:mod:`repro.analysis.program`) — cross-module symbol
  table, call graph and taint fixpoints — powering the
  :class:`~repro.analysis.program.registry.ProgramRule` set (REP010
  interprocedural funnel escape, REP011 iteration-order nondeterminism),
  run over the same single parse of each file;
* structured :class:`~repro.analysis.findings.Finding` records with text,
  JSON and SARIF 2.1.0 reporters (the SARIF log feeds GitHub code scanning);
* inline suppression pragmas (``# repro: allow[rule-id]``) for intentional,
  justified exceptions — pragma spans cover decorated statements whole;
* a committed :class:`~repro.analysis.baseline.Baseline` so pre-existing debt
  is tracked without blocking CI, and ``--explain RULE`` documentation pulled
  straight from each rule's docstring.

Run it as ``python -m repro lint`` (see :mod:`repro.analysis.cli`); a
dedicated CI job fails on any non-baselined finding.  The package's own
modules are stdlib-only by design, so the analyzer can never be broken by the
scientific stack it lints; the package root loads its submodules lazily, so a
``python -m repro lint`` run imports neither NumPy nor SciPy.
"""

from .baseline import DEFAULT_BASELINE, Baseline
from .cli import main
from .explain import explain_rule, rule_doc_sections
from .findings import SEVERITIES, Finding, sort_findings
from .pragmas import collect_pragmas, expand_decorated_pragmas, is_suppressed
from .program import (
    ProgramGraph,
    ProgramRule,
    build_graph,
    default_program_rules,
    extract_facts,
    register_program_rule,
    registered_program_rules,
)
from .report import render_json, render_text
from .sarif import render_sarif
from .walker import (
    LintResult,
    ModuleContext,
    Rule,
    analyze_paths,
    analyze_source,
    default_rules,
    register_rule,
    registered_rules,
)

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE",
    "Finding",
    "LintResult",
    "ModuleContext",
    "ProgramGraph",
    "ProgramRule",
    "Rule",
    "SEVERITIES",
    "analyze_paths",
    "analyze_source",
    "build_graph",
    "collect_pragmas",
    "default_program_rules",
    "default_rules",
    "expand_decorated_pragmas",
    "explain_rule",
    "extract_facts",
    "is_suppressed",
    "main",
    "register_program_rule",
    "register_rule",
    "registered_program_rules",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_doc_sections",
    "sort_findings",
]
