"""``repro.analysis.program`` — whole-program analysis for the linter.

The per-file rules (REP001–REP008) see one module at a time; some of the
invariants the codebase lives by are cross-module: model objects flow
through ``ExecutionPolicy.build_engine()`` across package boundaries, and
bit-identity depends on iteration-order discipline wherever results merge.
This package parses the tree once into per-module
:class:`~.facts.ModuleFacts`, assembles a :class:`~.graph.ProgramGraph`
(symbol table + call graph + taint fixpoints) and runs the registered
:class:`~.registry.ProgramRule` set (REP010 interprocedural funnel escape,
REP011 iteration-order nondeterminism) over it.

Each file is parsed once per run: the per-file rules, the fact extraction
and the pragma map share that tree (:func:`~.build.analyze_sources`).
"""

from .build import analyze_sources
from .facts import (
    ClassFacts,
    FunctionFacts,
    ImportFact,
    ModuleFacts,
    extract_facts,
    module_name_for,
)
from .graph import ProgramGraph, SymbolRef, build_graph
from .registry import (
    ProgramRule,
    default_program_rules,
    register_program_rule,
    registered_program_rules,
)

__all__ = [
    "ClassFacts",
    "FunctionFacts",
    "ImportFact",
    "ModuleFacts",
    "ProgramGraph",
    "ProgramRule",
    "SymbolRef",
    "analyze_sources",
    "build_graph",
    "default_program_rules",
    "extract_facts",
    "module_name_for",
    "register_program_rule",
    "registered_program_rules",
]
