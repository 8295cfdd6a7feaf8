"""``repro.analysis.program`` — whole-program analysis for the linter.

The per-file rules (REP001–REP008) see one module at a time; the invariants
the codebase now lives by are cross-module: lock acquisition spans the
``telemetry`` modules, model
objects flow through ``ExecutionPolicy.build_engine()`` across package
boundaries, and bit-identity depends on iteration-order discipline wherever
results merge.  This package parses the tree once into per-module
:class:`~.facts.ModuleFacts`, assembles a :class:`~.graph.ProgramGraph`
(symbol table + call graph + lock graph + taint fixpoints) and runs the
registered :class:`~.registry.ProgramRule` set (REP009 lock-ordering,
REP010 interprocedural funnel escape, REP011 iteration-order
nondeterminism) over it.

Per-file work — parse, per-file rules, fact extraction, pragma maps — is
cached on disk by content hash (:class:`~.cache.ProgramCache`), so a warm
``python -m repro lint`` re-analyzes only changed files; cold runs can fan
parsing across a process pool.  Whole-program resolution is recomputed from
the cached facts every run: it is cheap, and global findings have no single
owning file to cache them under.
"""

from .build import (
    MIN_FILES_FOR_POOL,
    ProgramAnalysis,
    analyze_program,
)
from .cache import (
    CACHE_VERSION,
    DEFAULT_CACHE_DIR,
    FileRecord,
    ProgramCache,
    analysis_fingerprint,
)
from .facts import (
    ClassFacts,
    FunctionFacts,
    ImportFact,
    ModuleFacts,
    content_hash,
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
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "MIN_FILES_FOR_POOL",
    "ClassFacts",
    "FileRecord",
    "FunctionFacts",
    "ImportFact",
    "ModuleFacts",
    "ProgramAnalysis",
    "ProgramCache",
    "ProgramGraph",
    "ProgramRule",
    "SymbolRef",
    "analysis_fingerprint",
    "analyze_program",
    "build_graph",
    "content_hash",
    "default_program_rules",
    "extract_facts",
    "module_name_for",
    "register_program_rule",
    "registered_program_rules",
]
