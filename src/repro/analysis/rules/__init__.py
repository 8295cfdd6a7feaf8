"""The repo-specific invariant rules.

Importing this package registers every built-in rule with the walker's
registry.  Each rule guards one contract the reproduction's correctness story
depends on:

========  ================  ====================================================
id        slug              contract
========  ================  ====================================================
REP001    engine-funnel     all model traffic flows through
                            ``ExecutionPolicy.build_engine()``
REP002    rng-discipline    no global-state NumPy RNG; every stochastic call
                            takes a seeded ``Generator``
REP005    dict-round-trip   ``to_dict``/``from_dict`` pairs agree on their key
                            set (serialization cannot drift silently)
REP008    clock-discipline  no wall-clock reads (``time.time()``/
                            ``datetime.now()``/…) outside ``repro.telemetry``;
                            durations/deadlines stay monotonic
========  ================  ====================================================

REP001, REP002, REP005 and REP008 are per-file rules (one module at a
time); REP010 and REP011 are whole-program rules run over the cross-module
:class:`~repro.analysis.program.graph.ProgramGraph`:

========  ================  ====================================================
id        slug              contract
========  ================  ====================================================
REP010    funnel-escape     model-typed values cannot dodge the engine funnel
                            through helpers, returns or engine-named
                            parameters (interprocedural REP001)
REP011    iteration-order   no unordered set iteration feeds merged stats,
                            serialized artifacts or query order
                            (hash-order nondeterminism)
========  ================  ====================================================

REP003, REP004, REP006, REP007 and REP009 are retired together with what
they guarded; their ids are never reused.
"""

from .clocks import ClockDisciplineRule
from .flow import FunnelEscapeRule
from .funnel import EngineFunnelRule
from .iteration import IterationOrderRule
from .rng import RngDisciplineRule
from .roundtrip import DictRoundTripRule

__all__ = [
    "EngineFunnelRule",
    "RngDisciplineRule",
    "DictRoundTripRule",
    "ClockDisciplineRule",
    "FunnelEscapeRule",
    "IterationOrderRule",
]
