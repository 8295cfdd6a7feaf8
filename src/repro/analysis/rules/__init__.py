"""The repo-specific invariant rules.

Importing this package registers every built-in rule with the walker's
registry.  Each rule guards one contract the reproduction's correctness story
depends on:

========  ================  ====================================================
id        slug              contract
========  ================  ====================================================
REP001    engine-funnel     all model traffic flows through
                            ``ExecutionPolicy.build_engine()`` → ``ModelBackend``
REP002    rng-discipline    no global-state NumPy RNG; every stochastic call
                            takes a seeded ``Generator``
REP004    lock-discipline   attributes mutated under a ``self._lock`` block are
                            never touched lock-free elsewhere in the class
REP005    dict-round-trip   ``to_dict``/``from_dict`` pairs agree on their key
                            set (serialization cannot drift silently)
REP006    timeout-discipline no unbounded cross-process waits (bare
                            ``future.result()``/``queue.get()``) or raw
                            executor dispatch outside ``repro.faults``
REP007    shm-lifecycle     no ``SharedMemory`` creation without paired
                            ``unlink()``/``close()`` cleanup (leaked segments
                            outlive the process)
REP008    clock-discipline  no wall-clock reads (``time.time()``/
                            ``datetime.now()``/…) outside ``repro.telemetry``;
                            durations/deadlines stay monotonic
========  ================  ====================================================

REP001, REP002 and REP004–REP008 are per-file rules (one module at a time;
REP003 is retired and its id is not reused); REP009–REP011 are whole-program
rules run over the cross-module
:class:`~repro.analysis.program.graph.ProgramGraph`:

========  ================  ====================================================
id        slug              contract
========  ================  ====================================================
REP009    lock-ordering     the cross-module lock-acquisition graph is acyclic
                            and no thread re-acquires a non-reentrant lock it
                            already holds (static deadlock detection)
REP010    funnel-escape     model-typed values cannot dodge the engine funnel
                            through helpers, returns or engine-named
                            parameters (interprocedural REP001)
REP011    iteration-order   no unordered set iteration feeds merged stats,
                            serialized artifacts or shard planning
                            (hash-order nondeterminism)
========  ================  ====================================================
"""

from .clocks import ClockDisciplineRule
from .flow import FunnelEscapeRule
from .funnel import EngineFunnelRule
from .iteration import IterationOrderRule
from .lockorder import LockOrderingRule
from .locks import LockDisciplineRule
from .rng import RngDisciplineRule
from .roundtrip import DictRoundTripRule
from .shm import ShmLifecycleRule
from .timeouts import TimeoutDisciplineRule

__all__ = [
    "EngineFunnelRule",
    "RngDisciplineRule",
    "LockDisciplineRule",
    "DictRoundTripRule",
    "TimeoutDisciplineRule",
    "ShmLifecycleRule",
    "ClockDisciplineRule",
    "LockOrderingRule",
    "FunnelEscapeRule",
    "IterationOrderRule",
]
