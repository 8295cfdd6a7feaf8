"""Batched model-query engine: the chassis for scaling the testing loops.

This package turns the repository's hottest control flows — the operational
fuzzer, the black-box attacks and the reliability evidence collection — from
"one seed at a time, one query at a time" into batched, cache-aware bulk
queries:

* :mod:`repro.engine.batching` — :class:`BatchedQueryEngine`, the chunked and
  optionally memoizing front-end every subsystem funnels its model queries
  through, with :class:`QueryStats` accounting that separates logical queries
  from physical model calls.
* :mod:`repro.engine.population` — :class:`PopulationFuzzEngine`, the
  lock-step population loop behind the batched operational fuzzer.
* :mod:`repro.engine.parallel` — :class:`ShardedQueryEngine`, the
  thread-pool execution backend that spreads physical chunks across
  per-thread pickled model replicas with bit-identical results.

Subsystems select and construct engines through the runtime API
(:class:`repro.runtime.ExecutionPolicy` and the registered
:class:`repro.runtime.ModelBackend` implementations); future scaling work
(async dispatch, remote substrates) plugs in behind
:func:`repro.runtime.register_backend` without touching the subsystems.
"""

from .batching import (
    DEFAULT_BATCH_SIZE,
    BatchedQueryEngine,
    QueryCache,
    QueryStats,
    as_query_engine,
)
from .parallel import ShardedQueryEngine
from .population import (
    MemberOutcome,
    PopulationFuzzEngine,
    SeedTask,
    fitness_from_probs,
    pick_operator,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchedQueryEngine",
    "QueryCache",
    "QueryStats",
    "as_query_engine",
    "ShardedQueryEngine",
    "MemberOutcome",
    "PopulationFuzzEngine",
    "SeedTask",
    "fitness_from_probs",
    "pick_operator",
]
