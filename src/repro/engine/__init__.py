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

Subsystems build their engine through the runtime API
(:meth:`repro.runtime.ExecutionPolicy.build_engine`), which sets its batch
size and cache from the campaign's policy.
"""

from .batching import (
    DEFAULT_BATCH_SIZE,
    BatchedQueryEngine,
    QueryCache,
    QueryStats,
    as_query_engine,
)
from .population import (
    PopulationFuzzEngine,
    SeedBatch,
    SeedFuzzResult,
    fitness_from_probs,
    pick_operator,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchedQueryEngine",
    "QueryCache",
    "QueryStats",
    "as_query_engine",
    "PopulationFuzzEngine",
    "SeedBatch",
    "SeedFuzzResult",
    "fitness_from_probs",
    "pick_operator",
]
