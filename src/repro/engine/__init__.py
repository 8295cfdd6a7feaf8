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
  multi-worker execution backend that shards physical chunks across a pool
  of pickled model replicas with bit-identical results.
* :mod:`repro.engine.transport` — how shard row blocks travel to the
  workers: the pickle wire, zero-copy shared-memory ring buffers, or an
  in-process thread pool (``transport="pickle" | "shm" | "threads"``,
  default ``"auto"`` by block size).  Transport never changes results.

Subsystems select and construct engines through the runtime API
(:class:`repro.runtime.ExecutionPolicy` and the registered
:class:`repro.runtime.ModelBackend` implementations); future scaling work
(async dispatch, remote substrates) plugs in behind
:func:`repro.runtime.register_backend` without touching the subsystems.
"""

from .batching import (
    DEFAULT_BATCH_SIZE,
    BatchedQueryEngine,
    CacheBackend,
    QueryCache,
    QueryStats,
    as_query_engine,
)
from .parallel import Shard, ShardedQueryEngine, plan_shards
from .population import (
    MemberOutcome,
    PopulationFuzzEngine,
    SeedTask,
    fitness_from_probs,
    pick_operator,
)
from .transport import SHM_MIN_BLOCK_BYTES, TRANSPORTS, validate_transport

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchedQueryEngine",
    "CacheBackend",
    "QueryCache",
    "QueryStats",
    "as_query_engine",
    "Shard",
    "ShardedQueryEngine",
    "plan_shards",
    "MemberOutcome",
    "PopulationFuzzEngine",
    "SeedTask",
    "fitness_from_probs",
    "pick_operator",
    "TRANSPORTS",
    "SHM_MIN_BLOCK_BYTES",
    "validate_transport",
]
