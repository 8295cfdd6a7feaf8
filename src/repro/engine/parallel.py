"""Sharded multi-worker dispatch behind the batched query engine.

:class:`ShardedQueryEngine` is the scaling step the ROADMAP carved out after
the batching chassis (PR 2): instead of servicing every physical chunk in the
coordinator process, the chunks of one logical ``predict`` /
``predict_proba`` / ``loss_input_gradient`` / naturalness call are *sharded*
across a pool of worker processes, each holding a pickled replica of the
model (and naturalness scorer) under test.

Determinism is the design constraint — a parallel campaign that silently
changes results is worthless for a reliability paper — and it is achieved by
construction rather than by tolerance thresholds:

* **Identical shard boundaries.**  Shards are exactly the ``batch_size``
  chunks the in-process :class:`BatchedQueryEngine` would have produced, so
  every worker computes ``model.predict_proba`` on bit-identical matrices.
* **Deterministic shard→worker assignment.**  Shard ``i`` always runs on
  worker ``i % num_workers`` (each worker is its own single-process
  executor), and results are concatenated in shard order regardless of
  completion order.
* **Exact replicas.**  The model and scorer are snapshot once with
  :mod:`pickle` when the pool starts; NumPy arrays round-trip bit-exactly,
  so replica outputs equal coordinator outputs.

Together these make the sharded path *bit-identical* to the batched path
(and therefore to the sequential reference campaigns) — the scenario-matrix
suite in ``tests/test_parallel_engine.py`` pins this.

Bookkeeping is race-free under concurrent shard completion: every worker
returns a per-shard :class:`QueryStats` delta that is merged into the
engine's counters through a single locked merge point (:meth:`_absorb`),
and the memoizing cache lives in the coordinator behind the same lock — a
row computed by one worker is answered from the cache for every other
worker, so repeated rows cost one physical call across the whole pool.
Cache lookups happen *before* dispatch, so rows served over any transport
(pickle, shared memory, threads) hit the same coordinator cache.

**Transports.**  *Where* a shard runs (the worker pool) is independent of
*how* its row block gets there.  Three transports are available via the
``transport`` knob (see :mod:`repro.engine.transport`): ``"pickle"`` (the
historical per-task pickling), ``"shm"`` (preallocated
:mod:`multiprocessing.shared_memory` ring buffers — the coordinator writes
each block once, workers read zero-copy, and only tiny envelopes ride the
pool, which is what turned the multi-worker slowdown into a speedup), and
``"threads"`` (an in-process thread pool with per-thread replicas for
GIL-releasing BLAS models — no IPC at all).  ``"auto"`` (default) picks
pickle vs shm per logical call by block size.  Every transport moves the
same chunk boundaries carrying the same bytes, so results stay
bit-identical — the transport matrix in ``tests/test_parallel_engine.py``
is the acceptance gate.

Sharding pays off when the per-chunk compute (large models, KDE/autoencoder
naturalness, wide matrices) dominates the transport round-trip and the
machine has idle cores; on a single-core host or for tiny per-row work the
in-process engine is faster.  ``num_workers=1`` therefore short-circuits to
in-process execution (the coordinator is the only worker) while keeping the
sharded accounting path, which makes it the honest baseline for the scaling
benchmark.

Pool dispatch runs under a :class:`repro.faults.ShardSupervisor`: every
worker stamps a shared heartbeat as shards arrive, dead or hung workers are
detected against the :class:`repro.faults.RetryPolicy` deadline, their lost
shards are re-planned deterministically onto survivors, and the slot is
respawned within a bounded budget.  Supervision composes with the
shared-memory transport: a respawned worker process simply reattaches to
its segments by name on its next staged shard, slots staged on a killed
worker are reclaimed the moment its process is buried, and degradation to
in-process execution unlinks every segment (nothing to leak once the pool
is gone).  When the pool is exhausted the engine degrades to in-process
execution of the remaining chunks — same boundaries, same order,
bit-identical results.  A seeded :class:`repro.faults.FaultPlan` can be
installed to inject worker kills and shard delays reproducibly (the chaos
suite and ``benchmarks/bench_faults.py`` drive exactly this path).
"""

from __future__ import annotations

import pickle
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import multiprocessing

import numpy as np

from .. import telemetry
from ..exceptions import ConfigurationError
from ..faults.heartbeat import WorkerHeartbeat
from ..faults.injection import FaultPlan, WorkerRuntime
from ..faults.retry import RetryPolicy
from ..faults.supervision import ShardSupervisor
from ..naturalness.metrics import NaturalnessScorer
from ..telemetry import clock
from ..types import Classifier
from .batching import (
    DEFAULT_BATCH_SIZE,
    BatchedQueryEngine,
    QueryStats,
    _iter_chunks,
)
from .transport import (
    SLOT_HEADROOM,
    RingPair,
    ShmStaging,
    read_request,
    release_rings,
    request_block_bytes,
    resolve_auto_transport,
    validate_transport,
    write_response,
)

# --------------------------------------------------------------------------- #
# shard planning
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Shard:
    """One physical chunk of a logical call, pinned to a worker.

    Attributes
    ----------
    index:
        Position of the shard in the logical call (concatenation order).
    start, stop:
        Row slice of the logical matrix this shard covers.
    worker:
        Worker the shard is assigned to (``index % num_workers``).
    """

    index: int
    start: int
    stop: int
    worker: int


def plan_shards(n: int, batch_size: int, num_workers: int) -> List[Shard]:
    """Plan the shards of an ``n``-row call: chunk boundaries + assignment.

    The boundaries are exactly the chunks :class:`BatchedQueryEngine` would
    process in-process (``batch_size`` rows each, last one ragged), and the
    assignment is the deterministic round-robin ``index % num_workers`` —
    two calls with the same arguments always produce the same plan.
    """
    if n < 0:
        raise ConfigurationError("row count must be non-negative")
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive")
    if num_workers <= 0:
        raise ConfigurationError("num_workers must be positive")
    return [
        Shard(index=i, start=start, stop=stop, worker=i % num_workers)
        for i, (start, stop) in enumerate(_iter_chunks(n, batch_size))
    ]


# --------------------------------------------------------------------------- #
# shard computations (shared by workers and the in-process fallback)
# --------------------------------------------------------------------------- #
def _shard_predict_proba(
    model: Classifier, chunk: np.ndarray
) -> Tuple[np.ndarray, QueryStats]:
    return np.asarray(model.predict_proba(chunk), dtype=float), QueryStats(model_calls=1)


def _shard_gradient(
    model: Classifier, x: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, QueryStats]:
    return (
        np.asarray(model.loss_input_gradient(x, y), dtype=float),
        QueryStats(gradient_calls=1),
    )


def _shard_naturalness(
    naturalness: NaturalnessScorer, chunk: np.ndarray
) -> Tuple[np.ndarray, QueryStats]:
    return np.asarray(naturalness.score(chunk), dtype=float), QueryStats(
        naturalness_calls=1
    )


def _replica_subject(replica, replica_slot: int):
    """The model (slot 0) or naturalness scorer (slot 1) of a replica."""
    subject = replica[replica_slot]
    if subject is None:
        raise ConfigurationError("worker replica has no naturalness scorer")
    return subject


#: Call kinds: kind -> (shard computation, replica slot).  The shard
#: computation is shared verbatim by every execution path — process workers
#: (pickle and shm transports), thread workers and the in-process fallback —
#: which is what keeps transports bit-identical by construction.
_SHARD_KINDS = {
    "proba": (_shard_predict_proba, 0),
    "grad": (_shard_gradient, 0),
    "nat": (_shard_naturalness, 1),
}


#: Per-worker replica of ``(model, naturalness)``, installed by the pool
#: initializer.  Module-level so task functions pickle by reference.
_REPLICA: Optional[Tuple[Classifier, Optional[NaturalnessScorer]]] = None

#: Per-worker heartbeat/fault-injection hooks (see :mod:`repro.faults`).
_RUNTIME: Optional[WorkerRuntime] = None


def _install_worker(
    payload: bytes,
    worker_index: int,
    heartbeat,
    plan: Optional[FaultPlan],
    telemetry_on: bool = False,
) -> None:
    """Pool initializer: unpack the replica and arm the worker runtime.

    Always re-initialises worker telemetry: under the ``fork`` start method
    the child inherits the coordinator's live session object, which must be
    cleared so worker spans go into the worker's private collector (shipped
    back on shard results) instead of a dead copy of the coordinator ring.
    """
    global _REPLICA, _RUNTIME
    _REPLICA = pickle.loads(payload)
    _RUNTIME = WorkerRuntime(worker_index, heartbeat, plan)
    telemetry.arm_process_worker(worker_index, telemetry_on)


def _on_shard(shard_index: int) -> None:
    """Top of every shard task: stamp the heartbeat, apply injected faults."""
    if _RUNTIME is not None:
        _RUNTIME.on_shard(shard_index)


def _worker_shard(kind: str, shard_index: int, *arrays):
    """Process-worker task, pickle transport: arrays arrive on the wire.

    When the worker is telemetry-armed the result grows a third element —
    the drained span payload — which the supervisor's harvest unpacks and
    merges; unarmed workers keep the plain 2-tuple wire format.
    """
    _on_shard(shard_index)
    shard_fn, replica_slot = _SHARD_KINDS[kind]
    if not telemetry.worker_armed():
        return shard_fn(_replica_subject(_REPLICA, replica_slot), *arrays)
    with telemetry.span(
        f"shard-{shard_index}", "shard",
        kind=kind, rows=len(arrays[0]), transport="pickle",
    ):
        values, delta = shard_fn(_replica_subject(_REPLICA, replica_slot), *arrays)
    return values, delta, telemetry.drain_worker_payload()


def _worker_shard_shm(kind: str, shard_index: int, envelope):
    """Process-worker task, shm transport: only the envelope rides the wire.

    The row block is read zero-copy from the request ring (reattaching by
    name — which is also how a respawned worker process finds its segments
    again) and the result lands in the response ring; the returned payload
    is just ``("shm", (offset, shape, dtype))`` plus the stats delta, or an
    inline array when the result outgrew its slot.
    """
    _on_shard(shard_index)
    shard_fn, replica_slot = _SHARD_KINDS[kind]
    views = read_request(envelope)
    if not telemetry.worker_armed():
        values, delta = shard_fn(_replica_subject(_REPLICA, replica_slot), *views)
        return write_response(envelope, values), delta
    with telemetry.span(
        f"shard-{shard_index}", "shard",
        kind=kind, rows=len(views[0]), transport="shm",
    ):
        values, delta = shard_fn(_replica_subject(_REPLICA, replica_slot), *views)
    return write_response(envelope, values), delta, telemetry.drain_worker_payload()


#: Thread-worker state: one replica per worker *thread* (installed by the
#: thread-pool initializer).  Per-thread replicas keep bit-identity without
#: requiring the model's forward pass to be re-entrant — several nn layers
#: cache activations on ``self`` during ``forward``.
_THREAD_STATE = threading.local()


def _install_thread_worker(
    payload: bytes,
    worker_index: int,
    heartbeat,
    plan: Optional[FaultPlan],
) -> None:
    _THREAD_STATE.replica = pickle.loads(payload)
    _THREAD_STATE.runtime = WorkerRuntime(worker_index, heartbeat, plan)


def _thread_shard(kind: str, shard_index: int, *arrays) -> Tuple[np.ndarray, QueryStats]:
    """Thread-worker task: arrays pass by reference — no IPC at all.

    Thread workers share the coordinator's address space, so their spans go
    straight into the live session (no wire payload) — but tagged onto the
    worker lane, keeping ``repro trace`` timelines uniform across transports.
    """
    runtime = getattr(_THREAD_STATE, "runtime", None)
    if runtime is not None:
        runtime.on_shard(shard_index)
    shard_fn, replica_slot = _SHARD_KINDS[kind]
    if not telemetry.enabled():
        return shard_fn(_replica_subject(_THREAD_STATE.replica, replica_slot), *arrays)
    started = clock.monotonic()
    values, delta = shard_fn(_replica_subject(_THREAD_STATE.replica, replica_slot), *arrays)
    telemetry.record_span(
        f"shard-{shard_index}", "shard", started, clock.monotonic() - started,
        proc="worker",
        worker=runtime.worker_index if runtime is not None else -1,
        attrs={"kind": kind, "rows": len(arrays[0]), "transport": "threads"},
    )
    return values, delta


def _shutdown_pools(pools: Sequence[ProcessPoolExecutor]) -> None:
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


class _LockedCache:
    """Coordinator-side cache wrapper serialising access under the engine lock.

    The memoizing cache is deliberately held in the coordinator (not in a
    ``multiprocessing`` manager): lookups happen *before* shards are
    dispatched, so a row any worker has ever computed is answered without
    touching the pool again — shared across workers by construction, without
    per-row IPC.  The lock makes the accounting safe even when future code
    touches the cache from shard-completion callbacks.
    """

    def __init__(self, inner, lock: threading.Lock) -> None:
        self._inner = inner
        self._lock = lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._inner)

    def get(self, row: np.ndarray):
        with self._lock:
            return self._inner.get(row)

    def put(self, row: np.ndarray, value: np.ndarray) -> None:
        with self._lock:
            self._inner.put(row, value)

    def clear(self) -> None:
        with self._lock:
            self._inner.clear()


# --------------------------------------------------------------------------- #
# the sharded engine
# --------------------------------------------------------------------------- #
class ShardedQueryEngine(BatchedQueryEngine):
    """Multi-worker execution backend behind the batched query engine.

    Drop-in for :class:`BatchedQueryEngine` (same constructor surface plus
    ``num_workers``/``start_method``/``transport``); all logical semantics —
    chunk boundaries, caching, :class:`QueryStats` meanings — are inherited,
    only the physical execution of chunks moves to worker processes (or
    threads).

    Parameters
    ----------
    model, naturalness, batch_size, cache, cache_max_entries:
        As for :class:`BatchedQueryEngine`.
    num_workers:
        Worker processes (or threads) to shard physical calls across.  ``1``
        executes in-process (no pool, no transport) but keeps the sharded
        accounting path, making it the honest single-worker baseline.
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"`` on Linux by
        default).  Workers receive the model via an explicit pickle snapshot
        either way, so replica semantics do not depend on it.  Ignored by
        the thread transport.
    transport:
        How row blocks reach the workers: ``"pickle"`` (per-task pickling),
        ``"shm"`` (zero-copy shared-memory ring buffers), ``"threads"``
        (in-process thread pool with per-thread replicas) or ``"auto"``
        (default: pickle vs shm chosen per logical call by block size).
        Transport never changes results — see :mod:`repro.engine.transport`.
    retry:
        :class:`repro.faults.RetryPolicy` governing supervision: heartbeat
        deadline, respawn budget, retry budget, and whether an exhausted
        pool fails the campaign or degrades to in-process execution.
        ``None`` uses the defaults.
    faults:
        Optional :class:`repro.faults.FaultPlan` injecting deterministic
        worker kills and shard delays — the chaos-test hook.  ``None``
        (the default) injects nothing.  Kill actions require process
        workers (a thread cannot be SIGKILLed in isolation), so plans with
        kills are rejected under ``transport="threads"``.

    Notes
    -----
    The worker pool snapshots the model lazily on first dispatch; mutating
    the model afterwards (e.g. retraining in place) is not reflected in the
    replicas — build a fresh engine per campaign, as every call site in this
    repository does, or call :meth:`close` to force a re-snapshot.

    Shared-memory footprint: per worker, the request and response rings are
    sized to that worker's planned shards (+ :data:`SLOT_HEADROOM` for
    re-planned shards), so one dispatch maps roughly twice its input matrix
    across all workers.  Rings persist across dispatches (grow-only) and
    are unlinked on :meth:`close`, on degradation, and by a finalizer.
    """

    def __init__(
        self,
        model: Classifier,
        naturalness: Optional[NaturalnessScorer] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache: object = False,
        cache_max_entries: int = 65536,
        num_workers: int = 2,
        start_method: Optional[str] = None,
        transport: str = "auto",
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(
            model,
            naturalness=naturalness,
            batch_size=batch_size,
            cache=cache,
            cache_max_entries=cache_max_entries,
        )
        if num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        validate_transport(transport)
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigurationError(
                f"retry must be a RetryPolicy or None, got {type(retry).__name__}"
            )
        if faults is not None and not isinstance(faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a FaultPlan or None, got {type(faults).__name__}"
            )
        if transport == "threads" and faults is not None and faults.kills:
            raise ConfigurationError(
                "FaultPlan kill actions require process workers (a thread "
                "cannot be SIGKILLed in isolation); use transport='pickle' "
                "or 'shm' for kill-injection chaos runs"
            )
        self.num_workers = int(num_workers)
        self.start_method = start_method
        self.transport = transport
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self._lock = threading.Lock()
        if self.cache is not None:
            self.cache = _LockedCache(self.cache, self._lock)
        self._pools: Optional[List[ProcessPoolExecutor]] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._payload: Optional[bytes] = None
        self._context = None
        self._heartbeat: Optional[WorkerHeartbeat] = None
        self._supervisor: Optional[ShardSupervisor] = None
        # shared-memory transport state: the ring list is identity-stable
        # (the finalizer below holds it) and populated lazily per worker
        self._rings: List[RingPair] = []
        self._rings_finalizer: Optional[weakref.finalize] = None
        self._response_bytes_hint = 0
        self._active_staging: Optional[ShmStaging] = None
        # whether the *current pool generation* was spawned telemetry-armed;
        # snapshotted at pool creation so respawned slots match their peers
        self._telemetry_pool = False

    @property
    def naturalness(self) -> Optional[NaturalnessScorer]:
        return self._naturalness

    @naturalness.setter
    def naturalness(self, scorer: Optional[NaturalnessScorer]) -> None:
        # replicas snapshot (model, naturalness) when the pool starts; a
        # scorer attached afterwards (as_query_engine does this on
        # pass-through) must invalidate the pool so the next
        # dispatch re-snapshots — otherwise workers would raise on their
        # scorer-less replica
        self._naturalness = scorer
        if getattr(self, "_pools", None) is not None:
            self.close()

    # ------------------------------------------------------------------ #
    # overridden physical execution
    # ------------------------------------------------------------------ #
    def _predict_proba_chunked(self, x: np.ndarray) -> np.ndarray:
        return self._dispatch("proba", (x,))

    def loss_input_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sharded input gradients (same chunk scaling note as the base class)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=int))
        n = len(x)
        self._absorb(QueryStats(gradient_rows=n))
        if n == 0:
            return np.zeros_like(x)
        return self._dispatch("grad", (x, y))

    def score_naturalness(self, x: np.ndarray) -> np.ndarray:
        """Sharded naturalness scores for every row."""
        if self.naturalness is None:
            raise ConfigurationError("engine was built without a naturalness scorer")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = len(x)
        self._absorb(QueryStats(naturalness_rows=n))
        if n == 0:
            return np.zeros(0)
        return self._dispatch("nat", (x,))

    # ------------------------------------------------------------------ #
    # dispatch machinery
    # ------------------------------------------------------------------ #
    def _call_transport(self, arrays: Tuple[np.ndarray, ...]) -> str:
        """Resolve the transport for one logical call (``auto`` by block size)."""
        if self.transport != "auto":
            return self.transport
        rows = min(self.batch_size, len(arrays[0]))
        return resolve_auto_transport(request_block_bytes(arrays, rows))

    def _dispatch(self, kind: str, arrays: Tuple[np.ndarray, ...]) -> np.ndarray:
        """Run one logical call: plan shards, execute, merge stats, reassemble.

        ``kind`` selects the shard computation (see :data:`_SHARD_KINDS`);
        the same computation backs the pool replicas, the thread replicas
        and the coordinator's in-process fallback (the ``num_workers == 1``
        path and the degradation fallback).
        """
        shards = plan_shards(len(arrays[0]), self.batch_size, self.num_workers)
        shard_fn, replica_slot = _SHARD_KINDS[kind]
        subject = self.model if replica_slot == 0 else self.naturalness

        def run_local(shard: Shard) -> Tuple[np.ndarray, QueryStats]:
            return shard_fn(subject, *(a[shard.start : shard.stop] for a in arrays))

        traced = telemetry.enabled()
        dispatch_started = clock.monotonic() if traced else 0.0
        if self.num_workers == 1:
            pieces: List[np.ndarray] = []
            for shard in shards:
                started = clock.monotonic() if traced else 0.0
                values, delta = run_local(shard)
                self._absorb(delta)
                pieces.append(values)
                if traced:
                    telemetry.record_span(
                        f"shard-{shard.index}", "shard",
                        started, clock.monotonic() - started,
                        attrs={
                            "kind": kind,
                            "rows": shard.stop - shard.start,
                            "transport": "local",
                        },
                    )
        else:
            pools, supervisor = self._ensure_workers()
            transport = self._call_transport(arrays)
            telemetry.count(f"transport.dispatch.{transport}")
            staging = (
                self._prepare_staging(shards, arrays)
                if transport == "shm"
                else None
            )
            task_fn = _thread_shard if transport == "threads" else _worker_shard

            def submit(worker: int, shard: Shard):
                slices = tuple(a[shard.start : shard.stop] for a in arrays)
                if staging is not None:
                    envelope = staging.stage(worker, shard.index, slices)
                    if envelope is not None:
                        # zero-copy path: the block is already in the ring;
                        # only the envelope rides the pool (supervised
                        # dispatch: the supervisor harvests every future
                        # with a deadline)
                        if traced:
                            telemetry.count(
                                "transport.shm.bytes",
                                sum(s.nbytes for s in slices),
                            )
                        return pools[worker].submit(  # repro: allow[timeout-discipline]
                            _worker_shard_shm, kind, shard.index, envelope
                        )
                    telemetry.count("transport.shm.staging_fallbacks")
                # pickle/thread wire (and the staged-slot-exhausted fallback)
                if traced and transport != "threads":
                    telemetry.count(
                        "transport.pickle.bytes", sum(s.nbytes for s in slices)
                    )
                return pools[worker].submit(  # repro: allow[timeout-discipline]
                    task_fn, kind, shard.index, *slices
                )

            # the supervisor gathers in shard order, re-plans lost shards
            # deterministically and (within the retry budget) respawns dead
            # workers — concatenation, and therefore every campaign outcome,
            # is independent of which worker finishes first *and* of which
            # workers survived
            try:
                pieces = supervisor.execute(
                    shards,
                    submit,
                    run_local,
                    decode=staging.decode if staging is not None else None,
                )
            finally:
                if staging is not None:
                    self._response_bytes_hint = max(
                        self._response_bytes_hint, staging.response_bytes_needed
                    )
                    with self._lock:
                        self._active_staging = None
                if supervisor.degraded:
                    # the pool is gone for good: nothing will ever read the
                    # rings again, so unlink the segments now rather than
                    # holding shared memory for the in-process remainder
                    release_rings(self._rings)
        if traced:
            telemetry.record_span(
                f"dispatch.{kind}", "engine",
                dispatch_started, clock.monotonic() - dispatch_started,
                attrs={
                    "kind": kind,
                    "rows": len(arrays[0]),
                    "shards": len(shards),
                    "workers": self.num_workers,
                },
            )
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)

    def _prepare_staging(
        self, shards: Sequence[Shard], arrays: Tuple[np.ndarray, ...]
    ) -> ShmStaging:
        """Size the rings for one dispatch and open its slot ledger.

        Runs between dispatches by construction (dispatch is synchronous),
        so growing a ring can never tear a block out from under a task.
        """
        while len(self._rings) < self.num_workers:
            self._rings.append(RingPair())
        if self._rings_finalizer is None:
            self._rings_finalizer = weakref.finalize(self, release_rings, self._rings)
        rows = min(self.batch_size, len(arrays[0]))
        request_bytes = max(1, request_block_bytes(arrays, rows))
        # responses are usually no larger than requests ((rows, classes) vs
        # (rows, features)); when one overflows its slot it returns inline
        # (bit-identical, just slower) and the recorded hint grows the rings
        # at the next dispatch
        response_bytes = max(request_bytes, self._response_bytes_hint)
        planned = [0] * self.num_workers
        for shard in shards:
            planned[shard.worker] += 1
        for worker, pair in enumerate(self._rings[: self.num_workers]):
            before = (
                pair.request.slots,
                pair.request.slot_bytes,
                pair.response.slot_bytes,
            )
            pair.ensure(
                max(planned[worker] + SLOT_HEADROOM, SLOT_HEADROOM),
                request_bytes,
                response_bytes,
            )
            if before[0] and before != (
                pair.request.slots,
                pair.request.slot_bytes,
                pair.response.slot_bytes,
            ):
                # an existing ring was reallocated larger (first allocation
                # of a fresh ring is not growth)
                telemetry.count("transport.shm.ring_growth")
        staging = ShmStaging(self._rings[: self.num_workers])
        with self._lock:
            self._active_staging = staging
        return staging

    def _absorb(self, delta: QueryStats) -> None:
        """Race-free merge of a per-shard stats delta into the engine counters.

        The single merge point for shard accounting.  Today every dispatch
        merges serially on the coordinator thread; the engine lock (shared
        with the cache wrapper) is the defensive guarantee that keeps merges
        exact if a future execution path (async dispatch, callback-based
        gathering) completes shards from other threads.
        """
        with self._lock:
            self.stats.merge(delta)

    def _spawn_pool(self, index: int):
        """One single-worker executor for worker slot ``index``.

        Built from the cached replica snapshot, so a respawned slot hosts a
        bit-identical replica of the one that died.  Callers hold the engine
        lock (spawn mutates nothing, but the slot tables it lands in do).
        Thread transport swaps the process pool for a single-thread pool
        whose initializer installs a *per-thread* replica.
        """
        # both callers (_ensure_workers, _respawn_worker) hold self._lock,
        # which also guards the replica snapshot these reads consume
        if self.transport == "threads":
            return ThreadPoolExecutor(
                max_workers=1,
                initializer=_install_thread_worker,
                initargs=(self._payload, index, self._heartbeat.array, self.faults),  # repro: allow[lock-discipline]
            )
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._context,  # repro: allow[lock-discipline]
            initializer=_install_worker,
            initargs=(self._payload, index, self._heartbeat.array, self.faults, self._telemetry_pool),  # repro: allow[lock-discipline]
        )

    def _ensure_workers(self) -> Tuple[List[ProcessPoolExecutor], ShardSupervisor]:
        # under the engine lock: two threads racing their first dispatch
        # must not each spawn (and then leak) a full worker set
        with self._lock:
            if (
                self._pools is not None
                and self.transport != "threads"
                and self._telemetry_pool != telemetry.enabled()
            ):
                # telemetry flipped since this pool generation was armed
                # (e.g. a session opened around an already-warm engine):
                # retire the generation so the next one arms to match.
                # Thread pools are exempt — they read the live session.
                pools, self._pools = self._pools, None
                self._supervisor = None
                self._heartbeat = None
                self._active_staging = None
                if self._finalizer is not None:
                    self._finalizer.detach()
                    self._finalizer = None
                _shutdown_pools(pools)
            if self._pools is None:
                # snapshot telemetry enablement for this pool generation:
                # workers are armed (or not) by their initializer, and a
                # mid-campaign respawn must match the surviving slots
                self._telemetry_pool = telemetry.enabled()
                self._payload = pickle.dumps(
                    (self.model, self.naturalness), protocol=pickle.HIGHEST_PROTOCOL
                )
                self._context = (
                    multiprocessing.get_context(self.start_method)
                    if self.start_method is not None
                    else multiprocessing.get_context()
                )
                self._heartbeat = WorkerHeartbeat(self.num_workers, self._context)
                # one single-worker executor per slot keeps the
                # shard→worker assignment literal: shard i is *always*
                # executed by pool i%W (until supervision re-plans it)
                self._pools = [
                    self._spawn_pool(index) for index in range(self.num_workers)
                ]
                self._supervisor = ShardSupervisor(
                    retry=self.retry,
                    num_workers=self.num_workers,
                    heartbeat=self._heartbeat,
                    respawn_worker=self._respawn_worker,
                    absorb=self._absorb,
                )
                self._finalizer = weakref.finalize(self, _shutdown_pools, self._pools)
            return self._pools, self._supervisor

    def _respawn_worker(self, worker: int, rebuild: bool) -> None:
        """Supervisor callback: bury one worker slot and optionally respawn it.

        The old process is killed outright (it may be hung mid-shard, so a
        cooperative shutdown could block forever) and its executor is torn
        down; with ``rebuild`` a fresh single-worker pool takes over the
        slot, in place, so the shard→worker tables stay valid.  Ring slots
        staged on the dead worker are reclaimed here — its process is gone,
        so no reader or writer of those blocks survives — and the respawned
        process reattaches to the same segments by name on its next staged
        shard.  (Thread slots cannot be killed; their executor is replaced
        and the hung thread is abandoned.)
        """
        with self._lock:
            pools = self._pools
            if pools is None:
                return
            old = pools[worker]
            # private executor surface — there is no public "kill the worker
            # process" API, and a hung process never honours shutdown()
            for process in list(getattr(old, "_processes", {}).values()):
                process.kill()
            old.shutdown(wait=False, cancel_futures=True)
            if self._active_staging is not None:
                self._active_staging.worker_down(worker)
            if rebuild:
                pools[worker] = self._spawn_pool(worker)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the worker pool and unlink the ring segments (idempotent).

        The next dispatch would lazily rebuild the pool from a fresh model
        snapshot (and fresh rings); stats and cache survive closing.  The
        pool swap shares the engine lock with :meth:`_ensure_workers`, so
        closing cannot race a concurrent first dispatch into leaking a
        worker set (closing while another thread has shards in flight is
        still a caller error).
        """
        with self._lock:
            pools, self._pools = self._pools, None
            self._supervisor = None
            self._heartbeat = None
            self._payload = None
            self._context = None
            self._active_staging = None
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
        if pools is not None:
            _shutdown_pools(pools)
        release_rings(self._rings)


__all__ = [
    "Shard",
    "plan_shards",
    "ShardedQueryEngine",
]
