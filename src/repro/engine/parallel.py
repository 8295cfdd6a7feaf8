"""Sharded dispatch behind the batched query engine: a thread pool.

:class:`ShardedQueryEngine` runs the physical chunks of one logical
``predict_proba`` / ``loss_input_gradient`` / naturalness call on a pool of
``num_workers`` threads, each holding its own pickled replica of the model
(and naturalness scorer) under test.

Determinism is the design constraint — a parallel campaign that silently
changes results is worthless for a reliability paper — and it is achieved by
construction rather than by tolerance thresholds:

* **Identical chunk boundaries.**  Chunks come from :func:`_iter_chunks`,
  the function the in-process :class:`BatchedQueryEngine` slices with, so
  every replica computes on bit-identical matrices.
* **Chunk order.**  Results come back through ``executor.map`` in chunk
  order, whichever thread finishes first.
* **Exact replicas.**  The model and scorer are snapshot once with
  :mod:`pickle` when the pool starts; NumPy arrays round-trip bit-exactly,
  so replica outputs equal coordinator outputs.  Replicas are per *thread*
  because several nn layers cache activations on ``self`` during
  ``forward``: one model object cannot serve two threads at once.

Together these make the sharded path *bit-identical* to the batched path
(and therefore to the sequential reference campaigns) — the scenario-matrix
suite in ``tests/test_parallel_engine.py`` pins this.

Bookkeeping is race-free: every chunk returns a :class:`QueryStats` delta
that is merged through one locked merge point (:meth:`_absorb`), and the
memoizing cache sits behind the same lock.  Cache lookups happen *before*
dispatch, so a row any thread has computed is answered without touching the
pool again.  ``num_workers=1`` runs the chunks in-process (no pool) but
keeps the sharded accounting path.
"""

from __future__ import annotations

import itertools
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Optional, Tuple

import numpy as np

from .. import telemetry
from ..config import finite_rows
from ..exceptions import ConfigurationError
from ..naturalness.metrics import NaturalnessScorer
from ..telemetry import clock
from ..types import Classifier
from .batching import (
    DEFAULT_BATCH_SIZE,
    BatchedQueryEngine,
    QueryStats,
    _iter_chunks,
)


# --------------------------------------------------------------------------- #
# chunk computations (shared by the thread pool and the in-process path)
# --------------------------------------------------------------------------- #
def _chunk_predict_proba(
    model: Classifier, chunk: np.ndarray
) -> Tuple[np.ndarray, QueryStats]:
    return np.asarray(model.predict_proba(chunk), dtype=float), QueryStats(model_calls=1)


def _chunk_gradient(
    model: Classifier, x: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, QueryStats]:
    return (
        np.asarray(model.loss_input_gradient(x, y), dtype=float),
        QueryStats(gradient_calls=1),
    )


def _chunk_naturalness(
    naturalness: NaturalnessScorer, chunk: np.ndarray
) -> Tuple[np.ndarray, QueryStats]:
    return np.asarray(naturalness.score(chunk), dtype=float), QueryStats(
        naturalness_calls=1
    )


#: Call kinds: kind -> (chunk computation, replica slot: 0 = model,
#: 1 = naturalness scorer).  The same computation backs the pool threads and
#: the in-process path, which keeps them bit-identical by construction.
_CHUNK_KINDS = {
    "proba": (_chunk_predict_proba, 0),
    "grad": (_chunk_gradient, 0),
    "nat": (_chunk_naturalness, 1),
}


def _compute(
    kind: str,
    index: int,
    subject,
    arrays: Tuple[np.ndarray, ...],
    proc: str = "coordinator",
    worker: int = -1,
) -> Tuple[np.ndarray, QueryStats]:
    """Run chunk ``index`` of one call on ``subject``, as a span when traced."""
    chunk_fn = _CHUNK_KINDS[kind][0]
    if not telemetry.enabled():
        return chunk_fn(subject, *arrays)
    started = clock.monotonic()
    values, delta = chunk_fn(subject, *arrays)
    telemetry.record_span(
        f"shard-{index}", "shard", started, clock.monotonic() - started,
        proc=proc, worker=worker,
        attrs={"kind": kind, "rows": len(arrays[0])},
    )
    return values, delta


#: Per-thread state installed by the pool initializer: the thread's own
#: ``(model, naturalness)`` replica and its worker lane.
_THREAD_STATE = threading.local()


def _install_replica(payload: bytes, lanes: Iterator[int]) -> None:
    _THREAD_STATE.replica = pickle.loads(payload)
    _THREAD_STATE.worker = next(lanes)


def _thread_chunk(
    kind: str, index: int, arrays: Tuple[np.ndarray, ...]
) -> Tuple[np.ndarray, QueryStats]:
    """Pool task: one chunk on this thread's replica, spanned on its lane.

    Pool threads see the coordinator's telemetry session through the
    module-global mirror, so their spans land on worker lanes of the same
    trace and ``repro trace`` timelines render them.
    """
    subject = _THREAD_STATE.replica[_CHUNK_KINDS[kind][1]]
    return _compute(
        kind, index, subject, arrays, proc="worker", worker=_THREAD_STATE.worker
    )


class _LockedCache:
    """Cache wrapper serialising access under the engine lock.

    Lookups happen *before* dispatch, so the cache is only touched from the
    calling thread today; the lock keeps the accounting safe should a
    completion path ever touch it from pool threads.
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


# --------------------------------------------------------------------------- #
# the sharded engine
# --------------------------------------------------------------------------- #
class ShardedQueryEngine(BatchedQueryEngine):
    """Thread-pool execution backend behind the batched query engine.

    Drop-in for :class:`BatchedQueryEngine` (same constructor surface plus
    ``num_workers``); all logical semantics — chunk boundaries, caching,
    :class:`QueryStats` meanings — are inherited, only the physical
    execution of chunks moves to the pool threads.

    Parameters
    ----------
    model, naturalness, batch_size, cache, cache_max_entries:
        As for :class:`BatchedQueryEngine`.
    num_workers:
        Pool threads to spread physical calls across.  ``1`` executes
        in-process (no pool) but keeps the sharded accounting path.

    Notes
    -----
    The pool snapshots the model lazily on first dispatch; mutating the
    model afterwards (e.g. retraining in place) is not reflected in the
    replicas — build a fresh engine per campaign, as every call site in this
    repository does, or call :meth:`close` to force a re-snapshot.  An
    exception raised by a chunk reaches the caller through ``map``.
    """

    def __init__(
        self,
        model: Classifier,
        naturalness: Optional[NaturalnessScorer] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache: bool = False,
        cache_max_entries: int = 65536,
        num_workers: int = 2,
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
        self.num_workers = int(num_workers)
        self._lock = threading.Lock()
        if self.cache is not None:
            self.cache = _LockedCache(self.cache, self._lock)
        self._pool: Optional[ThreadPoolExecutor] = None

    @property
    def naturalness(self) -> Optional[NaturalnessScorer]:
        return self._naturalness

    @naturalness.setter
    def naturalness(self, scorer: Optional[NaturalnessScorer]) -> None:
        # replicas snapshot (model, naturalness) when the pool starts; a
        # scorer attached afterwards (as_query_engine does this on
        # pass-through) must retire the pool so the next dispatch
        # re-snapshots — otherwise threads would raise on their scorer-less
        # replica.  getattr: the base constructor sets the scorer before
        # the pool slot exists.
        self._naturalness = scorer
        if getattr(self, "_pool", None) is not None:
            self.close()

    # ------------------------------------------------------------------ #
    # overridden physical execution
    # ------------------------------------------------------------------ #
    def _predict_proba_chunked(self, x: np.ndarray) -> np.ndarray:
        return self._dispatch("proba", (x,))

    def loss_input_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sharded input gradients (same chunk scaling note as the base class)."""
        x = finite_rows(np.atleast_2d(np.asarray(x, dtype=float)))
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
        x = finite_rows(np.atleast_2d(np.asarray(x, dtype=float)))
        n = len(x)
        self._absorb(QueryStats(naturalness_rows=n))
        if n == 0:
            return np.zeros(0)
        return self._dispatch("nat", (x,))

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, kind: str, arrays: Tuple[np.ndarray, ...]) -> np.ndarray:
        """Run one logical call chunk by chunk, merge stats, reassemble."""
        chunks = [
            tuple(a[start:stop] for a in arrays)
            for start, stop in _iter_chunks(len(arrays[0]), self.batch_size)
        ]
        traced = telemetry.enabled()
        dispatch_started = clock.monotonic() if traced else 0.0
        if self.num_workers == 1:
            subject = self.model if _CHUNK_KINDS[kind][1] == 0 else self.naturalness
            results = (
                _compute(kind, index, subject, chunk)
                for index, chunk in enumerate(chunks)
            )
        else:
            results = self._ensure_pool().map(
                _thread_chunk, itertools.repeat(kind), itertools.count(), chunks
            )
        pieces = []
        for values, delta in results:
            self._absorb(delta)
            pieces.append(values)
        if traced:
            telemetry.record_span(
                f"dispatch.{kind}", "engine",
                dispatch_started, clock.monotonic() - dispatch_started,
                attrs={
                    "kind": kind,
                    "rows": len(arrays[0]),
                    "shards": len(chunks),
                    "workers": self.num_workers,
                },
            )
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)

    def _absorb(self, delta: QueryStats) -> None:
        """Race-free merge of a per-chunk stats delta into the engine counters.

        The single merge point for chunk accounting.  Dispatch merges on the
        calling thread as results arrive; the engine lock (shared with the
        cache wrapper) keeps merges exact when several threads share one
        engine.
        """
        with self._lock:
            self.stats.merge(delta)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # under the engine lock: two threads racing their first dispatch
        # must not each start (and then leak) a pool
        with self._lock:
            if self._pool is None:
                payload = pickle.dumps(
                    (self.model, self.naturalness), protocol=pickle.HIGHEST_PROTOCOL
                )
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    initializer=_install_replica,
                    initargs=(payload, itertools.count()),
                )
            return self._pool

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the thread pool down (idempotent).

        The next dispatch lazily rebuilds the pool from a fresh model
        snapshot; stats and cache survive closing.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


__all__ = ["ShardedQueryEngine"]
