"""Batched model-query engine: chunking, memoization and query accounting.

Every hot subsystem of the reproduction (the operational fuzzer, the
black-box attacks, the cell-robustness evaluator) ultimately spends its
budget on small model queries — ``predict`` / ``predict_proba`` /
``loss_input_gradient`` calls on a handful of rows.  Issued one by one these
calls waste the NumPy substrate: each forward pass pays full Python and BLAS
dispatch overhead for a single row.  :class:`BatchedQueryEngine` is the shared
funnel that turns many small logical queries into few large physical ones:

* callers hand over whole matrices of candidates; the engine slices them into
  ``batch_size`` chunks so memory stays bounded while BLAS runs at full tilt;
* an optional memoizing cache (row bytes → probabilities) answers repeated
  rows without touching the model — results are exact because the key is the
  raw row bytes, not a lossy digest.  The cache belongs to the engine and
  dies with it; every campaign step builds a fresh engine, so a cache never
  outlives the model weights it was filled from;
* :class:`QueryStats` counts *logical* rows separately from *physical* model
  invocations, which is exactly the evidence needed to verify the "≥10×
  fewer model calls at equal query budgets" property of the batched paths.

The engine implements the :class:`repro.types.Classifier` protocol, so it can
be dropped in front of any model and passed to code that expects a bare
classifier (mutation operators, attacks, evaluators).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from .. import telemetry
from ..config import finite_rows, require_bool
from ..exceptions import ConfigurationError
from ..naturalness.metrics import NaturalnessScorer
from ..telemetry import clock
from ..types import Classifier

#: Default number of rows per physical model call.  Large enough that BLAS
#: dominates dispatch overhead, small enough that intermediate activations of
#: the NumPy networks stay comfortably in cache/memory.
DEFAULT_BATCH_SIZE = 4096


@dataclass
class QueryStats:
    """Counters separating logical query traffic from physical model calls.

    Attributes
    ----------
    rows_queried:
        Logical rows sent through ``predict`` / ``predict_proba``.
    model_calls:
        Physical model invocations (each serving up to ``batch_size`` rows).
    cache_hits:
        Rows answered from the memoizing cache instead of the model.
    gradient_rows, gradient_calls:
        Same split for ``loss_input_gradient`` traffic.
    naturalness_rows, naturalness_calls:
        Same split for naturalness scoring traffic.
    """

    rows_queried: int = 0
    model_calls: int = 0
    cache_hits: int = 0
    gradient_rows: int = 0
    gradient_calls: int = 0
    naturalness_rows: int = 0
    naturalness_calls: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTER_FIELDS}

    def to_dict(self) -> Dict[str, int]:
        """Serializable counter snapshot (the registry's stats.json format)."""
        return self.as_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "QueryStats":
        """Rebuild counters from :meth:`to_dict` output.

        Unknown keys are rejected so a stats file written by a future (or
        mangled) format fails loudly instead of dropping counters silently.
        """
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown QueryStats fields: {sorted(unknown)}"
            )
        return cls(**{key: int(value) for key, value in data.items()})

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Add another set of counters into this one, field by field.

        The testing loop uses it to total its fuzzing campaigns' counters.
        """
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


#: Every :class:`QueryStats` counter, in declaration order — the one list
#: ``as_dict`` and ``merge`` loop over (read once here, not per merge).
_COUNTER_FIELDS = tuple(field.name for field in dataclasses.fields(QueryStats))


def row_cache_key(row: np.ndarray) -> bytes:
    """The exact-content cache key of one input row.

    Raw ``tobytes()`` alone is ambiguous: two rows with identical bytes but
    different dtype or width (``float32`` vs ``float64``, a (4,) row vs a
    (2, 2) block) would collide and serve each other's probabilities.  The
    key therefore tags the payload with dtype and shape.
    """
    row = np.ascontiguousarray(row)
    header = f"{row.dtype.str}:{row.shape}:".encode("ascii")
    return header + row.tobytes()


class QueryCache:
    """Exact memoizing cache mapping input rows to class probabilities.

    Keys are the dtype/shape-tagged bytes of the row
    (:func:`row_cache_key`), so a hit returns exactly the probabilities the
    model produced the first time — no approximation is introduced anywhere.
    Eviction is insertion-ordered (FIFO), which is cheap and good enough for
    the fuzzing workloads where repeats cluster in time (re-sampled seeds,
    re-visited currents).  A hit returns the stored bits, but toggling the
    cache can still move the last bit of a float: a hit shrinks the batch of
    misses the model sees, and the model's output may depend on the number
    of rows in a call.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: Dict[bytes, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._store)

    def get(self, row: np.ndarray) -> Optional[np.ndarray]:
        return self._store.get(row_cache_key(row))

    def put(self, row: np.ndarray, value: np.ndarray) -> None:
        store = self._store
        key = row_cache_key(row)
        # evict only on genuine insert: overwriting an existing key must not
        # drop an unrelated (possibly hot) entry
        if key not in store and len(store) >= self.max_entries:
            store.pop(next(iter(store)))
        store[key] = value


def _iter_chunks(n: int, batch_size: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` slices covering ``range(n)`` in chunks."""
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)


class BatchedQueryEngine:
    """Chunked, memoizing front-end to a classifier (and naturalness scorer).

    Parameters
    ----------
    model:
        The model under test.
    naturalness:
        Optional fitted scorer; enables :meth:`score_naturalness`.
    batch_size:
        Maximum rows per physical call.  Bigger batches amortise dispatch
        overhead; the default (4096) is a good laptop setting — see the
        engine section of the README for tuning guidance.
    cache:
        ``True`` memoizes ``predict_proba`` in a :class:`QueryCache` that
        this engine builds for itself; ``False`` (default) disables it.
        Anything else raises :class:`ConfigurationError`.
    cache_max_entries:
        Capacity of the cache when ``cache=True``.
    """

    def __init__(
        self,
        model: Classifier,
        naturalness: Optional[NaturalnessScorer] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache: bool = False,
        cache_max_entries: int = 65536,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        require_bool("cache", cache)
        self.model = model
        self.naturalness = naturalness
        self.batch_size = int(batch_size)
        self.cache: Optional[QueryCache] = (
            QueryCache(max_entries=cache_max_entries) if cache else None
        )
        self.stats = QueryStats()

    # ------------------------------------------------------------------ #
    # Classifier protocol (chunked + cached)
    # ------------------------------------------------------------------ #
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for every row, served in chunks via the cache."""
        x = finite_rows(np.atleast_2d(np.asarray(x, dtype=float)))
        n = len(x)
        self.stats.rows_queried += n
        if n == 0:
            return np.zeros((0, 0))

        telemetry.count("engine.rows", n)
        if self.cache is None:
            return self._predict_proba_chunked(x)

        cached = [self.cache.get(row) for row in x]
        miss = np.flatnonzero([value is None for value in cached])
        self.stats.cache_hits += n - len(miss)
        telemetry.count("engine.cache_hits", n - len(miss))
        telemetry.count("engine.cache_misses", len(miss))
        if len(miss) == 0:
            return np.stack(cached)
        fresh = self._predict_proba_chunked(x[miss])
        for row_index, probs in zip(miss, fresh):
            self.cache.put(x[row_index], probs)
            cached[row_index] = probs
        return np.stack(cached)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted labels (argmax of :meth:`predict_proba`, so cache-aware).

        An empty batch yields an empty label array without a model call.
        """
        probs = self.predict_proba(x)
        if len(probs) == 0:
            return np.zeros(0, dtype=int)
        return probs.argmax(axis=1)

    def loss_input_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Chunked input gradients.

        Note the model's gradient is of the *mean* batch loss, so rows come
        back scaled by ``1/chunk``; every consumer in this codebase takes
        ``np.sign`` of the result, for which the scaling is irrelevant, and
        chunking therefore preserves behaviour exactly.
        """
        x = finite_rows(np.atleast_2d(np.asarray(x, dtype=float)))
        y = np.atleast_1d(np.asarray(y, dtype=int))
        n = len(x)
        self.stats.gradient_rows += n
        if n == 0:
            return np.zeros_like(x)
        telemetry.count("engine.gradient_rows", n)
        pieces = []
        for start, stop in _iter_chunks(n, self.batch_size):
            pieces.append(self.model.loss_input_gradient(x[start:stop], y[start:stop]))
            self.stats.gradient_calls += 1
            telemetry.count("engine.gradient_calls")
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)

    # ------------------------------------------------------------------ #
    # naturalness scoring
    # ------------------------------------------------------------------ #
    def score_naturalness(self, x: np.ndarray) -> np.ndarray:
        """Chunked log naturalness scores for every row (the fuzzer's scale)."""
        if self.naturalness is None:
            raise ConfigurationError("engine was built without a naturalness scorer")
        x = finite_rows(np.atleast_2d(np.asarray(x, dtype=float)))
        n = len(x)
        self.stats.naturalness_rows += n
        if n == 0:
            return np.zeros(0)
        telemetry.count("engine.naturalness_rows", n)
        pieces = []
        for start, stop in _iter_chunks(n, self.batch_size):
            pieces.append(np.asarray(self.naturalness.score(x[start:stop], log=True), dtype=float))
            self.stats.naturalness_calls += 1
            telemetry.count("engine.naturalness_calls")
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _predict_proba_chunked(self, x: np.ndarray) -> np.ndarray:
        pieces = []
        # one enabled check per logical call, not per chunk: when telemetry
        # is off the hot loop pays nothing, not even a clock read
        timed = telemetry.enabled()
        for start, stop in _iter_chunks(len(x), self.batch_size):
            started = clock.monotonic() if timed else 0.0
            pieces.append(np.asarray(self.model.predict_proba(x[start:stop]), dtype=float))
            self.stats.model_calls += 1
            if timed:
                telemetry.observe("engine.chunk_latency_s", clock.monotonic() - started)
                telemetry.count("engine.model_calls")
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)


def as_query_engine(
    model: Classifier,
    naturalness: Optional[NaturalnessScorer] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    cache: bool = False,
    cache_max_entries: int = 65536,
) -> BatchedQueryEngine:
    """Wrap ``model`` in a :class:`BatchedQueryEngine` unless it already is one.

    An existing engine is returned unchanged (its configuration wins) so
    nested subsystems share one set of counters and one cache.
    """
    if isinstance(model, BatchedQueryEngine):
        if naturalness is not None and model.naturalness is None:
            model.naturalness = naturalness
        return model
    return BatchedQueryEngine(
        model,
        naturalness=naturalness,
        batch_size=batch_size,
        cache=cache,
        cache_max_entries=cache_max_entries,
    )


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "QueryStats",
    "QueryCache",
    "row_cache_key",
    "BatchedQueryEngine",
    "as_query_engine",
]
