"""``ExecutionPolicy`` — the whole execution surface in one object.

:class:`ExecutionPolicy` is one frozen, serializable dataclass that says
*how* a campaign executes — backend, workers, transport, batching, caching,
checkpoint cadence — accepted by every subsystem as its single ``policy``
parameter (checked by :func:`policy_or_default`) and recorded verbatim in
campaign specs (:mod:`repro.runtime.spec`).

What the policy deliberately does **not** contain is anything that changes a
campaign's logical results.  Backends are bit-identical by construction, the
cache is exact, and RNG spawning is part of the campaign semantics pinned by
the equivalence suites — so two runs of the same campaign under different
policies produce identical detections, per-seed query counts and reliability
estimates; only the physical execution (model calls, processes, durability)
differs.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Union

from ..config import RngLike, spawn_rngs
from ..engine.batching import DEFAULT_BATCH_SIZE, BatchedQueryEngine, as_query_engine
from ..engine.transport import validate_transport
from ..exceptions import ConfigurationError
from ..faults.injection import FaultPlan
from ..faults.retry import RetryPolicy
from .backends import resolve_backend

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .backends import ModelBackend

#: RNG spawning policies.  ``"per-seed"`` (the only shipping policy) gives
#: every fuzzed seed a private child generator spawned from the campaign RNG,
#: which is what makes campaigns independent of execution order — the
#: property every equivalence suite pins.  Future policies (e.g. counter-based
#: streams for remote backends) register here.
RNG_SPAWN_POLICIES = ("per-seed",)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a campaign executes: backend, parallelism, batching, caching.

    Attributes
    ----------
    backend:
        Registered execution backend name (see
        :func:`repro.runtime.available_backends`).  Shipping backends:
        ``"batched"`` (in-process) and ``"sharded"`` (replicated worker
        processes).
    num_workers:
        Worker processes for replicated backends; ``1`` stays in-process.
    transport:
        How replicated backends move row blocks to their workers:
        ``"pickle"`` (per-task pickling), ``"shm"`` (zero-copy
        shared-memory ring buffers), ``"threads"`` (in-process thread pool
        with per-thread replicas) or ``"auto"`` (default: pickle vs shm per
        logical call by block size).  Ignored by in-process backends.
        Transport never changes logical results — see
        :mod:`repro.engine.transport`.
    batch_size:
        Maximum rows per physical model call.
    cache:
        Memoize ``predict_proba`` results by exact row content.  Results are
        bit-identical either way; only physical model calls shrink.
    cache_max_entries:
        Capacity of the in-memory cache (ignored when ``cache_dir`` is set —
        the persistent cache is append-only).
    cache_dir:
        Directory of a durable :class:`repro.store.PersistentQueryCache`.
        When set (and ``cache`` is true) the memoizing cache survives the
        process and can be shared across hosts via a common directory.
    checkpoint_every:
        Campaign-checkpoint cadence (population rounds / seeds for the
        fuzzer, iterations for the testing loop).  0 disables.
    rng_spawning:
        RNG spawning policy; see :data:`RNG_SPAWN_POLICIES`.
    start_method:
        Optional :mod:`multiprocessing` start method for process-pool
        backends (platform default when ``None``).
    retry:
        Optional :class:`repro.faults.RetryPolicy` for supervised execution
        (heartbeat deadline, respawn/retry budgets, degrade-vs-fail on
        exhaustion).  ``None`` means the backend's defaults.  Mappings (from
        a spec file) are coerced.  Like every policy field this never
        changes logical results — supervision moves shards, it does not
        change what they compute.
    faults:
        Optional :class:`repro.faults.FaultPlan` injecting deterministic
        faults (worker kills, shard delays, cache corruption) — the chaos
        hook.  Recorded verbatim in specs/run.json like everything else, so
        even a chaos campaign is reproducible from its stored spec.
    telemetry:
        Record structured spans + metrics (:mod:`repro.telemetry`) for the
        campaign and persist ``trace.jsonl`` / ``metrics.json`` in the run
        registry.  Bit-identity-neutral (never touches RNG, never reorders
        work) and <3% wall time, both pinned by test and bench — so
        enabling it is always safe.
    """

    backend: str = "batched"
    num_workers: int = 1
    transport: str = "auto"
    batch_size: int = DEFAULT_BATCH_SIZE
    cache: bool = False
    cache_max_entries: int = 65536
    cache_dir: Optional[str] = None
    checkpoint_every: int = 0
    rng_spawning: str = "per-seed"
    start_method: Optional[str] = None
    retry: Optional[RetryPolicy] = None
    faults: Optional[FaultPlan] = None
    telemetry: bool = False

    def __post_init__(self) -> None:
        resolve_backend(self.backend)  # fails loudly on unknown names
        if self.num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        validate_transport(self.transport)
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if not isinstance(self.cache, bool):
            raise ConfigurationError(
                "cache must be a bool (hand CacheBackend instances to "
                "build_engine(cache=...), not to the policy)"
            )
        if self.cache_max_entries <= 0:
            raise ConfigurationError("cache_max_entries must be positive")
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be non-negative")
        if self.rng_spawning not in RNG_SPAWN_POLICIES:
            raise ConfigurationError(
                f"rng_spawning must be one of {RNG_SPAWN_POLICIES}, "
                f"got {self.rng_spawning!r}"
            )
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            # keep the policy JSON-serializable (pathlib.Path coerced here)
            object.__setattr__(self, "cache_dir", str(self.cache_dir))
        # coerce spec-file mappings into the frozen fault-tolerance objects
        if isinstance(self.retry, Mapping):
            object.__setattr__(self, "retry", RetryPolicy.from_dict(self.retry))
        elif self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ConfigurationError(
                f"retry must be a RetryPolicy, a mapping or None, "
                f"got {type(self.retry).__name__}"
            )
        if not isinstance(self.telemetry, bool):
            raise ConfigurationError(
                f"telemetry must be a bool, got {type(self.telemetry).__name__}"
            )
        if isinstance(self.faults, Mapping):
            object.__setattr__(self, "faults", FaultPlan.from_dict(self.faults))
        elif self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a FaultPlan, a mapping or None, "
                f"got {type(self.faults).__name__}"
            )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of every field (exact ``from_dict`` round-trip)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExecutionPolicy":
        """Rebuild a policy from :meth:`to_dict` output.

        Unknown keys are rejected so a policy written by a future (or
        mistyped) format fails loudly instead of silently dropping settings.
        """
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ExecutionPolicy fields: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**dict(data))

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the policy as JSON (parents created as needed)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExecutionPolicy":
        """Load a policy from a JSON (or TOML, by suffix) file."""
        return cls.from_dict(load_structured_file(path))

    def replace(self, **overrides: object) -> "ExecutionPolicy":
        """A copy with some fields replaced (validated like a fresh policy)."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------ #
    # the factory: the policy builds its own execution machinery
    # ------------------------------------------------------------------ #
    def build_cache(self) -> object:
        """The engine-level cache argument this policy describes.

        ``False`` (no cache), ``True`` (default in-memory cache) or a
        :class:`repro.store.PersistentQueryCache` rooted at ``cache_dir``.
        """
        if not self.cache:
            return False
        if self.cache_dir is not None:
            from ..store.cache import PersistentQueryCache  # avoid an import cycle

            return PersistentQueryCache(self.cache_dir)
        return True

    def build_engine(
        self,
        model: "ModelBackend",
        naturalness: Optional[object] = None,
        *,
        cache: Optional[object] = None,
    ) -> BatchedQueryEngine:
        """Build the query engine this policy describes over ``model``.

        The single engine-construction funnel.  A ``model`` that already
        *is* an engine is passed through unchanged (its configuration wins,
        so nested subsystems share one set of counters, one cache and one
        worker pool); ``cache`` overrides the policy's cache spec with a
        concrete :class:`repro.engine.CacheBackend` instance.
        """
        if isinstance(model, BatchedQueryEngine):
            return as_query_engine(model, naturalness=naturalness)
        backend = resolve_backend(self.backend)
        return backend.from_policy(
            model, naturalness, self, self.build_cache() if cache is None else cache
        )

    @contextmanager
    def session(
        self,
        model: "ModelBackend",
        naturalness: Optional[object] = None,
        *,
        cache: Optional[object] = None,
    ) -> Iterator[BatchedQueryEngine]:
        """Build an engine for one campaign and release its workers afterwards.

        Engines the caller already owns (``model`` is itself an engine) are
        passed through *without* being closed — their lifecycle belongs to
        the caller.
        """
        engine = self.build_engine(model, naturalness, cache=cache)
        created = engine is not model
        try:
            yield engine
        finally:
            if created:
                engine.close()

    def spawn_rngs(self, rng: RngLike, count: int) -> list:
        """Spawn per-seed generators according to the RNG spawning policy."""
        if self.rng_spawning == "per-seed":
            return spawn_rngs(rng, count)
        raise ConfigurationError(  # pragma: no cover - guarded in __post_init__
            f"unimplemented rng_spawning policy {self.rng_spawning!r}"
        )


def load_structured_file(path: Union[str, Path]) -> dict:
    """Load a JSON (default) or TOML (``.toml`` suffix) mapping from disk."""
    source = Path(path)
    try:
        if source.suffix.lower() == ".toml":
            import tomllib

            data = tomllib.loads(source.read_text())
        else:
            data = json.loads(source.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"no such file: {source}") from None
    except (json.JSONDecodeError, ValueError) as exc:
        raise ConfigurationError(f"could not parse {source}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{source} must contain a mapping at top level")
    return data


def policy_or_default(
    policy: object,
    default: Optional[ExecutionPolicy],
    owner: str,
    error: type = ConfigurationError,
) -> Optional[ExecutionPolicy]:
    """``policy`` itself, or ``default`` when it is ``None``.

    Every subsystem takes its execution surface as one ``policy`` parameter
    and checks it here, at construction, where the caller can see the
    mistake (a backend name string, a dict, a stray positional argument) —
    not attributes deep into the campaign.  The rejection is raised as
    ``owner``'s own ``error`` class.
    """
    if policy is None:
        return default
    if not isinstance(policy, ExecutionPolicy):
        raise error(
            f"{owner}: policy must be an ExecutionPolicy, "
            f"got {type(policy).__name__} ({policy!r})"
        )
    return policy


__all__ = [
    "RNG_SPAWN_POLICIES",
    "ExecutionPolicy",
    "load_structured_file",
    "policy_or_default",
]
