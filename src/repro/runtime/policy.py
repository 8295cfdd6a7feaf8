"""``ExecutionPolicy`` — the whole execution surface in one object.

:class:`ExecutionPolicy` is one frozen, serializable dataclass that says
*how* a campaign executes — batching, caching, checkpoint cadence,
telemetry — accepted by every subsystem as its single ``policy``
parameter (checked by :func:`policy_or_default`) and recorded verbatim in
campaign specs (:mod:`repro.runtime.spec`).

The policy decides what execution costs, not what it computes.  A cache hit
returns the stored bits.  Changing ``batch_size`` or ``cache`` itself can
move the last bit of a float — a model's output may depend on the rows per
call, and hits shrink the batch of misses — while queries, rejections and
detections stay equal.  How random streams are drawn changes what a campaign
computes, so it is no policy setting: the fuzzer seeds one private stream
per seed itself (:func:`repro.config.spawn_seeds`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from ..config import require_bool, require_int
from ..engine.batching import DEFAULT_BATCH_SIZE, BatchedQueryEngine, as_query_engine
from ..exceptions import ConfigurationError
from ..types import Classifier


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a campaign executes: batching, caching, checkpoints, telemetry.

    Attributes
    ----------
    batch_size:
        Maximum rows per physical model call.
    cache:
        Memoize ``predict_proba`` results by exact row content.  A hit
        returns the stored bits; since hits shrink the batches the model
        sees, toggling the cache can move the last bit of a float (see the
        module docstring).
    cache_max_entries:
        Capacity of the in-memory cache.  Each engine builds its own cache,
        which dies with the engine.
    checkpoint_every:
        Testing-loop iterations between checkpoints; 0 disables.
    telemetry:
        Record structured spans + metrics (:mod:`repro.telemetry`) for the
        campaign and persist ``trace.jsonl`` / ``metrics.json`` in the run
        registry.  Bit-identity-neutral (never touches RNG, never reorders
        work) and <3% wall time, both pinned by test and bench — so
        enabling it is always safe.

    The three counts must be Python ``int`` (not ``bool``): a fractional
    cadence or batch size would otherwise be truncated where it is used.
    The two flags (``cache``, ``telemetry``) must be Python ``bool``.
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    cache: bool = False
    cache_max_entries: int = 65536
    checkpoint_every: int = 0
    telemetry: bool = False

    def __post_init__(self) -> None:
        for name in ("batch_size", "cache_max_entries", "checkpoint_every"):
            require_int(name, getattr(self, name))
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        require_bool("cache", self.cache)
        if self.cache_max_entries <= 0:
            raise ConfigurationError("cache_max_entries must be positive")
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be non-negative")
        require_bool("telemetry", self.telemetry)

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
    def build_engine(
        self, model: Classifier, naturalness: Optional[object] = None
    ) -> BatchedQueryEngine:
        """Build the query engine this policy describes over ``model``.

        The single engine-construction funnel.  A ``model`` that already
        *is* an engine is passed through unchanged (its configuration wins,
        so nested subsystems share one set of counters and one cache; a
        scorer-less engine gets ``naturalness``).  A new engine builds its
        own in-memory cache when ``cache`` is set; the cache dies with the
        engine.
        """
        return as_query_engine(
            model,
            naturalness,
            batch_size=self.batch_size,
            cache=self.cache,
            cache_max_entries=self.cache_max_entries,
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
    mistake (a string, a dict, a stray positional argument) —
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
    "ExecutionPolicy",
    "load_structured_file",
    "policy_or_default",
]
