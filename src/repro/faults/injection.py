"""Deterministic cache corruption for recovery tests.

A :class:`FaultPlan` describes, ahead of time and reproducibly, which cache
segments to corrupt and by how many bytes; :func:`corrupt_cache_segments`
applies it to a cache directory.  Byte positions derive from the plan's
``seed`` alone, so the same plan always does the same damage — which is
what lets the CRC-recovery tests of :class:`repro.store.PersistentQueryCache`
assert exactly which records survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Tuple

import numpy as np

from ..exceptions import ConfigurationError


def _pairs(value: object, name: str, kinds: Tuple[type, ...]) -> Tuple[tuple, ...]:
    """Normalise a sequence of fixed-arity tuples, validating element types."""
    if value is None:
        return ()
    try:
        items = [tuple(item) for item in value]  # type: ignore[union-attr]
    except TypeError:
        raise ConfigurationError(f"{name} must be a sequence of pairs")
    normalised = []
    for item in items:
        if len(item) != len(kinds):
            raise ConfigurationError(
                f"each {name} entry must have {len(kinds)} elements, got {item!r}"
            )
        normalised.append(tuple(kind(element) for kind, element in zip(kinds, item)))
    return tuple(normalised)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of cache corruption.

    Attributes
    ----------
    corrupt_segments:
        ``(segment_ordinal, num_bytes)`` pairs for
        :func:`corrupt_cache_segments`: flip ``num_bytes`` bytes in the
        ``segment_ordinal``-th cache segment (sorted filename order).
    seed:
        Drives the corruption byte positions (and nothing else).
    """

    corrupt_segments: Tuple[Tuple[int, int], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "corrupt_segments",
            _pairs(self.corrupt_segments, "corrupt_segments", (int, int)),
        )
        for segment, num_bytes in self.corrupt_segments:
            if segment < 0 or num_bytes <= 0:
                raise ConfigurationError(
                    "corrupt_segments entries must be (segment >= 0, bytes > 0)"
                )

    def to_dict(self) -> Dict[str, object]:
        return {
            "corrupt_segments": [list(pair) for pair in self.corrupt_segments],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (unknown keys rejected)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown FaultPlan fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "seed" in kwargs:
            kwargs["seed"] = int(kwargs["seed"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


def corrupt_cache_segments(plan: FaultPlan, cache_dir: object) -> int:
    """Apply the plan's cache-corruption actions to a cache directory.

    Flips bytes in place at positions drawn from ``default_rng(plan.seed)``
    — deterministic for a given plan and directory layout.  Segments are
    addressed by their ordinal in sorted filename order; out-of-range
    ordinals are ignored (the plan may predate cache rotation).  Returns
    the number of segments actually corrupted.
    """
    root = Path(cache_dir)
    if (root / "segments").is_dir():
        root = root / "segments"  # accept the store root or the segment dir
    segments = sorted(root.glob("seg-*.bin"))
    rng = np.random.default_rng(plan.seed)
    touched = 0
    for ordinal, num_bytes in plan.corrupt_segments:
        if ordinal >= len(segments):
            continue
        path = segments[ordinal]
        blob = bytearray(path.read_bytes())
        if not blob:
            continue
        for position in rng.integers(0, len(blob), size=num_bytes):
            blob[position] ^= 0xFF
        path.write_bytes(bytes(blob))
        touched += 1
    return touched


__all__ = ["FaultPlan", "corrupt_cache_segments"]
