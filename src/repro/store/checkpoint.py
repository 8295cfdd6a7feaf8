"""Atomic campaign checkpoints: snapshot, crash, resume — bit-identically.

A checkpoint is one pickled payload (per-seed RNG bit-generator states,
budgets, stall counters, partial outcomes, ``QueryStats`` — everything the
campaign control flow mutates) written atomically: the payload is serialized
to a temporary file in the same directory and renamed over the target, so a
writer killed mid-checkpoint leaves the previous checkpoint intact, never a
torn one.

Checkpoints carry a *fingerprint* of the campaign inputs (seed matrix,
labels, the config knobs that shape control flow).  Resuming verifies the
fingerprint, so a checkpoint can never be silently replayed against a
different campaign.  The pickled payload snapshots live mutable state
(``numpy`` Generators round-trip their exact bit-generator state), which is
what makes a resumed campaign bit-identical to an uninterrupted one — the
property ``tests/test_store.py`` pins.
"""

from __future__ import annotations

import os
import pickle
from hashlib import blake2b
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .. import telemetry
from ..exceptions import CheckpointError
from ..telemetry import clock

_FORMAT = "repro-checkpoint"
_VERSION = 1

PathLike = Union[str, os.PathLike]


def campaign_fingerprint(*arrays: np.ndarray, extra: str = "") -> str:
    """Digest identifying a campaign by its inputs and control-flow knobs.

    Two campaigns with the same fingerprint replay the same logical work, so
    a checkpoint of one may resume the other.
    """
    h = blake2b(digest_size=16)
    for array in arrays:
        a = np.ascontiguousarray(array)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    h.update(extra.encode())
    return h.hexdigest()


def write_checkpoint(path: PathLike, payload: Dict[str, object]) -> None:
    """Atomically persist ``payload`` (pickle, tmp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    envelope = {"format": _FORMAT, "version": _VERSION, "payload": payload}
    tmp = path.with_name(path.name + ".tmp")
    timed = telemetry.enabled()
    started = clock.monotonic() if timed else 0.0
    with open(tmp, "wb") as handle:
        pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    if timed:
        telemetry.observe("store.checkpoint_write_s", clock.monotonic() - started)
        telemetry.count("store.checkpoint_writes")
        telemetry.count("store.checkpoint_bytes", path.stat().st_size)


def read_checkpoint(path: PathLike) -> Dict[str, object]:
    """Load a checkpoint payload, failing loudly on corruption or mismatch."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
    except Exception as exc:  # corrupt pickle, truncated file, ...
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != _FORMAT:
        raise CheckpointError(f"{path} is not a repro checkpoint")
    if envelope.get("version") != _VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {envelope.get('version')!r}, "
            f"expected {_VERSION}"
        )
    return envelope["payload"]


class Checkpointer:
    """Interval-driven checkpoint writer used inside campaign loops.

    Parameters
    ----------
    path:
        Checkpoint target; every save atomically replaces it.
    every:
        Snapshot cadence in loop steps (rounds for the population fuzzer,
        seeds for the sequential one, iterations for the workflow).
    meta:
        Envelope fields merged into every payload (fingerprint, kind, ...).
    keep_history:
        Additionally keep each snapshot as ``<path>.<step>`` instead of only
        the latest — used by tests and for post-mortem debugging.
    """

    def __init__(
        self,
        path: PathLike,
        every: int,
        meta: Optional[Dict[str, object]] = None,
        keep_history: bool = False,
    ) -> None:
        if every <= 0:
            raise CheckpointError("checkpoint cadence must be positive")
        self.path = Path(path)
        self.every = int(every)
        self.meta = dict(meta or {})
        self.keep_history = keep_history
        self._last_saved: Optional[int] = None

    def due(self, step: int) -> bool:
        """Whether a snapshot is due at ``step`` (step 0 is never saved).

        A step is saved at most once, so loops that revisit their
        checkpoint point without advancing (e.g. an admission ``continue``)
        don't rewrite identical snapshots.
        """
        return step > 0 and step % self.every == 0 and step != self._last_saved

    def save(self, step: int, payload: Dict[str, object]) -> None:
        merged = {**self.meta, "step": step, **payload}
        write_checkpoint(self.path, merged)
        if self.keep_history:
            write_checkpoint(
                self.path.with_name(f"{self.path.name}.{step:06d}"), merged
            )
        self._last_saved = step

    def save_if_due(self, step: int, payload_fn) -> None:
        """Save ``payload_fn()`` when ``step`` hits the cadence.

        The payload is built lazily so loops don't pay snapshot-construction
        cost on the (vast majority of) steps that don't checkpoint.
        """
        if self.due(step):
            self.save(step, payload_fn())


__all__ = [
    "campaign_fingerprint",
    "write_checkpoint",
    "read_checkpoint",
    "Checkpointer",
]
