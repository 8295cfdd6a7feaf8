"""Atomic campaign checkpoints: snapshot, crash, resume — bit-identically.

The testing loop (:class:`repro.core.OperationalTestingLoop`) writes one
every ``ExecutionPolicy.checkpoint_every`` iterations; nothing else
checkpoints.  A checkpoint is one pickled payload (model weights,
detected AEs, the campaign report, ``QueryStats`` and the campaign RNG's
bit-generator state — everything an iteration mutates) written atomically:
the payload is serialized to a temporary file in the same directory and
renamed over the target, so a writer killed mid-checkpoint leaves the
previous checkpoint intact, never a torn one.

Checkpoints carry a *fingerprint* of the campaign inputs (training data and
the configuration values).  Resuming verifies the fingerprint, so a
checkpoint can never be silently replayed against a different campaign.
Restoring the RNG's exact bit-generator state is what makes a resumed
campaign bit-identical to an uninterrupted one — the property
``tests/test_store.py`` pins.
"""

from __future__ import annotations

import os
import pickle
from hashlib import blake2b
from pathlib import Path
from typing import Dict, Union

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


__all__ = [
    "campaign_fingerprint",
    "write_checkpoint",
    "read_checkpoint",
]
