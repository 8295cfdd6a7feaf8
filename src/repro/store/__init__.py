"""Campaign store: checkpoints and the run registry.

The query engine makes model traffic batched; this package makes campaigns
*durable*:

* :mod:`repro.store.checkpoint` — the testing loop's atomic checkpoints
  (model weights, detections, ``QueryStats``, the campaign RNG) so an
  interrupted campaign resumes bit-identical to an uninterrupted one.
* :mod:`repro.store.registry` — :class:`RunRegistry`, which records every
  campaign's config, engine stats, detections and reliability estimates as
  queryable on-disk artifacts.

The CLI surface over the registry lives in :mod:`repro.store.cli`
(``python -m repro run|resume|ls|show|gc``); it is imported lazily by
``repro.__main__`` rather than here, because it depends on the high-level
workflow and scenario packages.
"""

from .checkpoint import campaign_fingerprint, read_checkpoint, write_checkpoint
from .registry import RUN_STATUSES, RunRegistry, StoredRun

__all__ = [
    "campaign_fingerprint",
    "read_checkpoint",
    "write_checkpoint",
    "RUN_STATUSES",
    "RunRegistry",
    "StoredRun",
]
