"""Fault injection: deterministic cache corruption for recovery tests.

A seeded :class:`FaultPlan` names cache segments to damage, and
:func:`corrupt_cache_segments` flips real bytes in them — the harness the
per-record CRC recovery of :class:`repro.store.PersistentQueryCache` is
tested against.  It lives as long as the persistent cache does.
"""

from .injection import FaultPlan, corrupt_cache_segments

__all__ = ["FaultPlan", "corrupt_cache_segments"]
