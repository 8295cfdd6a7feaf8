"""Durable, content-addressed query cache: warm caches that survive processes.

The in-memory :class:`repro.engine.QueryCache` dies with the process, so every
campaign starts cold and repeated experiments (ablations, benchmark reruns,
resumed campaigns) re-pay physical model calls for rows the model has already
answered.  :class:`PersistentQueryCache` is the durable drop-in: it implements
the :class:`repro.engine.CacheBackend` protocol over an HSDS-style chunked
on-disk layout —

* **content-addressed keys** — entries are addressed by a digest of the
  dtype/shape-tagged row bytes (:func:`repro.engine.batching.row_cache_key`,
  shared with the in-memory cache so the two layers agree on row identity);
  the full key bytes are stored alongside the value and verified
  on every read, so a hit returns exactly the probabilities the model
  produced (never an approximation, never a digest collision);
* **append-only segment files** — each writer process appends records to its
  own segment (no cross-process write contention) and rotates to a fresh
  segment once ``max_segment_bytes`` is reached, keeping individual chunks
  bounded and cheap to scan;
* **in-memory index** — opening a directory scans every segment once and
  builds a digest → (segment, offset) index; reads then cost one seek.
  Truncated tail records (a writer killed mid-append) are ignored, so a
  crashed campaign never corrupts the store for the next one;
* **per-record CRC32** — every record carries a checksum of its key and
  payload, verified on scan and on read.  A record corrupted *mid-segment*
  (bit rot, a torn write on crash, injected chaos) is skipped with a
  warning and counted in :attr:`PersistentQueryCache.corrupt_records`
  (surfaced as the engine's ``cache_corrupt_records`` stat) — never
  misread, and never allowed to hide the intact records after it;
* **shared directories** — several processes (or hosts, via a shared
  filesystem) can point at one directory: each sees every entry that existed
  at open time, appends its own segments, and can pick up concurrent
  writers' entries with :meth:`refresh`.

A hit returns exactly the bits that were stored, and a disk-backed engine
matches an in-memory-cached one bit for bit — the property the
cache-backend equivalence suites in ``tests/test_store.py`` and
``tests/test_property_based.py`` pin.  Turning a cache on or off is a
different matter: hits shrink the batches of misses the model sees, and a
model's output can depend on the number of rows in a call, so the last bit
of a float may move (queries, rejections and detections stay equal).
"""

from __future__ import annotations

import io
import os
import struct
import uuid
import warnings
import zlib
from hashlib import blake2b
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .. import telemetry
from ..engine.batching import row_cache_key
from ..exceptions import StoreError
from ..telemetry import clock

#: Magic bytes opening every record; bumping the version invalidates old files
#: (RPC1 records carried no checksum and are no longer readable).
_RECORD_MAGIC = b"RPC2"
_HEADER = struct.Struct("<4sIII")  # magic, key length, value length, CRC32


def _record_crc(key: bytes, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(key))

#: Default segment-rotation threshold (64 MiB): large enough that a campaign
#: typically stays in one segment, small enough that chunks stay manageable.
DEFAULT_MAX_SEGMENT_BYTES = 64 * 1024 * 1024


def _digest(key: bytes) -> bytes:
    return blake2b(key, digest_size=16).digest()


def _encode_value(value: np.ndarray) -> bytes:
    """Serialize an array bit-exactly (dtype + shape + data) via the npy format."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(value), allow_pickle=False)
    return buffer.getvalue()


def _decode_value(payload: bytes) -> np.ndarray:
    return np.load(io.BytesIO(payload), allow_pickle=False)


class PersistentQueryCache:
    """Durable ``CacheBackend`` over a directory of append-only segments.

    Parameters
    ----------
    directory:
        Store root.  Created (with parents) if missing; segments live in
        ``<directory>/segments``.
    max_segment_bytes:
        Rotation threshold for this writer's segment files.

    Notes
    -----
    Thread safety follows the engine's rules: the sharded engine wraps its
    cache in a lock, the in-process engine is single-threaded.  Concurrent
    *processes* are safe by construction (each appends to a private segment);
    an entry written by another process after open becomes visible after
    :meth:`refresh`.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
    ) -> None:
        if max_segment_bytes <= 0:
            raise StoreError("max_segment_bytes must be positive")
        self.directory = Path(directory)
        self.max_segment_bytes = int(max_segment_bytes)
        self._segment_dir = self.directory / "segments"
        self._segment_dir.mkdir(parents=True, exist_ok=True)
        #: digest -> (segment path, offset of the record header)
        self._index: Dict[bytes, Tuple[Path, int]] = {}
        #: bytes of each known segment already scanned into the index
        self._scanned: Dict[Path, int] = {}
        #: open read handles, one per segment (segments are append-only, so
        #: a handle stays valid while other writers grow the file) — keeps
        #: per-row gets to one seek+read instead of an open per lookup
        self._readers: Dict[Path, io.BufferedReader] = {}
        self._own_segment: Optional[Path] = None
        self._writer: Optional[io.BufferedWriter] = None
        #: records skipped because their CRC32 (or framing) did not check out;
        #: engines surface this as the ``cache_corrupt_records`` stat
        self.corrupt_records = 0
        self.refresh()

    # ------------------------------------------------------------------ #
    # CacheBackend protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._index)

    def get(self, row: np.ndarray) -> Optional[np.ndarray]:
        key = row_cache_key(row)
        digest = _digest(key)
        located = self._index.get(digest)
        if located is None:
            telemetry.count("store.cache_get_misses")
            return None
        segment, offset = located
        record = self._read_record(segment, offset)
        if record is None:
            telemetry.count("store.corrupt_records")
            # the indexed record no longer checks out (a segment mutated or
            # rotted behind our back): drop the entry, count it once, and
            # answer a miss rather than ever returning a wrong value
            self._index.pop(digest, None)
            self.corrupt_records += 1
            warnings.warn(
                f"query cache {segment}: record at offset {offset} failed its "
                "CRC check and was dropped from the index",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        if record[0] != key:
            return None  # digest collision: a miss, never a wrong value
        telemetry.count("store.cache_get_hits")
        return _decode_value(record[1])

    def put(self, row: np.ndarray, value: np.ndarray) -> None:
        key = row_cache_key(row)
        digest = _digest(key)
        if digest in self._index:
            return  # content-addressed: identical rows are stored once
        payload = _encode_value(np.asarray(value))
        writer = self._ensure_writer()
        offset = writer.tell()
        writer.write(
            _HEADER.pack(_RECORD_MAGIC, len(key), len(payload), _record_crc(key, payload))
        )
        writer.write(key)
        writer.write(payload)
        writer.flush()
        self._index[digest] = (self._own_segment, offset)
        self._scanned[self._own_segment] = writer.tell()
        telemetry.count("store.cache_puts")
        telemetry.count("store.cache_put_bytes", _HEADER.size + len(key) + len(payload))

    def clear(self) -> None:
        """Delete every segment (the durable entries, not just the index)."""
        self.close()
        for segment in sorted(self._segment_dir.glob("seg-*.bin")):
            segment.unlink()
        self._index.clear()
        self._scanned.clear()

    def _reader(self, segment: Path) -> io.BufferedReader:
        reader = self._readers.get(segment)
        if reader is None:
            reader = open(segment, "rb")
            self._readers[segment] = reader
        return reader

    # ------------------------------------------------------------------ #
    # durability helpers
    # ------------------------------------------------------------------ #
    def refresh(self) -> int:
        """Scan for records appended by other writers; return new entry count.

        Known segments are re-scanned from their last known offset and new
        segment files are discovered, so a long-running campaign can pick up
        a concurrent process's work without reopening the store.
        """
        with telemetry.span("cache.refresh", "store"):
            added = 0
            for segment in sorted(self._segment_dir.glob("seg-*.bin")):
                added += self._scan_segment(segment, self._scanned.get(segment, 0))
            telemetry.count("store.refreshes")
            if added:
                telemetry.count("store.refresh_entries", added)
        return added

    def close(self) -> None:
        """Flush and release every file handle (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._own_segment = None
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()

    def __enter__(self) -> "PersistentQueryCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ensure_writer(self) -> io.BufferedWriter:
        if (
            self._writer is not None
            and self._writer.tell() >= self.max_segment_bytes
        ):
            self.close()  # rotate: the next put opens a fresh segment
        if self._writer is None:
            # pid + random suffix keeps concurrent writers collision-free
            name = f"seg-{os.getpid():08d}-{uuid.uuid4().hex[:8]}.bin"
            self._own_segment = self._segment_dir / name
            self._writer = open(self._own_segment, "ab")
        return self._writer

    @staticmethod
    def _find_magic(handle: io.BufferedReader, start: int) -> Optional[int]:
        """Offset of the next record magic at/after ``start``, or ``None``."""
        handle.seek(start)
        blob = handle.read()
        position = blob.find(_RECORD_MAGIC)
        return None if position == -1 else start + position

    def _scan_segment(self, segment: Path, start: int) -> int:
        """Index intact records of ``segment`` from ``start``.

        A torn *tail* (a writer killed mid-append — possibly completed by a
        concurrent writer later) stops the scan without advancing the
        scanned offset, so the next :meth:`refresh` retries it.  A corrupt
        *mid-segment* record (CRC or framing mismatch with more data after
        it) is skipped with a warning and counted in
        :attr:`corrupt_records`; the scan resynchronises on the next record
        magic so every intact record behind the damage is still indexed.
        """
        added = 0
        corrupt = 0
        try:
            size = segment.stat().st_size
        except OSError:
            return 0
        if size <= start:
            return 0
        with open(segment, "rb") as handle:
            handle.seek(start)
            while True:
                offset = handle.tell()
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break  # tail: nothing (complete) after this point
                magic, key_len, value_len, crc = _HEADER.unpack(header)
                if (
                    magic != _RECORD_MAGIC
                    or offset + _HEADER.size + key_len + value_len > size
                ):
                    # corrupt header (or a length field pointing past EOF):
                    # resynchronise on the next record magic; without one
                    # this is an ordinary torn tail — leave it for refresh
                    resync = self._find_magic(handle, offset + 1)
                    if resync is None:
                        break
                    corrupt += 1
                    self._scanned[segment] = resync
                    handle.seek(resync)
                    continue
                key = handle.read(key_len)
                payload = handle.read(value_len)
                if _record_crc(key, payload) != crc:
                    # framing was intact, content was not: the next record
                    # starts right after this one
                    corrupt += 1
                    self._scanned[segment] = handle.tell()
                    continue
                digest = _digest(key)
                if digest not in self._index:
                    self._index[digest] = (segment, offset)
                    added += 1
                self._scanned[segment] = handle.tell()
        if corrupt:
            self.corrupt_records += corrupt
            telemetry.count("store.corrupt_records", corrupt)
            telemetry.event("cache.corrupt_records", "store", segment=segment.name, skipped=corrupt)
            warnings.warn(
                f"query cache {segment}: skipped {corrupt} corrupt record(s) "
                "(CRC/framing mismatch); intact records were kept",
                RuntimeWarning,
                stacklevel=3,
            )
        return added

    def _read_record(self, segment: Path, offset: int) -> Optional[Tuple[bytes, bytes]]:
        try:
            handle = self._reader(segment)
            handle.seek(offset)
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return None
            magic, key_len, value_len, crc = _HEADER.unpack(header)
            if magic != _RECORD_MAGIC:
                return None
            key = handle.read(key_len)
            payload = handle.read(value_len)
            if len(key) < key_len or len(payload) < value_len:
                return None
            if _record_crc(key, payload) != crc:
                return None
            return key, payload
        except OSError:
            self._readers.pop(segment, None)
            return None


__all__ = ["PersistentQueryCache", "DEFAULT_MAX_SEGMENT_BYTES"]
