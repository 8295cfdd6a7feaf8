"""Fault injection: the cache-corruption harness and what it exercises.

``FaultPlan`` serialization and validation, per-record CRC recovery in the
persistent query cache under real byte flips, and the CLI's exit-2
fingerprint diagnosis when a checkpoint does not match its run.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro.engine import BatchedQueryEngine
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan, corrupt_cache_segments
from repro.store import PersistentQueryCache
from repro.store.cache import _HEADER
from repro.store.cli import main as cli_main


# --------------------------------------------------------------------------- #
# FaultPlan
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_round_trip_and_normalisation(self):
        plan = FaultPlan(corrupt_segments=[[0, 16]], seed=3)
        assert plan.corrupt_segments == ((0, 16),)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown FaultPlan"):
            FaultPlan.from_dict({"explosions": []})

    @pytest.mark.parametrize(
        "bad",
        [
            dict(corrupt_segments=((-1, 4),)),
            dict(corrupt_segments=((0, -3),)),
            dict(corrupt_segments=((0, 0),)),
            dict(corrupt_segments=((1,),)),
        ],
    )
    def test_invalid_entries_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            FaultPlan(**bad)


# --------------------------------------------------------------------------- #
# per-record cache CRC (corruption recovery)
# --------------------------------------------------------------------------- #
class TestCacheCorruptionRecovery:
    @pytest.fixture()
    def populated(self, tmp_path):
        cache = PersistentQueryCache(tmp_path / "cache")
        rows = [np.arange(4, dtype=float) + i for i in range(6)]
        for i, row in enumerate(rows):
            cache.put(row, np.array([i, i + 0.5]))
        segment = cache._own_segment
        offsets = sorted(offset for _, offset in cache._index.values())
        cache.close()
        return tmp_path / "cache", rows, segment, offsets

    def test_crc_corrupt_record_skipped_rest_kept(self, populated):
        root, rows, segment, offsets = populated
        blob = bytearray(segment.read_bytes())
        blob[offsets[2] + _HEADER.size + 5] ^= 0xFF  # one payload byte
        segment.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="corrupt record"):
            cache = PersistentQueryCache(root)
        assert cache.corrupt_records == 1
        hits = [cache.get(row) is not None for row in rows]
        assert hits == [True, True, False, True, True, True]
        for i in (0, 1, 3, 4, 5):
            np.testing.assert_array_equal(
                cache.get(rows[i]), np.array([i, i + 0.5])
            )
        # refresh never double-counts already-confirmed corruption
        assert cache.refresh() == 0
        assert cache.corrupt_records == 1
        cache.close()

    def test_smashed_magic_resyncs_on_next_record(self, populated):
        root, rows, segment, offsets = populated
        blob = bytearray(segment.read_bytes())
        blob[offsets[1] : offsets[1] + 4] = b"XXXX"
        segment.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning):
            cache = PersistentQueryCache(root)
        # record 1 lost its framing; resync drops record 2's bytes too (they
        # are unreachable without record 1's lengths) but finds 3, 4, 5
        assert cache.get(rows[0]) is not None
        assert cache.get(rows[1]) is None
        assert all(cache.get(rows[i]) is not None for i in (3, 4, 5))
        assert cache.corrupt_records >= 1
        cache.close()

    def test_torn_tail_is_not_corruption_and_refresh_completes_it(self, populated):
        root, rows, segment, _ = populated
        blob = segment.read_bytes()
        segment.write_bytes(blob[:-5])  # writer killed mid-append
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a torn tail must not warn
            cache = PersistentQueryCache(root)
        assert len(cache) == len(rows) - 1
        assert cache.corrupt_records == 0
        # the writer "comes back" and completes the record
        with open(segment, "ab") as handle:
            handle.write(blob[-5:])
        assert cache.refresh() == 1
        assert len(cache) == len(rows)
        assert cache.corrupt_records == 0
        cache.close()

    def test_fault_plan_corruption_is_deterministic(self, populated, tmp_path):
        root, rows, segment, _ = populated
        pristine = segment.read_bytes()
        plan = FaultPlan(corrupt_segments=((0, 8),), seed=13)
        assert corrupt_cache_segments(plan, root) == 1
        first = segment.read_bytes()
        segment.write_bytes(pristine)
        assert corrupt_cache_segments(plan, root) == 1
        assert segment.read_bytes() == first  # same seed, same damage
        # out-of-range ordinals are ignored, not an error
        assert corrupt_cache_segments(
            FaultPlan(corrupt_segments=((99, 8),)), root
        ) == 0

    def test_engine_surfaces_corrupt_records_stat(
        self, populated, trained_cluster_model
    ):
        root, rows, segment, offsets = populated
        blob = bytearray(segment.read_bytes())
        blob[offsets[0] + _HEADER.size] ^= 0xFF
        segment.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning):
            cache = PersistentQueryCache(root)
        engine = BatchedQueryEngine(trained_cluster_model, cache=cache)
        assert engine.stats.cache_corrupt_records == 1
        assert engine.stats.as_dict()["cache_corrupt_records"] == 1


# --------------------------------------------------------------------------- #
# CLI: resume fingerprint mismatch exits 2 with a one-line diagnosis
# --------------------------------------------------------------------------- #
class TestResumeFingerprintDiagnosis:
    def _tiny_run_argv(self, runs_dir):
        return [
            "--runs-dir", str(runs_dir), "run",
            "--scenario", "two-moons", "--samples", "80", "--epochs", "4",
            "--iterations", "1", "--budget", "40",
            "--seeds-per-iteration", "3", "--queries-per-seed", "5",
        ]

    def test_mismatched_checkpoint_exits_two(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert cli_main(self._tiny_run_argv(runs_dir)) == 0
        checkpoint = runs_dir / "run-0001" / "checkpoint.pkl"
        assert checkpoint.exists()
        # put the run back into a resumable state with a foreign checkpoint
        registry_file = runs_dir / "run-0001" / "run.json"
        import json

        record = json.loads(registry_file.read_text())
        record["status"] = "failed"
        registry_file.write_text(json.dumps(record))
        data = pickle.loads(checkpoint.read_bytes())
        expected = data["payload"]["fingerprint"]
        data["payload"]["fingerprint"] = "deadbeef"
        checkpoint.write_bytes(pickle.dumps(data))

        capsys.readouterr()
        assert cli_main(["--runs-dir", str(runs_dir), "resume", "run-0001"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnosis
        assert str(checkpoint) in err
        assert "deadbeef" in err and expected in err
