"""Sharded multi-worker engine: bit-identity, accounting and lifecycle.

Fast tier: shard planning, engine-level bit-identity against the in-process
batched engine, campaign equivalence on the shared cluster fixtures, the
race-hammer regression for concurrent stats merging, and lifecycle checks.

Slow tier (``pytest -m slow``): the scenario-matrix differential suite —
sequential vs population vs sharded campaigns (and batched vs sharded
reliability estimates) pinned bit-identical on the two-moons,
gaussian-clusters and glyph-digits scenarios from
:mod:`repro.evaluation.scenarios`.
"""

import threading
from functools import lru_cache

import numpy as np
import pytest

from repro.engine import (
    SHM_MIN_BLOCK_BYTES,
    BatchedQueryEngine,
    QueryStats,
    ShardedQueryEngine,
    plan_shards,
)
from repro.engine.transport import ShmRing, resolve_auto_transport
from repro.evaluation import make_scenario
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan, RetryPolicy
from repro.fuzzing import FuzzerConfig, OperationalFuzzer
from repro.reliability import ReliabilityAssessor
from repro.runtime import ExecutionPolicy

SCENARIO_MATRIX = ["two-moons", "gaussian-clusters", "glyph-digits"]

#: Every explicit shard transport (``auto`` resolves to one of the first two).
TRANSPORT_MATRIX = ["pickle", "shm", "threads"]

#: Reduced scenario sizes so the slow tier stays minutes, not hours.
SCENARIO_OVERRIDES = {
    "two-moons": dict(num_samples=600, epochs=12),
    "gaussian-clusters": dict(num_samples=600, epochs=12),
    "glyph-digits": dict(num_samples=500, image_size=10, epochs=8),
}


@lru_cache(maxsize=None)
def _scenario(name):
    """Build (and memoise) one scenario of the differential matrix."""
    return make_scenario(name, rng=2021, **SCENARIO_OVERRIDES[name])


def _assert_campaigns_equivalent(reference, candidate, exact=True):
    """Per-seed queries, detections and AEs must match across engines.

    ``exact=True`` (population vs sharded — same control flow, same physical
    chunks) demands *bit-identical* floats.  ``exact=False`` is used against
    the sequential reference, whose one-row model calls may differ from the
    batched ones in the last ulp (BLAS kernel selection); discrete outcomes
    (queries, detections, rejections) must still match exactly.
    """
    assert len(reference.per_seed) == len(candidate.per_seed)
    for ref, cand in zip(reference.per_seed, candidate.per_seed):
        assert ref.seed_index == cand.seed_index
        assert ref.queries == cand.queries
        assert (
            ref.candidates_rejected_by_naturalness
            == cand.candidates_rejected_by_naturalness
        )
        if exact:
            assert ref.best_fitness == cand.best_fitness
        else:
            assert ref.best_fitness == pytest.approx(cand.best_fitness, rel=1e-9)
        assert (ref.adversarial_example is None) == (cand.adversarial_example is None)
        if ref.adversarial_example is not None:
            if exact:
                np.testing.assert_array_equal(
                    ref.adversarial_example.perturbed,
                    cand.adversarial_example.perturbed,
                )
            else:
                np.testing.assert_allclose(
                    ref.adversarial_example.perturbed,
                    cand.adversarial_example.perturbed,
                    rtol=1e-9,
                    atol=1e-12,
                )
            assert (
                ref.adversarial_example.predicted_label
                == cand.adversarial_example.predicted_label
            )
            assert ref.adversarial_example.queries == cand.adversarial_example.queries
    assert reference.total_queries == candidate.total_queries
    assert reference.detection_rate == candidate.detection_rate


def _fuzzer(naturalness, pool, mode, transport="auto", **overrides):
    """Fuzzer for one point of the equivalence matrix.

    ``mode`` is the historical triple: ``"sequential"``/``"population"``
    select the control flow on the in-process backend, ``"sharded"`` selects
    population control flow on the replicated two-worker backend
    (``transport`` picks its wire: pickle, shm, threads or auto).
    """
    defaults = dict(
        epsilon=0.12,
        queries_per_seed=20,
        naturalness_threshold=0.3,
    )
    if mode == "sharded":
        defaults.update(
            execution="population",
            policy=ExecutionPolicy(
                backend="sharded", num_workers=2, cache=True, transport=transport
            ),
        )
    else:
        defaults.update(execution=mode)
    defaults.update(overrides)
    return OperationalFuzzer(
        naturalness=naturalness, config=FuzzerConfig(**defaults), natural_pool=pool
    )


# --------------------------------------------------------------------------- #
# shard planning
# --------------------------------------------------------------------------- #
class TestShardPlanning:
    def test_shards_cover_rows_in_order(self):
        shards = plan_shards(23, 5, 3)
        assert [(s.start, s.stop) for s in shards] == [
            (0, 5), (5, 10), (10, 15), (15, 20), (20, 23),
        ]
        assert [s.index for s in shards] == list(range(5))

    def test_worker_assignment_is_round_robin(self):
        shards = plan_shards(100, 10, 4)
        assert [s.worker for s in shards] == [i % 4 for i in range(10)]

    def test_plans_are_deterministic(self):
        assert plan_shards(57, 8, 3) == plan_shards(57, 8, 3)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_shards(10, 0, 2)
        with pytest.raises(ConfigurationError):
            plan_shards(10, 4, 0)
        with pytest.raises(ConfigurationError):
            plan_shards(-1, 4, 2)


# --------------------------------------------------------------------------- #
# engine-level bit-identity
# --------------------------------------------------------------------------- #
class TestShardedEngineBitIdentity:
    @pytest.fixture()
    def engines(self, trained_cluster_model, cluster_naturalness):
        batched = BatchedQueryEngine(
            trained_cluster_model, naturalness=cluster_naturalness, batch_size=6
        )
        sharded = ShardedQueryEngine(
            trained_cluster_model,
            naturalness=cluster_naturalness,
            batch_size=6,
            num_workers=2,
        )
        yield batched, sharded
        sharded.close()

    def test_predict_proba_bitwise_equal(self, engines, operational_cluster_data):
        batched, sharded = engines
        x = operational_cluster_data.x[:32]
        np.testing.assert_array_equal(sharded.predict_proba(x), batched.predict_proba(x))
        assert sharded.stats.as_dict() == batched.stats.as_dict()

    def test_gradient_bitwise_equal(self, engines, operational_cluster_data):
        batched, sharded = engines
        x = operational_cluster_data.x[:20]
        y = operational_cluster_data.y[:20]
        np.testing.assert_array_equal(
            sharded.loss_input_gradient(x, y), batched.loss_input_gradient(x, y)
        )
        assert sharded.stats.gradient_calls == batched.stats.gradient_calls

    def test_naturalness_bitwise_equal(self, engines, operational_cluster_data):
        batched, sharded = engines
        x = operational_cluster_data.x[:25]
        np.testing.assert_array_equal(
            sharded.score_naturalness(x), batched.score_naturalness(x)
        )
        assert sharded.stats.naturalness_calls == batched.stats.naturalness_calls

    def test_single_worker_runs_in_process(
        self, trained_cluster_model, operational_cluster_data
    ):
        engine = ShardedQueryEngine(trained_cluster_model, batch_size=8, num_workers=1)
        x = operational_cluster_data.x[:19]
        np.testing.assert_array_equal(
            engine.predict(x), trained_cluster_model.predict(x)
        )
        assert engine._pools is None  # no pool was ever spawned
        engine.close()

    def test_shared_cache_answers_across_workers(
        self, trained_cluster_model, operational_cluster_data
    ):
        with ShardedQueryEngine(
            trained_cluster_model, batch_size=4, num_workers=2, cache=True
        ) as engine:
            x = operational_cluster_data.x[:16]
            first = engine.predict_proba(x)
            physical = engine.stats.model_calls
            # rows already computed by *any* worker are answered by the
            # coordinator cache: no new physical calls on any worker
            second = engine.predict_proba(x)
            np.testing.assert_array_equal(first, second)
            assert engine.stats.model_calls == physical
            assert engine.stats.cache_hits == len(x)


# --------------------------------------------------------------------------- #
# campaign equivalence on the shared fixtures (fast tier)
# --------------------------------------------------------------------------- #
class TestShardedCampaignEquivalence:
    def test_sharded_matches_population_and_sequential(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        campaigns = {}
        for mode in ("sequential", "population", "sharded"):
            fuzzer = _fuzzer(cluster_naturalness, data.x, mode)
            campaigns[mode] = fuzzer.fuzz(
                trained_cluster_model, data.x[:14], data.y[:14], rng=0
            )
        _assert_campaigns_equivalent(
            campaigns["sequential"], campaigns["population"], exact=False
        )
        _assert_campaigns_equivalent(campaigns["population"], campaigns["sharded"])

    def test_sharded_matches_population_under_budget(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        campaigns = {}
        for mode in ("population", "sharded"):
            fuzzer = _fuzzer(cluster_naturalness, data.x, mode)
            campaigns[mode] = fuzzer.fuzz(
                trained_cluster_model, data.x[:20], data.y[:20], budget=150, rng=1
            )
            campaigns[mode].validate_budget(150)
        _assert_campaigns_equivalent(campaigns["population"], campaigns["sharded"])

    def test_sharded_respects_budget_invariants(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        for budget in (1, 37, 10_000):
            fuzzer = _fuzzer(cluster_naturalness, data.x, "sharded")
            campaign = fuzzer.fuzz(
                trained_cluster_model, data.x[:12], data.y[:12], budget=budget, rng=5
            )
            assert campaign.total_queries <= budget
            campaign.validate_budget(budget)

    def test_invalid_num_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            FuzzerConfig(policy=ExecutionPolicy(num_workers=0))
        with pytest.raises(ConfigurationError):
            plan_shards(4, 2, -1)


# --------------------------------------------------------------------------- #
# black-box attacks through the sharded backend
# --------------------------------------------------------------------------- #
class TestShardedAttacks:
    @pytest.mark.parametrize("attack_cls", ["RandomFuzz", "BoundaryNudge"])
    def test_attack_results_identical_across_backends(
        self, attack_cls, trained_cluster_model, operational_cluster_data
    ):
        from repro.attacks import BoundaryNudge, RandomFuzz

        cls = {"RandomFuzz": RandomFuzz, "BoundaryNudge": BoundaryNudge}[attack_cls]
        x = operational_cluster_data.x[:24]
        y = operational_cluster_data.y[:24]
        results = {}
        for backend, workers in (("batched", 1), ("sharded", 2)):
            attack = cls(
                epsilon=0.1,
                policy=ExecutionPolicy(
                    backend=backend, num_workers=workers, batch_size=16
                ),
            )
            results[backend] = attack.run(trained_cluster_model, x, y, rng=4)
        batched, sharded = results["batched"], results["sharded"]
        np.testing.assert_array_equal(batched.adversarial_x, sharded.adversarial_x)
        np.testing.assert_array_equal(batched.success, sharded.success)
        np.testing.assert_array_equal(
            batched.queries_per_seed, sharded.queries_per_seed
        )
        assert batched.queries == sharded.queries

    def test_attack_rejects_bad_engine_knobs(self):
        from repro.attacks import RandomFuzz

        with pytest.raises(ConfigurationError):
            RandomFuzz(policy=ExecutionPolicy(backend="warp"))


# --------------------------------------------------------------------------- #
# race-free stats merging and cache accounting (regression)
# --------------------------------------------------------------------------- #
class TestConcurrentMergeSafety:
    def test_hammer_concurrent_shard_merges(self, trained_cluster_model):
        """Concurrent per-shard merges must never lose an update.

        Today's dispatch merges serially on the coordinator thread; the lock
        in ``_absorb`` is the engine's guarantee for any future concurrent
        completion path (async dispatch, callback-based gathering).  This
        hammers that merge point from many threads at once and checks the
        totals are exact — without the lock the read-modify-write merges
        would drop increments.
        """
        engine = ShardedQueryEngine(trained_cluster_model, num_workers=1)
        threads, per_thread = 8, 2500
        delta = QueryStats(model_calls=1, rows_queried=3, cache_hits=2)
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                engine._absorb(delta)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert engine.stats.model_calls == threads * per_thread
        assert engine.stats.rows_queried == 3 * threads * per_thread
        assert engine.stats.cache_hits == 2 * threads * per_thread
        engine.close()

    def test_hammer_concurrent_cache_accounting(self, trained_cluster_model):
        """Cache puts/gets racing with stats merges stay consistent."""
        engine = ShardedQueryEngine(
            trained_cluster_model, num_workers=1, cache=True, cache_max_entries=64
        )
        rows = np.random.default_rng(0).random((128, 2))
        values = np.random.default_rng(1).random((128, 4))
        barrier = threading.Barrier(4)

        def cache_worker(offset):
            barrier.wait()
            for i in range(500):
                row = rows[(offset + i) % len(rows)]
                engine.cache.put(row, values[(offset + i) % len(values)])
                engine.cache.get(rows[i % len(rows)])
                engine._absorb(QueryStats(cache_hits=1))

        workers = [threading.Thread(target=cache_worker, args=(k,)) for k in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert engine.stats.cache_hits == 4 * 500
        assert len(engine.cache) <= 64
        engine.close()

    def test_query_stats_merge_is_componentwise_addition(self):
        total = QueryStats()
        parts = [
            QueryStats(rows_queried=3, model_calls=1),
            QueryStats(rows_queried=5, cache_hits=2, gradient_calls=4),
            QueryStats(naturalness_rows=7, naturalness_calls=1, gradient_rows=2),
        ]
        for part in parts:
            total.merge(part)
        assert total.as_dict() == {
            "rows_queried": 8,
            "model_calls": 1,
            "cache_hits": 2,
            "gradient_rows": 2,
            "gradient_calls": 4,
            "naturalness_rows": 7,
            "naturalness_calls": 1,
            "shard_retries": 0,
            "worker_respawns": 0,
            "degraded_shards": 0,
            "cache_corrupt_records": 0,
        }


# --------------------------------------------------------------------------- #
# construction and lifecycle
# --------------------------------------------------------------------------- #
class TestEngineConstruction:
    def test_session_closes_created_engines_only(self, trained_cluster_model):
        policy = ExecutionPolicy(backend="sharded", num_workers=2)
        with policy.session(trained_cluster_model) as engine:
            engine.predict(np.zeros((3, 2)))
            assert engine._pools is not None
        assert engine._pools is None  # closed on exit
        owned = ShardedQueryEngine(trained_cluster_model, num_workers=2)
        try:
            owned.predict(np.zeros((3, 2)))
            with policy.session(owned) as passed_through:
                assert passed_through is owned
            assert owned._pools is not None  # caller-owned engines survive
        finally:
            owned.close()

    def test_late_scorer_attach_reaches_workers(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        """Attaching a scorer after the pool snapshot must refresh replicas.

        ``ExecutionPolicy.build_engine`` (through ``as_query_engine``) injects
        a naturalness scorer into pre-built engines on pass-through; if the
        worker pool already snapshotted a scorer-less replica it must be
        rebuilt, not left to raise mid-campaign.
        """
        engine = ShardedQueryEngine(trained_cluster_model, batch_size=4, num_workers=2)
        try:
            x = operational_cluster_data.x[:12]
            engine.predict(x)  # pool snapshots (model, None)
            assert ExecutionPolicy().build_engine(engine, cluster_naturalness) is engine
            np.testing.assert_array_equal(
                engine.score_naturalness(x), cluster_naturalness.score(x)
            )
        finally:
            engine.close()

    def test_close_is_idempotent_and_reentrant(self, trained_cluster_model):
        engine = ShardedQueryEngine(trained_cluster_model, num_workers=2)
        x = np.zeros((2, 2))
        engine.predict(x)
        engine.close()
        engine.close()
        # a closed engine lazily rebuilds its pool from a fresh snapshot
        engine.predict(x)
        engine.close()


# --------------------------------------------------------------------------- #
# shard transports: bit-identity, auto resolution, ring lifecycle
# --------------------------------------------------------------------------- #
class TestTransportBitIdentity:
    @pytest.mark.parametrize("transport", TRANSPORT_MATRIX)
    def test_engine_calls_bit_identical(
        self,
        transport,
        trained_cluster_model,
        cluster_naturalness,
        operational_cluster_data,
    ):
        batched = BatchedQueryEngine(
            trained_cluster_model, naturalness=cluster_naturalness, batch_size=6
        )
        x = operational_cluster_data.x[:32]
        y = operational_cluster_data.y[:32]
        with ShardedQueryEngine(
            trained_cluster_model,
            naturalness=cluster_naturalness,
            batch_size=6,
            num_workers=2,
            transport=transport,
        ) as sharded:
            np.testing.assert_array_equal(
                sharded.predict_proba(x), batched.predict_proba(x)
            )
            np.testing.assert_array_equal(
                sharded.loss_input_gradient(x, y), batched.loss_input_gradient(x, y)
            )
            np.testing.assert_array_equal(
                sharded.score_naturalness(x), batched.score_naturalness(x)
            )
            assert sharded.stats.as_dict() == batched.stats.as_dict()

    @pytest.mark.parametrize("transport", TRANSPORT_MATRIX)
    def test_campaigns_bit_identical_across_transports(
        self,
        transport,
        trained_cluster_model,
        cluster_naturalness,
        operational_cluster_data,
    ):
        data = operational_cluster_data
        population = _fuzzer(cluster_naturalness, data.x, "population").fuzz(
            trained_cluster_model, data.x[:14], data.y[:14], rng=0
        )
        sharded = _fuzzer(
            cluster_naturalness, data.x, "sharded", transport=transport
        ).fuzz(trained_cluster_model, data.x[:14], data.y[:14], rng=0)
        _assert_campaigns_equivalent(population, sharded)

    def test_auto_resolves_by_block_size(self):
        assert resolve_auto_transport(SHM_MIN_BLOCK_BYTES) == "shm"
        assert resolve_auto_transport(SHM_MIN_BLOCK_BYTES - 1) == "pickle"

    def test_engine_auto_picks_per_call(self, trained_cluster_model):
        # small blocks stay on the pickle wire, big blocks go zero-copy —
        # the same engine resolves per logical call
        with ShardedQueryEngine(
            trained_cluster_model, batch_size=8192, num_workers=2
        ) as engine:
            assert engine._call_transport((np.zeros((10, 2)),)) == "pickle"
            assert engine._call_transport((np.zeros((8192, 2)),)) == "shm"

    def test_invalid_transport_rejected(self, trained_cluster_model):
        with pytest.raises(ConfigurationError):
            ShardedQueryEngine(trained_cluster_model, transport="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(transport="carrier-pigeon")

    def test_transport_round_trips_through_policy(self):
        policy = ExecutionPolicy(backend="sharded", num_workers=2, transport="shm")
        assert policy.to_dict()["transport"] == "shm"
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy

    def test_threads_with_kill_plan_rejected(self, trained_cluster_model):
        # a thread cannot be SIGKILLed in isolation: kill-injection chaos
        # requires process workers
        with pytest.raises(ConfigurationError):
            ShardedQueryEngine(
                trained_cluster_model,
                num_workers=2,
                transport="threads",
                faults=FaultPlan(kills=((0, 1),)),
            )

    def test_shm_rows_hit_coordinator_cache(
        self, trained_cluster_model, operational_cluster_data
    ):
        # cache lookups happen before dispatch, so rows arriving via shared
        # memory populate — and are answered by — the same coordinator cache
        with ShardedQueryEngine(
            trained_cluster_model,
            batch_size=4,
            num_workers=2,
            cache=True,
            transport="shm",
        ) as engine:
            x = operational_cluster_data.x[:16]
            first = engine.predict_proba(x)
            physical = engine.stats.model_calls
            second = engine.predict_proba(x)
            np.testing.assert_array_equal(first, second)
            assert engine.stats.model_calls == physical
            assert engine.stats.cache_hits == len(x)

    def test_oversized_response_inlines_then_grows_rings(
        self, trained_cluster_model, operational_cluster_data
    ):
        # the cluster model answers more probability columns than it has
        # feature columns, so the first shm dispatch overflows its response
        # slots (sized from the request block) and falls back to inline
        # results — bit-identical — while recording the needed size; the
        # next dispatch grows the rings and stays zero-copy
        x = operational_cluster_data.x[:24]
        reference = BatchedQueryEngine(
            trained_cluster_model, batch_size=6
        ).predict_proba(x)
        with ShardedQueryEngine(
            trained_cluster_model, batch_size=6, num_workers=2, transport="shm"
        ) as engine:
            np.testing.assert_array_equal(engine.predict_proba(x), reference)
            hint = engine._response_bytes_hint
            assert hint > 0
            np.testing.assert_array_equal(engine.predict_proba(x), reference)
            assert all(
                pair.response.slot_bytes >= hint
                for pair in engine._rings[: engine.num_workers]
            )


class TestShmLifecycle:
    def test_close_unlinks_segments(
        self, trained_cluster_model, operational_cluster_data
    ):
        engine = ShardedQueryEngine(
            trained_cluster_model, batch_size=4, num_workers=2, transport="shm"
        )
        engine.predict_proba(operational_cluster_data.x[:16])
        names = [
            ring.name
            for pair in engine._rings
            for ring in (pair.request, pair.response)
        ]
        assert len(names) == 4
        engine.close()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name).close()

    def test_respawned_worker_reattaches_to_segments(
        self, trained_cluster_model, operational_cluster_data
    ):
        # kill worker 1 at its second shard: the supervisor respawns it and
        # the fresh process must reattach to the same rings by name
        x = operational_cluster_data.x[:64]
        reference = BatchedQueryEngine(
            trained_cluster_model, batch_size=4
        ).predict_proba(x)
        with ShardedQueryEngine(
            trained_cluster_model,
            batch_size=4,
            num_workers=2,
            transport="shm",
            retry=RetryPolicy(shard_timeout_s=1.0),
            faults=FaultPlan(kills=((1, 2),)),
        ) as engine:
            np.testing.assert_array_equal(engine.predict_proba(x), reference)
            assert engine.stats.worker_respawns >= 1

    def test_exhaustion_degrade_unlinks_segments(
        self, trained_cluster_model, operational_cluster_data
    ):
        # both workers die beyond the respawn budget: the engine degrades to
        # in-process execution and must not keep holding shared memory
        x = operational_cluster_data.x[:64]
        reference = BatchedQueryEngine(
            trained_cluster_model, batch_size=4
        ).predict_proba(x)
        kills = tuple((worker, hit) for worker in (0, 1) for hit in range(1, 7))
        with ShardedQueryEngine(
            trained_cluster_model,
            batch_size=4,
            num_workers=2,
            transport="shm",
            retry=RetryPolicy(
                shard_timeout_s=0.5, max_respawns=1, on_exhaustion="degrade"
            ),
            faults=FaultPlan(kills=kills),
        ) as engine:
            np.testing.assert_array_equal(engine.predict_proba(x), reference)
            assert engine._supervisor.degraded
            assert all(
                pair.request.shm is None and pair.response.shm is None
                for pair in engine._rings
            )
            # the degraded engine keeps answering (in-process) bit-identically
            np.testing.assert_array_equal(engine.predict_proba(x), reference)

    def test_ring_slot_reuse_survives_concurrent_hammering(self):
        """Distinct slots written/read concurrently never tear.

        The transport's safety argument is per-slot exclusivity (a slot has
        one writer, then one reader, ordered by submit/harvest); this hammers
        many slots from many threads at once and checks every read returns
        exactly what that slot's writer wrote.
        """
        ring = ShmRing()
        try:
            threads, iterations, rows = 6, 200, 16
            ring.ensure(slots=threads, slot_bytes=rows * 8 * 8)
            failures = []
            barrier = threading.Barrier(threads)

            def hammer(slot):
                rng = np.random.default_rng(slot)
                barrier.wait()
                for _ in range(iterations):
                    block = rng.random((rows, 8))
                    entries = ring.write(slot, [block])
                    offset, shape, dtype = entries[0]
                    back = ring.read_copy(offset, shape, dtype)
                    if not np.array_equal(back, block):
                        failures.append(slot)
                        return

            workers = [
                threading.Thread(target=hammer, args=(slot,))
                for slot in range(threads)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            assert not failures
        finally:
            ring.release()


# --------------------------------------------------------------------------- #
# scenario-matrix differential suite (slow tier)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.parametrize("scenario_name", SCENARIO_MATRIX)
class TestScenarioMatrixEquivalence:
    """The sharded path must reproduce whole campaigns bit-identically.

    For each scenario: same seeds, same detections, same per-seed query
    counts and ``validate_budget`` invariants across the sequential,
    population and sharded engines — and identical reliability estimates
    from the batched and sharded assessor backends.
    """

    @pytest.fixture()
    def scenario(self, scenario_name):
        return _scenario(scenario_name)

    def test_campaigns_bit_identical_across_engines(self, scenario):
        seeds = scenario.operational_data.x[:16]
        labels = scenario.operational_data.y[:16]
        campaigns = {}
        for mode in ("sequential", "population", "sharded"):
            fuzzer = _fuzzer(
                scenario.naturalness, scenario.operational_data.x, mode
            )
            campaigns[mode] = fuzzer.fuzz(scenario.model, seeds, labels, rng=2021)
        _assert_campaigns_equivalent(
            campaigns["sequential"], campaigns["population"], exact=False
        )
        _assert_campaigns_equivalent(campaigns["population"], campaigns["sharded"])

    def test_budgeted_campaigns_bit_identical_and_within_budget(self, scenario):
        seeds = scenario.operational_data.x[:20]
        labels = scenario.operational_data.y[:20]
        budget = 240
        campaigns = {}
        for mode in ("population", "sharded"):
            fuzzer = _fuzzer(
                scenario.naturalness, scenario.operational_data.x, mode
            )
            campaigns[mode] = fuzzer.fuzz(
                scenario.model, seeds, labels, budget=budget, rng=7
            )
            campaigns[mode].validate_budget(budget)
            assert campaigns[mode].total_queries <= budget
        _assert_campaigns_equivalent(campaigns["population"], campaigns["sharded"])

    def test_reliability_estimates_identical_across_backends(self, scenario):
        estimates = {}
        for backend in ("batched", "sharded"):
            assessor = ReliabilityAssessor(
                partition=scenario.partition,
                profile=scenario.profile,
                policy=ExecutionPolicy(backend=backend, num_workers=2),
                rng=99,
            )
            estimates[backend] = assessor.assess(
                scenario.model, scenario.operational_data, rng=99
            )
        batched, sharded = estimates["batched"], estimates["sharded"]
        assert batched.pmi == sharded.pmi
        assert batched.pmi_upper == sharded.pmi_upper
        assert batched.pmi_lower == sharded.pmi_lower
        assert batched.cells_evaluated == sharded.cells_evaluated
        assert batched.queries == sharded.queries

    def test_sharded_engine_bitwise_on_scenario_inputs(self, scenario):
        x = scenario.operational_data.x[:48]
        sharded_policy = ExecutionPolicy(backend="sharded", num_workers=2, batch_size=16)
        with scenario.query_engine(policy=sharded_policy) as sharded:
            with scenario.query_engine(policy=ExecutionPolicy(batch_size=16)) as batched:
                np.testing.assert_array_equal(
                    sharded.predict_proba(x), batched.predict_proba(x)
                )
                np.testing.assert_array_equal(
                    sharded.score_naturalness(x), batched.score_naturalness(x)
                )
                assert sharded.stats.as_dict() == batched.stats.as_dict()


@pytest.mark.slow
@pytest.mark.parametrize("transport", TRANSPORT_MATRIX)
@pytest.mark.parametrize("scenario_name", SCENARIO_MATRIX)
class TestScenarioTransportMatrix:
    """The scenario matrix must pass unchanged under every shard transport.

    The transport knob only changes how row blocks reach the workers — the
    pickle wire, shared-memory rings or an in-process thread pool — so for
    every scenario and every transport, campaigns, reliability estimates and
    raw engine calls must stay bit-identical to the population baseline.
    """

    @pytest.fixture()
    def scenario(self, scenario_name):
        return _scenario(scenario_name)

    def test_campaigns_bit_identical(self, scenario, transport):
        seeds = scenario.operational_data.x[:16]
        labels = scenario.operational_data.y[:16]
        population = _fuzzer(
            scenario.naturalness, scenario.operational_data.x, "population"
        ).fuzz(scenario.model, seeds, labels, rng=2021)
        sharded = _fuzzer(
            scenario.naturalness,
            scenario.operational_data.x,
            "sharded",
            transport=transport,
        ).fuzz(scenario.model, seeds, labels, rng=2021)
        _assert_campaigns_equivalent(population, sharded)

    def test_reliability_estimates_identical(self, scenario, transport):
        estimates = {}
        for policy in (
            ExecutionPolicy(backend="batched"),
            ExecutionPolicy(backend="sharded", num_workers=2, transport=transport),
        ):
            assessor = ReliabilityAssessor(
                partition=scenario.partition,
                profile=scenario.profile,
                policy=policy,
                rng=99,
            )
            estimates[policy.backend] = assessor.assess(
                scenario.model, scenario.operational_data, rng=99
            )
        batched, sharded = estimates["batched"], estimates["sharded"]
        assert batched.pmi == sharded.pmi
        assert batched.pmi_upper == sharded.pmi_upper
        assert batched.pmi_lower == sharded.pmi_lower
        assert batched.cells_evaluated == sharded.cells_evaluated
        assert batched.queries == sharded.queries

    def test_engine_bitwise_on_scenario_inputs(self, scenario, transport):
        x = scenario.operational_data.x[:48]
        policy = ExecutionPolicy(
            backend="sharded", num_workers=2, batch_size=16, transport=transport
        )
        with scenario.query_engine(policy=policy) as sharded:
            with scenario.query_engine(policy=ExecutionPolicy(batch_size=16)) as batched:
                np.testing.assert_array_equal(
                    sharded.predict_proba(x), batched.predict_proba(x)
                )
                np.testing.assert_array_equal(
                    sharded.score_naturalness(x), batched.score_naturalness(x)
                )
                assert sharded.stats.as_dict() == batched.stats.as_dict()
