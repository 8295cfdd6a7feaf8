"""Tests for the batched query engine and lock-step population fuzzing.

Slow tier (``pytest -m slow``): the scenario-matrix differential suite —
sequential vs population campaigns on the two-moons, gaussian-clusters and
glyph-digits scenarios from :mod:`repro.evaluation.scenarios`, plus what
toggling the query cache keeps equal.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.engine import (
    BatchedQueryEngine,
    QueryCache,
    QueryStats,
    as_query_engine,
    fitness_from_probs,
)
from repro.evaluation import make_scenario
from repro.exceptions import ConfigurationError, DataError, FuzzingError
from repro.fuzzing import FuzzerConfig, OperationalFuzzer
from repro.runtime import ExecutionPolicy

SCENARIO_MATRIX = ["two-moons", "gaussian-clusters", "glyph-digits"]

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


@pytest.fixture()
def engine_inputs(operational_cluster_data):
    data = operational_cluster_data
    return data.x[:32], data.y[:32]


class TestBatchedQueryEngine:
    def test_chunked_predict_proba_matches_direct(self, trained_cluster_model, engine_inputs):
        x, _ = engine_inputs
        direct = trained_cluster_model.predict_proba(x)
        engine = BatchedQueryEngine(trained_cluster_model, batch_size=5)
        chunked = engine.predict_proba(x)
        np.testing.assert_allclose(chunked, direct, rtol=1e-12)
        assert engine.stats.rows_queried == len(x)
        assert engine.stats.model_calls == int(np.ceil(len(x) / 5))

    def test_predict_matches_model(self, trained_cluster_model, engine_inputs):
        x, _ = engine_inputs
        engine = BatchedQueryEngine(trained_cluster_model, batch_size=7)
        np.testing.assert_array_equal(engine.predict(x), trained_cluster_model.predict(x))

    def test_predict_of_an_empty_batch_is_empty(self, trained_cluster_model, engine_inputs):
        # the model itself returns [] for a (0, d) batch; the engine must too
        x, _ = engine_inputs
        engine = BatchedQueryEngine(trained_cluster_model)
        labels = engine.predict(np.zeros((0, x.shape[1])))
        assert labels.shape == (0,)
        assert engine.stats.model_calls == 0

    def test_chunked_gradient_sign_matches_direct(self, trained_cluster_model, engine_inputs):
        x, y = engine_inputs
        engine = BatchedQueryEngine(trained_cluster_model, batch_size=4)
        chunked = engine.loss_input_gradient(x, y)
        # chunking changes the batch-mean scaling, never the direction
        per_row = np.stack(
            [
                trained_cluster_model.loss_input_gradient(x[i][None, :], [y[i]])[0]
                for i in range(len(x))
            ]
        )
        np.testing.assert_array_equal(np.sign(chunked), np.sign(per_row))
        assert engine.stats.gradient_rows == len(x)
        assert engine.stats.gradient_calls == int(np.ceil(len(x) / 4))

    def test_cache_answers_repeat_rows(self, trained_cluster_model, engine_inputs):
        x, _ = engine_inputs
        engine = BatchedQueryEngine(trained_cluster_model, batch_size=64, cache=True)
        first = engine.predict_proba(x)
        calls_after_first = engine.stats.model_calls
        second = engine.predict_proba(x)
        np.testing.assert_array_equal(first, second)
        assert engine.stats.model_calls == calls_after_first  # no new physical calls
        assert engine.stats.cache_hits == len(x)

    def test_cache_eviction_is_bounded(self):
        cache = QueryCache(max_entries=3)
        rows = np.eye(4)
        for row in rows:
            cache.put(row, row)
        assert len(cache) == 3
        assert cache.get(rows[0]) is None  # oldest entry evicted
        assert cache.get(rows[3]) is not None

    def test_cache_overwrite_does_not_evict(self):
        # regression: a put of an already-present key used to evict an
        # unrelated entry once the cache was full
        cache = QueryCache(max_entries=3)
        rows = np.eye(3)
        for i, row in enumerate(rows):
            cache.put(row, np.array([float(i)]))
        assert len(cache) == 3
        cache.put(rows[2], np.array([42.0]))  # overwrite at capacity
        assert len(cache) == 3
        for row in rows:  # every key survived the overwrite
            assert cache.get(row) is not None
        np.testing.assert_array_equal(cache.get(rows[2]), [42.0])

    def test_cache_keys_tag_dtype_and_shape(self):
        # regression: raw tobytes() keys collided across dtype/shape — the
        # float32 pair [1, 2] and the float64 scalar row with the same byte
        # pattern must be distinct entries, never serve each other's values
        cache = QueryCache(max_entries=16)
        row64 = np.array([1.0, 2.0])
        row32 = np.frombuffer(row64.tobytes(), dtype=np.float32)
        assert row64.tobytes() == row32.tobytes()  # the collision precondition
        cache.put(row64, np.array([0.25]))
        assert cache.get(row32) is None  # different dtype: a miss, not a hit
        cache.put(row32, np.array([0.75]))
        assert len(cache) == 2
        np.testing.assert_array_equal(cache.get(row64), [0.25])
        np.testing.assert_array_equal(cache.get(row32), [0.75])
        # same bytes, same dtype, different shape must not collide either
        flat = np.zeros(4)
        square = np.zeros((2, 2))
        cache.put(flat, np.array([1.0]))
        assert cache.get(square) is None

    def test_naturalness_scoring_chunked(self, trained_cluster_model, cluster_naturalness, engine_inputs):
        x, _ = engine_inputs
        engine = BatchedQueryEngine(
            trained_cluster_model, naturalness=cluster_naturalness, batch_size=6
        )
        scores = engine.score_naturalness(x)
        np.testing.assert_allclose(scores, cluster_naturalness.score(x, log=True), rtol=1e-12)
        assert engine.stats.naturalness_calls == int(np.ceil(len(x) / 6))

    def test_score_naturalness_requires_scorer(self, trained_cluster_model, engine_inputs):
        x, _ = engine_inputs
        engine = BatchedQueryEngine(trained_cluster_model)
        with pytest.raises(ConfigurationError):
            engine.score_naturalness(x)

    def test_as_query_engine_is_idempotent(self, trained_cluster_model):
        engine = BatchedQueryEngine(trained_cluster_model, batch_size=11)
        assert as_query_engine(engine) is engine
        wrapped = as_query_engine(trained_cluster_model)
        assert isinstance(wrapped, BatchedQueryEngine)
        assert wrapped.model is trained_cluster_model

    def test_invalid_configuration(self, trained_cluster_model):
        with pytest.raises(ConfigurationError):
            BatchedQueryEngine(trained_cluster_model, batch_size=0)
        with pytest.raises(ConfigurationError):
            QueryCache(max_entries=0)

    def test_engine_rejects_non_bool_cache(self, trained_cluster_model):
        # the engine builds its own cache from a bool and accepts no cache
        # object, not even a QueryCache
        for cache in (object(), QueryCache(), None):
            with pytest.raises(ConfigurationError, match="cache must be a bool"):
                BatchedQueryEngine(trained_cluster_model, cache=cache)
            with pytest.raises(ConfigurationError, match="cache must be a bool"):
                as_query_engine(trained_cluster_model, cache=cache)


class TestFitness:
    def test_zero_naturalness_weight_ignores_minus_inf_log_naturalness(self):
        # a candidate in a cell without OP mass has log naturalness -inf;
        # purely loss-guided search must still rank it by its loss
        probs = np.array([0.5, 0.25, 1.0])
        log_naturalness = np.array([-np.inf, -3.0, -np.inf])
        fitness = fitness_from_probs(probs, log_naturalness, 2.0, 0.0)
        np.testing.assert_array_equal(fitness, 2.0 * -np.log(probs))
        assert fitness_from_probs(0.25, -np.inf, 2.0, 0.0) == 2.0 * -np.log(0.25)

    def test_fitness_adds_weighted_log_naturalness(self):
        fitness = fitness_from_probs(np.array([0.5]), np.array([-3.0]), 1.0, 0.5)
        np.testing.assert_array_equal(fitness, -np.log(0.5) - 1.5)


class TestQueryStats:
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
        }


class TestNonFiniteInputs:
    """A NaN or infinite row fails loudly before the cache or the model."""

    @pytest.mark.parametrize("engine_cls", [BatchedQueryEngine])
    def test_every_probe_rejects_a_nan_row(
        self, engine_cls, trained_cluster_model, cluster_naturalness, engine_inputs
    ):
        x, y = engine_inputs
        x = x[:6].copy()
        x[3, 1] = np.nan
        engine = engine_cls(
            trained_cluster_model,
            naturalness=cluster_naturalness,
            batch_size=4,
            cache=True,
        )
        with pytest.raises(DataError, match="row 3"):
            engine.predict_proba(x)
        with pytest.raises(DataError, match="row 3"):
            engine.loss_input_gradient(x, y[:6])
        x[3, 1] = np.inf
        with pytest.raises(DataError, match="row 3"):
            engine.score_naturalness(x)
        assert len(engine.cache) == 0
        stats = engine.stats
        assert stats.model_calls == stats.gradient_calls == 0
        assert stats.naturalness_calls == 0

    def test_fuzzer_rejects_an_all_nan_seed(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        # ReLU maps NaN to 0, so the model alone would classify this seed
        # from its biases, and the fuzzer would report it as an AE
        engine = BatchedQueryEngine(
            trained_cluster_model, naturalness=cluster_naturalness, cache=True
        )
        fuzzer = _make_fuzzer(cluster_naturalness, None, "population")
        seed = np.full((1, operational_cluster_data.x.shape[1]), np.nan)
        with pytest.raises(DataError, match="row 0"):
            fuzzer.fuzz(engine, seed, np.array([2]), rng=0)
        assert len(engine.cache) == 0
        assert engine.stats.model_calls == 0


def _make_fuzzer(cluster_naturalness, pool, execution, **overrides):
    defaults = dict(
        epsilon=0.12,
        queries_per_seed=25,
        naturalness_threshold=0.3,
        execution=execution,
    )
    defaults.update(overrides)
    return OperationalFuzzer(
        naturalness=cluster_naturalness,
        config=FuzzerConfig(**defaults),
        natural_pool=pool,
    )


def _fuzzer(naturalness, pool, mode, **overrides):
    """Fuzzer for one point of the equivalence matrix: 20 queries per seed,
    query cache on."""
    overrides = {"queries_per_seed": 20, "policy": ExecutionPolicy(cache=True), **overrides}
    return _make_fuzzer(naturalness, pool, mode, **overrides)


def _assert_campaigns_equivalent(reference, candidate, exact=True):
    """Per-seed queries, detections and AEs must match across control flows.

    ``exact=True`` demands *bit-identical* floats.  ``exact=False`` is used
    against the sequential reference, whose one-row model calls may differ
    from the batched ones in the last ulp (BLAS kernel selection); discrete
    outcomes (queries, detections, rejections) must still match exactly.
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


class TestPopulationSequentialEquivalence:
    """The batched population path must match the sequential reference."""

    def test_cached_population_matches_sequential(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        campaigns = {}
        for mode in ("sequential", "population"):
            fuzzer = _fuzzer(cluster_naturalness, data.x, mode)
            campaigns[mode] = fuzzer.fuzz(
                trained_cluster_model, data.x[:14], data.y[:14], rng=0
            )
        _assert_campaigns_equivalent(
            campaigns["sequential"], campaigns["population"], exact=False
        )

    def test_unbudgeted_campaigns_are_identical(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        seeds, labels = data.x[:16], data.y[:16]
        campaigns = {}
        for mode in ("population", "sequential"):
            fuzzer = _make_fuzzer(cluster_naturalness, data.x, mode)
            campaigns[mode] = fuzzer.fuzz(trained_cluster_model, seeds, labels, rng=0)
        population, sequential = campaigns["population"], campaigns["sequential"]
        assert len(population.per_seed) == len(sequential.per_seed)
        for p, s in zip(population.per_seed, sequential.per_seed):
            assert p.seed_index == s.seed_index
            assert p.queries == s.queries
            assert (p.adversarial_example is None) == (s.adversarial_example is None)
            if p.adversarial_example is not None:
                np.testing.assert_allclose(
                    p.adversarial_example.perturbed,
                    s.adversarial_example.perturbed,
                    rtol=1e-9,
                    atol=1e-12,
                )
        assert population.total_queries == sequential.total_queries

    def test_natural_failures_found_identically(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        predictions = trained_cluster_model.predict(data.x)
        wrong = np.flatnonzero(predictions != data.y)
        if len(wrong) == 0:
            pytest.skip("model has no natural failures on the operational data")
        seeds, labels = data.x[wrong[:4]], data.y[wrong[:4]]
        for mode in ("population", "sequential"):
            fuzzer = _make_fuzzer(cluster_naturalness, data.x, mode)
            campaign = fuzzer.fuzz(trained_cluster_model, seeds, labels, rng=3)
            assert campaign.detection_rate == 1.0
            for result in campaign.per_seed:
                assert result.queries == 1
                assert result.adversarial_example.distance == 0.0

    def test_natural_failure_waves_do_not_strand_waitlist(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        # when a whole admission wave retires as natural failures (1 query
        # each), the refunded budget must keep admitting waitlisted seeds —
        # exactly like the sequential loop does
        data = operational_cluster_data
        predictions = trained_cluster_model.predict(data.x)
        wrong = np.flatnonzero(predictions != data.y)
        if len(wrong) < 6:
            pytest.skip("not enough natural failures in the scenario")
        seeds, labels = data.x[wrong[:6]], data.y[wrong[:6]]
        counts = {}
        for mode in ("population", "sequential"):
            fuzzer = _make_fuzzer(cluster_naturalness, data.x, mode, queries_per_seed=5)
            campaign = fuzzer.fuzz(
                trained_cluster_model, seeds, labels, budget=6, rng=0
            )
            counts[mode] = (len(campaign.per_seed), campaign.total_queries)
        assert counts["population"] == counts["sequential"] == (6, 6)

    def test_detection_rate_comparable_under_budget(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        seeds, labels = data.x[:20], data.y[:20]
        rates = {}
        for mode in ("population", "sequential"):
            fuzzer = _make_fuzzer(cluster_naturalness, data.x, mode)
            campaign = fuzzer.fuzz(
                trained_cluster_model, seeds, labels, budget=300, rng=1
            )
            rates[mode] = campaign.detection_rate
        # admission order differs slightly under a shared budget, but the
        # batched path must remain a comparable detector
        assert rates["population"] >= rates["sequential"] - 0.15

    def test_population_uses_far_fewer_model_calls(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        seeds, labels = data.x[:16], data.y[:16]
        calls = {}
        for mode in ("population", "sequential"):
            fuzzer = _make_fuzzer(
                cluster_naturalness, data.x, mode, policy=ExecutionPolicy(cache=False)
            )
            fuzzer.fuzz(trained_cluster_model, seeds, labels, rng=0)
            stats = fuzzer.last_query_stats
            calls[mode] = stats.model_calls + stats.gradient_calls
        assert calls["population"] * 5 <= calls["sequential"]


class TestBudgetInvariants:
    """Campaign query accounting: never exceed the budget, always consistent."""

    @pytest.mark.parametrize("execution", ["population", "sequential"])
    @pytest.mark.parametrize("budget", [1, 37, 150, 10_000])
    def test_total_queries_never_exceed_budget(
        self,
        execution,
        budget,
        trained_cluster_model,
        cluster_naturalness,
        operational_cluster_data,
    ):
        data = operational_cluster_data
        fuzzer = _make_fuzzer(cluster_naturalness, data.x, execution)
        campaign = fuzzer.fuzz(
            trained_cluster_model, data.x[:30], data.y[:30], budget=budget, rng=5
        )
        total = campaign.total_queries
        assert total <= budget
        assert total == sum(r.queries for r in campaign.per_seed)
        campaign.validate_budget(budget)  # must not raise

    @pytest.mark.parametrize("execution", ["population", "sequential"])
    def test_per_seed_queries_respect_energy_budgets(
        self,
        execution,
        trained_cluster_model,
        cluster_naturalness,
        operational_cluster_data,
    ):
        data = operational_cluster_data
        config = FuzzerConfig(
            queries_per_seed=12, stall_limit=0, execution=execution
        )
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness, config=config, natural_pool=data.x
        )
        campaign = fuzzer.fuzz(trained_cluster_model, data.x[:10], data.y[:10], rng=2)
        for result in campaign.per_seed:
            assert result.queries <= 2 * config.queries_per_seed  # max_energy bound

    def test_cached_population_respects_budget_invariants(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        for budget in (1, 37, 10_000):
            fuzzer = _fuzzer(cluster_naturalness, data.x, "population")
            campaign = fuzzer.fuzz(
                trained_cluster_model, data.x[:12], data.y[:12], budget=budget, rng=5
            )
            assert campaign.total_queries <= budget
            campaign.validate_budget(budget)

    def test_validate_budget_flags_overspend(self):
        from repro.fuzzing import FuzzCampaignResult, SeedFuzzResult

        campaign = FuzzCampaignResult(
            per_seed=[SeedFuzzResult(0, None, queries=10, best_fitness=0.0,
                                     candidates_rejected_by_naturalness=0)]
        )
        with pytest.raises(FuzzingError):
            campaign.validate_budget(5)
        campaign.validate_budget(10)  # exact spend is fine
        campaign.validate_budget(None)  # unbudgeted campaigns always pass


class TestFuzzerConfigEngineKnobs:
    def test_invalid_execution_mode(self):
        with pytest.raises(FuzzingError):
            FuzzerConfig(execution="warp")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"cache_max_entries": 0},
        ],
    )
    def test_invalid_policy_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            FuzzerConfig(policy=ExecutionPolicy(**kwargs))

    def test_cache_does_not_change_results(
        self, trained_cluster_model, cluster_naturalness, operational_cluster_data
    ):
        data = operational_cluster_data
        campaigns = {}
        for use_cache in (True, False):
            fuzzer = _make_fuzzer(
                cluster_naturalness,
                data.x,
                "population",
                policy=ExecutionPolicy(cache=use_cache),
            )
            campaigns[use_cache] = fuzzer.fuzz(
                trained_cluster_model, data.x[:12], data.y[:12], rng=7
            )
        cached, uncached = campaigns[True], campaigns[False]
        assert cached.total_queries == uncached.total_queries
        assert len(cached.adversarial_examples) == len(uncached.adversarial_examples)


# --------------------------------------------------------------------------- #
# scenario-matrix differential suite (slow tier)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.parametrize("scenario_name", SCENARIO_MATRIX)
class TestScenarioMatrixEquivalence:
    """Whole campaigns agree across control flows on every scenario.

    For each scenario: same seeds, same detections, same per-seed query
    counts and ``validate_budget`` invariants across the sequential and
    population engines, and equal discrete outcomes with the query cache on
    and off.
    """

    @pytest.fixture()
    def scenario(self, scenario_name):
        return _scenario(scenario_name)

    def test_population_matches_sequential(self, scenario):
        seeds = scenario.operational_data.x[:16]
        labels = scenario.operational_data.y[:16]
        campaigns = {}
        for mode in ("sequential", "population"):
            fuzzer = _fuzzer(
                scenario.naturalness, scenario.operational_data.x, mode
            )
            campaigns[mode] = fuzzer.fuzz(scenario.model, seeds, labels, rng=2021)
        _assert_campaigns_equivalent(
            campaigns["sequential"], campaigns["population"], exact=False
        )

    def test_budgeted_population_stays_within_budget(self, scenario):
        seeds = scenario.operational_data.x[:20]
        labels = scenario.operational_data.y[:20]
        budget = 240
        fuzzer = _fuzzer(
            scenario.naturalness, scenario.operational_data.x, "population"
        )
        campaign = fuzzer.fuzz(scenario.model, seeds, labels, budget=budget, rng=7)
        campaign.validate_budget(budget)
        assert campaign.total_queries <= budget

    def test_cache_toggle_keeps_discrete_outcomes(self, scenario):
        """What holds when the query cache is switched off.

        A hit shrinks the batch of misses the model sees, and the model's
        output may depend on the number of rows in a call, so fitness can
        move in the last bits — but queries, rejections and detections
        stay equal.
        """
        seeds = scenario.operational_data.x[:20]
        labels = scenario.operational_data.y[:20]
        campaigns = {}
        for cache in (True, False):
            fuzzer = _fuzzer(
                scenario.naturalness,
                scenario.operational_data.x,
                "population",
                policy=ExecutionPolicy(cache=cache),
            )
            campaigns[cache] = fuzzer.fuzz(
                scenario.model, seeds, labels, budget=240, rng=7
            )
        cached, uncached = campaigns[True], campaigns[False]
        assert len(cached.per_seed) == len(uncached.per_seed)
        for on, off in zip(cached.per_seed, uncached.per_seed):
            assert on.seed_index == off.seed_index
            assert on.queries == off.queries
            assert (
                on.candidates_rejected_by_naturalness
                == off.candidates_rejected_by_naturalness
            )
            assert (on.adversarial_example is None) == (
                off.adversarial_example is None
            )
            assert on.best_fitness == pytest.approx(off.best_fitness, rel=1e-12)
        assert cached.total_queries == uncached.total_queries
        assert cached.detection_rate == uncached.detection_rate


class TestColumnarPopulation:
    """The column-held population: retirement by mask, generators at admission."""

    def test_duplicate_seeds_stranded_by_budget_match_sequential(
        self,
        monkeypatch,
        trained_cluster_model,
        cluster_naturalness,
        cluster_profile,
        operational_cluster_data,
    ):
        # eight copies of one robust seed: identical row, label and density.
        # With no stall limit and no naturalness floor every member spends
        # exactly its reservation, so both control flows admit the same
        # members: five in full, a sixth with what is left, two stranded
        from repro.engine.population import _Population

        retired = []
        retire = _Population.retire

        def recording_retire(self, members):
            retired.extend(np.asarray(members).tolist())
            retire(self, members)

        monkeypatch.setattr(_Population, "retire", recording_retire)
        seeds = np.repeat(cluster_profile.means[:1], 8, axis=0)
        labels = np.repeat(cluster_profile.component_labels[:1], 8)
        densities = np.full(8, 0.5)
        budget = 5 * 12 + 7
        campaigns = {}
        for mode in ("sequential", "population"):
            fuzzer = _make_fuzzer(
                cluster_naturalness,
                operational_cluster_data.x,
                mode,
                epsilon=0.05,
                queries_per_seed=12,
                naturalness_threshold=0.0,
                stall_limit=0,
            )
            campaigns[mode] = fuzzer.fuzz(
                trained_cluster_model,
                seeds,
                labels,
                op_densities=densities,
                budget=budget,
                rng=4,
            )
        population = campaigns["population"]
        _assert_campaigns_equivalent(campaigns["sequential"], population, exact=False)
        # every admitted member retired once; the stranded ones yield nothing
        assert sorted(retired) == list(range(6))
        assert [r.seed_index for r in population.per_seed] == list(range(6))
        assert [r.queries for r in population.per_seed] == [12] * 5 + [7]
        assert population.total_queries == budget
        population.validate_budget(budget)

    @pytest.mark.parametrize("execution", ["population", "sequential"])
    def test_generators_are_built_only_past_the_seed_check(
        self,
        execution,
        monkeypatch,
        trained_cluster_model,
        cluster_naturalness,
        operational_cluster_data,
    ):
        data = operational_cluster_data
        correct = trained_cluster_model.predict(data.x) == data.y
        wrong, right = np.flatnonzero(~correct), np.flatnonzero(correct)
        if len(wrong) < 3:
            pytest.skip("not enough natural failures in the scenario")
        default_rng = np.random.default_rng
        campaign_rng = default_rng(0)
        built = []

        def counting_default_rng(seed=None):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        fuzzer = _make_fuzzer(cluster_naturalness, data.x, execution)
        failures = fuzzer.fuzz(
            trained_cluster_model, data.x[wrong[:3]], data.y[wrong[:3]], rng=campaign_rng
        )
        assert failures.detection_rate == 1.0
        assert built == []
        # one generator per seed that passes its check
        mixed = np.concatenate([wrong[:3], right[:4]])
        fuzzer.fuzz(trained_cluster_model, data.x[mixed], data.y[mixed], rng=campaign_rng)
        assert len(built) == 4
