"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import betaincinv

from repro.config import clip01, ensure_rng
from repro.data import Dataset, GridPartition
from repro.exceptions import ReliabilityError
from repro.engine import BatchedQueryEngine, QueryStats
from repro.engine.batching import _iter_chunks
from repro.fuzzing import (
    BatchMutationContext,
    FuzzerConfig,
    GaussianMutation,
    InterpolationMutation,
    OperationalFuzzer,
    SparseMutation,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy, prediction_margin
from repro.op import hellinger_distance, js_divergence, kl_divergence, total_variation
from repro.reliability import BayesianCellModel, BetaPrior, CellPosterior


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)

distributions = st.integers(min_value=2, max_value=8).flatmap(
    lambda k: st.lists(
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=k, max_size=k
    )
).map(lambda values: np.asarray(values) / np.sum(values))


@st.composite
def logits_and_labels(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=2, max_value=6))
    logits = draw(
        arrays(np.float64, (n, k), elements=st.floats(-20, 20, allow_nan=False))
    )
    labels = draw(arrays(np.int64, (n,), elements=st.integers(0, k - 1)))
    return logits, labels


# --------------------------------------------------------------------------- #
# config / numerics
# --------------------------------------------------------------------------- #
class TestClipProperties:
    @given(arrays(np.float64, (10,), elements=finite_floats))
    def test_clip01_bounds(self, values):
        clipped = clip01(values)
        assert np.all(clipped >= 0.0) and np.all(clipped <= 1.0)

    @given(arrays(np.float64, (10,), elements=st.floats(0, 1, allow_nan=False)))
    def test_clip01_identity_inside_domain(self, values):
        np.testing.assert_allclose(clip01(values), values)

    @given(st.integers(min_value=0, max_value=2**31 - 2))
    def test_ensure_rng_deterministic(self, seed):
        assert ensure_rng(seed).random() == ensure_rng(seed).random()


# --------------------------------------------------------------------------- #
# losses and metrics
# --------------------------------------------------------------------------- #
class TestLossProperties:
    @given(logits_and_labels())
    @settings(max_examples=50, deadline=None)
    def test_cross_entropy_non_negative(self, data):
        logits, labels = data
        loss = SoftmaxCrossEntropy()
        assert loss.forward(logits, labels) >= 0.0

    @given(logits_and_labels())
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_distribution(self, data):
        logits, _ = data
        probs = SoftmaxCrossEntropy.softmax(logits)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(len(logits)), atol=1e-9)

    @given(logits_and_labels())
    @settings(max_examples=30, deadline=None)
    def test_gradient_rows_sum_to_zero(self, data):
        logits, labels = data
        loss = SoftmaxCrossEntropy()
        loss.forward(logits, labels)
        grad = loss.backward()
        np.testing.assert_allclose(grad.sum(axis=1), np.zeros(len(logits)), atol=1e-9)


class TestMetricProperties:
    @given(
        arrays(np.int64, (20,), elements=st.integers(0, 4)),
        arrays(np.int64, (20,), elements=st.integers(0, 4)),
    )
    def test_accuracy_in_unit_interval(self, y_true, y_pred):
        assert 0.0 <= accuracy(y_true, y_pred) <= 1.0

    @given(arrays(np.int64, (20,), elements=st.integers(0, 4)))
    def test_accuracy_reflexive(self, y):
        assert accuracy(y, y) == 1.0

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=2, max_value=6))
    def test_prediction_margin_bounds(self, n, k):
        rng = np.random.default_rng(n * 100 + k)
        probs = rng.dirichlet(np.ones(k), size=n)
        margins = prediction_margin(probs, rng.integers(0, k, n))
        assert np.all(margins >= -1.0 - 1e-9) and np.all(margins <= 1.0 + 1e-9)


# --------------------------------------------------------------------------- #
# divergences
# --------------------------------------------------------------------------- #
class TestDivergenceProperties:
    @given(distributions, distributions)
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, p, q):
        if p.shape != q.shape:
            return
        assert kl_divergence(p, q) >= -1e-12
        assert js_divergence(p, q) >= -1e-12
        assert total_variation(p, q) >= 0.0
        assert hellinger_distance(p, q) >= 0.0

    @given(distributions)
    def test_zero_on_self(self, p):
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
        assert total_variation(p, p) == pytest.approx(0.0, abs=1e-12)

    @given(distributions, distributions)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, p, q):
        if p.shape != q.shape:
            return
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), abs=1e-9)
        assert total_variation(p, q) <= 1.0 + 1e-12
        assert hellinger_distance(p, q) <= 1.0 + 1e-9
        assert js_divergence(p, q) <= np.log(2) + 1e-9


# --------------------------------------------------------------------------- #
# datasets and partitions
# --------------------------------------------------------------------------- #
class TestDatasetProperties:
    @given(
        st.integers(min_value=4, max_value=40),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_split_preserves_rows(self, n, num_classes, d):
        rng = np.random.default_rng(n)
        dataset = Dataset(rng.random((n, d)), rng.integers(0, num_classes, n), num_classes)
        train, test = dataset.split(0.3, rng=0)
        assert len(train) + len(test) == n
        assert len(train) > 0 and len(test) > 0

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_class_frequencies_sum_to_one(self, n):
        rng = np.random.default_rng(n)
        dataset = Dataset(rng.random((n, 2)), rng.integers(0, 3, n), 3)
        assert dataset.class_frequencies().sum() == pytest.approx(1.0)


class TestPartitionProperties:
    @given(
        st.integers(min_value=2, max_value=6),
        arrays(np.float64, (15, 2), elements=st.floats(0, 1, allow_nan=False)),
    )
    @settings(max_examples=40, deadline=None)
    def test_assignments_in_range(self, bins, x):
        partition = GridPartition(2, bins_per_dim=bins)
        cells = partition.assign(x)
        assert np.all(cells >= 0) and np.all(cells < partition.num_cells)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=35))
    @settings(max_examples=40, deadline=None)
    def test_center_round_trip(self, bins, cell_index):
        partition = GridPartition(2, bins_per_dim=bins)
        cell_id = cell_index % partition.num_cells
        assert partition.assign(partition.cell_center(cell_id)[None, :])[0] == cell_id


# --------------------------------------------------------------------------- #
# query engine: sharding, stats merging, caching, budgets
# --------------------------------------------------------------------------- #
class _AffineToyModel:
    """Deterministic, picklable classifier for engine properties."""

    def __init__(self, d: int = 3, k: int = 4) -> None:
        rng = np.random.default_rng(2021)
        self.w = rng.normal(size=(d, k))
        self.b = rng.normal(size=k)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits = np.atleast_2d(x) @ self.w + self.b
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        return z / z.sum(axis=1, keepdims=True)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def loss_input_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        probs = self.predict_proba(x)
        grad_logits = probs.copy()
        grad_logits[np.arange(len(probs)), np.asarray(y, dtype=int)] -= 1.0
        return (grad_logits / len(probs)) @ self.w.T


class TestEngineShardingProperties:
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_shards_partition_rows_exactly(self, n, batch_size):
        """The chunks the engine computes on cover every row, in order."""
        covered = 0
        for start, stop in _iter_chunks(n, batch_size):
            assert start == covered
            assert 0 < stop - start <= batch_size
            covered = stop
        assert covered == n

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_merged_shard_stats_equal_single_process_stats(self, n, batch_size):
        """Chunk-by-chunk deltas merged one by one == the engine's counters."""
        model = _AffineToyModel()
        rng = np.random.default_rng(n * 131 + batch_size)
        x = rng.random((n, 3))
        y = rng.integers(0, 4, size=n)

        single = BatchedQueryEngine(model, batch_size=batch_size)
        single.predict_proba(x)
        single.loss_input_gradient(x, y)

        shards = list(_iter_chunks(n, batch_size))
        merged = QueryStats(rows_queried=n, gradient_rows=n)
        for _ in shards:
            merged.merge(QueryStats(model_calls=1))
        for _ in shards:
            merged.merge(QueryStats(gradient_calls=1))
        assert merged.as_dict() == single.stats.as_dict()


    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1000), st.integers(0, 50), st.integers(0, 1000)
            ),
            min_size=0,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_stats_merge_is_componentwise_sum(self, rows):
        total = QueryStats()
        for queried, calls, hits in rows:
            total.merge(
                QueryStats(rows_queried=queried, model_calls=calls, cache_hits=hits)
            )
        assert total.rows_queried == sum(r[0] for r in rows)
        assert total.model_calls == sum(r[1] for r in rows)
        assert total.cache_hits == sum(r[2] for r in rows)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_cache_hits_never_change_predict_proba(self, n, batch_size, seed):
        """A cache hit returns exactly what the model produced the first time.

        Repeated rows (in any order, any multiplicity) must come back
        bit-identical to their first computation, and a cached engine must
        agree bit-for-bit with an uncached one on the initial pass.
        """
        model = _AffineToyModel()
        rng = np.random.default_rng(seed)
        base = rng.random((n, 3))
        cached = BatchedQueryEngine(model, batch_size=batch_size, cache=True)
        uncached = BatchedQueryEngine(model, batch_size=batch_size)
        first = cached.predict_proba(base)
        np.testing.assert_array_equal(first, uncached.predict_proba(base))
        # re-query the same rows shuffled and duplicated: all served by the
        # cache, all bit-identical to the first computation
        picks = rng.integers(0, n, size=2 * n)
        repeat = cached.predict_proba(base[picks])
        np.testing.assert_array_equal(repeat, first[picks])
        assert cached.stats.cache_hits == len(picks)
        assert cached.stats.model_calls == uncached.stats.model_calls

    @given(
        budget=st.integers(min_value=1, max_value=200),
        execution=st.sampled_from(["population", "sequential"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_total_queries_never_exceed_budget(
        self,
        trained_cluster_model,
        cluster_naturalness,
        operational_cluster_data,
        budget,
        execution,
    ):
        from repro.runtime import ExecutionPolicy

        data = operational_cluster_data
        fuzzer = OperationalFuzzer(
            naturalness=cluster_naturalness,
            config=FuzzerConfig(
                epsilon=0.12,
                queries_per_seed=8,
                naturalness_threshold=0.3,
                execution=execution,
                policy=ExecutionPolicy(cache=True),
                stall_limit=4,
            ),
            natural_pool=data.x,
        )
        campaign = fuzzer.fuzz(
            trained_cluster_model, data.x[:6], data.y[:6], budget=budget, rng=3
        )
        assert campaign.total_queries <= budget
        assert campaign.total_queries == sum(r.queries for r in campaign.per_seed)
        campaign.validate_budget(budget)  # must not raise


# --------------------------------------------------------------------------- #
# mutation operators: one block proposal == the per-row proposals, stacked
# --------------------------------------------------------------------------- #
@st.composite
def proposal_blocks(draw):
    """Seeds, currents inside their cells, neighbours and member streams."""
    d = draw(st.sampled_from([2, 144]))
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=6))
    epsilon = draw(st.floats(min_value=1e-3, max_value=0.5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 2)))
    seeds = rng.random((n, d))
    currents = clip01(seeds + rng.uniform(-epsilon, epsilon, size=(n, d)))
    neighbours = rng.random((n, k, d)) if draw(st.booleans()) else None
    rng_seeds = rng.integers(0, 2**31 - 1, size=n)
    return seeds, currents, neighbours, rng_seeds, epsilon


class TestBlockProposals:
    """An undirected operator's ``propose_batch`` draws each row from that
    row's generator as :meth:`propose` would and computes the block at
    once; the result is the stacked per-row proposals, bit for bit."""

    @pytest.mark.parametrize(
        "operator",
        [
            GaussianMutation(),
            GaussianMutation(scale_fraction=1.0),
            SparseMutation(),
            SparseMutation(fraction=0.6),
            InterpolationMutation(),
            InterpolationMutation(max_step=1.0),
        ],
        ids=[
            "gaussian",
            "gaussian-1",
            "sparse",
            "sparse-0.6",
            "interpolation",
            "interpolation-1",
        ],
    )
    @given(block=proposal_blocks())
    @settings(max_examples=40, deadline=None)
    def test_block_equals_stacked_rows(self, operator, block):
        seeds, currents, neighbours, rng_seeds, epsilon = block

        def context():
            return BatchMutationContext(
                seeds=seeds,
                currents=currents,
                labels=np.zeros(len(seeds), dtype=int),
                epsilon=epsilon,
                model=None,
                natural_neighbours=neighbours,
                rngs=[np.random.default_rng(int(s)) for s in rng_seeds],
            )

        batched = context()
        proposals = operator.propose_batch(batched)
        rowwise = context()
        rows = np.stack([operator.propose(rowwise.row(i)) for i in range(len(seeds))])
        np.testing.assert_array_equal(_bits(proposals), _bits(rows))
        # every member's stream advanced by exactly the same draws
        for a, b in zip(batched.rngs, rowwise.rngs):
            assert a.bit_generator.state == b.bit_generator.state


# --------------------------------------------------------------------------- #
# Bayesian reliability model
# --------------------------------------------------------------------------- #
class TestBayesianProperties:
    @given(
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.5, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_are_ordered_and_in_unit_interval(self, trials, failure_rate, confidence):
        failures = int(round(trials * failure_rate))
        posterior = BayesianCellModel(BetaPrior(1.0, 9.0)).posterior_for(trials, failures)
        lower = posterior.lower_bound(confidence)
        upper = posterior.upper_bound(confidence)
        assert 0.0 <= lower <= upper <= 1.0
        assert 0.0 <= posterior.mean <= 1.0
        # at high confidence the one-sided bounds must bracket the mean
        if confidence >= 0.9:
            assert lower <= posterior.mean + 1e-12 <= upper + 0.1

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_more_clean_evidence_tightens_upper_bound(self, trials):
        model = BayesianCellModel(BetaPrior(1.0, 9.0))
        small = model.posterior_for(trials, 0).upper_bound(0.95)
        large = model.posterior_for(trials * 2, 0).upper_bound(0.95)
        assert large <= small + 1e-12


# --------------------------------------------------------------------------- #
# credible bounds: betaincinv against its reference, scipy.stats.beta.ppf
# --------------------------------------------------------------------------- #
def _bits(x) -> np.ndarray:
    """The IEEE bit patterns of ``x``, so that equality is bit for bit."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


# Beta parameters in [1e-3, 1e6]: hypothesis' own float draws (which favour
# the ends) and log-uniform ones
beta_parameters = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6),
    st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0**e),
)
quantile_levels = st.one_of(
    st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
    st.floats(min_value=0.5 - 1e-10, max_value=0.5 + 1e-10),
    st.sampled_from([1e-12, 1.0 - 1e-12, 0.5 - 1e-10, 0.5 + 1e-10, 0.05, 0.9, 0.95]),
)


class TestCredibleBoundKernel:
    """``betaincinv(a, b, q)`` is ``stats.beta.ppf(q, a, b)``, bit for bit.

    The Bayesian cell model computes its bounds with ``betaincinv`` so that
    no process loads :mod:`scipy.stats`; the reference stays here.
    """

    @given(beta_parameters, beta_parameters, quantile_levels)
    @settings(max_examples=400, deadline=None)
    def test_scalar_identity(self, a, b, q):
        expected = _bits(stats.beta.ppf(q, a, b))
        np.testing.assert_array_equal(_bits(betaincinv(a, b, q)), expected)
        # the cell model's upper bound is that quantile, at the confidences
        # a one-sided upper bound is defined for
        if q >= 0.5:
            np.testing.assert_array_equal(
                _bits(CellPosterior(0, a, b).upper_bound(q)), expected
            )
        else:
            with pytest.raises(ReliabilityError, match="confidence"):
                CellPosterior(0, a, b).upper_bound(q)

    def test_array_identity(self):
        # posterior-like pairs (prior Beta(1, 9) plus evidence) at the
        # confidences the assessor uses, and random pairs over the range
        rng = np.random.default_rng(2021)
        failures = rng.integers(0, 200, 20_000).astype(float)
        passes = rng.integers(0, 5_000, 20_000).astype(float)
        for q in (0.5, 0.5 + 1e-10, 0.5 - 1e-10, 0.05, 0.1, 0.9, 0.95, 0.99):
            np.testing.assert_array_equal(
                _bits(betaincinv(1.0 + failures, 9.0 + passes, q)),
                _bits(stats.beta.ppf(q, 1.0 + failures, 9.0 + passes)),
            )
        a = 10.0 ** rng.uniform(-3.0, 6.0, 50_000)
        b = 10.0 ** rng.uniform(-3.0, 6.0, 50_000)
        q = rng.uniform(1e-12, 1.0 - 1e-12, 50_000)
        np.testing.assert_array_equal(
            _bits(betaincinv(a, b, q)), _bits(stats.beta.ppf(q, a, b))
        )
