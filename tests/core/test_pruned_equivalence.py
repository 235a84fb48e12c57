"""Pruned scan path: pruning, routing, and the chunk cache must be pure
optimizations — never semantic changes.

The property under test (the ISSUE's acceptance gate): with pruning on,
every observable of every query — neighbor ids and distances, stop
reasons, completed/degraded flags, and every simulated trace timestamp —
is *bit-identical* to the unpruned scan, on every chunker in the zoo,
for both the sequential and the batch engine, with and without fault
injection.  The only thing pruning may change is ``chunks_pruned`` (and
how fast the host finishes).

The router must likewise reproduce the flat ranking's scan order and
completion-proof values exactly, and the simulated chunk cache must
change timing only through its documented warm-hit charge — identically
for both engines.
"""

import dataclasses

import numpy as np
import pytest

from repro.chunking.bag import BagClusterer, estimate_mpi
from repro.chunking.random_chunker import RandomChunker
from repro.chunking.round_robin import RoundRobinChunker
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.batch_search import BatchChunkSearcher
from repro.core.chunk_index import build_chunk_index
from repro.core.routing import CentroidRouter
from repro.core.search import RANK_BY_LOWER_BOUND, ChunkSearcher
from repro.core.stop_rules import MaxChunks, TimeBudget
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.chunk_cache import LruChunkCache

CHUNKER_FACTORIES = {
    "srtree": lambda collection: SRTreeChunker(leaf_capacity=7),
    "bag": lambda collection: BagClusterer(
        mpi=estimate_mpi(collection, sample_size=50, seed=3),
        target_clusters=5,
    ),
    "random": lambda collection: RandomChunker(n_chunks=6, seed=3),
    "round-robin": lambda collection: RoundRobinChunker(n_chunks=9),
}


def make_index(collection, chunker_name):
    chunker = CHUNKER_FACTORIES[chunker_name](collection)
    result = chunker.form_chunks(collection)
    return build_chunk_index(result.retained, result.chunk_set)


def make_queries(n, dims, seed=97):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dims)) * 4.0


def injector(rate, seed=42):
    plan = FaultPlan.balanced(rate, seed=seed)
    return FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)


def assert_results_identical(got, want):
    """Every observable equal to the bit — no tolerances anywhere."""
    np.testing.assert_array_equal(got.neighbor_ids(), want.neighbor_ids())
    assert [n.distance for n in got.neighbors] == [
        n.distance for n in want.neighbors
    ]
    assert got.stop_reason == want.stop_reason
    assert got.completed == want.completed
    assert got.degraded == want.degraded
    assert got.elapsed_s == want.elapsed_s
    assert got.trace.start_elapsed_s == want.trace.start_elapsed_s
    assert got.trace.events == want.trace.events


def lone_batch(searcher, query, query_index=0, **kwargs):
    """A batch of one: the lone-query path, reached through search_batch."""
    return searcher.search_batch(
        query[np.newaxis, :], query_indices=[query_index], **kwargs
    )[0]


def assert_batches_identical(got, want):
    assert len(got) == len(want)
    for got_result, want_result in zip(got, want):
        assert_results_identical(got_result, want_result)


def assert_results_equivalent(got, want):
    """Cross-engine comparator: everything exact except kernel distances,
    which the batch engine's expanded-form kernel and the sequential
    direct-form kernel round differently in the last bit."""
    np.testing.assert_array_equal(got.neighbor_ids(), want.neighbor_ids())
    np.testing.assert_allclose(
        [n.distance for n in got.neighbors],
        [n.distance for n in want.neighbors],
        rtol=1e-12,
    )
    assert got.stop_reason == want.stop_reason
    assert got.completed == want.completed
    assert got.degraded == want.degraded
    assert got.chunks_pruned == want.chunks_pruned
    assert got.elapsed_s == want.elapsed_s
    assert got.trace.start_elapsed_s == want.trace.start_elapsed_s
    assert len(got.trace) == len(want.trace)
    for got_event, want_event in zip(got.trace.events, want.trace.events):
        assert got_event.chunk_id == want_event.chunk_id
        assert got_event.rank == want_event.rank
        assert got_event.elapsed_s == want_event.elapsed_s
        assert got_event.n_descriptors == want_event.n_descriptors
        assert got_event.neighbors_found == want_event.neighbors_found
        assert got_event.true_matches == want_event.true_matches
        assert got_event.skipped == want_event.skipped
        assert got_event.fault == want_event.fault
        assert got_event.retries == want_event.retries
        assert got_event.kth_distance == pytest.approx(
            want_event.kth_distance, rel=1e-12
        )


class TestPrunedEquivalence:
    """Pruned scan == unpruned scan, to the bit, everywhere.

    The sequential tests also pin the lone-query path: ``search`` and a
    batch of one run the same direct-form kernels, so they agree to the
    bit in either prune mode."""

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_sequential_engine(self, tiny_collection, chunker_name):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(12, tiny_collection.dimensions)
        plain = ChunkSearcher(index, prune=False)
        pruned = ChunkSearcher(index, prune=True)
        batches = {p: BatchChunkSearcher(index, prune=p) for p in (False, True)}
        for query in queries:
            want = plain.search(query, k=7)
            got = pruned.search(query, k=7)
            assert_results_identical(got, want)
            assert want.chunks_pruned == 0
            for prune, lone in ((False, want), (True, got)):
                one = lone_batch(batches[prune], query, k=7)
                assert_results_identical(one, lone)
                assert one.chunks_pruned == lone.chunks_pruned

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_batch_engine(self, tiny_collection, chunker_name):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(12, tiny_collection.dimensions)
        want = BatchChunkSearcher(index, prune=False).search_batch(queries, k=7)
        got = BatchChunkSearcher(index, prune=True).search_batch(queries, k=7)
        assert_batches_identical(got, want)
        assert want.total_chunks_pruned == 0

    def test_pruning_actually_fires(self, tiny_collection):
        """The guard that this suite tests something: on a clustered
        collection the triangle-inequality bound must exclude chunks."""
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(12, tiny_collection.dimensions)
        batch = BatchChunkSearcher(index).search_batch(queries, k=7)
        assert batch.total_chunks_pruned > 0
        sequential = ChunkSearcher(index)
        assert (
            sum(sequential.search(q, k=7).chunks_pruned for q in queries) > 0
        )

    @pytest.mark.parametrize("chunker_name", ["srtree", "bag"])
    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_sequential_engine_under_faults(
        self, tiny_collection, chunker_name, rate
    ):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(8, tiny_collection.dimensions)
        plain = ChunkSearcher(index, prune=False)
        pruned = ChunkSearcher(index, prune=True)
        batches = {p: BatchChunkSearcher(index, prune=p) for p in (False, True)}
        for i, query in enumerate(queries):
            want = plain.search(query, k=5, faults=injector(rate), query_index=i)
            got = pruned.search(query, k=5, faults=injector(rate), query_index=i)
            assert_results_identical(got, want)
            for prune, lone in ((False, want), (True, got)):
                one = lone_batch(
                    batches[prune], query, k=5, faults=injector(rate), query_index=i
                )
                assert_results_identical(one, lone)

    @pytest.mark.parametrize("chunker_name", ["srtree", "bag"])
    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_batch_engine_under_faults(self, tiny_collection, chunker_name, rate):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(8, tiny_collection.dimensions)
        want = BatchChunkSearcher(index, prune=False).search_batch(
            queries, k=5, faults=injector(rate)
        )
        got = BatchChunkSearcher(index, prune=True).search_batch(
            queries, k=5, faults=injector(rate)
        )
        assert_batches_identical(got, want)

    @pytest.mark.parametrize(
        "stop_rule_factory",
        [lambda: MaxChunks(3), lambda: TimeBudget(0.08)],
        ids=["max-chunks", "time-budget"],
    )
    def test_early_stop_rules(self, tiny_collection, stop_rule_factory):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(10, tiny_collection.dimensions)
        want = BatchChunkSearcher(index, prune=False).search_batch(
            queries, k=5, stop_rule=stop_rule_factory()
        )
        got = BatchChunkSearcher(index, prune=True).search_batch(
            queries, k=5, stop_rule=stop_rule_factory()
        )
        assert_batches_identical(got, want)

    def test_parallel_workers_identical(self, small_synthetic):
        # Wider chunks for the session-scale collection.
        result = SRTreeChunker(leaf_capacity=64).form_chunks(small_synthetic)
        index = build_chunk_index(result.retained, result.chunk_set)
        queries = make_queries(16, small_synthetic.dimensions, seed=5)
        searcher = BatchChunkSearcher(index)
        # (n_queries, workers): the later cases would leave a shard with a
        # single query, whose scan kernel rounds differently from the
        # cohort's — the engine must never cut shards that small.
        for n_queries, workers in [(16, 4), (8, 8), (5, 4), (3, 2)]:
            batch = queries[:n_queries]
            serial = searcher.search_batch(batch, k=10)
            threaded = searcher.search_batch(batch, k=10, workers=workers)
            assert_batches_identical(threaded, serial)
            assert serial.total_chunks_pruned == threaded.total_chunks_pruned


class TestRouterEquivalence:
    """Routed ranking == flat ranking, to the bit, for both engines."""

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    @pytest.mark.parametrize("rank_by", ["centroid", RANK_BY_LOWER_BOUND])
    def test_sequential_engine(self, tiny_collection, chunker_name, rank_by):
        index = make_index(tiny_collection, chunker_name)
        router = CentroidRouter.from_index(index)
        queries = make_queries(10, tiny_collection.dimensions)
        flat = ChunkSearcher(index, rank_by=rank_by)
        routed = ChunkSearcher(index, rank_by=rank_by, router=router)
        batches = [
            BatchChunkSearcher(index, rank_by=rank_by, router=r)
            for r in (None, router)
        ]
        for query in queries:
            want = flat.search(query, k=6)
            assert_results_identical(routed.search(query, k=6), want)
            # The lone-query path, router off and on, via a batch of one.
            for batch in batches:
                assert_results_identical(lone_batch(batch, query, k=6), want)

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_batch_engine(self, tiny_collection, chunker_name):
        """Batch + router must equal batch flat bit for bit.  Flat batch
        ranking uses the gemm kernel and the router the direct form, so
        centroid distances may differ in the last bit; on these inputs
        that changes no scan order and no completion decision."""
        index = make_index(tiny_collection, chunker_name)
        router = CentroidRouter.from_index(index)
        queries = make_queries(10, tiny_collection.dimensions)
        want = BatchChunkSearcher(index).search_batch(queries, k=6)
        got = BatchChunkSearcher(index, router=router).search_batch(
            queries, k=6
        )
        assert_batches_identical(got, want)

    def test_batch_engine_matches_sequential(self, tiny_collection):
        """Cross-engine: batch + router vs sequential + router agree on
        every observable (distances to within one ulp)."""
        index = make_index(tiny_collection, "srtree")
        router = CentroidRouter.from_index(index)
        queries = make_queries(10, tiny_collection.dimensions)
        sequential = ChunkSearcher(index, router=router)
        want = [sequential.search(q, k=6) for q in queries]
        got = BatchChunkSearcher(index, router=router).search_batch(
            queries, k=6
        )
        assert len(got) == len(want)
        for got_result, want_result in zip(got, want):
            assert_results_equivalent(got_result, want_result)

    def test_router_under_faults(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        router = CentroidRouter.from_index(index)
        queries = make_queries(8, tiny_collection.dimensions)
        want = BatchChunkSearcher(index).search_batch(
            queries, k=5, faults=injector(0.25)
        )
        got = BatchChunkSearcher(index, router=router).search_batch(
            queries, k=5, faults=injector(0.25)
        )
        assert_batches_identical(got, want)

    def test_router_with_early_stop(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        router = CentroidRouter.from_index(index)
        queries = make_queries(8, tiny_collection.dimensions)
        want = BatchChunkSearcher(index).search_batch(
            queries, k=5, stop_rule=MaxChunks(2)
        )
        got = BatchChunkSearcher(index, router=router).search_batch(
            queries, k=5, stop_rule=MaxChunks(2)
        )
        assert_batches_identical(got, want)


class TestChunkCacheEquivalence:
    """The simulated chunk cache: engine-independent, deterministic."""

    def _model(self, capacity_bytes=1 << 20):
        return dataclasses.replace(
            PAPER_2005_COST_MODEL,
            chunk_cache=LruChunkCache(capacity_bytes=capacity_bytes),
        )

    def test_batch_matches_sequential(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        model_a = self._model()
        model_b = self._model()
        model_c = self._model()
        sequential = ChunkSearcher(index, cost_model=model_a)
        want = [sequential.search(q, k=5) for q in queries]
        batch = BatchChunkSearcher(index, cost_model=model_b).search_batch(
            queries, k=5, workers=4  # workers must be ignored here
        )
        assert len(batch) == len(want)
        for got_result, want_result in zip(batch, want):
            assert_results_equivalent(got_result, want_result)
        assert model_b.chunk_cache.hits == model_a.chunk_cache.hits
        assert model_b.chunk_cache.misses == model_a.chunk_cache.misses
        assert model_b.chunk_cache.hits > 0
        # Batches of one run the lone-query path: bit-identical, and the
        # same cache traffic.
        lone = BatchChunkSearcher(index, cost_model=model_c)
        for i, query in enumerate(queries):
            assert_results_identical(
                lone_batch(lone, query, k=5, query_index=i), want[i]
            )
        assert model_c.chunk_cache.hits == model_a.chunk_cache.hits
        assert model_c.chunk_cache.misses == model_a.chunk_cache.misses

    def test_batch_matches_sequential_under_faults(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(8, tiny_collection.dimensions, seed=29)
        sequential = ChunkSearcher(index, cost_model=self._model())
        want = [
            sequential.search(q, k=5, faults=injector(0.25), query_index=i)
            for i, q in enumerate(queries)
        ]
        batch = BatchChunkSearcher(
            index, cost_model=self._model()
        ).search_batch(queries, k=5, faults=injector(0.25))
        assert len(batch) == len(want)
        for got_result, want_result in zip(batch, want):
            assert_results_equivalent(got_result, want_result)
        lone = BatchChunkSearcher(index, cost_model=self._model())
        for i, query in enumerate(queries):
            one = lone_batch(lone, query, k=5, faults=injector(0.25), query_index=i)
            assert_results_identical(one, want[i])

    def test_warm_batch_is_simulated_faster(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        cold_model = self._model()
        searcher = BatchChunkSearcher(index, cost_model=cold_model)
        cold = searcher.search_batch(queries, k=5)
        warm = searcher.search_batch(queries, k=5)
        # Identical results, cheaper timing: warm hits are charged at
        # memory-copy cost instead of the disk's random-read price.
        for cold_result, warm_result in zip(cold, warm):
            np.testing.assert_array_equal(
                cold_result.neighbor_ids(), warm_result.neighbor_ids()
            )
        assert warm.mean_elapsed_s < cold.mean_elapsed_s

    def test_determinism_across_fresh_caches(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        run_a = BatchChunkSearcher(index, cost_model=self._model()).search_batch(
            queries, k=5
        )
        run_b = BatchChunkSearcher(index, cost_model=self._model()).search_batch(
            queries, k=5
        )
        assert_batches_identical(run_a, run_b)

    def test_cache_composes_with_router_and_pruning(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        router = CentroidRouter.from_index(index)
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        want = BatchChunkSearcher(
            index, cost_model=self._model(), prune=False
        ).search_batch(queries, k=5)
        got = BatchChunkSearcher(
            index, cost_model=self._model(), prune=True, router=router
        ).search_batch(queries, k=5)
        assert_batches_identical(got, want)
