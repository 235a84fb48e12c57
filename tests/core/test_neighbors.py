"""Unit and property tests for the bounded neighbor set."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbors import Neighbor, NeighborSet, merge_neighbor_lists


class TestNeighbor:
    def test_ordering_by_distance_then_id(self):
        assert Neighbor(1.0, 5) < Neighbor(2.0, 1)
        assert Neighbor(1.0, 1) < Neighbor(1.0, 2)

    def test_accessors(self):
        n = Neighbor(1.5, 7)
        assert n.distance == 1.5
        assert n.descriptor_id == 7


class TestNeighborSet:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            NeighborSet(0)

    def test_kth_distance_infinite_until_full(self):
        ns = NeighborSet(2)
        assert math.isinf(ns.kth_distance)
        ns.offer(1.0, 1)
        assert math.isinf(ns.kth_distance)
        ns.offer(2.0, 2)
        assert ns.kth_distance == 2.0

    def test_eviction_keeps_best(self):
        ns = NeighborSet(2)
        for d, i in [(5.0, 1), (3.0, 2), (4.0, 3), (1.0, 4)]:
            ns.offer(d, i)
        assert [n.descriptor_id for n in ns.sorted()] == [4, 2]

    def test_rejects_worse_when_full(self):
        ns = NeighborSet(1)
        assert ns.offer(1.0, 1)
        assert not ns.offer(2.0, 2)

    def test_tie_admits_lower_id(self):
        ns = NeighborSet(1)
        ns.offer(1.0, 10)
        assert ns.offer(1.0, 3)
        assert ns.sorted()[0].descriptor_id == 3

    def test_tie_rejects_higher_id(self):
        ns = NeighborSet(1)
        ns.offer(1.0, 3)
        assert not ns.offer(1.0, 10)

    def test_bulk_update_matches_individual(self):
        rng = np.random.default_rng(0)
        distances = rng.random(100)
        ids = rng.permutation(100)
        tied = np.round(distances * 4) / 4
        # Random inputs, distance ties with differing ids, repeated ids (as
        # overlapping chunkers produce) and repeated (distance, id) pairs.
        for d_case, i_case in [
            (distances, ids),
            (tied, ids),
            (distances, ids % 13),
            (tied, ids % 5),
        ]:
            bulk = NeighborSet(10)
            bulk.update(d_case, i_case)
            single = NeighborSet(10)
            for d, i in zip(d_case, i_case):
                single.offer(d, i)
            assert bulk.sorted() == single.sorted()

    def test_update_returns_admitted_count(self):
        ns = NeighborSet(3)
        admitted = ns.update(np.array([1.0, 2.0, 3.0, 4.0]), np.arange(4))
        assert admitted == 3

    def test_update_shape_mismatch(self):
        with pytest.raises(ValueError):
            NeighborSet(2).update(np.ones(3), np.arange(2))

    def test_merge(self):
        a = NeighborSet(3)
        a.update(np.array([1.0, 5.0]), np.array([1, 2]))
        b = NeighborSet(3)
        b.update(np.array([2.0, 0.5]), np.array([3, 4]))
        a.merge(b)
        assert [n.descriptor_id for n in a.sorted()] == [4, 1, 3]

    def test_contains_and_id_set(self):
        ns = NeighborSet(2)
        ns.offer(1.0, 42)
        assert 42 in ns
        assert 7 not in ns
        assert ns.id_set() == {42}

    def test_ids_sorted_best_first(self):
        ns = NeighborSet(3)
        ns.update(np.array([3.0, 1.0, 2.0]), np.array([30, 10, 20]))
        assert list(ns.ids()) == [10, 20, 30]

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False), st.integers(0, 10_000)
            ),
            min_size=1,
            max_size=80,
        ),
        st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_equals_sorted_prefix(self, pairs, k):
        """The set must always equal the k best of everything offered,
        under (distance, id) ordering with duplicate ids allowed."""
        ns = NeighborSet(k)
        for d, i in pairs:
            ns.offer(d, i)
        expected = sorted(set(pairs), key=lambda p: (p[0], p[1]))
        # Duplicate (d, id) pairs are admitted at most once per offer; the
        # set itself may hold duplicates if offered twice, so compare
        # against the multiset of offers.
        expected_multiset = sorted(pairs, key=lambda p: (p[0], p[1]))[:k]
        got = [(n.distance, n.descriptor_id) for n in ns.sorted()]
        assert got == expected_multiset

    @given(
        st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=60),
        st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_kth_distance_is_max_retained(self, distances, k):
        ns = NeighborSet(k)
        ns.update(np.asarray(distances), np.arange(len(distances)))
        if len(ns) < k:
            assert math.isinf(ns.kth_distance)
        else:
            assert ns.kth_distance == max(n.distance for n in ns.sorted())


class HeapReference:
    """Heap-based admission: a max-heap of ``(-distance, -id)`` whose root,
    the worst entry, is replaced by any candidate strictly better under
    ``(distance, id)``.  The oracle for the array-backed set."""

    def __init__(self, k):
        self.k = k
        self.heap = []

    def __len__(self):
        return len(self.heap)

    @property
    def kth_distance(self):
        return -self.heap[0][0] if len(self.heap) >= self.k else math.inf

    def offer(self, distance, descriptor_id):
        entry = (-float(distance), -int(descriptor_id))
        if len(self.heap) < self.k:
            heapq.heappush(self.heap, entry)
            return True
        if entry > self.heap[0]:
            heapq.heapreplace(self.heap, entry)
            return True
        return False

    def update(self, pairs):
        return sum(self.offer(d, i) for d, i in sorted(pairs))

    def merge(self, other):
        for d, i in other.sorted():
            self.offer(d, i)

    def sorted(self):
        return sorted((-d, -i) for d, i in self.heap)

    def id_set(self):
        return {-i for _, i in self.heap}


# Few distinct distances and ids, so ties with differing ids, repeated ids
# (as overlapping chunkers produce) and identical pairs are all common.
_pair = st.tuples(
    st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0, 100.0]), st.integers(0, 12)
)
_op = st.one_of(
    st.tuples(st.just("update"), st.lists(_pair, max_size=30)),
    st.tuples(st.just("offer"), _pair),
    st.tuples(st.just("merge"), st.lists(_pair, max_size=12)),
)


class TestAgainstHeapReference:
    @given(st.integers(1, 8), st.lists(_op, min_size=1, max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_random_operation_sequences(self, k, ops):
        ns = NeighborSet(k)
        ref = HeapReference(k)
        for kind, arg in ops:
            if kind == "update":
                distances = np.array([d for d, _ in arg], dtype=np.float64)
                ids = np.array([i for _, i in arg], dtype=np.int64)
                assert ns.update(distances, ids) == ref.update(arg)
            elif kind == "offer":
                assert ns.offer(*arg) is ref.offer(*arg)
            else:
                other, other_ref = NeighborSet(k), HeapReference(k)
                for d, i in arg:
                    other.offer(d, i)
                    other_ref.offer(d, i)
                assert other.sorted() == other_ref.sorted()
                assert ns.merge(other) is None
                ref.merge(other_ref)
            assert [tuple(n) for n in ns.sorted()] == ref.sorted()
            assert ns.kth_distance == ref.kth_distance
            assert len(ns) == len(ref)
            assert ns.id_set() == ref.id_set()
            assert ns.ids().dtype == np.int64

    def test_warm_up_larger_than_k_with_ties_at_the_cut(self):
        ns, ref = NeighborSet(3), HeapReference(3)
        pairs = [(1.0, 9), (0.5, 4), (1.0, 2), (1.0, 7), (2.0, 1), (0.5, 8)]
        distances = np.array([d for d, _ in pairs])
        ids = np.array([i for _, i in pairs])
        assert ns.update(distances, ids) == ref.update(pairs) == 3
        assert [tuple(n) for n in ns.sorted()] == [(0.5, 4), (0.5, 8), (1.0, 2)]
        assert ns.kth_distance == 1.0

    def test_empty_and_all_rejected_updates_admit_nothing(self):
        ns = NeighborSet(2)
        assert ns.update(np.empty(0), np.empty(0, dtype=np.int64)) == 0
        ns.update(np.array([1.0, 2.0]), np.array([1, 2]))
        before = ns.sorted()
        assert ns.update(np.array([3.0, 2.0]), np.array([0, 5])) == 0
        assert ns.update(np.empty(0), np.empty(0, dtype=np.int64)) == 0
        assert ns.sorted() == before

    def test_identical_to_worst_is_rejected(self):
        ns = NeighborSet(2)
        ns.update(np.array([1.0, 2.0]), np.array([1, 2]))
        assert not ns.offer(2.0, 2)
        assert ns.update(np.array([1.0, 1.0]), np.array([1, 1])) == 1
        assert [tuple(n) for n in ns.sorted()] == [(1.0, 1), (1.0, 1)]


class TestMergeNeighborLists:
    def test_disjoint_merge_equals_global_top_k(self):
        rng = np.random.default_rng(3)
        distances = rng.random(30)
        all_neighbors = [Neighbor(d, i) for i, d in enumerate(distances)]
        parts = [all_neighbors[:10], all_neighbors[10:18], all_neighbors[18:]]
        merged = merge_neighbor_lists(parts, k=7)
        assert merged == sorted(all_neighbors)[:7]

    def test_duplicate_ids_keep_the_best(self):
        parts = [
            [Neighbor(0.5, 1), Neighbor(0.9, 2)],
            [Neighbor(0.3, 1), Neighbor(0.7, 3)],
        ]
        merged = merge_neighbor_lists(parts, k=10)
        assert merged == [Neighbor(0.3, 1), Neighbor(0.7, 3), Neighbor(0.9, 2)]

    def test_empty_inputs_merge_to_empty(self):
        assert merge_neighbor_lists([], k=5) == []
        assert merge_neighbor_lists([[], []], k=5) == []

    def test_short_lists_return_what_exists(self):
        merged = merge_neighbor_lists([[Neighbor(1.0, 4)]], k=10)
        assert merged == [Neighbor(1.0, 4)]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be positive"):
            merge_neighbor_lists([], k=0)

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), max_size=30),
        st.integers(1, 5),
        st.integers(1, 10),
    )
    @settings(deadline=None, max_examples=60)
    def test_property_matches_neighbor_set(self, distances, n_parts, k):
        """Merging disjoint lists (ids unique, as partitions guarantee)
        must agree with offering every element to one bounded
        NeighborSet — the single-node accumulation order."""
        neighbors = [Neighbor(d, i) for i, d in enumerate(distances)]
        lists = [neighbors[part::n_parts] for part in range(n_parts)]
        merged = merge_neighbor_lists(lists, k)
        reference = NeighborSet(k)
        for part in lists:
            for neighbor in part:
                reference.offer(neighbor.distance, neighbor.descriptor_id)
        assert merged == reference.sorted()
