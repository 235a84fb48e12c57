"""Batched execution of the approximate chunk search.

The paper's whole methodology is workload-shaped: every figure and table
comes from running hundreds of queries against the same chunk index.
:class:`BatchChunkSearcher` runs a query batch as one cohort on the
engine of :mod:`repro.core.search` — the state, handlers and loop that
``ChunkSearcher.search`` runs for a lone query — and adds only what a
cohort can share: ranking for the whole batch in one
:func:`~repro.core.distance.pairwise_squared_distances` gemm plus a
batched lexsort; chunk scans as one gemm per chunk over the stacked query
matrix, computed when any query first demands the chunk and cached for
the batch; and a thread-sharded wall-clock mode (``workers > 1``; the
kernels release the GIL).  Every query keeps its own simulated clock, so
none of this moves a simulated timestamp.

A batch of one is not a cohort: it runs the lone-query path, bit-identical
to ``ChunkSearcher.search``.  A cohort agrees with lone queries to within
one ulp of distance (the gemm and the direct form round differently), and
no shard holds fewer than two queries, so the worker count changes no bit.
A shared simulated cache charges by global touch order, which the loop
already preserves by running states in turn; such batches stay in-thread.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.injector import FaultInjector
from ..parallel import resolve_workers, run_parallel, shard
from .distance import pairwise_squared_distances
from .search import (
    RANK_BY_CENTROID,
    ChunkSearcher,
    SearchResult,
    _direct_rows,
    _QueryState,
    _Ranking,
    _RowSource,
)
from .stop_rules import StopRule
from .trace import SearchTrace

__all__ = ["BatchChunkSearcher", "BatchSearchResult"]


@dataclasses.dataclass
class BatchSearchResult:
    """Per-query :class:`SearchResult` list plus batch-level conveniences.

    ``results[i]`` is what ``ChunkSearcher.search(queries[i], ...)``
    returns, to within one ulp of distance for a batch of two or more
    (the cohort's gemm kernel rounds differently from the lone query's
    direct form) and bit for bit for a batch of one.  This wrapper only
    adds aggregate views, it never merges query outcomes.
    """

    results: List[SearchResult]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __getitem__(self, i: int) -> SearchResult:
        return self.results[i]

    def neighbor_ids_matrix(self) -> np.ndarray:
        """``(n_queries, k_found)`` int64 id matrix, padded with -1 for
        queries that found fewer neighbors than the widest result."""
        if not self.results:
            return np.empty((0, 0), dtype=np.int64)
        width = max(len(r.neighbors) for r in self.results)
        out = np.full((len(self.results), width), -1, dtype=np.int64)
        for row, result in enumerate(self.results):
            ids = result.neighbor_ids()
            out[row, : ids.shape[0]] = ids
        return out

    def stop_reasons(self) -> List[str]:
        return [r.stop_reason for r in self.results]

    def elapsed_s(self) -> np.ndarray:
        """Simulated per-query elapsed seconds (float64; the paper's clock)."""
        return np.asarray([r.elapsed_s for r in self.results], dtype=np.float64)

    def traces(self) -> List[SearchTrace]:
        return [r.trace for r in self.results]

    @property
    def total_chunks_read(self) -> int:
        return int(sum(r.chunks_read for r in self.results))

    @property
    def total_chunks_pruned(self) -> int:
        """Visited chunks the pruner excused from scanning, batch-wide."""
        return int(sum(r.chunks_pruned for r in self.results))

    @property
    def mean_elapsed_s(self) -> float:
        return float(self.elapsed_s().mean()) if self.results else 0.0


class BatchChunkSearcher(ChunkSearcher):
    """Executes a whole query batch against one :class:`ChunkIndex`.

    Construction, ``prune`` and ``router`` are those of
    :class:`~repro.core.search.ChunkSearcher`; :meth:`search_batch` is the
    batch counterpart of ``search``.
    """

    # -- ranking -------------------------------------------------------------

    def rank_chunks_batch(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rank all chunks for every query in one shot.

        Returns ``(orders, suffix_min_lower_bounds)``, both of shape
        ``(n_queries, n_chunks)`` — row ``i`` is what the sequential
        ``ChunkSearcher.rank_chunks`` computes for query ``i`` (up to the
        kernels' last-bit rounding): chunk ids in scan order and the
        running minimum lower bound over the not-yet-scanned suffix (the
        completion-proof threshold).
        """
        orders, suffix_min, _ = self._rank_full(queries)
        return orders, suffix_min

    def _rank_full(self, queries: np.ndarray) -> _Ranking:
        """``(orders, suffix_min, ranked_lower_bounds)`` — the public
        ranking plus the per-rank lower bounds the pruner compares
        against the k-th distance."""
        centroid_d = np.sqrt(
            pairwise_squared_distances(
                queries,
                self._centroids,
                points_sq_norms=self.index.centroid_sq_norm_vector(),
            )
        )
        lower_bounds = np.maximum(0.0, centroid_d - self._radii[np.newaxis, :])
        key = centroid_d if self.rank_by == RANK_BY_CENTROID else lower_bounds
        columns = np.broadcast_to(np.arange(key.shape[1]), key.shape)
        # Batched lexsort: per row, ascending key with index tie-break —
        # the same (key, position) order the sequential lexsort produces.
        orders = np.lexsort((columns, key), axis=-1)
        ranked_bounds = np.take_along_axis(lower_bounds, orders, axis=1)
        suffix_min = np.minimum.accumulate(ranked_bounds[:, ::-1], axis=1)[:, ::-1]
        return orders, suffix_min, ranked_bounds

    # -- batch search --------------------------------------------------------

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 30,
        stop_rule: Optional[StopRule] = None,
        true_neighbor_ids: Optional[Sequence[Optional[Sequence[int]]]] = None,
        workers: int = 1,
        faults: Optional[FaultInjector] = None,
        query_indices: Optional[Sequence[int]] = None,
    ) -> BatchSearchResult:
        """Run every query of a batch; per-query outcomes match
        ``ChunkSearcher.search`` (bit for bit for a batch of one, to
        within one ulp of distance otherwise).

        Parameters
        ----------
        queries:
            ``(n_queries, d)`` batch (a single ``(d,)`` vector is promoted).
        k:
            Neighbors per query (the paper uses 30 throughout).
        stop_rule:
            Early-termination policy shared by all queries; defaults to
            :class:`~repro.core.stop_rules.ExactCompletion`.  The shipped
            rules are stateless, so one instance can serve the whole batch.
        true_neighbor_ids:
            Optional per-query ground-truth id lists (``None`` entries skip
            match counting for that query), enabling the paper's
            intermediate-quality trace columns.
        workers:
            Thread count for wall-clock parallelism; 1 (default) runs
            in-thread.  Results and simulated times are identical at any
            worker count (no shard gets fewer than two queries).  Ignored
            when the cost model carries a shared cache.
        faults:
            Optional fault injector enabling degraded execution, exactly
            as in ``ChunkSearcher.search``.  The fault plan is keyed by a
            query's *position in this batch*, so ``results[i]`` matches
            ``ChunkSearcher.search(queries[i], ..., query_index=i)``.
        query_indices:
            Optional per-query fault-plan keys overriding the default
            batch positions — the ``query_index`` argument of
            ``ChunkSearcher.search``, batched.  A service running one
            query per call passes the query's stable workload index here
            so its fault draws match a whole-workload batch run.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[np.newaxis, :]
        if queries.ndim != 2:
            raise ValueError(f"queries must be a (n, d) matrix, got {queries.shape}")
        if queries.shape[0] == 0:
            return BatchSearchResult(results=[])
        self._check_queries(queries, k)
        n_queries = queries.shape[0]
        if true_neighbor_ids is not None and len(true_neighbor_ids) != n_queries:
            raise ValueError(
                f"got {len(true_neighbor_ids)} ground-truth lists "
                f"for {n_queries} queries"
            )
        if query_indices is not None and len(query_indices) != n_queries:
            raise ValueError(
                f"got {len(query_indices)} query indices for {n_queries} queries"
            )

        rankings: List[Optional[_Ranking]]
        if self.router is not None:
            rankings = [None] * n_queries
        elif n_queries == 1:
            rankings = [self._rank_arrays(queries[0])]
        else:
            orders, suffix_mins, ranked_lbs = self._rank_full(queries)
            rankings = list(zip(orders, suffix_mins, ranked_lbs))
        states = [
            self._start_state(
                queries[i],
                k,
                stop_rule,
                None if true_neighbor_ids is None else true_neighbor_ids[i],
                i if query_indices is None else int(query_indices[i]),
                rankings[i],
            )
            for i in range(n_queries)
        ]

        # Each shard keeps its own contents and scan caches, so threads
        # never contend on a dict (chunks hot in several shards are read
        # once per shard, still far below once per query).
        n_workers = (
            1 if self._shared_cache else resolve_workers(workers, n_queries // 2)
        )
        run_parallel(
            lambda group: self._run(group, faults, self._row_source(group)),
            shard(states, n_workers),
            workers=n_workers,
        )
        return BatchSearchResult(results=[s.to_result() for s in states])

    # -- the cohort row source -----------------------------------------------

    def _row_source(self, states: List[_QueryState]) -> _RowSource:
        """Scan rows for a cohort: the lone-query direct form for one
        state, else one gemm per chunk over the stacked query matrix.
        Rows of finished (or later-pruning) queries go unused and cost
        only BLAS throughput."""
        if len(states) == 1:
            return _direct_rows(states[0].query)
        query_matrix = np.stack([s.query for s in states])

        def cohort_rows(vectors: np.ndarray) -> Tuple[np.ndarray, List[float]]:
            # Kept in squared space: the scan handler takes the root only
            # for rows that pass its admission gate.
            d2 = pairwise_squared_distances(query_matrix, vectors)
            # Row minima batched too: the per-query gate then costs a list
            # index instead of a numpy reduction.
            if not d2.shape[1]:
                return d2, [math.inf] * len(states)
            return d2, d2.min(axis=1).tolist()

        return cohort_rows
