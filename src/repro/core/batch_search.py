"""Batched execution of the approximate chunk search.

The paper's whole methodology is workload-shaped: every figure and table
comes from running hundreds of queries against the same chunk index.  The
sequential :class:`~repro.core.search.ChunkSearcher` re-ranks the centroids
and re-reads the same chunks once *per query*; this module amortizes that
work across a query batch while keeping each query's observable outcome —
neighbors, stop reason, trace, simulated elapsed time — identical to what
the sequential searcher produces:

* **vectorized ranking** — chunk ranking for the whole ``(q, d)`` batch is
  one :func:`~repro.core.distance.pairwise_squared_distances` call plus a
  batched lexsort, replacing ``q`` independent centroid scans;
* **coalesced chunk reads** — execution is scheduled chunk-major: within a
  batch each chunk is fetched from the store at most once (and its float32
  descriptor matrix promoted to float64 exactly once), then scanned against
  every query currently positioned on it with one ``(q_active, n_chunk)``
  kernel call;
* **per-query timing model** — every query owns its own
  :class:`~repro.simio.pipeline.PipelineSimulator`, so simulated time is
  charged per query exactly as the paper measures it: sharing wall-clock
  work across a batch never changes a simulated timestamp;
* **parallel wall-clock mode** — ``workers > 1`` shards the batch over a
  thread pool (the distance kernels release the GIL), which changes only
  how fast the host finishes, never the per-query results.

When the cost model carries a shared :class:`~repro.simio.cache.LruPageCache`
the simulated I/O charge of a chunk depends on the global order of page
touches, so the engine falls back to query-major execution (query 0 runs to
its stop, then query 1, ...) — the exact touch order of the sequential
loop — while still coalescing the *contents* reads through the batch cache.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.injector import FaultInjector
from ..faults.plan import ChunkFaultOutcome
from ..parallel import resolve_workers, run_parallel, shard
from ..simio.calibration import PAPER_2005_COST_MODEL
from ..simio.pipeline import CostModel, PipelineSimulator
from ..storage.errors import CorruptFileError
from .chunk_index import ChunkIndex
from .distance import pairwise_squared_distances
from .neighbors import NeighborSet
from .routing import CentroidRouter, RouterStream
from .search import (
    RANK_BY_CENTROID,
    RANK_BY_LOWER_BOUND,
    SearchResult,
)
from .stop_rules import ExactCompletion, SearchProgress, StopRule
from .trace import SearchTrace, TraceEvent

__all__ = ["BatchChunkSearcher", "BatchSearchResult"]

#: The prune-run fast path materializes ``TraceEvent`` instances from
#: prebuilt value tuples; ``_make`` is the C-level tuple constructor, the
#: cheapest way to build one (see the ``TraceEvent`` docstring for why
#: the event type is a ``NamedTuple`` in the first place).
_EVENT_MAKE = TraceEvent._make


@dataclasses.dataclass
class BatchSearchResult:
    """Per-query :class:`SearchResult` list plus batch-level conveniences.

    The batch engine's contract is that ``results[i]`` is what
    ``ChunkSearcher.search(queries[i], ...)`` would have returned; this
    wrapper only adds aggregate views, it never merges query outcomes.
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


class _QueryState:
    """Mutable per-query execution state inside one batch.

    The timing state is three floats replicating the
    :class:`~repro.simio.pipeline.PipelineSimulator` recurrence inline
    (``prev_read``/``prev_proc``/``drained`` are ``R[i-1]``/``C[i-1]``/
    ``C[i-2]``); ``simulator`` is only instantiated for shared-page-cache
    cost models, whose per-chunk I/O charge is stateful.
    """

    __slots__ = (
        "position",
        "fault_key",
        "query",
        "k",
        "order",
        "suffix_list",
        "lb_list",
        "stream",
        "n_ranks",
        "simulator",
        "prev_read",
        "prev_proc",
        "drained",
        "trace",
        "events",
        "neighbors",
        "n_found",
        "kth",
        "stop_rule",
        "truth",
        "matches",
        "rank0",
        "pruned",
        "stop_reason",
        "completed",
        "degraded",
        "done",
    )

    def __init__(
        self,
        position: int,
        query: np.ndarray,
        k: int,
        order: Optional[np.ndarray],
        suffix_min: Optional[np.ndarray],
        start_s: float,
        stop_rule: StopRule,
        truth: Optional[frozenset],
        simulator: Optional[PipelineSimulator] = None,
        fault_key: Optional[int] = None,
        ranked_lb: Optional[np.ndarray] = None,
        stream: Optional[RouterStream] = None,
    ):
        self.position = position
        self.fault_key = position if fault_key is None else fault_key
        self.query = query
        self.k = k
        if stream is None:
            assert order is not None and suffix_min is not None
            assert ranked_lb is not None
            # Plain Python lists: the execution loop touches one element
            # per event, where numpy scalar extraction would dominate.
            self.order = order.tolist()
            self.suffix_list = suffix_min.tolist()
            self.lb_list = ranked_lb.tolist()
            self.n_ranks = len(self.order)
        else:
            # Routed ranking: chunks arrive lazily from the stream; the
            # per-rank arrays are never materialized.
            self.order = []
            self.suffix_list = []
            self.lb_list = []
            self.n_ranks = 0
        self.stream = stream
        self.simulator = simulator
        self.prev_read = start_s
        self.prev_proc = start_s
        self.drained = start_s
        self.trace = SearchTrace(start_elapsed_s=start_s)
        self.events = self.trace.events
        self.neighbors = NeighborSet(k)
        # Mirrors of len(neighbors) / neighbors.kth_distance, refreshed
        # only when an update admits candidates.
        self.n_found = 0
        self.kth = math.inf
        self.stop_rule = stop_rule
        self.truth = truth
        # Match count after the latest chunk; valid whenever truth is set
        # because an empty neighbor set holds zero true neighbors.
        self.matches = 0 if truth is not None else -1
        self.rank0 = 0
        self.pruned = 0
        self.stop_reason = "exhausted"
        self.completed = False
        self.degraded = False
        self.done = False

    def pull_next(self) -> "Tuple[int, float]":
        """``(chunk_id, lower_bound)`` of the next chunk to visit.

        Array mode reads the precomputed rank arrays (without consuming —
        ``rank0`` advances when the event is applied); stream mode pops
        the router stream, whose emission *is* the visit."""
        if self.stream is None:
            rank0 = self.rank0
            return self.order[rank0], self.lb_list[rank0]
        emitted = self.stream.next()
        assert emitted is not None, "stream exhausted before state finished"
        return emitted

    def finish(self, stop_reason: str, completed: bool) -> None:
        self.stop_reason = stop_reason
        self.completed = completed
        self.done = True

    def to_result(self) -> SearchResult:
        return SearchResult(
            neighbors=self.neighbors.sorted(),
            trace=self.trace,
            stop_reason=self.stop_reason,
            completed=self.completed,
            degraded=self.degraded,
            chunks_pruned=self.pruned,
        )


class BatchChunkSearcher:
    """Executes a whole query batch against one :class:`ChunkIndex`.

    Construction mirrors :class:`~repro.core.search.ChunkSearcher` (same
    index, cost model, and ranking rule); :meth:`search_batch` is the batch
    counterpart of ``search``.
    """

    def __init__(
        self,
        index: ChunkIndex,
        cost_model: CostModel = PAPER_2005_COST_MODEL,
        rank_by: str = RANK_BY_CENTROID,
        prune: bool = True,
        router: Optional[CentroidRouter] = None,
    ):
        """``prune`` and ``router`` carry the same semantics as on
        :class:`~repro.core.search.ChunkSearcher`: the pruner skips the
        host-side scan of chunks whose lower bound strictly exceeds the
        current k-th distance (results, traces and simulated timestamps
        stay bit-identical), and a router replaces the full batched
        centroid ranking with lazy per-query group expansion."""
        if rank_by not in (RANK_BY_CENTROID, RANK_BY_LOWER_BOUND):
            raise ValueError(f"unknown ranking rule {rank_by!r}")
        if router is not None and router.n_chunks != index.n_chunks:
            raise ValueError(
                f"router covers {router.n_chunks} chunks, "
                f"index has {index.n_chunks}"
            )
        self.index = index
        self.cost_model = cost_model
        self.rank_by = rank_by
        self._prune = bool(prune)
        self.router = router
        self._centroids = index.centroid_matrix()
        self._radii = index.radius_vector()
        self._counts = index.descriptor_counts()
        self._pages = index.page_counts()
        self._centroid_sq_norms = index.centroid_sq_norm_vector()
        # Per-chunk scalars as plain Python values: the execution loop
        # touches these once per (query, chunk) event, where repeated
        # numpy indexing and cost-model calls would dominate.
        self._count_list = [int(c) for c in self._counts]
        self._page_list = [int(p) for p in self._pages]
        self._page_offsets = [meta.page_offset for meta in index.metas]
        self._io_cost = [
            cost_model.disk.random_read_time_s(p) for p in self._page_list
        ]
        self._cpu_cost = [
            cost_model.cpu.chunk_processing_time_s(c) for c in self._count_list
        ]
        # ``(io_s, cpu_s, n_descriptors)`` per chunk: the prune-run loop
        # reads all three per event, and one index plus an unpack beats
        # three list lookups.
        self._prune_cost = list(
            zip(self._io_cost, self._cpu_cost, self._count_list)
        )
        self._overlap = cost_model.overlap_io_cpu

    # -- ownership -----------------------------------------------------------

    def close(self) -> None:
        """Release the underlying index (and its chunk reader)."""
        self.index.close()

    def __enter__(self) -> "BatchChunkSearcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ranking -------------------------------------------------------------

    def rank_chunks_batch(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rank all chunks for every query in one shot.

        Returns ``(orders, suffix_min_lower_bounds)``, both of shape
        ``(n_queries, n_chunks)`` — row ``i`` is exactly what the
        sequential ``ChunkSearcher.rank_chunks`` computes for query ``i``:
        chunk ids in scan order and the running minimum lower bound over
        the not-yet-scanned suffix (the completion-proof threshold).
        """
        orders, suffix_min, _ = self._rank_full(queries)
        return orders, suffix_min

    def _rank_full(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(orders, suffix_min, ranked_lower_bounds)`` — the public
        ranking plus the per-rank lower bounds the pruner compares
        against the k-th distance."""
        centroid_d = np.sqrt(
            pairwise_squared_distances(
                queries, self._centroids, points_sq_norms=self._centroid_sq_norms
            )
        )
        lower_bounds = np.maximum(0.0, centroid_d - self._radii[np.newaxis, :])
        key = centroid_d if self.rank_by == RANK_BY_CENTROID else lower_bounds
        columns = np.broadcast_to(
            np.arange(key.shape[1]), key.shape
        )
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
        ``ChunkSearcher.search``.

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
            worker count.  Ignored (forced to 1) when the cost model
            carries a shared page cache, whose simulated state depends on
            the global touch order.
        faults:
            Optional fault injector enabling degraded execution, exactly
            as in ``ChunkSearcher.search``.  The fault plan is keyed by a
            query's *position in this batch*, so ``results[i]`` matches
            ``ChunkSearcher.search(queries[i], ..., query_index=i)`` —
            faults included — regardless of engine or worker count.
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
        if queries.shape[1] != self.index.dimensions:
            raise ValueError(
                f"queries have {queries.shape[1]} dims, "
                f"index has {self.index.dimensions}"
            )
        if not np.all(np.isfinite(queries)):
            raise ValueError("queries contain NaN or infinite components")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
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
        stop_rule = stop_rule if stop_rule is not None else ExactCompletion()

        router = self.router
        if router is None:
            orders, suffix_mins, ranked_lbs = self._rank_full(queries)
        # Both cache flavors make the simulated I/O charge of a chunk a
        # function of the global touch order, so execution must follow the
        # sequential loop's exact order (query-major).
        shared_cache = (
            self.cost_model.cache is not None
            or self.cost_model.chunk_cache is not None
        )
        if not shared_cache:
            # The start-of-query charge (index read + ranking) is
            # query-independent; replicate start_query's arithmetic once
            # for the whole batch.
            batch_start_s = self.cost_model.disk.sequential_read_time_s(
                self.index.index_bytes
            )
            batch_start_s += self.cost_model.cpu.ranking_time_s(
                self.index.n_chunks
            )
        states = []
        for i in range(n_queries):
            simulator = None
            if shared_cache:
                simulator = self.cost_model.simulator()
                start_s = simulator.start_query(
                    self.index.n_chunks, self.index.index_bytes
                )
            else:
                start_s = batch_start_s
            truth_i = None
            if true_neighbor_ids is not None and true_neighbor_ids[i] is not None:
                truth_i = frozenset(int(x) for x in true_neighbor_ids[i])
            states.append(
                _QueryState(
                    position=i,
                    query=queries[i],
                    k=k,
                    order=orders[i] if router is None else None,
                    suffix_min=suffix_mins[i] if router is None else None,
                    start_s=start_s,
                    stop_rule=stop_rule,
                    truth=truth_i,
                    simulator=simulator,
                    fault_key=(
                        int(query_indices[i]) if query_indices is not None else None
                    ),
                    ranked_lb=ranked_lbs[i] if router is None else None,
                    stream=(
                        router.stream(queries[i], self.rank_by)
                        if router is not None
                        else None
                    ),
                )
            )

        chunk_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        if shared_cache:
            # Shared simulated page cache: charge I/O in the sequential
            # loop's exact touch order (query-major).
            failed_chunks: set = set()
            for state in states:
                self._run_query_major(state, chunk_cache, faults, failed_chunks)
        else:
            n_workers = resolve_workers(workers, len(states))
            if n_workers <= 1:
                self._run_chunk_major(states, chunk_cache, faults)
            else:
                # Shard the batch; each shard keeps its own content cache so
                # threads never contend on a dict (chunks hot in several
                # shards are read once per shard, still far below once per
                # query).
                run_parallel(
                    lambda group: self._run_chunk_major(group, {}, faults),
                    shard(states, n_workers),
                    workers=n_workers,
                )
        return BatchSearchResult(results=[s.to_result() for s in states])

    # -- execution internals -------------------------------------------------

    def _read_chunk(
        self, chunk_id: int, cache: Dict[int, Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Chunk contents via the per-batch cache: one store read and one
        float64 promotion per chunk per batch.  When the cost model
        carries a simulated chunk cache, a payload attached by an earlier
        batch is reused — the cross-query warm path the cache models —
        without touching the simulated state (charging happens in the
        timing calls, never here)."""
        cached = cache.get(chunk_id)
        if cached is None:
            sim_cache = self.cost_model.chunk_cache
            payload = (
                sim_cache.peek_payload(self._page_offsets[chunk_id])
                if sim_cache is not None
                else None
            )
            if payload is not None:
                cached = payload  # type: ignore[assignment]
            else:
                ids, vectors = self.index.read_chunk(chunk_id)
                cached = (
                    np.asarray(ids, dtype=np.int64),
                    np.ascontiguousarray(vectors, dtype=np.float64),
                )
            cache[chunk_id] = cached
        return cached

    def _try_read_chunk(
        self,
        chunk_id: int,
        cache: Dict[int, Tuple[np.ndarray, np.ndarray]],
        failed: set,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Degraded-mode chunk read: a *real* storage failure (e.g. a CRC
        mismatch) marks the chunk failed for the whole batch — one actual
        read attempt per chunk, shared by every query — and returns None
        so the caller folds it into the skip policy."""
        if chunk_id in failed:
            return None
        try:
            return self._read_chunk(chunk_id, cache)
        except CorruptFileError:
            failed.add(chunk_id)
            return None

    def _process_chunk_for_state(
        self,
        state: _QueryState,
        chunk_id: int,
        ids: np.ndarray,
        sq_distances: np.ndarray,
        min_sq: Optional[float] = None,
        outcome: Optional[ChunkFaultOutcome] = None,
    ) -> None:
        """Apply one chunk's scan results to one query: timing charge,
        neighbor update, trace event, completion proof, stop rule —
        mirroring the sequential loop body statement for statement.

        ``sq_distances`` is the chunk's *squared*-distance row; the square
        root is taken here, and only for chunks that pass the admission
        gate — ``sqrt`` is monotone and correctly rounded (IEEE 754), so
        ``sqrt(min(sq))`` is bit-equal to ``min(sqrt(sq))`` and deferring
        it changes no observable float.  ``min_sq`` is the row minimum
        when the caller computed it batched (``None`` computes it here).
        ``outcome`` is the (successful) fault outcome of this access
        under degraded execution — its ``extra_io_s`` lands on the
        chunk's I/O charge, its kind/retries on the trace event.
        """
        extra_io_s = outcome.extra_io_s if outcome is not None else 0.0
        if state.simulator is not None:
            elapsed = state.simulator.process_chunk(
                self._page_list[chunk_id],
                self._count_list[chunk_id],
                page_offset=self._page_offsets[chunk_id],
                extra_io_s=extra_io_s,
            )
        else:
            # PipelineSimulator.process_chunk inlined on three floats —
            # same operations in the same order, so timestamps are
            # bit-identical (R[i] = max(R[i-1], C[i-2]) + io;
            # C[i] = max(R[i], C[i-1]) + cpu; serial without overlap).
            io = self._io_cost[chunk_id]
            if extra_io_s:
                io += extra_io_s
            cpu = self._cpu_cost[chunk_id]
            prev_proc = state.prev_proc
            if self._overlap:
                read_done = max(state.prev_read, state.drained) + io
                elapsed = max(read_done, prev_proc) + cpu
                state.prev_read = read_done
            else:
                elapsed = prev_proc + io + cpu
            state.drained = prev_proc
            state.prev_proc = elapsed
        neighbors = state.neighbors
        n_found = state.n_found
        kth = state.kth
        if min_sq is None:
            min_sq = float(sq_distances.min()) if sq_distances.size else math.inf
        # A chunk whose best candidate cannot beat the current k-th
        # neighbor admits nothing; skip the neighbor-set update (and the
        # row's square root) entirely.  math.sqrt and np.sqrt are both IEEE
        # correctly-rounded, so the scalar gate compares the same float
        # the old sqrt-the-whole-row code produced.
        min_d = math.sqrt(min_sq)
        if n_found < state.k or min_d <= kth:
            if neighbors.update(np.sqrt(sq_distances), ids):
                n_found = len(neighbors)
                kth = neighbors.kth_distance
                state.n_found = n_found
                state.kth = kth
                if state.truth is not None:
                    state.matches = neighbors.true_match_count(state.truth)
        next_rank = state.rank0 + 1
        if outcome is None:
            state.events.append(
                TraceEvent(
                    chunk_id=chunk_id,
                    rank=next_rank,
                    elapsed_s=elapsed,
                    n_descriptors=self._count_list[chunk_id],
                    neighbors_found=n_found,
                    kth_distance=kth,
                    true_matches=state.matches,
                )
            )
        else:
            state.events.append(
                TraceEvent(
                    chunk_id=chunk_id,
                    rank=next_rank,
                    elapsed_s=elapsed,
                    n_descriptors=self._count_list[chunk_id],
                    neighbors_found=n_found,
                    kth_distance=kth,
                    true_matches=state.matches,
                    fault=outcome.kind,
                    retries=outcome.retries,
                )
            )
        self._advance_state(state, elapsed, next_rank)

    def _advance_state(
        self, state: _QueryState, elapsed: float, next_rank: int
    ) -> None:
        """The post-event tail shared by the scan, prune and skip
        handlers: completion proof, stop rule, rank advance, exhaustion —
        mirroring the sequential loop's epilogue statement for statement."""
        n_found = state.n_found
        kth = state.kth
        stream = state.stream
        if stream is None:
            remaining_lb = (
                state.suffix_list[next_rank]
                if next_rank < state.n_ranks
                else math.inf
            )
            at_end = next_rank >= state.n_ranks
        else:
            remaining_lb = stream.exact_remaining_lb()
            at_end = stream.exhausted
        if n_found >= state.k and remaining_lb > kth:
            # The completion proof (SearchProgress.completion_proven) —
            # it cannot claim exactness over a degraded scan.
            if state.degraded:
                state.finish("proof-degraded", False)
            else:
                state.finish("completed", True)
            return
        rule = state.stop_rule
        # ExactCompletion never stops early; skip building the progress
        # snapshot on the default path (a measurable per-event saving).
        if type(rule) is not ExactCompletion:
            reason = rule.check(
                SearchProgress(
                    chunks_read=next_rank,
                    elapsed_s=elapsed,
                    neighbors_found=n_found,
                    kth_distance=kth,
                    remaining_lower_bound=remaining_lb,
                )
            )
            if reason is not None:
                state.finish(reason, False)
                return
        state.rank0 = next_rank
        if at_end:
            # Every chunk read without the proof firing early: the result
            # is nevertheless exact (there is nothing left to read) —
            # unless skipped chunks left holes in the scan.
            state.finish("exhausted", not state.degraded)

    # repro: exact
    def _prune_chunk_for_state(
        self,
        state: _QueryState,
        chunk_id: int,
        outcome: Optional[ChunkFaultOutcome] = None,
    ) -> None:
        """Apply one *pruned* chunk to one query: charged and logged
        exactly like :meth:`_process_chunk_for_state` — same simulated
        timing recurrence, same trace event — but the chunk provably
        admits no candidate (its lower bound strictly exceeds the k-th
        distance), so the store read, distance kernel and neighbor-set
        update are skipped on the host."""
        extra_io_s = outcome.extra_io_s if outcome is not None else 0.0
        if state.simulator is not None:
            elapsed = state.simulator.process_chunk(
                self._page_list[chunk_id],
                self._count_list[chunk_id],
                page_offset=self._page_offsets[chunk_id],
                extra_io_s=extra_io_s,
            )
        else:
            io = self._io_cost[chunk_id]
            if extra_io_s:
                io += extra_io_s
            cpu = self._cpu_cost[chunk_id]
            prev_proc = state.prev_proc
            if self._overlap:
                read_done = max(state.prev_read, state.drained) + io
                elapsed = max(read_done, prev_proc) + cpu
                state.prev_read = read_done
            else:
                elapsed = prev_proc + io + cpu
            state.drained = prev_proc
            state.prev_proc = elapsed
        state.pruned += 1
        next_rank = state.rank0 + 1
        # The event is bit-identical to the scanned chunk's: a pruned
        # chunk updates nothing, so n_found / kth / matches are unchanged.
        if outcome is None:
            state.events.append(
                TraceEvent(
                    chunk_id=chunk_id,
                    rank=next_rank,
                    elapsed_s=elapsed,
                    n_descriptors=self._count_list[chunk_id],
                    neighbors_found=state.n_found,
                    kth_distance=state.kth,
                    true_matches=state.matches,
                )
            )
        else:
            state.events.append(
                TraceEvent(
                    chunk_id=chunk_id,
                    rank=next_rank,
                    elapsed_s=elapsed,
                    n_descriptors=self._count_list[chunk_id],
                    neighbors_found=state.n_found,
                    kth_distance=state.kth,
                    true_matches=state.matches,
                    fault=outcome.kind,
                    retries=outcome.retries,
                )
            )
        self._advance_state(state, elapsed, next_rank)

    # repro: exact
    def _prune_run_for_state(self, state: _QueryState) -> None:
        """Consume the state's whole run of *consecutive* prunable chunks
        in one tight loop — the fast path behind the pruned scan's
        wall-clock win.

        Only taken when nothing can interrupt the run: flat ranking (no
        router stream), no fault injection, the inlined timing recurrence
        (no stateful simulator), and the run-to-completion stop rule.
        Under those conditions the k-th distance is frozen for the whole
        run (pruned chunks admit nothing), so the loop needs no per-event
        checks at all:

        * The neighbor set is full (a finite k-th distance is what let
          the caller prune), so nothing downstream of the neighbor set
          changes.
        * The completion proof cannot fire mid-run.  The state entered
          with ``suffix_min[rank0] <= kth`` (otherwise the previous
          event's proof would have finished it), so a chunk with
          ``lb <= kth`` lies ahead; the suffix minimum is non-decreasing
          in rank, so it stays ``<= kth`` at every rank up to and
          including that chunk — which is also where the loop condition
          stops.  The same chunk bounds the run away from the end of the
          ranking, so exhaustion is unreachable too.

        Each event carries exactly the values
        :meth:`_prune_chunk_for_state` would produce (same recurrence,
        same fields, ranks contiguous by construction), so traces and
        timestamps are bit-identical to the per-event path; events are
        built with the C-level tuple constructor from a value tuple whose
        run-constant tail (``n_found``/``kth``/``matches`` cannot move
        while every chunk is pruned) is hoisted out of the loop.
        """
        order = state.order
        lbs = state.lb_list
        per_chunk = self._prune_cost
        events = state.events
        append = events.append
        kth = state.kth
        # (neighbors_found, kth_distance, true_matches, skipped, fault,
        # retries) — constant for the whole run.
        tail = (state.n_found, kth, state.matches, False, "none", 0)
        prev_read = state.prev_read
        prev_proc = state.prev_proc
        drained = state.drained
        r = state.rank0
        start = r
        make = _EVENT_MAKE
        if self._overlap:
            while lbs[r] > kth:
                cid = order[r]
                io, cpu, count = per_chunk[cid]
                read_done = (prev_read if prev_read >= drained else drained) + io
                elapsed = (read_done if read_done >= prev_proc else prev_proc) + cpu
                prev_read = read_done
                drained = prev_proc
                prev_proc = elapsed
                r += 1
                append(make((cid, r, elapsed, count) + tail))
        else:
            while lbs[r] > kth:
                cid = order[r]
                io, cpu, count = per_chunk[cid]
                elapsed = prev_proc + io + cpu
                drained = prev_proc
                prev_proc = elapsed
                r += 1
                append(make((cid, r, elapsed, count) + tail))
        state.prev_read = prev_read
        state.prev_proc = prev_proc
        state.drained = drained
        state.pruned += r - start
        state.rank0 = r

    def _skip_chunk_for_state(
        self,
        state: _QueryState,
        chunk_id: int,
        outcome: ChunkFaultOutcome,
    ) -> None:
        """Apply a skipped chunk to one query: the failed attempts occupy
        the disk (``outcome.extra_io_s``) but no CPU work happens and the
        neighbor set is untouched — mirroring the sequential searcher's
        degraded branch (``PipelineSimulator.skip_chunk``) statement for
        statement."""
        io = outcome.extra_io_s
        if state.simulator is not None:
            elapsed = state.simulator.skip_chunk(io)
        else:
            prev_proc = state.prev_proc
            if self._overlap:
                read_done = max(state.prev_read, state.drained) + io
                elapsed = max(read_done, prev_proc)
                state.prev_read = read_done
            else:
                elapsed = prev_proc + io
            state.drained = prev_proc
            state.prev_proc = elapsed
        state.degraded = True
        n_found = state.n_found
        kth = state.kth
        next_rank = state.rank0 + 1
        state.events.append(
            TraceEvent(
                chunk_id=chunk_id,
                rank=next_rank,
                elapsed_s=elapsed,
                n_descriptors=self._count_list[chunk_id],
                neighbors_found=n_found,
                kth_distance=kth,
                true_matches=state.matches,
                skipped=True,
                fault=outcome.kind,
                retries=outcome.retries,
            )
        )
        # state.degraded is set, so the shared tail resolves the proof to
        # "proof-degraded" and exhaustion to completed=False.
        self._advance_state(state, elapsed, next_rank)

    def _run_chunk_major(
        self,
        states: List[_QueryState],
        chunk_cache: Dict[int, Tuple[np.ndarray, np.ndarray]],
        faults: Optional[FaultInjector] = None,
    ) -> None:
        """Coalesced execution: chunk scans are shared across the whole
        cohort through a per-batch scan cache.

        Each state runs to its stop in turn; the first time any query
        demands a chunk, that chunk's distances are computed for the
        *whole* cohort in a single kernel call against a query matrix
        stacked once per batch, and the rows cached — each chunk costs
        one store read, one float64 promotion, and one fixed-shape kernel
        call per batch, however the per-query rank orders interleave.  A
        query's row is its index in ``states``, so dispensing a cached
        row is two list reads; rows computed for already-finished (or
        later-pruning) queries are never consumed and cost only BLAS
        throughput, far below the per-chunk bookkeeping they used to
        save.

        Degraded execution (``faults``) preserves the sharing: fault
        decisions are keyed by ``(query position, chunk)``, never by call
        order, so injecting them into this chunk-major interleave yields
        exactly the sequential searcher's per-query outcomes; a chunk
        whose *real* read fails is marked failed once for the cohort.

        Pruning composes with the sharing: a state arriving at a prunable
        chunk never demands its distance row, so a chunk every remaining
        state prunes is neither read nor scanned."""
        scanned: Dict[int, tuple] = {}
        failed_chunks: set = set()
        prune = self._prune
        query_matrix = np.stack([s.query for s in states])
        n_rows = len(states)
        for row, state in enumerate(states):
            process = self._process_chunk_for_state
            fault_key = state.fault_key
            burst = (
                prune
                and faults is None
                and state.stream is None
                and state.simulator is None
                and type(state.stop_rule) is ExactCompletion
            )
            while not state.done:
                chunk_id, lb = state.pull_next()
                outcome = None
                if faults is not None:
                    readable = (
                        self._try_read_chunk(chunk_id, chunk_cache, failed_chunks)
                        is not None
                    )
                    outcome = faults.outcome(
                        fault_key,
                        chunk_id,
                        self._page_list[chunk_id],
                        readable=readable,
                    )
                    if not outcome.ok:
                        self._skip_chunk_for_state(state, chunk_id, outcome)
                        continue
                if prune and lb > state.kth:
                    if burst:
                        self._prune_run_for_state(state)
                    else:
                        self._prune_chunk_for_state(state, chunk_id, outcome)
                    continue
                entry = scanned.get(chunk_id)
                if entry is None:
                    ids, vectors = self._read_chunk(chunk_id, chunk_cache)
                    # Kept in squared space: _process_chunk_for_state takes
                    # the root only for rows that pass its admission gate.
                    d2 = pairwise_squared_distances(query_matrix, vectors)
                    # Row minima batched too: the per-query skip test then
                    # costs a list index instead of a numpy reduction.
                    mins2 = (
                        d2.min(axis=1).tolist()
                        if d2.shape[1]
                        else [math.inf] * n_rows
                    )
                    entry = (ids, d2, mins2)
                    scanned[chunk_id] = entry
                ids, d2, mins2 = entry
                process(state, chunk_id, ids, d2[row], mins2[row], outcome)

    def _run_query_major(
        self,
        state: _QueryState,
        chunk_cache: Dict[int, Tuple[np.ndarray, np.ndarray]],
        faults: Optional[FaultInjector] = None,
        failed_chunks: Optional[set] = None,
    ) -> None:
        """Sequential-order execution for shared-cache cost models: one
        query runs to its stop before the next one starts, so simulated
        cache touches land in exactly the per-query loop's order.

        With a simulated chunk cache the handlers charge each access
        through it (via the per-state simulator); the canonical promoted
        payload is attached *after* the timing call, exactly as the
        sequential searcher does, so later queries — in this batch or the
        next — reuse the decoded contents while the chunk stays resident."""
        sim_cache = self.cost_model.chunk_cache
        prune = self._prune
        while not state.done:
            chunk_id, lb = state.pull_next()
            prunable = prune and lb > state.kth
            outcome = None
            contents = None
            if faults is not None:
                # Degraded execution needs the chunk's readability even
                # when pruning would skip the scan: the fault outcome
                # (and therefore the timing and trace) depends on it.
                contents = self._try_read_chunk(
                    chunk_id,
                    chunk_cache,
                    failed_chunks if failed_chunks is not None else set(),
                )
                outcome = faults.outcome(
                    state.fault_key,
                    chunk_id,
                    self._page_list[chunk_id],
                    readable=contents is not None,
                )
                if not outcome.ok:
                    self._skip_chunk_for_state(state, chunk_id, outcome)
                    continue
            elif not prunable:
                contents = self._read_chunk(chunk_id, chunk_cache)
            if prunable:
                self._prune_chunk_for_state(state, chunk_id, outcome)
            else:
                assert contents is not None
                ids, vectors = contents
                sq = pairwise_squared_distances(
                    state.query[np.newaxis, :], vectors
                )
                self._process_chunk_for_state(
                    state, chunk_id, ids, sq[0], outcome=outcome
                )
            if sim_cache is not None and contents is not None:
                # Attach only sticks while the chunk is simulated-resident
                # (the process call above just touched it).
                sim_cache.attach(self._page_offsets[chunk_id], contents)
