"""The approximate chunk-search algorithm (paper section 4.3).

For a query descriptor the searcher:

1. computes the distance between the query and the centroids of all chunks
   and ranks the chunks by increasing distance (one pass over the index
   file, charged as a sequential read plus ranking CPU);
2. reads chunks in rank order; each chunk's descriptors are fetched and
   their distances to the query computed, possibly updating the current
   neighbor set;
3. after every chunk, consults the stop rule, and independently checks the
   exact-completion proof: once ``k`` neighbors are known and the minimum
   possible distance to any *remaining* chunk (``d(query, centroid) -
   radius``, the reason radii are stored in the index) exceeds the current
   k-th distance, all true nearest neighbors have provably been found.

This module holds the one execution engine.  A query's progress lives in a
:class:`_QueryState`; the scan, prune, prune-run and skip handlers apply
one visited chunk to it, and :meth:`ChunkSearcher._run` runs each state of
a cohort to its stop in turn.  :meth:`ChunkSearcher.search` is a cohort of
one; :class:`~repro.core.batch_search.BatchChunkSearcher` runs whole
batches on the same loop.  The only per-cohort choice is where a state's
distance rows come from:

* **one query** — ranking and chunk scans use the direct-form
  :func:`~repro.core.distance.squared_distances` (this module);
* **two or more queries** — ranking and scans use one
  :func:`~repro.core.distance.pairwise_squared_distances` gemm per chunk
  over the cohort matrix (:mod:`repro.core.batch_search`).

The two kernels round differently in the last bit, so a lone query and the
same query inside a cohort agree to within one ulp of distance; each side
is deterministic on its own.

Timing comes from the paper's pipeline recurrence (see
:class:`~repro.simio.pipeline.PipelineSimulator`), deterministic and
calibrated to the paper's hardware.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

import numpy as np

from ..faults.injector import FaultInjector
from ..faults.plan import OK_OUTCOME, ChunkFaultOutcome
from ..simio.calibration import PAPER_2005_COST_MODEL
from ..simio.pipeline import CostModel, PipelineSimulator
from ..storage.errors import CorruptFileError
from .chunk_index import ChunkIndex
from .distance import squared_distances
from .neighbors import Neighbor, NeighborSet
from .routing import CentroidRouter, RouterStream
from .stop_rules import ExactCompletion, SearchProgress, StopRule
from .trace import SearchTrace, TraceEvent

__all__ = ["ChunkSearcher", "SearchResult", "RANK_BY_CENTROID", "RANK_BY_LOWER_BOUND"]

#: Rank chunks by distance to the centroid (what the paper does).
RANK_BY_CENTROID = "centroid"
#: Rank chunks by the lower bound ``d(centroid) - radius`` (ablation).
RANK_BY_LOWER_BOUND = "lower_bound"

#: The prune-run fast path materializes ``TraceEvent`` instances from
#: prebuilt value tuples; ``_make`` is the C-level tuple constructor, the
#: cheapest way to build one (see the ``TraceEvent`` docstring for why
#: the event type is a ``NamedTuple`` in the first place).
_EVENT_MAKE = TraceEvent._make

#: A chunk's promoted contents: int64 ids and the float64 descriptor matrix.
_Contents = Tuple[np.ndarray, np.ndarray]
#: ``(order, suffix_min, ranked_lower_bounds)`` of one query's flat ranking.
_Ranking = Tuple[np.ndarray, np.ndarray, np.ndarray]
_Searcher = TypeVar("_Searcher", bound="ChunkSearcher")


@dataclasses.dataclass
class SearchResult:
    """Outcome of one query.

    Attributes
    ----------
    neighbors:
        Final neighbor list, best first.
    trace:
        Per-chunk execution log (always recorded).
    stop_reason:
        Which rule ended the search: ``"completed"`` for the exactness
        proof, ``"exhausted"`` when every chunk was read, else the stop
        rule's reason string.
    completed:
        True iff the result is provably the exact k-NN answer.  Never
        True for a degraded run: a skipped chunk may have held a true
        neighbor, so the exactness proof is unsound over it.
    degraded:
        True when at least one chunk was skipped after exhausting its
        read retries (see ``trace.chunks_skipped`` for how many and
        ``coverage_fraction`` for the descriptor coverage that remains).
    chunks_pruned:
        How many visited chunks the triangle-inequality pruner excused
        from scanning (host-side work saved).  Pruning never changes the
        result: a pruned chunk is charged identical simulated time and
        logged with an identical trace event — it provably could not have
        altered the neighbor set, so only the wall-clock work (store read,
        distance kernel, neighbor-set update) is skipped.
    """

    neighbors: List[Neighbor]
    trace: SearchTrace
    stop_reason: str
    completed: bool
    degraded: bool = False
    chunks_pruned: int = 0

    @property
    def chunks_read(self) -> int:
        return self.trace.chunks_read

    @property
    def chunks_skipped(self) -> int:
        """Chunks abandoned under degraded execution."""
        return self.trace.chunks_skipped

    @property
    def coverage_fraction(self) -> float:
        """Fraction of visited descriptors actually scanned (1.0 clean)."""
        return self.trace.coverage_fraction

    @property
    def elapsed_s(self) -> float:
        return self.trace.final_elapsed_s

    def neighbor_ids(self) -> np.ndarray:
        """Descriptor ids of the result neighbors, best first (int64)."""
        return np.asarray([n.descriptor_id for n in self.neighbors], dtype=np.int64)


class _QueryState:
    """Mutable execution state of one query.

    The timing state is three floats replicating the
    :class:`~repro.simio.pipeline.PipelineSimulator` recurrence inline
    (``prev_read``/``prev_proc``/``drained`` are ``R[i-1]``/``C[i-1]``/
    ``C[i-2]``); ``simulator`` is only instantiated for shared-cache
    cost models, whose per-chunk I/O charge is stateful.
    """

    __slots__ = (
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
        query: np.ndarray,
        k: int,
        stop_rule: StopRule,
        truth: Optional[frozenset],
        fault_key: int,
        start_s: float,
        simulator: Optional[PipelineSimulator],
        ranking: Optional[_Ranking],
        stream: Optional[RouterStream],
    ):
        self.fault_key = fault_key
        self.query = query
        self.k = k
        # Plain Python lists: the execution loop touches one element per
        # event, where numpy scalar extraction would dominate.  A routed
        # state draws its chunks lazily from the stream instead.
        lists: List[list] = (
            [a.tolist() for a in ranking] if ranking is not None else [[], [], []]
        )
        self.order, self.suffix_list, self.lb_list = lists
        self.n_ranks = len(self.order)
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
        if stream.exhausted if stream is not None else not self.n_ranks:
            # An index without chunks: nothing to read, trivially exact.
            self.finish("exhausted", True)

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


#: Where a cohort's scan rows come from: ``rows(vectors)`` returns the
#: squared distances from every query of the cohort (one row per state, in
#: cohort order) to a chunk's descriptors, and each row's minimum.
_RowSource = Callable[[np.ndarray], Tuple[np.ndarray, List[float]]]


def _direct_rows(query: np.ndarray) -> _RowSource:
    """The lone-query row source: one direct-form kernel call per chunk."""

    def rows(vectors: np.ndarray) -> Tuple[np.ndarray, List[float]]:
        sq = squared_distances(query, vectors)
        return sq[np.newaxis, :], [float(sq.min()) if sq.size else math.inf]

    return rows


class ChunkSearcher:
    """Executes ranked chunk scans over one :class:`ChunkIndex`."""

    def __init__(
        self,
        index: ChunkIndex,
        cost_model: CostModel = PAPER_2005_COST_MODEL,
        rank_by: str = RANK_BY_CENTROID,
        prune: bool = True,
        router: Optional[CentroidRouter] = None,
    ):
        """``prune=True`` (default) activates the triangle-inequality chunk
        pruner: a visited chunk whose lower bound strictly exceeds the
        current k-th distance is charged and logged exactly as if scanned
        (results, traces, and simulated timestamps are bit-identical) but
        its store read and distance kernel are skipped on the host.

        ``router`` optionally supplies a prebuilt
        :class:`~repro.core.routing.CentroidRouter`; chunk ranking then
        probes its ``O(sqrt(C))`` centroid groups lazily instead of
        scanning all ``C`` centroids per query, preserving the exact scan
        order and completion-proof values.
        """
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
        self.prune = bool(prune)
        self.router = router
        # Cached per-index arrays used by every query.
        self._centroids = index.centroid_matrix()
        self._radii = index.radius_vector()
        self._pages = index.page_counts()
        # Per-chunk scalars as plain Python values: the execution loop
        # touches these once per (query, chunk) event, where repeated
        # numpy indexing and cost-model calls would dominate.
        counts = [int(c) for c in index.descriptor_counts()]
        self._page_list = [int(p) for p in self._pages]
        self._page_offsets = [meta.page_offset for meta in index.metas]
        # ``(io_s, cpu_s, n_descriptors)`` per chunk: one index plus an
        # unpack beats three list lookups on the per-event path.
        self._chunk_cost = [
            (
                cost_model.disk.random_read_time_s(pages),
                cost_model.cpu.chunk_processing_time_s(count),
                count,
            )
            for pages, count in zip(self._page_list, counts)
        ]
        self._overlap = cost_model.overlap_io_cpu
        # The index read + ranking charge (PipelineSimulator.start_query's
        # arithmetic) is the same for every query.
        self._start_s = cost_model.disk.sequential_read_time_s(index.index_bytes)
        self._start_s += cost_model.cpu.ranking_time_s(index.n_chunks)
        # Both cache flavors make a chunk's simulated I/O charge depend on
        # the global order of touches: such queries keep a stateful
        # per-query simulator and run strictly one after another.
        self._shared_cache = (
            cost_model.cache is not None or cost_model.chunk_cache is not None
        )

    # -- ownership -----------------------------------------------------------

    def close(self) -> None:
        """Release the underlying index (and its chunk reader)."""
        self.index.close()

    def __enter__(self: _Searcher) -> _Searcher:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ranking -------------------------------------------------------------

    def rank_chunks(self, query: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Rank all chunks for a query.

        Returns ``(order, suffix_min_lower_bound)`` where ``order[r]`` is
        the chunk id at rank ``r`` and ``suffix_min_lower_bound[r]`` is the
        smallest lower bound among chunks at rank ``r`` or later — the
        quantity the completion proof compares against the k-th distance
        after ``r`` chunks were read.
        """
        order, suffix_min, _ = self._rank_arrays(query)
        return order, suffix_min

    def _rank_arrays(self, query: np.ndarray) -> _Ranking:
        """``(order, suffix_min, ranked_lower_bounds)`` for one query —
        the full ranking plus the per-rank lower bounds the pruner tests
        against the k-th distance."""
        centroid_d = np.sqrt(squared_distances(query, self._centroids))
        lower_bounds = np.maximum(0.0, centroid_d - self._radii)
        key = centroid_d if self.rank_by == RANK_BY_CENTROID else lower_bounds
        order = np.lexsort((np.arange(key.shape[0]), key))
        ranked_bounds = lower_bounds[order]
        # suffix_min[r] = min lower bound over ranks >= r.
        suffix_min = np.minimum.accumulate(ranked_bounds[::-1])[::-1]
        return order, suffix_min, ranked_bounds

    # -- search ----------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int = 30,
        stop_rule: Optional[StopRule] = None,
        true_neighbor_ids: Optional[Sequence[int]] = None,
        faults: Optional[FaultInjector] = None,
        query_index: int = 0,
    ) -> SearchResult:
        """Run one query.

        Parameters
        ----------
        query:
            The query descriptor, shape ``(d,)``.
        k:
            Neighbors to return (the paper uses 30 throughout).
        stop_rule:
            Early-termination policy; defaults to
            :class:`~repro.core.stop_rules.ExactCompletion` (run until the
            exactness proof fires).
        true_neighbor_ids:
            Optional ground-truth ids for this query.  When given, every
            trace event records how many true neighbors the intermediate
            result already holds — the paper's quality measurement.
        faults:
            Optional fault injector enabling *degraded execution*: chunk
            reads may fail (injected or real), are retried with backoff
            charged to the simulated clock, and are skipped once retries
            run out — the query finishes regardless.  With a zero-rate
            plan the search is bit-identical to ``faults=None``.  Without
            an injector, real storage errors propagate as before.
        query_index:
            Stable identifier of this query within its workload — the
            fault plan's decision key, so runs reproduce independently
            of execution order or engine.
        """
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        self._check_queries(query[np.newaxis, :], k)
        ranking = self._rank_arrays(query) if self.router is None else None
        state = self._start_state(
            query, k, stop_rule, true_neighbor_ids, query_index, ranking
        )
        self._run([state], faults, _direct_rows(query))
        return state.to_result()

    def _check_queries(self, queries: np.ndarray, k: int) -> None:
        """Reject a float64 ``(n, d)`` query matrix the index cannot serve."""
        if queries.shape[1] != self.index.dimensions:
            raise ValueError(
                f"queries have {queries.shape[1]} dims, "
                f"index has {self.index.dimensions}"
            )
        if not np.all(np.isfinite(queries)):
            raise ValueError("queries contain NaN or infinite components")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")

    def _start_state(
        self,
        query: np.ndarray,
        k: int,
        stop_rule: Optional[StopRule],
        true_neighbor_ids: Optional[Sequence[int]],
        fault_key: int,
        ranking: Optional[_Ranking],
    ) -> _QueryState:
        """A query's state after the index read and ranking charge; a
        ``None`` ranking routes the query through the router stream."""
        truth = None
        if true_neighbor_ids is not None:
            truth = frozenset(int(i) for i in true_neighbor_ids)
        simulator = None
        start_s = self._start_s
        if self._shared_cache:
            simulator = self.cost_model.simulator()
            start_s = simulator.start_query(
                self.index.n_chunks, self.index.index_bytes
            )
        stream = None
        if ranking is None:
            assert self.router is not None
            stream = self.router.stream(query, self.rank_by)
        rule = stop_rule if stop_rule is not None else ExactCompletion()
        return _QueryState(
            query, k, rule, truth, fault_key, start_s, simulator, ranking, stream
        )

    # -- the execution loop --------------------------------------------------

    def _run(
        self,
        states: List[_QueryState],
        faults: Optional[FaultInjector],
        rows: _RowSource,
    ) -> None:
        """Run each state of a cohort to its stop, one after another.

        ``rows`` computes a chunk's distance rows for the whole cohort —
        the only step that depends on the cohort size.  Chunk contents
        are read and promoted, and their rows computed, at most once per
        cohort; a chunk every state prunes is never read.
        Running the states strictly in turn keeps a shared cache's touch
        order that of one query at a time.  Fault decisions are keyed by
        ``(fault_key, chunk)``, never by call order, and a chunk whose
        *real* read fails is marked failed once for the cohort.
        """
        contents_cache: Dict[int, _Contents] = {}
        scanned: Dict[int, Tuple[_Contents, np.ndarray, List[float]]] = {}
        failed: Set[int] = set()
        prune = self.prune
        sim_cache = self.cost_model.chunk_cache
        process = self._process_chunk_for_state
        ok = OK_OUTCOME
        for row, state in enumerate(states):
            burst = (
                prune
                and faults is None
                and state.stream is None
                and state.simulator is None
                and type(state.stop_rule) is ExactCompletion
            )
            while not state.done:
                chunk_id, lb = state.pull_next()
                outcome = ok
                contents: Optional[_Contents] = None
                if faults is not None:
                    # Degraded execution needs the chunk's readability even
                    # when pruning would skip the scan: the fault outcome
                    # (and therefore the timing and trace) depends on it.
                    # A real storage failure (e.g. a CRC mismatch) is one
                    # read attempt per cohort, folded into the skip policy.
                    if chunk_id not in failed:
                        try:
                            contents = self._read_chunk(chunk_id, contents_cache)
                        except CorruptFileError:
                            failed.add(chunk_id)
                    outcome = faults.outcome(
                        state.fault_key,
                        chunk_id,
                        self._page_list[chunk_id],
                        readable=contents is not None,
                    )
                    if not outcome.ok:
                        self._skip_chunk_for_state(state, chunk_id, outcome)
                        continue
                # The pruning bound: a chunk whose lower bound strictly
                # exceeds the current k-th distance cannot admit any
                # candidate (ties must still be scanned — an equal-distance,
                # smaller-id descriptor would enter the neighbor set).  kth
                # is +inf until k neighbors are known, so pruning never
                # fires early.
                if prune and lb > state.kth:
                    if burst:
                        self._prune_run_for_state(state)
                        continue
                    self._prune_chunk_for_state(state, chunk_id, outcome)
                else:
                    entry = scanned.get(chunk_id)
                    if entry is None:
                        if contents is None:
                            contents = self._read_chunk(chunk_id, contents_cache)
                        d2, mins = rows(contents[1])
                        entry = scanned[chunk_id] = (contents, d2, mins)
                    contents, d2, mins = entry
                    process(state, chunk_id, contents[0], d2[row], mins[row], outcome)
                if sim_cache is not None and contents is not None:
                    # Attach only sticks while the chunk is simulated-
                    # resident (the handler above just touched it).
                    sim_cache.attach(self._page_offsets[chunk_id], contents)

    def _read_chunk(self, chunk_id: int, cache: Dict[int, _Contents]) -> _Contents:
        """Chunk contents via the cohort's cache: one store read and one
        float64 promotion per chunk per cohort.  When the cost model
        carries a simulated chunk cache, a payload attached by an earlier
        query is reused — the cross-query warm path the cache models —
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

    # -- per-chunk handlers --------------------------------------------------

    def _process_chunk_for_state(
        self,
        state: _QueryState,
        chunk_id: int,
        ids: np.ndarray,
        sq_distances: np.ndarray,
        min_sq: float,
        outcome: ChunkFaultOutcome,
    ) -> None:
        """Apply one scanned chunk to one query: neighbor update, then the
        shared tail.

        ``sq_distances`` is the chunk's *squared*-distance row and
        ``min_sq`` its minimum.  A chunk whose best candidate cannot
        beat the current k-th neighbor admits nothing, so the neighbor-set
        update and the row's square root are skipped.  ``sqrt`` is
        monotone and correctly rounded (IEEE 754) in both ``math`` and
        numpy, so ``sqrt(min(sq))`` is bit-equal to ``min(sqrt(sq))`` and
        the gate compares the very float a full-row root would produce.
        """
        neighbors = state.neighbors
        if state.n_found < state.k or math.sqrt(min_sq) <= state.kth:
            if neighbors.update(np.sqrt(sq_distances), ids):
                state.n_found = len(neighbors)
                state.kth = neighbors.kth_distance
                if state.truth is not None:
                    state.matches = neighbors.true_match_count(state.truth)
        self._advance_state(state, chunk_id, outcome)

    # repro: exact
    def _prune_chunk_for_state(
        self, state: _QueryState, chunk_id: int, outcome: ChunkFaultOutcome
    ) -> None:
        """Apply one *pruned* chunk to one query: charged and logged
        exactly like :meth:`_process_chunk_for_state` — same simulated
        timing recurrence, same trace event — but the chunk provably
        admits no candidate (its lower bound strictly exceeds the k-th
        distance), so the store read, distance kernel and neighbor-set
        update are skipped on the host."""
        state.pruned += 1
        self._advance_state(state, chunk_id, outcome)

    def _skip_chunk_for_state(
        self, state: _QueryState, chunk_id: int, outcome: ChunkFaultOutcome
    ) -> None:
        """Apply a skipped chunk to one query: the failed attempts occupy
        the disk (``outcome.extra_io_s``) but no CPU work happens and the
        neighbor set is untouched (``PipelineSimulator.skip_chunk``)."""
        # With state.degraded set, the shared tail resolves the proof to
        # "proof-degraded" and exhaustion to completed=False.
        state.degraded = True
        self._advance_state(state, chunk_id, outcome, skipped=True)

    def _advance_state(
        self,
        state: _QueryState,
        chunk_id: int,
        outcome: ChunkFaultOutcome,
        skipped: bool = False,
    ) -> None:
        """The tail shared by the scan, prune and skip handlers: simulated
        charge, trace event, completion proof, stop rule, rank advance.

        A read chunk costs its I/O plus ``outcome.extra_io_s`` (failed
        attempts, backoff and spikes before the successful read) and its
        CPU; a skipped chunk only the failed attempts' I/O.  Without a
        stateful simulator, PipelineSimulator's recurrence runs inline on
        three floats — same operations in the same order, so timestamps
        are bit-identical (R[i] = max(R[i-1], C[i-2]) + io;
        C[i] = max(R[i], C[i-1]) + cpu; serial without overlap).
        """
        simulator = state.simulator
        io_s, cpu_s, count = self._chunk_cost[chunk_id]
        if simulator is not None:
            if skipped:
                elapsed = simulator.skip_chunk(outcome.extra_io_s)
            else:
                elapsed = simulator.process_chunk(
                    self._page_list[chunk_id],
                    count,
                    page_offset=self._page_offsets[chunk_id],
                    extra_io_s=outcome.extra_io_s,
                )
        else:
            if skipped:
                io_s = cpu_s = 0.0
            io_s += outcome.extra_io_s
            prev_proc = state.prev_proc
            if self._overlap:
                read_done = max(state.prev_read, state.drained) + io_s
                elapsed = max(read_done, prev_proc) + cpu_s
                state.prev_read = read_done
            else:
                elapsed = prev_proc + io_s + cpu_s
            state.drained = prev_proc
            state.prev_proc = elapsed
        next_rank = state.rank0 + 1
        # Fields in TraceEvent order (positional: this runs once per event
        # of every query).  A pruned or skipped chunk updates nothing, so
        # its event carries the unchanged n_found / kth / matches.
        state.events.append(
            TraceEvent(
                chunk_id,
                next_rank,
                elapsed,
                count,
                state.n_found,
                state.kth,
                state.matches,
                skipped,
                outcome.kind,
                outcome.retries,
            )
        )
        n_found = state.n_found
        kth = state.kth
        stream = state.stream
        if stream is None:
            at_end = next_rank >= state.n_ranks
            remaining_lb = math.inf if at_end else state.suffix_list[next_rank]
        else:
            remaining_lb = stream.exact_remaining_lb()
            at_end = stream.exhausted
        if n_found >= state.k and remaining_lb > kth:
            # Completion proof (SearchProgress.completion_proven): k found
            # and no remaining chunk can help.  It still bounds the
            # *remaining* chunks when some were skipped, so the scan stops
            # either way — but a degraded run can never claim exactness (a
            # skipped chunk may have held a true neighbor).
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
        per_chunk = self._chunk_cost
        append = state.events.append
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
