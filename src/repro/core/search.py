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

Timing comes from a :class:`~repro.simio.pipeline.PipelineSimulator`
(deterministic, calibrated to the paper's hardware) or a wall clock.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

import numpy as np

from ..faults.injector import FaultInjector
from ..faults.plan import OK_OUTCOME
from ..simio.calibration import PAPER_2005_COST_MODEL
from ..simio.pipeline import CostModel
from ..storage.errors import CorruptFileError
from .chunk_index import ChunkIndex
from .distance import squared_distances
from .neighbors import Neighbor, NeighborSet
from .routing import CentroidRouter
from .stop_rules import ExactCompletion, SearchProgress, StopRule
from .trace import SearchTrace, TraceEvent

__all__ = ["ChunkSearcher", "SearchResult", "RANK_BY_CENTROID", "RANK_BY_LOWER_BOUND"]

#: Rank chunks by distance to the centroid (what the paper does).
RANK_BY_CENTROID = "centroid"
#: Rank chunks by the lower bound ``d(centroid) - radius`` (ablation).
RANK_BY_LOWER_BOUND = "lower_bound"


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
        self._counts = index.descriptor_counts()
        self._pages = index.page_counts()

    # -- ownership -----------------------------------------------------------

    def close(self) -> None:
        """Release the underlying index (and its chunk reader)."""
        self.index.close()

    def __enter__(self) -> "ChunkSearcher":
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

    def _rank_arrays(
        self, query: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
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
        if query.shape[0] != self.index.dimensions:
            raise ValueError(
                f"query has {query.shape[0]} dims, index has {self.index.dimensions}"
            )
        if not np.all(np.isfinite(query)):
            raise ValueError("query contains NaN or infinite components")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        stop_rule = stop_rule if stop_rule is not None else ExactCompletion()
        truth = (
            frozenset(int(i) for i in true_neighbor_ids)
            if true_neighbor_ids is not None
            else None
        )

        stream = None
        if self.router is not None:
            stream = self.router.stream(query, self.rank_by)
            order_list: List[int] = []
            lb_list: List[float] = []
            suffix_list: List[float] = []
            n_ranks = self.index.n_chunks
        else:
            order, suffix_min, ranked_lb = self._rank_arrays(query)
            order_list = order.tolist()
            lb_list = ranked_lb.tolist()
            suffix_list = suffix_min.tolist()
            n_ranks = len(order_list)
        simulator = self.cost_model.simulator()
        start_s = simulator.start_query(self.index.n_chunks, self.index.index_bytes)
        trace = SearchTrace(start_elapsed_s=start_s)
        neighbors = NeighborSet(k)
        chunk_cache = self.cost_model.chunk_cache
        prune = self.prune

        stop_reason = "exhausted"
        completed = False
        degraded = False
        exhausted = True
        chunks_pruned = 0
        rank0 = 0
        while True:
            if stream is not None:
                emitted = stream.next()
                if emitted is None:
                    break
                chunk_id, lb = emitted
            else:
                if rank0 >= n_ranks:
                    break
                chunk_id = order_list[rank0]
                lb = lb_list[rank0]
            page_offset = self.index.metas[chunk_id].page_offset
            # The pruning bound: a chunk whose lower bound strictly exceeds
            # the current k-th distance cannot admit any candidate (ties
            # must still be scanned — an equal-distance, smaller-id
            # descriptor would enter the neighbor set).  kth is +inf until
            # k neighbors are known, so pruning never fires early.
            prunable = prune and lb > neighbors.kth_distance
            ids = vectors = None
            if faults is None:
                outcome = OK_OUTCOME
                if not prunable:
                    payload = (
                        chunk_cache.peek_payload(page_offset)
                        if chunk_cache is not None
                        else None
                    )
                    if payload is not None:
                        ids, vectors = payload  # type: ignore[misc]
                    else:
                        ids, vectors = self.index.read_chunk(chunk_id)
            else:
                # Degraded execution needs the chunk's *readability* even
                # when pruning would skip the scan: the fault outcome (and
                # therefore the timing and trace) depends on it.
                payload = (
                    chunk_cache.peek_payload(page_offset)
                    if chunk_cache is not None
                    else None
                )
                if payload is not None:
                    ids, vectors = payload  # type: ignore[misc]
                    readable = True
                else:
                    try:
                        ids, vectors = self.index.read_chunk(chunk_id)
                        readable = True
                    except CorruptFileError:
                        ids = vectors = None
                        readable = False
                outcome = faults.outcome(
                    query_index,
                    chunk_id,
                    int(self._pages[chunk_id]),
                    readable=readable,
                )

            if outcome.ok:
                elapsed = simulator.process_chunk(
                    int(self._pages[chunk_id]),
                    int(self._counts[chunk_id]),
                    page_offset=page_offset,
                    extra_io_s=outcome.extra_io_s,
                )
                if chunk_cache is not None and ids is not None:
                    # Share the promoted contents across queries; attach
                    # only sticks while the chunk is simulated-resident.
                    chunk_cache.attach(
                        page_offset,
                        (
                            np.asarray(ids, dtype=np.int64),
                            np.ascontiguousarray(vectors, dtype=np.float64),
                        ),
                    )
                if prunable:
                    chunks_pruned += 1
                else:
                    assert vectors is not None and ids is not None
                    distances = np.sqrt(squared_distances(query, vectors))
                    neighbors.update(distances, ids)
            else:
                # Degraded execution: every retry failed; the chunk is
                # skipped, its attempts charged as pure I/O time.
                elapsed = simulator.skip_chunk(outcome.extra_io_s)
                degraded = True

            matches = -1
            if truth is not None:
                matches = neighbors.true_match_count(truth)
            trace.append(
                TraceEvent(
                    chunk_id=chunk_id,
                    rank=rank0 + 1,
                    elapsed_s=elapsed,
                    n_descriptors=int(self._counts[chunk_id]),
                    neighbors_found=len(neighbors),
                    kth_distance=neighbors.kth_distance,
                    true_matches=matches,
                    skipped=not outcome.ok,
                    fault=outcome.kind,
                    retries=outcome.retries,
                )
            )

            if stream is not None:
                remaining_lb = stream.exact_remaining_lb()
            else:
                remaining_lb = (
                    float(suffix_list[rank0 + 1])
                    if rank0 + 1 < n_ranks
                    else math.inf
                )
            progress = SearchProgress(
                chunks_read=rank0 + 1,
                elapsed_s=elapsed,
                neighbors_found=len(neighbors),
                kth_distance=neighbors.kth_distance,
                remaining_lower_bound=remaining_lb,
            )
            # Completion proof: k found and no remaining chunk can help.
            # It still bounds the *remaining* chunks when some were
            # skipped, so the scan stops either way — but a degraded run
            # can never claim exactness (a skipped chunk may have held a
            # true neighbor).
            if neighbors.is_full and progress.completion_proven:
                stop_reason = "completed" if not degraded else "proof-degraded"
                completed = not degraded
                exhausted = False
                break
            reason = stop_rule.check(progress)
            if reason is not None:
                stop_reason = reason
                exhausted = False
                break
            rank0 += 1
        if exhausted:
            # All chunks read without the proof firing early: the result is
            # nevertheless exact (there is nothing left to read) — unless
            # skipped chunks left holes in the scan.
            completed = not degraded

        return SearchResult(
            neighbors=neighbors.sorted(),
            trace=trace,
            stop_reason=stop_reason,
            completed=completed,
            degraded=degraded,
            chunks_pruned=chunks_pruned,
        )
