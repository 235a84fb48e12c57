"""The four benchmark workloads: ``online``, ``batch``, ``ingest``, ``serve``.

Every workload runs at the default reproduction scale (about 24k
descriptors of 24 dimensions, k = 30), generates its queries and
operations from the workload seed, and drives ``repro`` only through its
public API.  A workload has three
phases:

* ``__init__`` generates the inputs and their exact ground truth (not
  timed as set-up);
* :meth:`Workload.setup` builds the index and everything else needed to
  serve, and is repeated so that ``setup_s`` is a median;
* :meth:`Workload.run_pass` runs one pass of fixed, seed-determined work.
  The runner repeats passes until the run's seconds are used.  Every
  pass does identical work, so the first pass alone fills the
  deterministic section (simulated times, recall, exact counts) and
  runs the output checks.

A check that fails counts one failed operation; the runner then exits
non-zero.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    BagClusterer,
    BatchChunkSearcher,
    ChunkIndex,
    ChunkSearcher,
    DescriptorCollection,
    ExactCompletion,
    MaxChunks,
    SRTreeChunker,
    StreamingChunkIndex,
    TimeBudget,
    build_chunk_index,
    dataset_queries,
    delete_op,
    estimate_mpi,
    exact_knn_batch,
    generate_collection,
    insert_op,
    precision_at_k,
    space_queries,
    verify_streaming_index,
)
from repro.core.routing import CentroidRouter
from repro.core.stop_rules import FirstOf
from repro.experiments.config import DEFAULT_SCALE
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.shard_plan import ShardFaultPlan
from repro.service import (
    QueryService,
    ServiceConfig,
    ShardedQueryService,
    ShardServiceConfig,
    plan_placement,
)
from repro.service.sharding import estimate_chunk_costs
from repro.simio.chunk_cache import LruChunkCache
from speed import SpeedClock

_clock = time.perf_counter

SCALE = DEFAULT_SCALE
K = SCALE.k
COST_MODEL = SCALE.cost_model

#: WAL flush policy of the ``ingest`` workload, stated in every report.
FLUSH_POLICY = "group commit: one fsync per acknowledged apply() batch"

#: Queries per ground-truth call (see :func:`ground_truth`).
TRUTH_BLOCK = 64


def sub_seed(seed: int, stream: int) -> int:
    """An independent 32-bit seed for one consumer of the workload seed."""
    sequence = np.random.SeedSequence(entropy=(int(seed), int(stream)))
    return int(sequence.generate_state(1)[0])


def make_collection() -> DescriptorCollection:
    """The default-scale synthetic collection, with the scale's own seed.

    Every workload seed searches the same collection: a collection drawn
    from the workload seed changes the chunk structure BAG finds, and with
    it the simulated times, by 20-50% from seed to seed.  The workload
    seed drives everything else: queries, their mix, the op stream, fault
    plans and arrival times.
    """
    return generate_collection(SCALE.synthetic)


def query_stream(collection: DescriptorCollection, n: int, seed: int) -> np.ndarray:
    """``n`` queries: a seeded interleaving of DQ (dataset) and SQ (space)."""
    n_dq = n // 2
    dq = dataset_queries(collection, n_dq, seed=sub_seed(seed, 2)).queries
    sq = space_queries(collection, n - n_dq, seed=sub_seed(seed, 3)).queries
    order = np.random.default_rng(sub_seed(seed, 4)).permutation(n)
    return np.concatenate([dq, sq]).astype(np.float64)[order]


def ground_truth(collection: DescriptorCollection, queries: np.ndarray) -> np.ndarray:
    """Exact k-NN ids of ``queries``, ``TRUTH_BLOCK`` queries per
    ``exact_knn_batch`` call: one call over every query would hold a
    queries x collection distance matrix, and the process's peak memory
    would be the ground truth's rather than the index's."""
    return np.concatenate(
        [
            exact_knn_batch(collection, queries[start : start + TRUTH_BLOCK], K)
            for start in range(0, len(queries), TRUTH_BLOCK)
        ]
    )


def percentile_ms(values_s: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values_s, dtype=np.float64), q)) * 1000.0


def _trace_counts(results: Sequence[Any]) -> Dict[str, int]:
    """Exact per-chunk counts over a list of ``SearchResult``."""
    visited = pruned = skipped = descriptors = retries = 0
    for result in results:
        events = result.trace.events
        visited += len(events)
        pruned += result.chunks_pruned
        skipped += result.trace.chunks_skipped
        descriptors += result.trace.descriptors_scanned
        retries += sum(event.retries for event in events)
    return {
        "chunks_visited": visited,
        "chunks_pruned": pruned,
        "chunks_scanned": visited - pruned - skipped,
        "chunks_skipped": skipped,
        "descriptors_scanned": descriptors,
        "fault_retries": retries,
    }


class Workload:
    """Base class: inputs, repeated set-up, fixed-work passes, results."""

    name = ""
    setup_repeats = 3

    def __init__(self, seed: int, workdir: str, clock: SpeedClock):
        self.seed = int(seed)
        self.workdir = workdir
        self.clock = clock
        # Host timings as (midpoint, seconds); the runner scales them with
        # the speed clock.
        self.setup_times: List[Tuple[float, float]] = []
        self.op_times: List[Tuple[float, float]] = []  # one per operation
        self.busy: List[Tuple[float, float]] = []  # all timed pass work
        self.ops = 0  # operations completed (throughput numerator)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sim_latencies_s: List[float] = []  # first pass only
        self.recalls: List[float] = []  # first pass only
        self.det: Dict[str, Any] = {}  # first pass only
        #: Workload-specific end-to-end metrics: name -> (value, unit).
        self.extra: Dict[str, Tuple[float, str]] = {}
        #: Cumulative per-layer counts over all passes (the traced run
        #: takes the difference across its traced passes).
        self.counters: Dict[str, float] = Counter()
        #: Per-layer values of the latest pass (not summed).
        self.gauges: Dict[str, float] = {}
        #: Requests shed or past their deadline (``serve`` only).
        self.missed = 0
        #: Operations of the first pass, the ones its checks and ``missed``
        #: cover: the denominator of ``failed_fraction`` (set by the runner).
        self.first_attempted = 0
        #: Chunk shape of the last set-up.
        self.bag_passes = 0
        self.max_chunk_size = 0
        #: When the first pass finished its timed work and began its
        #: output checks (the runner does not count check time).
        self.checks_began: Optional[float] = None
        self._excluded_s = 0.0

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def timed_setup(self) -> None:
        """Run :meth:`setup` once between two speed probes and record its
        host time, less any ground-truth work it did on the first call."""
        self._excluded_s = 0.0
        self.clock.force()
        began = _clock()
        self.setup()
        ended = _clock()
        self.clock.force()
        self.setup_times.append(((began + ended) / 2.0, ended - began - self._excluded_s))

    def record(self, began: float, ended: float, operation: bool = True) -> None:
        """Record timed pass work; ``operation`` makes it a latency sample."""
        span = ((began + ended) / 2.0, ended - began)
        self.busy.append(span)
        if operation:
            self.op_times.append(span)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, first: bool) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever the last set-up holds."""

    def shutdown(self) -> None:
        """Release everything before the process exits."""
        self.close()

    def extras(self) -> Dict[str, Tuple[float, str]]:
        """End-to-end metrics only this workload has: name -> (value, unit)."""
        return dict(self.extra)


# -- online -------------------------------------------------------------------


class OnlineWorkload(Workload):
    """One client, one ``ChunkSearcher.search`` call per query.

    SR-tree chunks of about 36 descriptors, saved and loaded back, with
    the centroid router and a 1 MB simulated LRU chunk cache.  A third
    of the queries run to the exactness proof; the others stop at
    ``MaxChunks`` (5% of the chunks) or the caller's own ``TimeBudget``
    (seeded, 50-250 simulated ms), whichever fires first.
    """

    name = "online"
    n_queries = 240
    leaf_capacity = 36
    cache_bytes = 1 << 20
    budget_chunk_fraction = 0.05
    time_budget_range_s = (0.05, 0.25)

    def __init__(self, seed: int, workdir: str, clock: SpeedClock):
        super().__init__(seed, workdir, clock)
        self.collection = make_collection()
        self.queries = query_stream(self.collection, self.n_queries, seed)
        rng = np.random.default_rng(sub_seed(seed, 5))
        # A third exact, not half: a median over a half/half mix of 2 ms
        # and 25 ms queries would sit in the gap between the two modes.
        exact = np.zeros(self.n_queries, dtype=bool)
        exact[: self.n_queries // 3] = True
        self.exact = rng.permutation(exact)
        # Each budgeted caller brings its own simulated time budget.
        self.time_budgets_s = rng.uniform(*self.time_budget_range_s, size=self.n_queries)
        self.truth = ground_truth(self.collection, self.queries)
        self.index: Optional[ChunkIndex] = None
        self.router: Optional[CentroidRouter] = None
        self._setups = 0

    def setup(self) -> None:
        self.close()
        directory = os.path.join(self.workdir, f"online-{self._setups}")
        self._setups += 1
        chunking = SRTreeChunker(self.leaf_capacity).form_chunks(self.collection)
        built = build_chunk_index(chunking.retained, chunking.chunk_set, name="online")
        self.max_chunk_size = int(built.descriptor_counts().max())
        built.save(directory)
        self.index = ChunkIndex.load(directory, self.collection.dimensions)
        self.router = CentroidRouter.from_index(self.index)

    def close(self) -> None:
        if self.index is not None:
            self.index.close()
            self.index = None

    def run_pass(self, first: bool) -> None:
        assert self.index is not None
        cache = LruChunkCache(capacity_bytes=self.cache_bytes, seed=self.seed)
        searcher = ChunkSearcher(
            self.index,
            cost_model=dataclasses.replace(COST_MODEL, chunk_cache=cache),
            prune=True,
            router=self.router,
        )
        max_chunks = MaxChunks(max(1, round(self.budget_chunk_fraction * self.index.n_chunks)))
        exact_rule = ExactCompletion()
        results = []
        for i, query in enumerate(self.queries):
            if self.exact[i]:
                rule = exact_rule
            else:
                rule = FirstOf([max_chunks, TimeBudget(float(self.time_budgets_s[i]))])
            self.clock.tick()
            began = _clock()
            result = searcher.search(query, k=K, stop_rule=rule, query_index=i)
            self.record(began, _clock())
            if first:
                results.append(result)
        self.ops += len(self.queries)
        self.attempted += len(self.queries)
        self.counters["simio.chunk_cache.hits"] += cache.hits
        self.counters["simio.chunk_cache.misses"] += cache.misses
        self.counters["simio.chunk_cache.evictions"] += cache.evictions
        if not first:
            return
        self.checks_began = _clock()
        for i, result in enumerate(results):
            ids = result.neighbor_ids()
            self.check(len(ids) == K, f"query {i}: {len(ids)} neighbors, want {K}")
            if self.exact[i]:
                self.check(
                    result.completed and np.array_equal(ids, self.truth[i]),
                    f"query {i}: exact result differs from exact_knn_batch",
                )
            self.recalls.append(precision_at_k(ids.tolist(), self.truth[i].tolist()))
            self.sim_latencies_s.append(result.elapsed_s)
        self.det = {
            "n_chunks": self.index.n_chunks,
            "n_queries": len(results),
            "n_exact": int(self.exact.sum()),
            **_trace_counts(results),
            "stop_reasons": dict(
                sorted(Counter(r.stop_reason.split("(")[0] for r in results).items())
            ),
            "chunk_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": cache.hit_rate,
            },
        }


# -- batch --------------------------------------------------------------------


class BatchWorkload(Workload):
    """``BatchChunkSearcher.search_batch`` calls of 200 queries, run to
    completion on the BAG LARGE index (few, skewed chunks), router and
    cache off."""

    name = "batch"
    setup_repeats = 2
    n_queries = 1200
    call_size = 200

    def __init__(self, seed: int, workdir: str, clock: SpeedClock):
        super().__init__(seed, workdir, clock)
        self.collection = make_collection()
        self.queries = query_stream(self.collection, self.n_queries, seed)
        self.index: Optional[ChunkIndex] = None
        self.retained: Optional[DescriptorCollection] = None
        self.truth: Optional[np.ndarray] = None

    def setup(self) -> None:
        self.close()
        mpi = estimate_mpi(
            self.collection, factor=SCALE.mpi_factor, seed=SCALE.synthetic.seed
        )
        target = SCALE.bag_thresholds(len(self.collection))[2]
        chunking = BagClusterer(
            mpi=mpi, target_clusters=target, max_passes=400
        ).form_chunks(self.collection)
        self.bag_passes = int(chunking.build_info.get("passes_run", 0))
        self.retained = chunking.retained
        self.index = build_chunk_index(chunking.retained, chunking.chunk_set, name="batch")
        self.max_chunk_size = int(self.index.descriptor_counts().max())
        if self.truth is None:
            # Exact ground truth over the retained (outlier-free)
            # collection the index holds; not part of set-up time.
            began = _clock()
            self.truth = ground_truth(self.retained, self.queries)
            self._excluded_s += _clock() - began

    def run_pass(self, first: bool) -> None:
        assert self.index is not None and self.truth is not None
        searcher = BatchChunkSearcher(self.index, cost_model=COST_MODEL, prune=True)
        results = []
        for start in range(0, self.n_queries, self.call_size):
            block = self.queries[start : start + self.call_size]
            self.clock.tick()
            began = _clock()
            batch = searcher.search_batch(block, k=K)
            self.record(began, _clock())
            if first:
                results.extend(batch.results)
        self.ops += self.n_queries
        self.attempted += self.n_queries
        if not first:
            return
        self.checks_began = _clock()
        for i, result in enumerate(results):
            ids = result.neighbor_ids()
            self.check(
                result.completed and np.array_equal(ids, self.truth[i]),
                f"query {i}: exact result differs from exact_knn_batch",
            )
            self.recalls.append(precision_at_k(ids.tolist(), self.truth[i].tolist()))
            self.sim_latencies_s.append(result.elapsed_s)
        counts = self.index.descriptor_counts()
        self.det = {
            "n_chunks": self.index.n_chunks,
            "max_chunk_size": int(counts.max()),
            "n_retained": len(self.retained),
            "bag_passes": self.bag_passes,
            "n_queries": len(results),
            "call_size": self.call_size,
            **_trace_counts(results),
        }




# -- ingest -------------------------------------------------------------------


class FsyncCounter:
    """Counts ``os.fsync`` calls while installed: a plain counter, so the
    untimed deterministic section can report exact fsync counts."""

    def __init__(self) -> None:
        self.calls = 0
        self._original: Optional[Any] = None

    def install(self) -> None:
        original = self._original = os.fsync

        def counted(fd: int) -> None:
            self.calls += 1
            original(fd)

        os.fsync = counted  # type: ignore[assignment]

    def remove(self) -> None:
        if self._original is not None:
            os.fsync = self._original  # type: ignore[assignment]
            self._original = None


def _file_kind(name: str) -> str:
    for prefix in ("wal-", "delta-", "base-"):
        if name.startswith(prefix):
            return prefix[:-1]
    return "manifest" if name.startswith("MANIFEST") else "other"


class _WriteMeter:
    """Bytes written into a directory, observed between operations.

    A file seen with a new inode counts whole (new files and atomically
    replaced ones such as the manifest); a file seen again with the same
    inode counts its growth (the append-only WAL).  Observing right
    before and after every operation that may delete files (checkpoints,
    close) makes the total exact at file granularity.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.seen: Dict[str, Tuple[int, int]] = {}
        self.by_kind: Dict[str, int] = Counter()

    def observe(self) -> None:
        with os.scandir(self.directory) as entries:
            for entry in entries:
                if not entry.is_file(follow_symlinks=False):
                    continue
                stat = entry.stat(follow_symlinks=False)
                previous = self.seen.get(entry.name)
                if previous is None or previous[0] != stat.st_ino:
                    grown = stat.st_size
                else:
                    grown = max(0, stat.st_size - previous[1])
                self.by_kind[_file_kind(entry.name)] += grown
                self.seen[entry.name] = (stat.st_ino, stat.st_size)

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())


def _disk_bytes(directory: str) -> int:
    with os.scandir(directory) as entries:
        return sum(
            entry.stat(follow_symlinks=False).st_size
            for entry in entries
            if entry.is_file(follow_symlinks=False)
        )


class IngestWorkload(Workload):
    """Writes beside reads on a crash-safe streaming index.

    A round starts from a fresh ``StreamingChunkIndex.create`` over SR
    chunks of 20% of the collection (timed as set-up), streams a seeded
    4,800 more descriptors as 24-operation batches with about 10% deletes
    (one group commit and fsync per acknowledged batch), and every 40
    batches checkpoints, materialises ``to_index()`` and runs 96 budgeted
    queries (router on, no chunk cache).  It ends with a WAL tail that was never
    checkpointed, closes, and reopens the directory three times to time
    recovery.  Every round does identical work.
    """

    name = "ingest"
    setup_repeats = 1  # every later round creates its own base as well
    base_fraction = 0.2
    stream_inserts = 4800
    batch_ops = 24
    delete_share = 0.1
    checkpoint_every = 40
    query_every = 40
    queries_per_point = 96
    leaf_capacity = 36
    reopen_times = 3
    # A fixed chunk budget, not a share of the growing index: the chunk
    # count at each query point differs from seed to seed, and a budget
    # that follows it makes the simulated times jump by whole chunks.
    budget_chunks = 16
    n_check_queries = 12

    def __init__(self, seed: int, workdir: str, clock: SpeedClock):
        super().__init__(seed, workdir, clock)
        collection = make_collection()
        self.dimensions = collection.dimensions
        n = len(collection)
        arrival = np.random.default_rng(sub_seed(seed, 7)).permutation(n)
        n_base = int(round(self.base_fraction * n))
        base_rows = np.sort(arrival[:n_base])
        self.base = DescriptorCollection(
            vectors=collection.vectors[base_rows],
            ids=collection.ids[base_rows],
            image_ids=collection.image_ids[base_rows],
        )
        stream_rows = arrival[n_base : n_base + self.stream_inserts]
        self.batches = self._op_batches(collection, stream_rows, sub_seed(seed, 8))
        self.n_inserts = len(stream_rows)
        self.n_ops = sum(len(batch) for batch in self.batches)
        n_batches = len(self.batches)
        self.query_points = list(range(self.query_every, n_batches, self.query_every))
        # The last checkpoint leaves a WAL tail for recovery to replay.
        self.checkpoints = set(
            range(self.checkpoint_every, n_batches, self.checkpoint_every)
        )
        self.query_pool = query_stream(
            collection, self.queries_per_point * len(self.query_points), seed
        )
        live_at = self._live_snapshots(set(self.query_points) | {n_batches})
        self.final_live = live_at[n_batches]
        # Exact ground truth of each query point's queries over the live
        # contents at that point.
        self.point_truth = {
            b: ground_truth(live_at[b], self._point_queries(j))
            for j, b in enumerate(self.query_points)
        }
        record_bytes = 8 + 4 * self.dimensions  # an id and a float32 vector
        self.user_bytes = self.n_inserts * record_bytes
        self.live_bytes = len(self.final_live) * record_bytes
        self.fsyncs = FsyncCounter()
        self.fsyncs.install()
        self.streaming: Optional[StreamingChunkIndex] = None
        self._rounds = 0
        self._fresh = False
        self.recover_times: List[Tuple[float, float]] = []

    def _op_batches(
        self, collection: DescriptorCollection, rows: np.ndarray, seed: int
    ) -> List[List[Any]]:
        """Inserts in arrival order; after each, a seeded chance of deleting
        a live id other than the one just inserted."""
        rng = np.random.default_rng(seed)
        live = [int(i) for i in self.base.ids]
        ops: List[Any] = []
        for row in rows:
            descriptor_id = int(collection.ids[row])
            ops.append(insert_op(descriptor_id, collection.vectors[row]))
            live.append(descriptor_id)
            if rng.random() < self.delete_share:
                pick = int(rng.integers(0, len(live) - 1))
                victim = live[pick]
                live[pick] = live[-2]
                live[-2] = live[-1]
                live.pop()
                ops.append(delete_op(victim))
        return [
            ops[start : start + self.batch_ops]
            for start in range(0, len(ops), self.batch_ops)
        ]

    def _point_queries(self, j: int) -> np.ndarray:
        width = self.queries_per_point
        return self.query_pool[j * width : (j + 1) * width]

    def _live_snapshots(self, points: set) -> Dict[int, DescriptorCollection]:
        """Live contents after each batch count in ``points``."""
        live: Dict[int, np.ndarray] = dict(zip(self.base.ids.tolist(), self.base.vectors))
        out = {}
        for b, batch in enumerate(self.batches, start=1):
            for op in batch:
                if op.vector is None:
                    del live[op.descriptor_id]
                else:
                    live[op.descriptor_id] = op.vector
            if b in points:
                out[b] = DescriptorCollection(
                    vectors=np.stack(list(live.values())),
                    ids=np.fromiter(live.keys(), dtype=np.int64, count=len(live)),
                    image_ids=np.zeros(len(live), dtype=np.int64),
                )
        return out

    def setup(self) -> None:
        """A fresh streaming directory holding the SR base."""
        self.close()
        directory = os.path.join(self.workdir, f"ingest-{self._rounds}")
        self._rounds += 1
        chunking = SRTreeChunker(self.leaf_capacity).form_chunks(self.base)
        index = build_chunk_index(chunking.retained, chunking.chunk_set, name="ingest")
        self.max_chunk_size = int(index.descriptor_counts().max())
        self.streaming = StreamingChunkIndex.create(
            directory, index, disk=COST_MODEL.disk, name="ingest"
        )
        self._fresh = True

    def close(self) -> None:
        if self.streaming is not None:
            self.streaming.close()
            shutil.rmtree(self.streaming.directory, ignore_errors=True)
            self.streaming = None

    def shutdown(self) -> None:
        self.close()
        self.fsyncs.remove()

    def extras(self) -> Dict[str, Tuple[float, str]]:
        out = dict(self.extra)
        out["recover_s"] = (float(np.median(self.clock.scale(self.recover_times))), "s")
        return out

    def _budgeted_search(self, index: ChunkIndex, queries: np.ndarray) -> Any:
        searcher = BatchChunkSearcher(
            index, cost_model=COST_MODEL, prune=True, router=CentroidRouter.from_index(index)
        )
        return searcher.search_batch(queries, k=K, stop_rule=MaxChunks(self.budget_chunks))

    def run_pass(self, first: bool) -> None:
        if not self._fresh:
            self.timed_setup()
        self._fresh = False
        streaming = self.streaming
        assert streaming is not None
        directory = streaming.directory
        meter = _WriteMeter(directory)
        meter.observe()
        meter.by_kind.clear()  # the base written by create() is set-up
        fsyncs_before = self.fsyncs.calls
        checkpoint_bytes = 0
        results: List[Any] = []
        truths: List[np.ndarray] = []
        for b, ops in enumerate(self.batches, start=1):
            self.clock.tick()
            began = _clock()
            streaming.apply(ops)
            self.record(began, _clock())
            if b in self.checkpoints:
                meter.observe()
                self.clock.tick()
                began = _clock()
                report = streaming.checkpoint()
                self.record(began, _clock(), operation=False)
                meter.observe()
                checkpoint_bytes += report.segment_bytes
            if b in self.point_truth:
                queries = self._point_queries(self.query_points.index(b))
                self.clock.tick()
                began = _clock()
                batch = self._budgeted_search(streaming.to_index(), queries)
                self.record(began, _clock(), operation=False)
                if first:
                    results.extend(batch.results)
                    truths.extend(self.point_truth[b])
        self.ops += self.n_ops
        self.attempted += self.n_ops
        stats = streaming.maintainer.stats
        splits, merges = stats.splits, stats.merges
        ingest_io_s = streaming.io_seconds

        # Reference answers, then close with the WAL tail and reopen.
        checks = self.query_pool[: self.n_check_queries]
        reference = BatchChunkSearcher(streaming.to_index(), cost_model=COST_MODEL)
        before = reference.search_batch(checks, k=K)
        streaming.close()
        meter.observe()
        replayed_ops = 0
        for attempt in range(self.reopen_times):
            if attempt:
                self.streaming.close()  # type: ignore[union-attr]
            self.clock.tick()
            began = _clock()
            self.streaming = StreamingChunkIndex.open(directory, disk=COST_MODEL.disk)
            ended = _clock()
            self.recover_times.append(((began + ended) / 2.0, ended - began))
            replayed_ops += self.streaming.recovery.replayed_ops  # type: ignore[union-attr]
        reopened = self.streaming
        fsyncs = self.fsyncs.calls - fsyncs_before
        for name, value in (
            ("storage.wal.bytes", meter.by_kind["wal"]),
            ("storage.fsync.calls", fsyncs),
            ("core.ingest.checkpoint.calls", len(self.checkpoints)),
            ("core.ingest.checkpoint_bytes", checkpoint_bytes),
            ("core.ingest.replayed_ops", replayed_ops),
            ("core.maintenance.splits", splits),
            ("core.maintenance.merges", merges),
        ):
            self.counters[name] += value
        if not first:
            return
        self.checks_began = _clock()

        verdict = verify_streaming_index(directory)
        self.check(bool(verdict["ok"]), "reopened index fails verify_streaming_index")
        after = BatchChunkSearcher(reopened.to_index(), cost_model=COST_MODEL)
        recovered = after.search_batch(checks, k=K)
        truth = ground_truth(self.final_live, checks)
        for i, (old, new) in enumerate(zip(before, recovered)):
            self.check(
                old.neighbors == new.neighbors,
                f"check query {i}: search after reopen differs from before close",
            )
            self.check(
                new.completed and np.array_equal(new.neighbor_ids(), truth[i]),
                f"check query {i}: exact result differs from exact_knn_batch",
            )
        self.attempted += 2 * len(checks)
        for result, truth_ids in zip(results, truths):
            self.recalls.append(precision_at_k(result.neighbor_ids().tolist(), truth_ids.tolist()))
            self.sim_latencies_s.append(result.elapsed_s)
        disk_bytes = _disk_bytes(directory)
        self.extra["write_amplification"] = (meter.total / self.user_bytes, "ratio")
        self.extra["space_amplification"] = (disk_bytes / self.live_bytes, "ratio")
        self.det = {
            "flush_policy": FLUSH_POLICY,
            "base_descriptors": len(self.base),
            "inserts": self.n_inserts,
            "deletes": self.n_ops - self.n_inserts,
            "batches": len(self.batches),
            "batch_ops": self.batch_ops,
            "checkpoints": len(self.checkpoints),
            "checkpoint_bytes": checkpoint_bytes,
            "fsyncs": fsyncs,
            "bytes_written": dict(sorted(meter.by_kind.items())),
            "bytes_on_disk": disk_bytes,
            "live_descriptors": len(self.final_live),
            "replayed_batches": reopened.recovery.replayed_batches,  # type: ignore[union-attr]
            "replayed_ops": reopened.recovery.replayed_ops,  # type: ignore[union-attr]
            "splits": splits,
            "merges": merges,
            "n_chunks": reopened.n_chunks,
            "simulated_ingest_io_s": ingest_io_s,
            "queries": len(results),
            **_trace_counts(results),
        }


# -- serve --------------------------------------------------------------------


class ServeWorkload(Workload):
    """Both simulated services on the BAG SMALL index (many small, skewed
    chunks):

    * a 4-worker ``QueryService`` with Poisson arrivals at twice its
      calibrated capacity and a balanced 10% fault plan, over three
      independent seeded request streams per pass;
    * an 8-shard, 2-replica ``ShardedQueryService`` with greedy
      placement, hedging on and 10% shard faults, on a prefix of the
      first stream.

    An overloaded service with adaptive budgets and breakers is chaotic:
    the median latency of one 1,000-request stream moves by a quarter
    from seed to seed.  Pooling shorter streams steadies it: the first
    pass runs two more streams after its timed work, so the simulated
    metrics pool five streams while a timed pass stays short enough to
    repeat.
    """

    name = "serve"
    setup_repeats = 2
    n_streams = 3  # timed, in every pass
    n_sim_streams = 5  # pooled for the simulated metrics (first pass)
    n_requests = 400  # per stream
    n_sharded = 50
    n_workers = 4
    load_factor = 2.0
    fault_rate = 0.1
    n_shards = 8
    n_replicas = 2
    shard_load_factor = 4.0
    deadline_factor = 4.0
    target_factor = 3.0
    hedge_factor = 3.0
    n_calibration = 200

    def __init__(self, seed: int, workdir: str, clock: SpeedClock):
        super().__init__(seed, workdir, clock)
        self.collection = make_collection()
        self.streams = [
            query_stream(self.collection, self.n_requests, sub_seed(seed, 20 + j))
            for j in range(self.n_sim_streams)
        ]
        self.queries = np.concatenate(self.streams)
        self.index: Optional[ChunkIndex] = None
        self.truth: Optional[np.ndarray] = None  # for ``queries``
        self.sharded: Optional[ShardedQueryService] = None

    def setup(self) -> None:
        self.close()
        mpi = estimate_mpi(
            self.collection, factor=SCALE.mpi_factor, seed=SCALE.synthetic.seed
        )
        target = SCALE.bag_thresholds(len(self.collection))[0]
        chunking = BagClusterer(
            mpi=mpi, target_clusters=target, max_passes=400
        ).form_chunks(self.collection)
        self.bag_passes = int(chunking.build_info.get("passes_run", 0))
        self.index = build_chunk_index(chunking.retained, chunking.chunk_set, name="serve")
        self.max_chunk_size = int(self.index.descriptor_counts().max())
        if self.truth is None:
            began = _clock()
            self.truth = ground_truth(chunking.retained, self.queries)
            self._excluded_s += _clock() - began
        # Calibrate capacity on a fixed query sample, so every workload
        # seed offers the same load and deadlines.
        calibration = BatchChunkSearcher(self.index, cost_model=COST_MODEL).search_batch(
            query_stream(self.collection, self.n_calibration, SCALE.synthetic.seed), k=K
        )
        self.mean_service_s = calibration.mean_elapsed_s
        self.costs = estimate_chunk_costs(self.index, COST_MODEL)
        self.sharded = self._sharded()

    def _sharded(self) -> ShardedQueryService:
        assert self.index is not None and self.truth is not None
        plan = plan_placement(
            self.costs,
            n_shards=self.n_shards,
            n_replicas=self.n_replicas,
            strategy="greedy",
            seed=self.seed,
        )
        self.imbalance = plan.imbalance
        rate = self.shard_load_factor / self.mean_service_s
        deadline = self.deadline_factor * self.mean_service_s
        config = ShardServiceConfig(
            workers_per_shard=1,
            deadline_s=deadline,
            arrival_rate_qps=rate,
            seed=self.seed,
            k=K,
            hedge_delay_s=self.hedge_factor * self.mean_service_s / self.n_shards,
        )
        faults = ShardFaultPlan.balanced(
            self.fault_rate, seed=self.seed, horizon_s=self.n_sharded / rate + deadline
        )
        return ShardedQueryService(
            self.index,
            plan,
            config,
            cost_model=COST_MODEL,
            faults=faults,
            true_neighbor_ids=[row.tolist() for row in self.truth[: self.n_sharded]],
        )

    def close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None

    def _single_node(self, stream: int) -> QueryService:
        config = ServiceConfig(
            n_workers=self.n_workers,
            deadline_s=self.deadline_factor * self.mean_service_s,
            target_p99_s=self.target_factor * self.mean_service_s,
            arrival_rate_qps=self.load_factor * self.n_workers / self.mean_service_s,
            seed=sub_seed(self.seed, 30 + stream),
            k=K,
            initial_service_estimate_s=self.mean_service_s,
            shed_slack=self.target_factor / self.deadline_factor,
        )
        faults = FaultInjector.from_cost_model(
            FaultPlan.balanced(self.fault_rate, seed=sub_seed(self.seed, 40 + stream)),
            COST_MODEL,
        )
        assert self.index is not None and self.truth is not None
        rows = slice(stream * self.n_requests, (stream + 1) * self.n_requests)
        return QueryService(
            BatchChunkSearcher(self.index, cost_model=COST_MODEL),
            config,
            faults=faults,
            true_neighbor_ids=[row.tolist() for row in self.truth[rows]],
        )

    def _record_run(self, began: float, ended: float, requests: int) -> None:
        """One latency sample per service run: host seconds per request."""
        self.record(began, ended, operation=False)
        self.op_times.append(((began + ended) / 2.0, (ended - began) / requests))

    def run_pass(self, first: bool) -> None:
        sharded = self.sharded
        assert sharded is not None
        n = self.n_streams * self.n_requests + self.n_sharded
        singles = []
        for stream, queries in enumerate(self.streams[: self.n_streams]):
            service = self._single_node(stream)
            self.clock.tick()
            start = _clock()
            singles.append(service.run(queries))
            self._record_run(start, _clock(), self.n_requests)
        self.clock.force()
        start = _clock()
        cluster = sharded.run(self.streams[0][: self.n_sharded])
        self._record_run(start, _clock(), self.n_sharded)
        self.clock.force()
        self.ops += n
        self.attempted += n
        # The coordinator's shard pools keep their state: use a fresh one
        # for the next pass.
        self.close()
        self.sharded = self._sharded()
        single_records = [record for run in singles for record in run.records]
        served_wait = [r.wait_s for r in single_records if r.served]
        for name, value in (
            ("service.shed", sum(run.n_shed_full + run.n_shed_late for run in singles)),
            ("service.breaker_opens", sum(run.breaker_opens for run in singles)),
            ("sharding.subrequests", sum(cluster.shard_served) + sum(cluster.shard_failed)),
            ("sharding.hedges", cluster.n_hedges),
            ("sharding.hedge_wins", cluster.n_hedge_wins),
            ("sharding.failovers", cluster.n_failovers),
            ("sharding.reclaimed_sim_s", cluster.reclaimed_s),
        ):
            self.counters[name] += value
        self.gauges["service.final_budget"] = singles[-1].final_budget
        self.gauges["service.wait_sim_p99_ms"] = percentile_ms(served_wait, 99)
        if not first:
            return
        self.checks_began = _clock()

        for stream in range(self.n_streams, self.n_sim_streams):
            singles.append(self._single_node(stream).run(self.streams[stream]))
        self.attempted += (self.n_sim_streams - self.n_streams) * self.n_requests
        single_records = [record for run in singles for record in run.records]
        served_wait = [r.wait_s for r in single_records if r.served]

        for record in single_records:
            if record.outcome == "ok":
                self.check(
                    record.recall == 1.0,
                    f"request {record.index}: exact single-node answer has "
                    f"precision {record.recall}",
                )
        single_node = ChunkSearcher(self.index, cost_model=COST_MODEL)
        n_full = 0
        for record in cluster.records:
            if record.outcome != "ok" or record.coverage_fraction != 1.0:
                continue
            n_full += 1
            reference = single_node.search(self.queries[record.index], k=K)
            self.check(
                list(record.neighbors) == list(reference.neighbors),
                f"sharded request {record.index}: full-coverage answer "
                "differs from the single node",
            )
            self.check(
                np.array_equal(record.neighbor_ids(), self.truth[record.index]),
                f"sharded request {record.index}: exact answer differs "
                "from exact_knn_batch",
            )
        # Without a floor, a change that degrades every sharded request
        # would pass with nothing compared.
        self.check(
            n_full >= self.n_sharded // 4,
            f"only {n_full} of {self.n_sharded} sharded requests had full coverage",
        )
        self.attempted += 2 * n_full + 1
        records = single_records + list(cluster.records)
        for record in records:
            if record.served:
                self.sim_latencies_s.append(record.latency_s)
                self.recalls.append(record.recall)
        self.missed = sum(1 for r in records if r.outcome in ("shed", "deadline"))
        self.det = {
            "n_chunks": self.index.n_chunks,
            "max_chunk_size": int(self.index.descriptor_counts().max()),
            "bag_passes": self.bag_passes,
            "mean_service_sim_s": self.mean_service_s,
            "single_node": {
                "streams": self.n_sim_streams,
                "requests": len(single_records),
                "outcomes": dict(sorted(Counter(r.outcome for r in single_records).items())),
                "shed": sum(run.n_shed_full + run.n_shed_late for run in singles),
                "final_budgets": [run.final_budget for run in singles],
                "breaker_opens": sum(run.breaker_opens for run in singles),
                "breaker_skipped_chunks": sum(run.breaker_skipped_chunks for run in singles),
                "chunks_read": sum(r.chunks_read for r in single_records),
                "chunks_skipped": sum(r.chunks_skipped for r in single_records),
                "wait_sim_p99_ms": percentile_ms(served_wait, 99),
                "utilization": [run.utilization for run in singles],
            },
            "sharded": {
                "requests": self.n_sharded,
                "imbalance": self.imbalance,
                "outcomes": dict(sorted(Counter(r.outcome for r in cluster.records).items())),
                "full_coverage_checked": n_full,
                "hedges": cluster.n_hedges,
                "hedge_wins": cluster.n_hedge_wins,
                "failovers": cluster.n_failovers,
                "lost_partitions": cluster.n_lost_partitions,
                "breaker_opens": cluster.breaker_opens,
                "reclaimed_sim_s": cluster.reclaimed_s,
                "mean_coverage": cluster.mean_coverage,
            },
        }


WORKLOADS = {
    cls.name: cls
    for cls in (OnlineWorkload, BatchWorkload, IngestWorkload, ServeWorkload)
}
