"""Per-layer probes for the traced run, and the per-layer metrics.

:func:`install` wraps the public functions at each module boundary of
``repro`` with :class:`~tracing.Tracer` spans.  :func:`layer_metrics`
turns the spans of the traced passes, plus the workload's own cumulative
counts, into the per-layer metrics listed in ``BENCHMARK.json``.

Self times of layers that every workload reaches are reported in host
seconds (``*_s``).  Self times of layers that only some workloads reach
are reported as a share of the traced host time (``*_share``), so that a
workload which never enters the layer reports a share of 0 rather than a
time that reads 0 on every run.  ``trace.run_s`` and ``trace.setup_s``
turn shares back into seconds.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Dict, Tuple

import repro.core.batch_search as batch_search_module
import repro.core.ingest as ingest_module
import repro.core.maintenance as maintenance_module
import repro.core.routing as routing_module
import repro.core.search as search_module
import repro.service.sharding.coordinator as coordinator_module
from repro import (
    BagClusterer,
    BatchChunkSearcher,
    ChunkIndex,
    ChunkIndexMaintainer,
    ChunkSearcher,
    NeighborSet,
    SRTreeChunker,
    StreamingChunkIndex,
)
from repro.core.routing import CentroidRouter, RouterStream
from repro.service import QueryService, ShardedQueryService
from repro.simio.pipeline import PipelineSimulator
from repro.storage.wal import WalWriter

from tracing import Tracer

#: Each per-layer metric: name -> (unit, which direction is better, the
#: end-to-end metric it should move, the workloads where it should move
#: or stay flat).  ``BENCHMARK.json`` lists the same names and units.
LAYER_MAP: Dict[str, Tuple[str, str, str, str]] = {
    "chunking.form_s": ("s", "lower", "setup_s", "moves on batch, serve; flat on online, ingest"),
    "chunking.bag_passes": ("count", "lower", "setup_s", "moves on batch, serve"),
    "chunking.max_chunk_size": ("count", "lower", "setup_s", "moves on batch, serve"),
    "storage.build_s": ("s", "lower", "setup_s", "moves on online"),
    "storage.save_share": ("fraction", "lower", "setup_s", "moves on online"),
    "storage.load_share": ("fraction", "lower", "setup_s", "moves on online"),
    "storage.read.calls": ("count", "lower", "latency_p50_ms", "moves on online; flat on batch"),
    "storage.read.self_s": ("s", "lower", "latency_p50_ms", "moves on online; flat on batch"),
    "storage.read.bytes": ("bytes", "lower", "latency_p50_ms", "moves on online; flat on batch"),
    "core.engine.calls": ("count", "lower", "throughput_per_s", "moves on online, serve"),
    "core.engine.self_s": ("s", "lower", "latency_p50_ms", "moves on online, serve; smaller on batch"),
    "core.engine.chunks_visited": ("count", "lower", "latency_p99_ms", "moves on online, serve"),
    "core.engine.chunks_scanned": ("count", "lower", "latency_p99_ms", "moves on online, serve"),
    "core.engine.chunks_pruned": ("count", "higher", "latency_p99_ms", "moves on online, serve"),
    "core.engine.prune_ratio": ("fraction", "higher", "throughput_per_s", "moves on online, serve"),
    "core.engine.descriptors_scanned": ("count", "lower", "throughput_per_s", "moves on online, serve"),
    "core.routing.calls": ("count", "lower", "latency_p50_ms", "moves on online; flat on batch, serve"),
    "core.routing.self_share": ("fraction", "lower", "latency_p50_ms", "moves on online; flat on batch, serve"),
    "core.distance.calls": ("count", "lower", "throughput_per_s", "moves on batch; on online via the call count"),
    "core.distance.self_s": ("s", "lower", "throughput_per_s", "moves on batch; on online via the call count"),
    "core.distance.pairs": ("count", "lower", "throughput_per_s", "moves on batch, online"),
    "core.neighbors.update_calls": ("count", "lower", "throughput_per_s", "moves on batch, then online"),
    "core.neighbors.self_s": ("s", "lower", "throughput_per_s", "moves on batch, then online"),
    "core.neighbors.offered": ("count", "lower", "throughput_per_s", "moves on batch, then online"),
    "core.neighbors.admit_ratio": ("fraction", "higher", "throughput_per_s", "moves on batch, then online"),
    "simio.pipeline.calls": ("count", "lower", "latency_p50_ms", "moves on online"),
    "simio.pipeline.self_share": ("fraction", "lower", "latency_p50_ms", "moves on online"),
    "simio.chunk_cache.hit_rate": ("fraction", "higher", "sim_latency_p50_ms", "moves on online"),
    "simio.chunk_cache.evictions": ("count", "lower", "sim_latency_p50_ms", "moves on online"),
    "faults.retries": ("count", "lower", "sim_latency_p99_ms", "moves on serve"),
    "faults.chunks_skipped": ("count", "lower", "recall_at_k", "moves on serve"),
    "service.self_share": ("fraction", "lower", "throughput_per_s", "moves on serve"),
    "service.shed": ("count", "lower", "sim_latency_p99_ms", "moves on serve"),
    "service.wait_sim_p99_ms": ("sim_ms", "lower", "sim_latency_p99_ms", "moves on serve"),
    "service.final_budget": ("count", "higher", "recall_at_k", "moves on serve"),
    "service.breaker_opens": ("count", "lower", "sim_latency_p99_ms", "moves on serve"),
    "sharding.placement_share": ("fraction", "lower", "setup_s", "moves on serve"),
    "sharding.self_share": ("fraction", "lower", "throughput_per_s", "moves on serve"),
    "sharding.merge.calls": ("count", "lower", "throughput_per_s", "moves on serve"),
    "sharding.merge.self_share": ("fraction", "lower", "throughput_per_s", "moves on serve"),
    "sharding.subrequests": ("count", "lower", "throughput_per_s", "moves on serve"),
    "sharding.hedges": ("count", "lower", "sim_latency_p99_ms", "moves on serve"),
    "sharding.hedge_win_ratio": ("fraction", "higher", "sim_latency_p99_ms", "moves on serve"),
    "sharding.failovers": ("count", "lower", "sim_latency_p99_ms", "moves on serve"),
    "sharding.reclaimed_sim_s": ("sim_s", "higher", "throughput_per_s", "moves on serve"),
    "core.maintenance.calls": ("count", "lower", "throughput_per_s", "moves on ingest"),
    "core.maintenance.self_share": ("fraction", "lower", "throughput_per_s", "moves on ingest"),
    "core.maintenance.splits": ("count", "lower", "throughput_per_s", "moves on ingest"),
    "core.maintenance.merges": ("count", "lower", "throughput_per_s", "moves on ingest"),
    "storage.wal.append_share": ("fraction", "lower", "latency_p50_ms", "moves on ingest"),
    "storage.wal.bytes": ("bytes", "lower", "latency_p50_ms", "moves on ingest"),
    "storage.fsync.calls": ("count", "lower", "latency_p50_ms", "moves on ingest"),
    "storage.fsync_share": ("fraction", "lower", "latency_p50_ms", "moves on ingest"),
    "core.ingest.checkpoint.calls": ("count", "lower", "latency_p99_ms", "moves on ingest"),
    "core.ingest.checkpoint_share": ("fraction", "lower", "latency_p99_ms", "moves on ingest"),
    "core.ingest.checkpoint_bytes": ("bytes", "lower", "latency_p99_ms", "moves on ingest"),
    "core.ingest.to_index_share": ("fraction", "lower", "throughput_per_s", "moves on ingest"),
    "core.ingest.replayed_ops": ("count", "lower", "throughput_per_s", "moves on ingest (recover_s)"),
    "core.ingest.replay_share": ("fraction", "lower", "throughput_per_s", "moves on ingest (recover_s)"),
    "core.ingest.write_amplification": ("ratio", "lower", "throughput_per_s", "moves on ingest"),
    "core.ingest.space_amplification": ("ratio", "lower", "throughput_per_s", "moves on ingest"),
    "trace.setup_s": ("s", "lower", "setup_s", "all"),
    "trace.run_s": ("s", "lower", "throughput_per_s", "all"),
    "trace.overhead": ("ratio", "lower", "-", "all"),
}


def _engine_counts(tracer: Tracer, result: Any) -> None:
    results = result.results if hasattr(result, "results") else [result]
    counters = tracer.counters
    for one in results:
        events = one.trace.events
        skipped = one.trace.chunks_skipped
        counters["core.engine.chunks_visited"] += len(events)
        counters["core.engine.chunks_pruned"] += one.chunks_pruned
        counters["core.engine.chunks_scanned"] += len(events) - one.chunks_pruned - skipped
        counters["core.engine.descriptors_scanned"] += one.trace.descriptors_scanned
        counters["faults.chunks_skipped"] += skipped
        counters["faults.retries"] += sum(event.retries for event in events)


def install(tracer: Tracer, workloads_module: Any) -> None:
    """Wrap every layer boundary; :meth:`Tracer.restore` undoes it.

    Set-up layers are wrapped where the benchmark calls them (the names
    ``workloads_module`` imported); the rest at ``repro``'s own module
    boundaries, so calls made inside the package are traced too.
    """
    counters = tracer.counters
    batches = itertools.count()

    def read_bytes(args: tuple, kwargs: dict, result: Any) -> None:
        ids, vectors = result
        counters["storage.read.bytes"] += ids.nbytes + vectors.nbytes

    def engine(args: tuple, kwargs: dict, result: Any) -> None:
        _engine_counts(tracer, result)

    def pairs(args: tuple, kwargs: dict, result: Any) -> None:
        counters["core.distance.pairs"] += result.size

    def offered(args: tuple, kwargs: dict, result: Any) -> None:
        counters["core.neighbors.offered"] += len(args[1])
        counters["core.neighbors.admitted"] += result

    def query_index(args: tuple, kwargs: dict) -> Any:
        return kwargs.get("query_index")

    def batch_index(args: tuple, kwargs: dict) -> Any:
        indices = kwargs.get("query_indices")
        return int(indices[0]) if indices is not None else None

    for owner in (SRTreeChunker, BagClusterer):
        tracer.wrap(owner, "form_chunks", "chunking")
    tracer.wrap(workloads_module, "estimate_mpi", "chunking")
    tracer.wrap(workloads_module, "build_chunk_index", "storage.build")
    tracer.wrap(ChunkIndex, "save", "storage.save")
    tracer.wrap(ChunkIndex, "load", "storage.load")
    tracer.wrap(CentroidRouter, "from_index", "core.routing")
    for attr in ("plan_placement", "estimate_chunk_costs"):
        tracer.wrap(workloads_module, attr, "sharding.placement")
    tracer.wrap(ShardedQueryService, "__init__", "sharding.placement")
    tracer.wrap(StreamingChunkIndex, "create", "core.ingest.create")
    tracer.wrap(StreamingChunkIndex, "open", "core.ingest.replay")
    tracer.wrap(ChunkIndex, "read_chunk", "storage.read", on_result=read_bytes)
    tracer.wrap(ChunkSearcher, "search", "core.engine", on_result=engine, request_of=query_index)
    tracer.wrap(
        BatchChunkSearcher, "search_batch", "core.engine", on_result=engine, request_of=batch_index
    )
    tracer.wrap(CentroidRouter, "stream", "core.routing")
    tracer.wrap(RouterStream, "next", "core.routing")
    tracer.wrap(RouterStream, "exact_remaining_lb", "core.routing")
    for module in (search_module, routing_module, maintenance_module, ingest_module):
        tracer.wrap(module, "squared_distances", "core.distance", on_result=pairs)
    for module in (batch_search_module, routing_module):
        tracer.wrap(module, "pairwise_squared_distances", "core.distance", on_result=pairs)
    tracer.wrap(NeighborSet, "update", "core.neighbors", on_result=offered)
    for method in ("start_query", "process_chunk", "skip_chunk"):
        tracer.wrap(PipelineSimulator, method, "simio.pipeline")
    tracer.wrap(QueryService, "run", "service")
    tracer.wrap(ShardedQueryService, "run", "sharding")
    tracer.wrap(coordinator_module, "merge_neighbor_lists", "sharding.merge")
    tracer.wrap(ChunkIndexMaintainer, "insert", "core.maintenance")
    tracer.wrap(ChunkIndexMaintainer, "delete", "core.maintenance")
    tracer.wrap(
        StreamingChunkIndex, "apply", "core.ingest.apply",
        request_of=lambda args, kwargs: next(batches),
    )
    tracer.wrap(StreamingChunkIndex, "checkpoint", "core.ingest.checkpoint")
    tracer.wrap(StreamingChunkIndex, "to_index", "core.ingest.to_index")
    tracer.wrap(WalWriter, "append_batch", "storage.wal.append")
    tracer.wrap(os, "fsync", "storage.fsync")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    setup: Dict[str, Any],
    run: Dict[str, Any],
    counts: Dict[str, float],
    extras: Dict[str, Tuple[float, str]],
    overhead: float,
) -> Dict[str, float]:
    """Per-layer metrics from the traced set-up and traced passes.

    ``setup`` and ``run`` hold ``self_s``, ``calls``, ``counters`` and
    ``host_s`` for each traced phase; ``counts`` the workload's own
    counter differences over the traced passes.
    """
    s_self, s_host = setup["self_s"], setup["host_s"]
    self_s, calls, c, host = run["self_s"], run["calls"], run["counters"], run["host_s"]

    def share(name: str) -> float:
        return _ratio(self_s.get(name, 0.0), host)

    def setup_share(name: str) -> float:
        return _ratio(s_self.get(name, 0.0), s_host)

    hits = counts.get("simio.chunk_cache.hits", 0.0)
    misses = counts.get("simio.chunk_cache.misses", 0.0)
    metrics = {
        "chunking.form_s": s_self.get("chunking", 0.0),
        "chunking.bag_passes": setup["bag_passes"],
        "chunking.max_chunk_size": setup["max_chunk_size"],
        "storage.build_s": s_self.get("storage.build", 0.0),
        "storage.save_share": setup_share("storage.save"),
        "storage.load_share": setup_share("storage.load"),
        "storage.read.calls": calls.get("storage.read", 0),
        "storage.read.self_s": self_s.get("storage.read", 0.0),
        "storage.read.bytes": c.get("storage.read.bytes", 0.0),
        "core.engine.calls": calls.get("core.engine", 0),
        "core.engine.self_s": self_s.get("core.engine", 0.0),
        "core.engine.chunks_visited": c.get("core.engine.chunks_visited", 0.0),
        "core.engine.chunks_scanned": c.get("core.engine.chunks_scanned", 0.0),
        "core.engine.chunks_pruned": c.get("core.engine.chunks_pruned", 0.0),
        "core.engine.prune_ratio": _ratio(
            c.get("core.engine.chunks_pruned", 0.0), c.get("core.engine.chunks_visited", 0.0)
        ),
        "core.engine.descriptors_scanned": c.get("core.engine.descriptors_scanned", 0.0),
        "core.routing.calls": calls.get("core.routing", 0),
        "core.routing.self_share": share("core.routing"),
        "core.distance.calls": calls.get("core.distance", 0),
        "core.distance.self_s": self_s.get("core.distance", 0.0),
        "core.distance.pairs": c.get("core.distance.pairs", 0.0),
        "core.neighbors.update_calls": calls.get("core.neighbors", 0),
        "core.neighbors.self_s": self_s.get("core.neighbors", 0.0),
        "core.neighbors.offered": c.get("core.neighbors.offered", 0.0),
        "core.neighbors.admit_ratio": _ratio(
            c.get("core.neighbors.admitted", 0.0), c.get("core.neighbors.offered", 0.0)
        ),
        "simio.pipeline.calls": calls.get("simio.pipeline", 0),
        "simio.pipeline.self_share": share("simio.pipeline"),
        "simio.chunk_cache.hit_rate": _ratio(hits, hits + misses),
        "simio.chunk_cache.evictions": counts.get("simio.chunk_cache.evictions", 0.0),
        "faults.retries": c.get("faults.retries", 0.0),
        "faults.chunks_skipped": c.get("faults.chunks_skipped", 0.0),
        "service.self_share": share("service"),
        "service.shed": counts.get("service.shed", 0.0),
        "service.wait_sim_p99_ms": counts.get("service.wait_sim_p99_ms", 0.0),
        "service.final_budget": counts.get("service.final_budget", 0.0),
        "service.breaker_opens": counts.get("service.breaker_opens", 0.0),
        "sharding.placement_share": setup_share("sharding.placement"),
        "sharding.self_share": share("sharding"),
        "sharding.merge.calls": calls.get("sharding.merge", 0),
        "sharding.merge.self_share": share("sharding.merge"),
        "sharding.subrequests": counts.get("sharding.subrequests", 0.0),
        "sharding.hedges": counts.get("sharding.hedges", 0.0),
        "sharding.hedge_win_ratio": _ratio(
            counts.get("sharding.hedge_wins", 0.0), counts.get("sharding.hedges", 0.0)
        ),
        "sharding.failovers": counts.get("sharding.failovers", 0.0),
        "sharding.reclaimed_sim_s": counts.get("sharding.reclaimed_sim_s", 0.0),
        "core.maintenance.calls": calls.get("core.maintenance", 0),
        "core.maintenance.self_share": share("core.maintenance"),
        "core.maintenance.splits": counts.get("core.maintenance.splits", 0.0),
        "core.maintenance.merges": counts.get("core.maintenance.merges", 0.0),
        "storage.wal.append_share": share("storage.wal.append"),
        "storage.wal.bytes": counts.get("storage.wal.bytes", 0.0),
        "storage.fsync.calls": counts.get("storage.fsync.calls", 0.0),
        "storage.fsync_share": share("storage.fsync"),
        "core.ingest.checkpoint.calls": counts.get("core.ingest.checkpoint.calls", 0.0),
        "core.ingest.checkpoint_share": share("core.ingest.checkpoint"),
        "core.ingest.checkpoint_bytes": counts.get("core.ingest.checkpoint_bytes", 0.0),
        "core.ingest.to_index_share": share("core.ingest.to_index"),
        "core.ingest.replayed_ops": counts.get("core.ingest.replayed_ops", 0.0),
        "core.ingest.replay_share": share("core.ingest.replay"),
        "core.ingest.write_amplification": extras.get("write_amplification", (0.0, ""))[0],
        "core.ingest.space_amplification": extras.get("space_amplification", (0.0, ""))[0],
        "trace.setup_s": s_host,
        "trace.run_s": host,
        "trace.overhead": overhead,
    }
    missing = set(LAYER_MAP) ^ set(metrics)
    if missing:
        raise AssertionError(f"per-layer metrics out of sync with LAYER_MAP: {sorted(missing)}")
    return {name: float(value) for name, value in metrics.items()}
