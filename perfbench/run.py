#!/usr/bin/env python3
"""The repository benchmark: one command, four seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload online --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``online``, ``batch``, ``ingest``, ``serve``
(see ``workloads.py`` and ``README.md`` for what each exercises and why).
The run generates its inputs from ``--seed``, sets up several times,
then repeats fixed-work passes for ``--seconds`` seconds and checks the
outputs.  Standard output holds, in order:

* ``fingerprint {...}`` — revision, CPUs, Python/NumPy versions, scale,
  seed and the ingest flush policy;
* ``deterministic {...}`` — simulated metrics and exact counts of the
  first pass; byte-identical for two runs with the same seed;
* one ``metric <name> = <value> <unit>`` line per metric, including
  the workload-only metrics the last line does not carry;
* the last line: ``{"correct", "attempted", "failed", "metrics"}`` with
  every end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``) of ``BENCHMARK.json``.

The traced run (``--trace 1``) first runs untraced passes for a third of
the time, then installs span wrappers at the layer boundaries and runs
traced passes; ``trace.overhead`` is the ratio of their mean pass times.
Its spans are written to ``.perfbench/spans-<workload>.tsv``.

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed), 2 when the benchmark cannot run at all
(for example, without the ``src/`` tree next to it).
"""

from __future__ import annotations

import os
import sys

# Cap BLAS/OpenMP threads at the CPUs this process may use, before
# NumPy is imported anywhere.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(_CPUS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics of the last line (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_per_s": "1/s",
    "recall_at_k": "fraction",
    "sim_latency_p50_ms": "sim_ms",
    "sim_latency_p99_ms": "sim_ms",
    "peak_rss_mb": "MB",
}

#: Share of the run's seconds the traced run spends untraced.
UNTRACED_SHARE = 1.0 / 3.0


def _git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as stream:
            head = stream.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as stream:
                return stream.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as stream:
            for line in stream:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_passes(workload, seconds: float, first: bool, passes: list) -> None:
    """Repeat passes until ``seconds`` have elapsed (at least one).

    Appends ``(ops_from, ops_to, busy_from, busy_to, ops, midpoint,
    seconds)`` per pass to ``passes``: the slices of ``workload.op_times``
    and ``workload.busy`` the pass recorded, its operations and its host
    time.  The first pass's output checks are not counted.
    """
    deadline = time.perf_counter() + seconds
    while True:
        workload.checks_began = None
        n_ops, n_busy, ops = len(workload.op_times), len(workload.busy), workload.ops
        attempted = workload.attempted
        began = time.perf_counter()
        workload.run_pass(first=first)
        ended = time.perf_counter()
        if first:
            workload.first_attempted = workload.attempted - attempted
        if workload.checks_began is not None:
            deadline += ended - workload.checks_began
            ended = workload.checks_began
        passes.append(
            (
                n_ops, len(workload.op_times), n_busy, len(workload.busy),
                workload.ops - ops, (began + ended) / 2.0, ended - began,
            )
        )
        first = False
        if time.perf_counter() >= deadline:
            return


def _host_metrics(workload, passes: list, percentile_ms, scale: bool) -> dict:
    """Set-up time, latency percentiles and throughput; with ``scale``
    at the reference speed, else as measured.

    Every pass does the same work in the same order, so each timed span
    (an operation, or other timed work such as a checkpoint) is taken at
    its median over the passes, and the percentiles and the rate are
    computed over those medians: a stall of the machine or its disk
    during one pass moves none of them.
    """
    if scale:
        convert = workload.clock.scale
    else:
        def convert(spans):
            return [seconds for _, seconds in spans]
    latencies = np.median(
        [convert(workload.op_times[p[0] : p[1]]) for p in passes], axis=0
    )
    busy = np.median([convert(workload.busy[p[2] : p[3]]) for p in passes], axis=0)
    return {
        "setup_s": float(np.median(convert(workload.setup_times))),
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p99_ms": percentile_ms(latencies, 99),
        "throughput_per_s": float(passes[0][4] / busy.sum()),
    }


def _diff(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _traced(workload, seconds: float, layers, Tracer, workloads_module) -> dict:
    """Traced set-up, untraced passes, traced passes -> per-layer metrics."""
    tracer = Tracer()
    untraced: list = []
    traced: list = []
    layers.install(tracer, workloads_module)
    try:
        began = time.perf_counter()
        workload.timed_setup()
        setup_host = time.perf_counter() - began
        setup = tracer.snapshot()
        tracer.restore()
        _run_passes(workload, UNTRACED_SHARE * seconds, True, untraced)
        counts_before = dict(workload.counters)
        layers.install(tracer, workloads_module)
        before = tracer.snapshot()
        _run_passes(workload, (1.0 - UNTRACED_SHARE) * seconds, False, traced)
        after = tracer.snapshot()
    finally:
        tracer.restore()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}.tsv"))
    run = {key: _diff(after[key], before[key]) for key in ("self_s", "calls", "counters")}
    run["host_s"] = sum(p[6] for p in traced)
    setup["host_s"] = setup_host
    setup["bag_passes"] = workload.bag_passes
    setup["max_chunk_size"] = workload.max_chunk_size

    def mean_scaled(runs: list) -> float:
        return sum(workload.clock.scale([(p[5], p[6]) for p in runs])) / len(runs)

    counts = _diff(dict(workload.counters), counts_before)
    counts.update(workload.gauges)
    return layers.layer_metrics(
        setup, run, counts, workload.extras(), mean_scaled(traced) / mean_scaled(untraced)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import layers
    import speed
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    fingerprint = {
        "revision": _git_revision(),
        "cpus": _CPUS,
        "blas_threads": _CPUS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "scale": workloads.SCALE.name,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "flush_policy": workloads.FLUSH_POLICY,
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True), flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    workload = None
    raw = {}
    try:
        clock = speed.SpeedClock()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, clock)
        if args.trace:
            metrics = _traced(workload, args.seconds, layers, Tracer, workloads)
            units = {name: spec[0] for name, spec in layers.LAYER_MAP.items()}
        else:
            for _ in range(workload.setup_repeats):
                workload.timed_setup()
            passes: list = []
            _run_passes(workload, args.seconds, True, passes)
            metrics = _host_metrics(workload, passes, workloads.percentile_ms, scale=True)
            metrics["peak_rss_mb"] = _peak_rss_mb()
            units = dict(END_TO_END)
            raw = {
                f"raw.{name}": (value, units[name])
                for name, value in _host_metrics(
                    workload, passes, workloads.percentile_ms, scale=False
                ).items()
            }
            raw["host.speed_scale"] = (
                float(np.median([clock.factor(t) for t in clock.times])),
                "ratio",
            )
            raw["host.speed_probes"] = (len(clock.times), "count")
    finally:
        if workload is not None:
            workload.shutdown()
        shutil.rmtree(workdir, ignore_errors=True)

    sim = {
        "recall_at_k": float(np.mean(workload.recalls)),
        "sim_latency_p50_ms": workloads.percentile_ms(workload.sim_latencies_s, 50),
        "sim_latency_p99_ms": workloads.percentile_ms(workload.sim_latencies_s, 99),
    }
    if not args.trace:
        metrics.update(sim)
    deterministic = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": workloads.SCALE.name,
        "k": workloads.K,
        **sim,
        "sim_samples": len(workload.sim_latencies_s),
        "counts": workload.det,
    }
    print("deterministic " + json.dumps(deterministic, sort_keys=True), flush=True)

    extras = workload.extras()
    extras["failed_fraction"] = (
        (workload.failed + workload.missed) / workload.first_attempted,
        "fraction",
    )
    report = {name: (value, units[name]) for name, value in metrics.items()}
    if not args.trace:
        report.update(raw)
        report.update(extras)
        report["latency_samples"] = (len(workload.op_times), "count")
    for name, (value, unit) in report.items():
        print(f"metric {name} = {value!r} {unit}")
    for failure in workload.failures:
        print(f"check failed: {failure}", file=sys.stderr)

    correct = workload.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
