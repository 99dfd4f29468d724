"""Run one benchmark workload in this process and print its metrics.

Started by ``run.py`` (never directly by users) with the BLAS thread
variables already set to 1, from the root of a checkout with ``src`` on
``PYTHONPATH``.  It prints the environment stamp, one line per metric with
its unit, and as its last line the JSON result.  It exits 1 when an output
is wrong.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``factorize-dist``
    yukawa on the paper's 2D grid, HSS at n=32768, leaf 256, max rank 60,
    compressed and factorized on the ``distributed`` backend with 2 ranks,
    repeatedly; every repetition solves a few right-hand sides with the new
    factorization and must match the sequential reference bit for bit.
``solve-stream``
    one caller in a closed loop issuing single-RHS solves through the
    thread-parallel task graph (2 workers), rotating over HSS, BLR2 and
    HODLR factorizations at n=2048 built during set-up; every result must
    equal the reference ``factor.solve`` bit for bit.
``serve-mixed``
    an open loop of independent users against a solver server (``repro
    serve``, backend ``parallel``, 2 workers, default batching window) at a
    light and a heavy offered rate, then at a rate above its capacity; a
    fixed share of requests names a key that is not cached.

Every workload reports the same end-to-end metrics, each measured on that
workload: its set-up, the construction and factorization of its problems,
the latency and rate of the solves its user waits for, the share of
operations that succeeded and the peak memory.  The notes printed beside a
metric say what it was measured on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

import layers
import procs
from tracer import Tracer

HERE = Path(__file__).resolve().parent
KERNEL = "yukawa"
#: Runtime workers / ranks of every workload (the benchmark host has 2 CPUs).
WORKERS = 2
#: Seed of the Eq. 18 probe vector, the same in every run.
PROBE_SEED = 0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Operations per block; a traced run alternates blocks with and without
#: wrappers, so the tracing overhead is measured on the same machine state.
TRACE_BLOCK = 30
#: Percentile reported as ``solve_tail_ms``, fixed per workload so that a
#: slower program cannot change which percentile is compared.  The graph
#: solve stream is bimodal: 1-3% of solves take about 5x the median, a share
#: that moves with contention from the rest of the host, and its p99 sits on
#: the edge of that mode and moved 2x between runs, so p95 is gated there
#: and on the served requests.  factorize-dist times 4 solves per
#: repetition, so its repetitions support p75.  The highest percentile the
#: samples support is printed beside the gated one.
TAIL_Q = {"factorize-dist": 0.75, "solve-stream": 0.95, "serve-mixed": 0.95}
#: Samples a reported percentile needs beyond it; fewer fail the run.
TAIL_BEYOND = 10
#: Solves per window of the solve-stream throughput (median over windows).
WINDOW = 1000

END_TO_END = (
    ("setup_s", "s"), ("compress_s", "s"), ("factorize_s", "s"),
    ("construction_err", "1"), ("solve_p50_ms", "ms"), ("solve_tail_ms", "ms"),
    ("solves_per_s", "1/s"), ("ok_frac", "1"), ("peak_rss_mb", "MB"),
)

FORMATS = ("hss", "blr2", "hodlr")
PER_LAYER = (
    ("kernels.calls", "count"), ("kernels.entries", "count"), ("kernels.busy_s", "s"),
    ("lowrank.calls", "count"), ("lowrank.busy_s", "s"), ("lowrank.rank_fill", "1"),
    ("compress.tasks", "count"), ("compress.record_s", "s"), ("compress.execute_s", "s"),
    ("compress.other_s", "s"),
    ("core.tasks", "count"), ("core.flops", "flop"), ("core.ref_factorize_s", "s"),
    ("core.gflops", "Gflop/s"), ("core.ref_factorize_blas_default_s", "s"),
    ("runtime.record_s", "s"), ("runtime.record_us_per_task", "us"),
    ("runtime.execute_s", "s"), ("runtime.overhead_us_per_task", "us"),
    ("dist.messages", "count"), ("dist.logical_bytes", "B"), ("dist.wire_bytes", "B"),
    ("dist.rank_busy_s", "s"), ("dist.rank_imbalance", "1"),
    ("dist.parent_overhead_s", "s"), ("dist.segments_swept", "count"),
    *((f"solve.tasks.{f}", "count") for f in FORMATS),
    *((f"solve.ref_ms.{f}", "ms") for f in FORMATS),
    *((f"solve.graph_ms.{f}", "ms") for f in FORMATS),
    ("service.flushes", "count"), ("service.batch_rhs_mean", "count"),
    ("service.flush_s", "s"), ("service.queue_wait_ms", "ms"),
    ("service.cache_hit_ratio", "1"), ("service.miss_s", "s"), ("service.errors", "count"),
    ("http.requests", "count"), ("http.rejected_429", "count"),
    ("http.rejected_503", "count"), ("http.pending_polls", "count"), ("http.overhead_ms", "ms"),
    ("http.req_bytes", "B"), ("http.resp_bytes", "B"),
    ("serve.heavy_p50_ms", "ms"), ("serve.heavy_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"), ("loadgen.backlog_max", "count"),
    ("trace.overhead_frac", "1"), ("trace.wall_s", "s"), ("trace.unaccounted_s", "s"),
    *((f"self.{name}_s", "s") for name in layers.RECONCILED_LAYERS),
)


class Result:
    """Metrics and outcome counts of one workload run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []

    def fail(self, message: str) -> None:
        """Record a wrong output: it fails the run."""
        self.wrong.append(message)


# -- statistics ----------------------------------------------------------------
def min_samples(q: float) -> int:
    """Samples that put ``TAIL_BEYOND`` of them beyond percentile ``q``."""
    return math.ceil(TAIL_BEYOND / (1.0 - q) - 1e-9)


def set_tail(result: Result, workload: str, ms: Sequence[float], what: str) -> None:
    """Set ``solve_tail_ms`` to the workload's fixed percentile of ``ms``.

    Too few samples for that percentile fail the run rather than report a
    lower one.
    """
    q = TAIL_Q[workload]
    label = f"p{q * 100:g}"
    if len(ms) < min_samples(q):
        result.fail(f"{len(ms)} {what} are too few for the {label} of solve_tail_ms "
                    f"(needs {min_samples(q)})")
    result.metrics["solve_tail_ms"] = float(np.quantile(ms, q)) if len(ms) else 0.0
    result.notes["solve_tail_ms"] = f"{label}; {what}, {tail_note(ms)}"


def tail_note(values: Sequence[float]) -> str:
    """Sample count and the highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    n = len(values)
    for q in (0.999, 0.99, 0.95, 0.9, 0.75, 0.5):
        if n >= min_samples(q):
            return f"{n} samples; p{q * 100:g} {float(np.quantile(values, q)):.4g} ms"
    return f"{n} samples"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- environment -----------------------------------------------------------------
def blas_threads() -> str:
    """Threads the loaded OpenBLAS uses, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    root = HERE.parent
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_stamp() -> None:
    print(
        f"env: nproc={len(os.sched_getaffinity(0))} workers={WORKERS} "
        f"blas_threads={blas_threads()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} git={git_sha()}",
        flush=True,
    )


def peak_rss_mb() -> float:
    """Highest peak RSS of this process and of its reaped children (forked ranks).

    A forked rank's RSS also counts the pages it shares with this process,
    so the peaks are not added.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def check_no_children(result: Result) -> None:
    """The program must have joined every process it started.

    This process leads its own session (``run.py`` starts it so), so what
    the program started is the rest of that session.  Python's
    shared-memory resource tracker is exempt: it lives as long as this
    process by design and exits with it.
    """
    me = os.getpid()
    left = [p for p in procs.session_members(me)
            if p != me and "multiprocessing.resource_tracker" not in _cmdline(p)]
    if left:
        result.fail(f"{len(left)} child process(es) still running: {left}")


def construction_err(solver) -> float:
    """Eq. 18 of ``solver``'s compressed matrix against the exact kernel operator.

    The same figure as ``solver.construction_error(seed=PROBE_SEED)``, with
    the exact matvec assembled in 256-row panels so that n=32768 needs
    tens of megabytes, not gigabytes.
    """
    from repro.analysis.errors import construction_error

    b = np.random.default_rng(PROBE_SEED).standard_normal(solver.n)
    kmat = solver.kernel_matrix
    return construction_error(lambda x: kmat.matvec(x, block_rows=256), solver.matrix, b=b)


# -- tracing helpers -------------------------------------------------------------
def reconcile(result: Result, tracer: Tracer, wall: float,
              roots: Optional[Sequence[str]] = None) -> None:
    """Self times of the traced layers plus an unaccounted remainder = ``wall``."""
    selfs = tracer.self_times(roots)
    total = 0.0
    for name in layers.RECONCILED_LAYERS:
        value = selfs.get(name, 0.0)
        result.metrics[f"self.{name}_s"] = value
        total += value
    result.metrics["trace.wall_s"] = wall
    result.metrics["trace.unaccounted_s"] = wall - total
    # Self times on one thread cannot exceed its wall time; allow clock jitter.
    if wall - total < -1e-3 * max(wall, 1.0):
        result.fail(f"trace does not reconcile: self times {total:.4f}s > wall {wall:.4f}s")


def alternate(trace: bool, index: int) -> bool:
    """Whether block ``index`` of a traced run has its wrappers on."""
    return trace and index % 2 == 1


# -- factorize-dist ----------------------------------------------------------------
FD_N, FD_LEAF, FD_RANK = 32768, 256, 60
FD_SOLVES = 4
#: Repetitions every run makes, however long they take: enough solves for
#: the fixed tail percentile.
FD_MIN_REPS = math.ceil(min_samples(TAIL_Q["factorize-dist"]) / FD_SOLVES)
#: Eq. 18 tolerance of the n=32768 construction (measured about 4.8e-7).
FD_ERR_TOL = 1e-5


def _build(n: int, leaf: int, rank: int, *, fmt: str = "hss", runtime=False):
    """Compress the workload's problem.

    The compression's own random seed stays at the program's default in
    every run: the problem is fixed, and ``--seed`` draws the right-hand
    sides and the request stream.
    """
    from repro import StructuredSolver

    return StructuredSolver.from_kernel(
        KERNEL, n=n, format=fmt, leaf_size=leaf, max_rank=rank,
        compress_runtime=runtime, compress_nodes=WORKERS, compress_workers=WORKERS,
    )


def factorize_dist(args, result: Result) -> None:
    rng = np.random.default_rng(args.seed)
    rhs = rng.standard_normal((FD_SOLVES, FD_N))
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ref = _build(FD_N, FD_LEAF, FD_RANK)
        ref.factorize()
        expected = [ref.solve(b) for b in rhs]
        setups.append(time.perf_counter() - t0)
    result.metrics["setup_s"] = median(setups)

    comp, fact, solves, walls = [], [], [], {False: [], True: []}
    tracer = Tracer()
    dist = []
    deadline = time.perf_counter() + args.seconds
    rep = 0
    traced_wall = 0.0
    while rep < FD_MIN_REPS or time.perf_counter() < deadline:
        traced = alternate(args.trace, rep)
        if traced:
            layers.install(tracer, ("api", "runtime"))
        t0 = time.perf_counter()
        try:
            solver = _build(FD_N, FD_LEAF, FD_RANK, runtime="distributed")
            t1 = time.perf_counter()
            solver.factorize(use_runtime="distributed", nodes=WORKERS)
            t2 = time.perf_counter()
            xs = []
            for b in rhs:
                ts = time.perf_counter()
                xs.append(solver.solve(b))
                solves.append(time.perf_counter() - ts)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - t0
        walls[traced].append(wall)
        if traced:
            traced_wall += wall
        comp.append(t1 - t0)
        fact.append(t2 - t1)
        result.attempted += 1
        if not all(np.array_equal(x, e) for x, e in zip(xs, expected)):
            result.failed += 1
            result.fail(f"repetition {rep}: distributed solve differs from the reference")
        # Keep numbers, not runtimes: a runtime holds its whole task graph.
        dist.append(_dist_figures(solver))
        rep += 1
    check_no_children(result)

    result.metrics["compress_s"] = median(comp)
    result.metrics["factorize_s"] = median(fact)
    result.metrics["solve_p50_ms"] = median(solves) * 1e3
    set_tail(result, "factorize-dist", [s * 1e3 for s in solves], "solves")
    result.metrics["solves_per_s"] = len(solves) / sum(solves)
    if not args.trace:
        err = construction_err(solver)
        result.metrics["construction_err"] = err
        if not err < FD_ERR_TOL:
            result.fail(f"construction error {err:.3g} >= {FD_ERR_TOL:g}")
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        return

    # Per-layer figures of the distributed repetitions.
    m = result.metrics
    comp_rt, fact_rt = solver.compress_runtime, solver.factorize_runtime
    creps = len(walls[True])
    m["trace.overhead_frac"] = median(walls[True]) / median(walls[False]) - 1.0
    reconcile(result, tracer, traced_wall)
    m["compress.tasks"] = comp_rt.num_tasks
    m["compress.record_s"] = tracer.layer("runtime.record", ["compress"]).self_s / creps
    m["compress.execute_s"] = tracer.layer("runtime.execute", ["compress"]).total_s / creps
    m["compress.other_s"] = tracer.layer("compress").self_s / creps
    m["core.tasks"] = fact_rt.num_tasks
    m["core.flops"] = sum(t.flops for t in fact_rt.graph.tasks)
    m["core.gflops"] = m["core.flops"] / median(fact) / 1e9
    record = tracer.layer("runtime.record")
    m["runtime.record_s"] = record.self_s / creps
    m["runtime.record_us_per_task"] = record.self_s / max(record.count, 1) * 1e6
    m["runtime.execute_s"] = tracer.layer("runtime.execute").total_s / creps
    for key in dist[0]:
        m[f"dist.{key}"] = median([d[key] for d in dist])
    m["dist.segments_swept"] = sum(d["segments_swept"] for d in dist)

    # Sequential reference pass: kernels and low-rank bodies run in forked
    # ranks on the distributed backend, so they are timed here.
    ref_tracer = Tracer()
    layers.install(ref_tracer, ("api", "runtime", "kernels", "lowrank"), factors=[ref.factor])
    try:
        seq = _build(FD_N, FD_LEAF, FD_RANK)
        seq.factorize()
        for b in rhs:
            seq.solve(b)
    finally:
        ref_tracer.uninstall()
    kern = ref_tracer.layer("kernels")
    low = ref_tracer.layer("lowrank")
    m["kernels.calls"], m["kernels.entries"], m["kernels.busy_s"] = kern.calls, kern.count, kern.self_s
    m["lowrank.calls"], m["lowrank.busy_s"] = low.calls, low.self_s
    m["lowrank.rank_fill"] = low.count / max(low.calls, 1) / FD_RANK
    m["core.ref_factorize_s"] = ref_tracer.layer("core").total_s
    m["runtime.overhead_us_per_task"] = (
        (median(fact) - m["core.ref_factorize_s"]) / fact_rt.num_tasks * 1e6
    )
    m["solve.ref_ms.hss"] = median(ref_tracer.samples["solve.ref"]) * 1e3
    m["core.ref_factorize_blas_default_s"] = blas_default_factorize()


def _dist_figures(solver) -> Dict[str, float]:
    """Traffic and rank figures of one distributed compress + factorize.

    Read from the :class:`DistributedReport` of both phases and summed over
    them; the rank imbalance (max / mean tasks per rank) is the
    factorization's.
    """
    reports = [solver.compress_runtime.last_distributed_report,
               solver.factorize_runtime.last_distributed_report]
    busiest = [max(v["wall_time"] for v in r.per_rank.values()) for r in reports]
    tasks = [v["executed"] for v in reports[1].per_rank.values()]
    return {
        "messages": sum(r.ledger.num_messages for r in reports),
        "logical_bytes": sum(r.ledger.total_bytes for r in reports),
        "wire_bytes": sum(r.ledger.total_payload_bytes for r in reports),
        "rank_busy_s": sum(busiest),
        "rank_imbalance": max(tasks) / (sum(tasks) / len(tasks)),
        "parent_overhead_s": sum(r.wall_time - b for r, b in zip(reports, busiest)),
        "segments_swept": sum(r.segments_swept for r in reports),
    }


def blas_default_factorize() -> float:
    """Sequential reference factorization time with BLAS left at its default threads.

    Runs in a child process with the thread variables unset, so OpenBLAS
    starts as many threads as it likes; kept as a per-layer figure because
    that oversubscription is a known program defect.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    out = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--blas-default-probe"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def blas_default_probe() -> None:
    solver = _build(FD_N, FD_LEAF, FD_RANK)
    t0 = time.perf_counter()
    solver.factorize()
    print(time.perf_counter() - t0)


# -- solve-stream ------------------------------------------------------------------
SS_N, SS_LEAF, SS_RANK = 2048, 128, 40
SS_POOL = 64
SS_WARMUP = 5


def solve_stream(args, result: Result) -> None:
    rng = np.random.default_rng(args.seed)
    pool = rng.standard_normal((SS_POOL, SS_N))
    setups, comp, fact, ref_ms = [], [], [], {f: [] for f in FORMATS}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        solvers, refs = {}, {}
        comp.append(0.0)
        fact.append(0.0)
        for fmt in FORMATS:
            tc = time.perf_counter()
            solver = _build(SS_N, SS_LEAF, SS_RANK, fmt=fmt)
            tf = time.perf_counter()
            solver.factorize()
            comp[-1] += tf - tc
            fact[-1] += time.perf_counter() - tf
            refs[fmt] = []
            for b in pool:
                ts = time.perf_counter()
                refs[fmt].append(solver.factor.solve(b))
                ref_ms[fmt].append((time.perf_counter() - ts) * 1e3)
            for b in pool[:SS_WARMUP]:
                solver.solve(b, use_runtime="parallel", n_workers=WORKERS)
            solvers[fmt] = solver
        setups.append(time.perf_counter() - t0)
    m = result.metrics
    m["setup_s"], m["compress_s"], m["factorize_s"] = median(setups), median(comp), median(fact)
    result.notes["compress_s"] = result.notes["factorize_s"] = "all three formats, median of set-ups"

    tracer = Tracer()
    factors = [solvers[f].factor for f in FORMATS]
    lat: List[float] = []
    ends: List[float] = []
    by_fmt: Dict[str, List[float]] = {f: [] for f in FORMATS}
    block_walls = {False: [], True: []}
    traced_wall = 0.0
    i = 0
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    block = 0
    # At least the solves the fixed tail percentile needs (and more than
    # two blocks, so a traced run has blocks with and without wrappers).
    least = min_samples(TAIL_Q["solve-stream"])
    while time.perf_counter() < deadline or i < least:
        traced = alternate(args.trace, block)
        if traced:
            layers.install(tracer, ("api", "runtime", "kernels", "lowrank"), factors=factors)
        tb = time.perf_counter()
        try:
            for _ in range(TRACE_BLOCK):
                fmt = FORMATS[i % 3]
                k = (i // 3) % SS_POOL
                t0 = time.perf_counter()
                try:
                    x = solvers[fmt].solve(pool[k], use_runtime="parallel", n_workers=WORKERS)
                except Exception as exc:  # counted as a failed operation
                    x = exc
                dt = time.perf_counter() - t0
                result.attempted += 1
                if isinstance(x, Exception) or not np.array_equal(x, refs[fmt][k]):
                    result.failed += 1
                    result.fail(f"solve {i} ({fmt}) differs from the reference")
                lat.append(dt)
                ends.append(time.perf_counter())
                if not traced:
                    by_fmt[fmt].append(dt)
                i += 1
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - tb
        block_walls[traced].append(wall / TRACE_BLOCK)
        if traced:
            traced_wall += wall
        block += 1

    m["solve_p50_ms"] = median(lat) * 1e3
    set_tail(result, "solve-stream", [v * 1e3 for v in lat], "solves")
    # Closed loop: throughput per window of solves, median over windows.
    k = max(1, len(ends) // WINDOW)
    size = len(ends) // k
    starts = [t_start] + ends[size - 1::size]
    m["solves_per_s"] = median([size / (starts[j + 1] - starts[j]) for j in range(k)])
    result.notes["solves_per_s"] = f"median over {k} windows of {size} solves"
    if not args.trace:
        m["construction_err"] = max(construction_err(solvers[f]) for f in FORMATS)
        m["peak_rss_mb"] = peak_rss_mb()
        return

    m["trace.overhead_frac"] = median(block_walls[True]) / median(block_walls[False]) - 1.0
    reconcile(result, tracer, traced_wall)
    traced_solves = tracer.layer("solve").calls
    record = tracer.layer("runtime.record")
    m["runtime.record_s"] = record.self_s / max(traced_solves, 1)
    m["runtime.record_us_per_task"] = record.self_s / max(record.count, 1) * 1e6
    m["runtime.execute_s"] = tracer.layer("runtime.execute").total_s / max(traced_solves, 1)
    overhead = []
    for fmt in FORMATS:
        tasks = solvers[fmt].solve_runtime.num_tasks
        m[f"solve.tasks.{fmt}"] = tasks
        m[f"solve.ref_ms.{fmt}"] = median(ref_ms[fmt])
        m[f"solve.graph_ms.{fmt}"] = median(by_fmt[fmt]) * 1e3
        overhead.append((m[f"solve.graph_ms.{fmt}"] - m[f"solve.ref_ms.{fmt}"]) * 1e3 / tasks)
    m["runtime.overhead_us_per_task"] = float(np.mean(overhead))
    kern = tracer.layer("kernels")
    m["kernels.calls"], m["kernels.entries"], m["kernels.busy_s"] = kern.calls, kern.count, kern.self_s


# -- serve-mixed -------------------------------------------------------------------
SV_N, SV_LEAF, SV_RANK = 1024, 128, 30
#: Hot keys: (format, yukawa alpha).  Cached after warm-up, so they hit.
SV_HOT = (("hss", 1.0), ("blr2", 1.0), ("hodlr", 1.0))
#: Keys requests rotate through for misses.  More keys than the server's
#: cache (8 factorizations) holds beside the hot ones, so each use misses.
SV_MISS_KEYS = 12
SV_MISS_SHARE = 0.02
#: Distinct right-hand sides the requests draw from.
SV_POOL = 128
#: Offered rates (requests/s): light and heavy are well below the server's
#: capacity; the saturation rate is above it, so the server answers as many
#: solves per second as it can.
SV_LIGHT_RPS, SV_HEAVY_RPS, SV_SATURATION_RPS = 220.0, 400.0, 1000.0
#: Share of the run's seconds each phase takes.
SV_SHARE = {"light": 0.4, "heavy": 0.15, "saturation": 0.3}


def _problem(fmt: str, alpha: float) -> dict:
    return {"kernel": KERNEL, "n": SV_N, "leaf_size": SV_LEAF, "max_rank": SV_RANK,
            "format": fmt, "params": {"alpha": alpha}}


def _miss_alpha(k: int) -> float:
    return 1.0 + 0.01 * (k + 1)


class Server:
    """A solver server process in its own process group, stopped on every path."""

    def __init__(self, run_dir: Path, traced: bool, tag: str) -> None:
        self.totals = run_dir / f"server-{tag}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "server.py"), "--workers", str(WORKERS),
                   "--totals", str(self.totals)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--backend", "parallel", "--workers", str(WORKERS)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, process_group=0,
                                     preexec_fn=procs.die_with_parent(signal.SIGINT))
        self.port = None
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        # The server's first line names the port it bound (a hung server is
        # stopped by the supervisor's timeout).
        line = self.proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"solver server did not start: {line!r}")
        return int(match.group(1))

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def get(self, path: str) -> bytes:
        with urllib.request.urlopen(self.url(path), timeout=30) as resp:
            return resp.read()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.returncode is None:
            procs.stop_group(self.proc.pid, self.proc)
        self.proc.stdout.close()


def _warm(server: Server, rng) -> None:
    """Serve one blocking solve per hot key, so their factorizations are cached."""
    for fmt, alpha in SV_HOT:
        body = dict(_problem(fmt, alpha), b=rng.standard_normal(SV_N).tolist())
        req = urllib.request.Request(server.url("/v1/solve"), data=json.dumps(body).encode())
        with urllib.request.urlopen(req, timeout=60) as resp:
            resp.read()


def _prometheus_sum(text: str, family: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(family) and (line[len(family)] in "{ "):
            total += float(line.rsplit(None, 1)[1])
    return total


def _plan(rng, phases: List[Tuple[str, float, float]], path: Path) -> Tuple[list, list]:
    """Write the load generator's plan: arrivals, right-hand sides, references.

    Requests are due at a constant rate.  Every ``1 / SV_MISS_SHARE``-th
    request names a miss key; the others name a hot key drawn at random.
    Right-hand sides come from a pool, and the reference solution of every
    (key, right-hand side) pair is solved locally beforehand.  Returns the
    construction and factorization times of those local builds.
    """
    from repro import StructuredSolver

    keys = list(SV_HOT) + [("hss", _miss_alpha(k)) for k in range(SV_MISS_KEYS)]
    pool = rng.standard_normal((SV_POOL, SV_N))
    refs = np.empty((len(keys), SV_POOL, SV_N))
    comp, fact = [], []
    for k, (fmt, alpha) in enumerate(keys):
        t0 = time.perf_counter()
        solver = StructuredSolver.from_kernel(
            KERNEL, n=SV_N, format=fmt, leaf_size=SV_LEAF, max_rank=SV_RANK, alpha=alpha)
        t1 = time.perf_counter()
        factor = solver.factorize()
        comp.append(t1 - t0)
        fact.append(time.perf_counter() - t1)
        refs[k] = factor.solve(pool.T).T
    period = round(1.0 / SV_MISS_SHARE)
    offset = int(rng.integers(period))
    arrays = {}
    misses = 0
    for name, rate, seconds in phases:
        # At least the requests the fixed tail percentile needs, however short the run.
        count = max(min_samples(TAIL_Q["serve-mixed"]), int(rate * seconds))
        problem = rng.integers(len(SV_HOT), size=count)
        for i in range(offset, count, period):
            problem[i] = len(SV_HOT) + misses % SV_MISS_KEYS
            misses += 1
        arrays.update({f"{name}_due": np.arange(count) / rate,
                       f"{name}_rhs": rng.integers(SV_POOL, size=count),
                       f"{name}_problem": problem})
    np.savez(path, phase_names=np.array([p[0] for p in phases]),
             phase_rates=np.array([p[1] for p in phases]),
             problems=np.array([json.dumps(_problem(*key))[1:-1].encode() for key in keys]),
             pool=pool, refs=refs, **arrays)
    return comp, fact


def _drive(server: Server, plan: Path, out: Path, timeout: float) -> dict:
    """Run the load generator process against ``server``; returns its result."""
    cmd = [sys.executable, str(HERE / "loadgen.py"), "--port", str(server.port),
           "--plan", str(plan), "--out", str(out),
           "--connections", str(min(WORKERS, len(os.sched_getaffinity(0))))]
    gen = subprocess.Popen(cmd, process_group=0, preexec_fn=procs.die_with_parent(signal.SIGTERM))
    try:
        code = gen.wait(timeout=timeout)
    finally:
        if gen.returncode is None:
            procs.stop_group(gen.pid, gen, grace=2.0)
    if code != 0:
        raise RuntimeError(f"load generator exited with {code}")
    return json.loads(out.read_text())


def serve_mixed(args, result: Result) -> None:
    run_dir = Path(args.run_dir)
    rng = np.random.default_rng(args.seed)
    S = float(args.seconds)
    light = ("light", SV_LIGHT_RPS, SV_SHARE["light"] * S)
    heavy = ("heavy", SV_HEAVY_RPS, SV_SHARE["heavy"] * S)
    m = result.metrics
    servers: List[Server] = []
    try:
        if not args.trace:
            setups = []
            for k in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                server = Server(run_dir, False, f"setup{k}")
                servers.append(server)
                _warm(server, rng)
                setups.append(time.perf_counter() - t0)
                if k < SETUP_REPEATS - 1:
                    server.stop()
            m["setup_s"] = median(setups)
            phases = [light, heavy,
                      ("saturation", SV_SATURATION_RPS, SV_SHARE["saturation"] * S)]
            comp, fact = _plan(rng, phases, run_dir / "plan.npz")
            res = _drive(server, run_dir / "plan.npz", run_dir / "out.json", 3 * S + 60)
            m["peak_rss_mb"] = server.peak_rss_mb()
            by = {ph["name"]: ph for ph in res["phases"]}
            _print_phases(res["phases"])
            _score(result, [by["light"], by["heavy"]], by.values())
            lat = [v * 1e3 for v in by["light"]["latency_s"]]
            m["solve_p50_ms"] = median(lat)
            set_tail(result, "serve-mixed", lat, "light-rate requests")
            sat = by["saturation"]
            m["solves_per_s"] = sat["ok"] / sat["span_s"] if sat["span_s"] else 0.0
            result.notes["solves_per_s"] = (
                f"solves answered per second while offered {SV_SATURATION_RPS:g}/s")
            heavy_lat = [v * 1e3 for v in by["heavy"]["latency_s"]]
            result.notes["heavy"] = (
                f"heavy {SV_HEAVY_RPS:g}/s: p50 {median(heavy_lat):.4g} ms, {tail_note(heavy_lat)}")
            # The served problems' builds, timed outside the server where no
            # request competes with them (the server's own miss times are
            # the per-layer service.miss_s).
            m["compress_s"], m["factorize_s"] = median(comp), median(fact)
            m["construction_err"] = max(
                _construction_err(fmt, alpha) for fmt, alpha in SV_HOT)
            return

        # Traced run: an untraced server for the overhead baseline, then
        # the benchmark's traced server for the per-layer figures.
        base = Server(run_dir, False, "base")
        servers.append(base)
        _warm(base, rng)
        _plan(rng, [light], run_dir / "plan-base.npz")
        res_base = _drive(base, run_dir / "plan-base.npz", run_dir / "out-base.json", 3 * S + 60)
        base.stop()
        server = Server(run_dir, True, "traced")
        servers.append(server)
        _warm(server, rng)
        os.kill(server.proc.pid, signal.SIGUSR1)  # drop the warm-up's spans
        stats0 = json.loads(server.get("/v1/stats"))
        metrics0 = server.get("/metrics").decode()
        _plan(rng, [light, heavy], run_dir / "plan.npz")
        res = _drive(server, run_dir / "plan.npz", run_dir / "out.json", 3 * S + 60)
        stats1 = json.loads(server.get("/v1/stats"))
        metrics1 = server.get("/metrics").decode()
        server.stop()
        totals = json.loads(server.totals.read_text())
    finally:
        for s in servers:
            s.stop()

    by = {ph["name"]: ph for ph in res["phases"]}
    _print_phases(res_base["phases"] + res["phases"])
    _score(result, [by["light"], by["heavy"]], by.values())
    _score(result, [], res_base["phases"])
    tracer = Tracer.from_snapshot(totals["tracer"])
    waits = totals["queue_wait"]
    base_p50 = median(res_base["phases"][0]["latency_s"])
    m["trace.overhead_frac"] = median(by["light"]["latency_s"]) / base_p50 - 1.0
    window = (waits["last_flush"] or 0.0) - (waits["first_flush"] or 0.0)
    reconcile(result, tracer, window, roots=["service.flush"])
    flush = tracer.layer("service.flush")
    d = {k: stats1[k] - stats0[k] for k in
         ("solves", "batches", "cache_hits", "cache_misses", "errors",
          "compress_seconds", "factorize_seconds")}
    m["service.flushes"] = flush.calls
    m["service.batch_rhs_mean"] = d["solves"] / max(d["batches"], 1)
    m["service.flush_s"] = flush.total_s / max(flush.calls, 1)
    m["service.queue_wait_ms"] = waits["sum_s"] / max(waits["count"], 1) * 1e3
    m["service.cache_hit_ratio"] = d["cache_hits"] / max(d["cache_hits"] + d["cache_misses"], 1)
    m["service.miss_s"] = (d["compress_seconds"] + d["factorize_seconds"]) / max(d["cache_misses"], 1)
    m["service.errors"] = d["errors"]
    reqs = res["requests"]
    server_s = (_prometheus_sum(metrics1, "repro_http_request_seconds_sum")
                - _prometheus_sum(metrics0, "repro_http_request_seconds_sum"))
    server_n = (_prometheus_sum(metrics1, "repro_http_request_seconds_count")
                - _prometheus_sum(metrics0, "repro_http_request_seconds_count"))
    m["http.requests"] = (_prometheus_sum(metrics1, "repro_http_requests_total")
                          - _prometheus_sum(metrics0, "repro_http_requests_total"))
    m["http.rejected_429"] = sum(ph["rejected_429"] for ph in res["phases"])
    m["http.rejected_503"] = sum(ph["rejected_503"] for ph in res["phases"])
    m["http.pending_polls"] = sum(ph["pending_polls"] for ph in res["phases"])
    m["http.overhead_ms"] = (res["rtt_s"] / max(reqs, 1) - server_s / max(server_n, 1)) * 1e3
    m["http.req_bytes"] = res["req_bytes"] / max(reqs, 1)
    m["http.resp_bytes"] = res["resp_bytes"] / max(reqs, 1)
    heavy_lat = [v * 1e3 for v in by["heavy"]["latency_s"]]
    m["serve.heavy_p50_ms"] = median(heavy_lat)
    m["serve.heavy_p99_ms"] = float(np.quantile(heavy_lat, 0.99)) if heavy_lat else 0.0
    m["loadgen.late_p99_ms"] = by["heavy"]["late_p99_s"] * 1e3
    m["loadgen.backlog_max"] = by["heavy"]["backlog_max"]
    comp = tracer.layer("compress")
    m["compress.other_s"] = comp.self_s / max(comp.calls, 1)
    record = tracer.layer("runtime.record")
    m["runtime.record_s"] = record.self_s / max(flush.calls, 1)
    m["runtime.record_us_per_task"] = record.self_s / max(record.count, 1) * 1e6
    m["runtime.execute_s"] = tracer.layer("runtime.execute").total_s / max(flush.calls, 1)
    kern = tracer.layer("kernels")
    low = tracer.layer("lowrank")
    m["kernels.calls"], m["kernels.entries"], m["kernels.busy_s"] = kern.calls, kern.count, kern.self_s
    m["lowrank.calls"], m["lowrank.busy_s"] = low.calls, low.self_s
    m["lowrank.rank_fill"] = low.count / max(low.calls, 1) / SV_RANK


def _p99_ms(phase: dict) -> float:
    return float(np.quantile(phase["latency_s"], 0.99)) * 1e3 if phase["latency_s"] else float("inf")


def _print_phases(phases) -> None:
    for ph in phases:
        lat = [v * 1e3 for v in ph["latency_s"]]
        p99 = _p99_ms(ph)
        print(f"phase {ph['name']}: offered {ph['rate']:g}/s, {ph['ok']}/{ph['attempted']} ok, "
              f"p50 {median(lat):.1f} ms, p99 {p99:.1f} ms, backlog "
              f"{ph['backlog_first_half']:.1f} -> {ph['backlog_second_half']:.1f} "
              f"(max {ph['backlog_max']}), generator late p99 {ph['late_p99_s'] * 1e3:.1f} ms, "
              f"{ph['pending_polls']} pending polls")


def _score(result: Result, counted, checked) -> None:
    """Count the fixed-rate phases' failures and check every phase's answers.

    A request refused (429/503) or left unanswered counts as failed.  A
    wrong solution or an error served fails the run, and so does a phase
    that answered no request correctly.
    """
    for ph in counted:
        result.attempted += ph["attempted"]
        result.failed += ph["attempted"] - ph["ok"]
    for ph in checked:
        rate = f"{ph['rate']:g}/s"
        if ph["wrong"]:
            result.fail(f"{ph['wrong']} wrong solution(s) served at {rate}")
        if ph["errors"]:
            result.fail(f"{ph['errors']} solve(s) failed in the server at {rate}")
        if not ph["ok"]:
            result.fail(f"no request answered correctly at {rate}")


def _construction_err(fmt: str, alpha: float) -> float:
    from repro import StructuredSolver

    return construction_err(StructuredSolver.from_kernel(
        KERNEL, n=SV_N, format=fmt, leaf_size=SV_LEAF, max_rank=SV_RANK, alpha=alpha))


# -- entry point -----------------------------------------------------------------
WORKLOADS: Dict[str, Callable] = {
    "factorize-dist": factorize_dist,
    "solve-stream": solve_stream,
    "serve-mixed": serve_mixed,
}


def emit(result: Result, trace: bool) -> bool:
    """Print every metric by name with its unit, then the JSON line; True if correct."""
    m = result.metrics
    if result.attempted:
        m["ok_frac"] = 1.0 - result.failed / result.attempted
    names = PER_LAYER if trace else END_TO_END
    out = {}
    for name, unit in names:
        value = float(m.get(name, 0.0))
        note = result.notes.get(name)
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        out[name] = {"value": value, "unit": unit}
    metrics = {name for name, _ in END_TO_END + PER_LAYER}
    for key, note in result.notes.items():
        if key not in metrics:
            print(f"note: {note}")
    if not trace:
        print(f"failed_frac = {result.failed / max(result.attempted, 1):.6g} "
              f"({result.failed} of {result.attempted})")
    for message in result.wrong[:20]:
        print(f"WRONG: {message}")
    correct = not result.wrong
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": out}), flush=True)
    return correct


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", help="scratch directory the supervisor made for this run")
    parser.add_argument("--blas-default-probe", action="store_true")
    parser.add_argument("--fail-after", type=float, default=None,
                        help="raise an injected failure this many seconds in (hygiene tests)")
    args = parser.parse_args()
    if args.blas_default_probe:
        blas_default_probe()
        return
    # The supervisor stops this process with SIGTERM; unwind through the
    # finally blocks that stop the server and the load generator.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.fail_after is not None:
        def injected(signum, frame):
            raise RuntimeError("injected failure")
        signal.signal(signal.SIGALRM, injected)
        signal.setitimer(signal.ITIMER_REAL, args.fail_after)
    print_stamp()
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", flush=True)
    result = Result()
    try:
        WORKLOADS[args.workload](args, result)
    finally:
        if args.fail_after is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
        _remove_run_dir(Path(args.run_dir))
    sys.exit(0 if emit(result, bool(args.trace)) else 1)


def _remove_run_dir(run_dir: Path) -> None:
    """Remove the supervisor's scratch directory for this run.

    The supervisor removes it too; this covers a supervisor killed by
    SIGKILL.  Only a directory inside ``.perfbench_run`` is touched.
    """
    if run_dir.resolve().parent.name != ".perfbench_run":
        return
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        run_dir.resolve().parent.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    main()
